// NEGATIVE-COMPILE PROBE — must NOT build with the project's warning flags
// (DFX_WARNING_FLAGS in the top-level CMakeLists.txt). ctest runs
//
//   c++ -std=c++20 -fsyntax-only <DFX_WARNING_FLAGS> sign_compare_must_fail.cpp
//
// with WILL_FAIL: a clean compile means -Werror=sign-compare fell out of the
// flag list. A signed index compared against a container size promotes the
// comparison to unsigned, the classic wire-offset wraparound.
// compiler_flags_must_pass.cpp holds the accepted shapes and shares this
// file's includes, so a broken include cannot pass this probe vacuously.
#include <cstddef>
#include <vector>

namespace probe {

int sum_signed_index(const std::vector<int>& v) {
  int total = 0;
  for (int i = 0; i < v.size(); ++i) total += v[i];
  return total;
}

long sum_long_index(const std::vector<int>& v) {
  long total = 0;
  for (long i = 0; i <= v.size() - 1; ++i) total += v[i];
  return total;
}

}  // namespace probe

int main() { return probe::sum_signed_index({1}) + probe::sum_long_index({1}); }
