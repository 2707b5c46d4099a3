// POSITIVE TWIN of sign_compare_must_fail.cpp, switch_enum_must_fail.cpp
// and unused_result_must_fail.cpp: the shapes the project's warning flags
// (DFX_WARNING_FLAGS in the top-level CMakeLists.txt) must accept. ctest
// compiles it with the same command line as the three negative probes and
// expects success, so those probes can only pass by tripping their -Werror
// flag, never by a broken include or an unknown option.
#include <cstddef>
#include <optional>
#include <vector>

namespace probe {

enum class FixKind { kRoll, kPatch, kRetry, kEscalate };
enum class Phase : unsigned char { kInit, kRun, kDone };

int sum_size_t_index(const std::vector<int>& v) {
  int total = 0;
  for (std::size_t i = 0; i < v.size(); ++i) total += v[i];  // unsigned index
  return total;
}

int count_to_fixed_bound(int n) {
  int total = 0;
  for (int i = 0; i < n; ++i) total += i;  // signed bound
  return total;
}

int sum_cast_bound(const std::vector<int>& v) {
  int total = 0;
  for (int i = 0; i < static_cast<int>(v.size()); ++i) total += v[i];
  return total;
}

int rank_defaulted(FixKind k) {
  switch (k) {  // has default
    case FixKind::kRoll:
      return 0;
    default:
      return -1;
  }
}

int rank_complete(Phase p) {
  switch (p) {  // exhaustive
    case Phase::kInit:
      return 0;
    case Phase::kRun:
      return 1;
    case Phase::kDone:
      return 2;
  }
  return -1;
}

int rank_plain_int(int v) {
  switch (v) {  // no enum at all
    case 1:
      return 0;
  }
  return -1;
}

[[nodiscard]] bool parse_record(const char* wire) { return wire != nullptr; }
[[nodiscard]] std::optional<int> decode_blob(const char* wire) {
  if (wire == nullptr) return std::nullopt;
  return 1;
}

int consume_statuses() {
  (void)decode_blob("a");  // deliberate discard, spelled out
  int total = 0;
  if (parse_record("b")) ++total;  // consumed by the condition
  const auto blob = decode_blob("c");  // stored and read
  return total + blob.value_or(0);
}

}  // namespace probe

int main() {
  const std::vector<int> v{1, 2};
  return probe::sum_size_t_index(v) + probe::count_to_fixed_bound(2) +
         probe::sum_cast_bound(v) + probe::rank_defaulted(probe::FixKind::kRoll) +
         probe::rank_complete(probe::Phase::kRun) + probe::rank_plain_int(1) +
         probe::consume_statuses();
}
