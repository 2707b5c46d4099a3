// NEGATIVE-COMPILE PROBE — must NOT build with the project's warning flags
// (DFX_WARNING_FLAGS in the top-level CMakeLists.txt). ctest runs
//
//   c++ -std=c++20 -fsyntax-only <DFX_WARNING_FLAGS> switch_enum_must_fail.cpp
//
// with WILL_FAIL: a clean compile means -Werror=switch fell out of the flag
// list. A switch over an enum that misses an enumerator and has no default
// silently drops the new case. compiler_flags_must_pass.cpp holds the
// accepted shapes.

namespace probe {

enum class FixKind { kRoll, kPatch, kRetry, kEscalate };
enum Flavor { kSweet, kSour, kBitter };

int rank_incomplete(FixKind k) {
  switch (k) {  // misses kEscalate
    case FixKind::kRoll:
      return 0;
    case FixKind::kPatch:
      return 1;
    case FixKind::kRetry:
      return 2;
  }
  return -1;
}

int flavor_rank_unqualified(Flavor f) {
  switch (f) {  // misses kBitter
    case kSweet:
      return 0;
    case kSour:
      return 1;
  }
  return -1;
}

}  // namespace probe

int main() {
  return probe::rank_incomplete(probe::FixKind::kRoll) +
         probe::flavor_rank_unqualified(probe::kSweet);
}
