// NEGATIVE-COMPILE PROBE — must NOT build with the project's warning flags
// (DFX_WARNING_FLAGS in the top-level CMakeLists.txt). ctest runs
//
//   c++ -std=c++20 -fsyntax-only <DFX_WARNING_FLAGS> unused_result_must_fail.cpp
//
// with WILL_FAIL: a clean compile means -Werror=unused-result fell out of
// the flag list. Each statement below drops a [[nodiscard]] status — the
// five bare-call shapes dfixer_lint leaves to the compiler (its
// missing-nodiscard rule puts the attribute on every status-returning
// declaration). compiler_flags_must_pass.cpp holds the consumed shapes and
// shares this file's includes, so a broken include cannot pass this probe
// vacuously.
#include <cstddef>
#include <optional>
#include <vector>

namespace probe {

enum class ErrorCode { kOk, kBad };

[[nodiscard]] ErrorCode apply_fix(int record) {
  return record > 0 ? ErrorCode::kOk : ErrorCode::kBad;
}
[[nodiscard]] bool parse_record(const char* wire) { return wire != nullptr; }
[[nodiscard]] std::optional<int> decode_blob(const char* wire) {
  if (wire == nullptr) return std::nullopt;
  return 1;
}
[[nodiscard]] int tagged_token() { return 7; }

void exercise(int v) {
  apply_fix(v);                 // ErrorCode dropped
  parse_record("a");            // bool status dropped
  decode_blob("b");             // optional dropped
  tagged_token();               // plain [[nodiscard]] int dropped
  if (v > 0) decode_blob("c");  // the whole controlled statement drops it
}

}  // namespace probe

int main() {
  probe::exercise(1);
  return 0;
}
