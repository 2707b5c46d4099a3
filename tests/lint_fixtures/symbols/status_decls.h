// Fixture: function declarations for the cross-TU symbol index. The tests
// index this header and then lint other fixtures against it — exactly how
// the real tool indexes src/ before linting. (Fixtures are linted and
// indexed, never compiled.)
#pragma once

#include <optional>
#include <set>
#include <vector>

namespace fixture {

enum class ErrorCode { kOk, kBad };

ErrorCode apply_fix(int record);
bool parse_record(const char* wire);
std::optional<int> decode_blob(const char* wire);
[[nodiscard]] int tagged_token();

// Not must-use: plain value returns and void.
int plain_sum(int a, int b);
void log_note(int code);
bool looks_ready(int state);

// Classified by the outermost return type: a container of statuses, or a
// pointer or reference to one, is not a status; a status of a container is.
std::set<ErrorCode> code_set(int n);
const std::vector<ErrorCode>& table3_codes();
std::vector<std::optional<int>> rank_plan(int n);
const ErrorCode* find_code(int n);
std::optional<std::vector<int>> decode_list(int n);
fixture::ErrorCode qualified_fix(int n);

// [[nodiscard]] behind a leading annotation macro; members after an access
// label, with a trailing thread annotation, or in a class nested after one.
DFX_HOT_PATH
[[nodiscard]] std::optional<int> hot_decode(const char* wire);
class Store {
 public:
  std::optional<int> first_member();
  std::optional<int> locked() const DFX_REQUIRES(mu_);

 private:
  struct Inner {
    std::optional<int> nested_member();
  };
};

}  // namespace fixture
