// Fixture: must-use declarations (ErrorCode, std::optional, std::variant or
// status-named bool returns, per the symbol index) without [[nodiscard]].
#pragma once

#include <optional>
#include <string>
#include <variant>

namespace fixture {

std::optional<int> parse_level(const std::string& text);  // line 11: missing

bool validate_record(const std::string& text);  // line 13: missing

std::variant<int, std::string> decode_flags(const std::string& text);  // 15

[[nodiscard]] bool verify_chain(const std::string& text);  // ok: annotated

std::string render_name(int level);  // ok: not a status return

bool ready();  // ok: not a parse/validate/verify/decode name

std::optional<int> cached_level();  // line 23: missing (optional, any name)

#define DFX_HOT_PATH
DFX_HOT_PATH [[nodiscard]] std::optional<int> hot_level();  // ok: annotated

}  // namespace fixture
