// Small string utilities shared by parsers and report printers.
//
// Thread-safety: pure functions, no shared state; safe to call concurrently.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace dfx {

namespace strings_detail {

/// Byte b -> its ASCII lower case: 'A'..'Z' fold, every other byte
/// (bytes >= 0x80 included) maps to itself.
inline constexpr std::array<char, 256> kAsciiLower = [] {
  std::array<char, 256> table{};
  for (std::size_t b = 0; b < table.size(); ++b) {
    const bool upper = b >= 'A' && b <= 'Z';
    table[b] = static_cast<char>(upper ? b + ('a' - 'A') : b);
  }
  return table;
}();

}  // namespace strings_detail

/// ASCII lower case of one byte by table lookup. This is the only case fold
/// DNS has (RFC 4343 §3). It equals the C library's `tolower` in the "C"
/// locale, the only locale this program runs in, with no call per byte.
constexpr char ascii_lower(char c) {
  return strings_detail::kAsciiLower[static_cast<unsigned char>(c)];
}

/// Split on a single delimiter; empty fields are preserved.
std::vector<std::string> split(std::string_view text, char delim);

/// Split on runs of ASCII whitespace; empty fields are dropped.
std::vector<std::string> split_ws(std::string_view text);

/// Trim ASCII whitespace from both ends.
std::string_view trim(std::string_view text);

/// ASCII lower-case copy.
std::string to_lower(std::string_view text);

/// Case-insensitive ASCII comparison.
bool iequals(std::string_view a, std::string_view b);

/// True if `text` starts with `prefix`.
bool starts_with(std::string_view text, std::string_view prefix);

/// Join items with a separator.
std::string join(const std::vector<std::string>& items, std::string_view sep);

/// Format a double with fixed decimals (printf "%.*f").
std::string fmt_fixed(double v, int decimals);

/// Format like "12,345" with thousands separators (report tables).
std::string fmt_thousands(std::int64_t v);

}  // namespace dfx
