#include "util/codec.h"

#include <array>
#include <cctype>

namespace dfx {
namespace {

constexpr char kHexDigits[] = "0123456789abcdef";
constexpr char kBase32Hex[] = "0123456789ABCDEFGHIJKLMNOPQRSTUV";
constexpr char kBase64[] =
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

// Decode tables: one 256-entry lookup per alphabet replaces the per-char
// compare chains, so the decode inner loops are branchless except for the
// single `< 0` validity test. Sentinel values (all < 0):
//   kBad  — byte is not in the alphabet (decode fails)
//   kPad  — '=' padding (ends the payload)
//   kSkip — whitespace (ignored where the codec allows it)
constexpr std::int8_t kBad = -1;
constexpr std::int8_t kPad = -2;
constexpr std::int8_t kSkip = -3;

using DecodeTable = std::array<std::int8_t, 256>;

constexpr DecodeTable make_hex_table() {
  DecodeTable t{};
  for (auto& v : t) v = kBad;
  for (int i = 0; i < 10; ++i) t[static_cast<std::size_t>('0' + i)] =
      static_cast<std::int8_t>(i);
  for (int i = 0; i < 6; ++i) {
    t[static_cast<std::size_t>('a' + i)] = static_cast<std::int8_t>(10 + i);
    t[static_cast<std::size_t>('A' + i)] = static_cast<std::int8_t>(10 + i);
  }
  return t;
}

constexpr DecodeTable make_base32hex_table() {
  DecodeTable t{};
  for (auto& v : t) v = kBad;
  for (int i = 0; i < 10; ++i) t[static_cast<std::size_t>('0' + i)] =
      static_cast<std::int8_t>(i);
  for (int i = 0; i < 22; ++i) {  // A..V / a..v
    t[static_cast<std::size_t>('A' + i)] = static_cast<std::int8_t>(10 + i);
    t[static_cast<std::size_t>('a' + i)] = static_cast<std::int8_t>(10 + i);
  }
  t[static_cast<std::size_t>('=')] = kPad;
  return t;
}

constexpr DecodeTable make_base64_table() {
  DecodeTable t{};
  for (auto& v : t) v = kBad;
  for (int i = 0; i < 26; ++i) {
    t[static_cast<std::size_t>('A' + i)] = static_cast<std::int8_t>(i);
    t[static_cast<std::size_t>('a' + i)] = static_cast<std::int8_t>(26 + i);
  }
  for (int i = 0; i < 10; ++i) t[static_cast<std::size_t>('0' + i)] =
      static_cast<std::int8_t>(52 + i);
  t[static_cast<std::size_t>('+')] = 62;
  t[static_cast<std::size_t>('/')] = 63;
  t[static_cast<std::size_t>('=')] = kPad;
  // base64_decode historically skipped ASCII whitespace (PEM-style input).
  for (unsigned char c : {' ', '\t', '\n', '\v', '\f', '\r'}) t[c] = kSkip;
  return t;
}

constexpr DecodeTable kHexTable = make_hex_table();
constexpr DecodeTable kBase32HexTable = make_base32hex_table();
constexpr DecodeTable kBase64Table = make_base64_table();

}  // namespace

std::string hex_encode(ByteView data) {
  std::string out;
  out.resize(data.size() * 2);
  char* p = out.data();
  for (std::uint8_t b : data) {
    *p++ = kHexDigits[b >> 4];
    *p++ = kHexDigits[b & 0xF];
  }
  return out;
}

[[nodiscard]] std::optional<Bytes> hex_decode(std::string_view text) {
  if (text == "-") return Bytes{};
  if (text.size() % 2 != 0) return std::nullopt;
  Bytes out(text.size() / 2);
  std::uint8_t* p = out.data();
  for (std::size_t i = 0; i < text.size(); i += 2) {
    const std::int8_t hi = kHexTable[static_cast<std::uint8_t>(text[i])];
    const std::int8_t lo = kHexTable[static_cast<std::uint8_t>(text[i + 1])];
    if ((hi | lo) < 0) return std::nullopt;  // one test for both digits
    *p++ = static_cast<std::uint8_t>((hi << 4) | lo);
  }
  return out;
}

// dfx-lint: allow(hot-path-cost): the output buffer is the product.
std::string base32hex_encode(ByteView data) {
  std::string out;
  out.reserve((data.size() * 8 + 4) / 5);
  std::uint32_t buffer = 0;
  int bits = 0;
  for (std::uint8_t b : data) {
    buffer = (buffer << 8) | b;
    bits += 8;
    while (bits >= 5) {
      bits -= 5;
      out.push_back(kBase32Hex[(buffer >> bits) & 0x1F]);
    }
  }
  if (bits > 0) {
    out.push_back(kBase32Hex[(buffer << (5 - bits)) & 0x1F]);
  }
  return out;
}

// dfx-lint: allow(hot-path-cost): the output buffer is the product.
[[nodiscard]] std::optional<Bytes> base32hex_decode(std::string_view text) {
  Bytes out(text.size() * 5 / 8);
  const auto length = base32hex_decode_to(text, out.data());
  if (!length) return std::nullopt;
  out.resize(*length);
  return out;
}

[[nodiscard]] std::optional<std::size_t> base32hex_decode_to(
    std::string_view text, std::uint8_t* out) {
  std::size_t length = 0;
  std::uint32_t buffer = 0;
  int bits = 0;
  for (char c : text) {
    const std::int8_t v = kBase32HexTable[static_cast<std::uint8_t>(c)];
    if (v < 0) {
      if (v == kPad) break;  // padding: remainder must be zero bits
      return std::nullopt;
    }
    buffer = (buffer << 5) | static_cast<std::uint32_t>(v);
    bits += 5;
    if (bits >= 8) {
      bits -= 8;
      out[length++] = static_cast<std::uint8_t>((buffer >> bits) & 0xFF);
    }
  }
  return length;
}

// dfx-lint: allow(hot-path-cost): the output buffer is the product.
std::string base64_encode(ByteView data) {
  std::string out;
  out.resize(((data.size() + 2) / 3) * 4);
  char* p = out.data();
  std::size_t i = 0;
  for (; i + 3 <= data.size(); i += 3) {
    const std::uint32_t v = (static_cast<std::uint32_t>(data[i]) << 16) |
                            (static_cast<std::uint32_t>(data[i + 1]) << 8) |
                            data[i + 2];
    *p++ = kBase64[(v >> 18) & 0x3F];
    *p++ = kBase64[(v >> 12) & 0x3F];
    *p++ = kBase64[(v >> 6) & 0x3F];
    *p++ = kBase64[v & 0x3F];
  }
  const std::size_t rem = data.size() - i;
  if (rem == 1) {
    const std::uint32_t v = static_cast<std::uint32_t>(data[i]) << 16;
    *p++ = kBase64[(v >> 18) & 0x3F];
    *p++ = kBase64[(v >> 12) & 0x3F];
    *p++ = '=';
    *p++ = '=';
  } else if (rem == 2) {
    const std::uint32_t v = (static_cast<std::uint32_t>(data[i]) << 16) |
                            (static_cast<std::uint32_t>(data[i + 1]) << 8);
    *p++ = kBase64[(v >> 18) & 0x3F];
    *p++ = kBase64[(v >> 12) & 0x3F];
    *p++ = kBase64[(v >> 6) & 0x3F];
    *p++ = '=';
  }
  return out;
}

// dfx-lint: allow(hot-path-cost): the output buffer is the product.
[[nodiscard]] std::optional<Bytes> base64_decode(std::string_view text) {
  Bytes out;
  out.reserve(text.size() * 3 / 4);
  std::uint32_t buffer = 0;
  int bits = 0;
  for (char c : text) {
    const std::int8_t v = kBase64Table[static_cast<std::uint8_t>(c)];
    if (v < 0) {
      if (v == kSkip) continue;  // whitespace is tolerated (PEM-style)
      if (v == kPad) break;
      return std::nullopt;
    }
    buffer = (buffer << 6) | static_cast<std::uint32_t>(v);
    bits += 6;
    if (bits >= 8) {
      bits -= 8;
      out.push_back(static_cast<std::uint8_t>((buffer >> bits) & 0xFF));
    }
  }
  return out;
}

}  // namespace dfx
