// Codec tests: RFC 4648 vectors plus property-style round-trip sweeps.
#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <string_view>

#include "util/codec.h"
#include "util/rng.h"

namespace dfx {
namespace {

TEST(Hex, EncodesKnownVectors) {
  EXPECT_EQ(hex_encode(to_bytes("")), "");
  EXPECT_EQ(hex_encode(to_bytes("foobar")), "666f6f626172");
  EXPECT_EQ(hex_encode(Bytes{0x00, 0xFF, 0x10}), "00ff10");
}

TEST(Hex, DecodesBothCases) {
  EXPECT_EQ(hex_decode("00FF10"), (Bytes{0x00, 0xFF, 0x10}));
  EXPECT_EQ(hex_decode("00ff10"), (Bytes{0x00, 0xFF, 0x10}));
}

TEST(Hex, DashDecodesToEmpty) {
  // DNS presentation convention for an empty NSEC3 salt.
  const auto decoded = hex_decode("-");
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->empty());
}

TEST(Hex, RejectsMalformed) {
  EXPECT_FALSE(hex_decode("abc").has_value());   // odd length
  EXPECT_FALSE(hex_decode("zz").has_value());    // non-hex
  EXPECT_FALSE(hex_decode("0g").has_value());
}

TEST(Base32Hex, Rfc4648Vectors) {
  // RFC 4648 §10 (unpadded form, upper case).
  EXPECT_EQ(base32hex_encode(to_bytes("")), "");
  EXPECT_EQ(base32hex_encode(to_bytes("f")), "CO");
  EXPECT_EQ(base32hex_encode(to_bytes("fo")), "CPNG");
  EXPECT_EQ(base32hex_encode(to_bytes("foo")), "CPNMU");
  EXPECT_EQ(base32hex_encode(to_bytes("foob")), "CPNMUOG");
  EXPECT_EQ(base32hex_encode(to_bytes("fooba")), "CPNMUOJ1");
  EXPECT_EQ(base32hex_encode(to_bytes("foobar")), "CPNMUOJ1E8");
}

TEST(Base32Hex, DecodeIsCaseInsensitive) {
  EXPECT_EQ(base32hex_decode("cpnmuoj1e8"), to_bytes("foobar"));
  EXPECT_EQ(base32hex_decode("CPNMUOJ1E8"), to_bytes("foobar"));
}

TEST(Base32Hex, RejectsInvalidCharacters) {
  EXPECT_FALSE(base32hex_decode("WXYZ!").has_value());  // W..Z not in b32hex
}

TEST(Base64, Rfc4648Vectors) {
  EXPECT_EQ(base64_encode(to_bytes("")), "");
  EXPECT_EQ(base64_encode(to_bytes("f")), "Zg==");
  EXPECT_EQ(base64_encode(to_bytes("fo")), "Zm8=");
  EXPECT_EQ(base64_encode(to_bytes("foo")), "Zm9v");
  EXPECT_EQ(base64_encode(to_bytes("foob")), "Zm9vYg==");
  EXPECT_EQ(base64_encode(to_bytes("fooba")), "Zm9vYmE=");
  EXPECT_EQ(base64_encode(to_bytes("foobar")), "Zm9vYmFy");
}

TEST(Base64, DecodeSkipsWhitespaceAndPadding) {
  EXPECT_EQ(base64_decode("Zm9v\nYmFy"), to_bytes("foobar"));
  EXPECT_EQ(base64_decode("Zm9vYg=="), to_bytes("foob"));
  EXPECT_EQ(base64_decode("Zm9vYg"), to_bytes("foob"));  // padding optional
}

TEST(Base64, RejectsInvalidCharacters) {
  EXPECT_FALSE(base64_decode("Zm9v*mFy").has_value());
}

class CodecRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CodecRoundTrip, AllCodecsInvertOnRandomBuffers) {
  Rng rng(GetParam() * 2654435761ULL + 1);
  Bytes data(GetParam());
  rng.fill(data);
  EXPECT_EQ(hex_decode(hex_encode(data)), data);
  EXPECT_EQ(base32hex_decode(base32hex_encode(data)), data);
  EXPECT_EQ(base64_decode(base64_encode(data)), data);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CodecRoundTrip,
                         ::testing::Values(0, 1, 2, 3, 4, 5, 7, 8, 19, 20,
                                           32, 33, 63, 64, 65, 255, 256,
                                           1000));

TEST(CodecRoundTripExhaustive, EveryLengthZeroTo96Inverts) {
  // 0..96 covers every residue of the base32hex 5-byte quantum and the
  // base64 3-byte quantum many times over — i.e. every padding length the
  // bit-packing loops can produce. Each length gets several fills so
  // high-bit patterns cross the group boundaries.
  Rng rng(0x0DEC0DE);
  for (std::size_t len = 0; len <= 96; ++len) {
    for (int round = 0; round < 4; ++round) {
      Bytes data(len);
      rng.fill(data);
      ASSERT_EQ(hex_decode(hex_encode(data)), data) << "len=" << len;
      ASSERT_EQ(base32hex_decode(base32hex_encode(data)), data)
          << "len=" << len;
      ASSERT_EQ(base64_decode(base64_encode(data)), data) << "len=" << len;
    }
  }
}

TEST(CodecRoundTripExhaustive, EncodedLengthsMatchRfc4648Arithmetic) {
  for (std::size_t len = 0; len <= 40; ++len) {
    const Bytes data(len, 0xA5);
    EXPECT_EQ(hex_encode(data).size(), len * 2);
    // Unpadded base32hex: ceil(len * 8 / 5) digits.
    EXPECT_EQ(base32hex_encode(data).size(), (len * 8 + 4) / 5);
    // Padded base64: groups of 3 bytes -> 4 digits.
    EXPECT_EQ(base64_encode(data).size(), ((len + 2) / 3) * 4);
  }
}

// ---------------------------------------------------------------------------
// Differential: the table-driven codecs against the retired branch-per-char
// implementations, replicated here as oracles. The rewrite claims identical
// observable behavior — including acceptance of padding, embedded
// whitespace, and rejection of out-of-alphabet characters.

namespace oracle {

int base32hex_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'A' && c <= 'V') return c - 'A' + 10;
  if (c >= 'a' && c <= 'v') return c - 'a' + 10;
  return -1;
}

int base64_value(char c) {
  if (c >= 'A' && c <= 'Z') return c - 'A';
  if (c >= 'a' && c <= 'z') return c - 'a' + 26;
  if (c >= '0' && c <= '9') return c - '0' + 52;
  if (c == '+') return 62;
  if (c == '/') return 63;
  return -1;
}

[[nodiscard]] std::optional<Bytes> base32hex_decode(std::string_view text) {
  Bytes out;
  std::uint32_t buffer = 0;
  int bits = 0;
  for (char c : text) {
    if (c == '=') break;
    const int v = base32hex_value(c);
    if (v < 0) return std::nullopt;
    buffer = (buffer << 5) | static_cast<std::uint32_t>(v);
    bits += 5;
    if (bits >= 8) {
      bits -= 8;
      out.push_back(static_cast<std::uint8_t>((buffer >> bits) & 0xFF));
    }
  }
  return out;
}

[[nodiscard]] std::optional<Bytes> base64_decode(std::string_view text) {
  Bytes out;
  std::uint32_t buffer = 0;
  int bits = 0;
  for (char c : text) {
    if (std::isspace(static_cast<unsigned char>(c)) != 0) continue;
    if (c == '=') break;
    const int v = base64_value(c);
    if (v < 0) return std::nullopt;
    buffer = (buffer << 6) | static_cast<std::uint32_t>(v);
    bits += 6;
    if (bits >= 8) {
      bits -= 8;
      out.push_back(static_cast<std::uint8_t>((buffer >> bits) & 0xFF));
    }
  }
  return out;
}

}  // namespace oracle

std::string random_text(Rng& rng, std::string_view alphabet,
                        std::size_t max_len) {
  std::string out;
  const std::size_t len = rng.uniform(max_len + 1);
  for (std::size_t i = 0; i < len; ++i) {
    out.push_back(alphabet[rng.uniform(alphabet.size())]);
  }
  return out;
}

TEST(CodecDifferential, Base32HexDecodeMatchesOldImplementation) {
  // Valid digits (both cases), padding, whitespace (rejected for b32hex),
  // and out-of-alphabet bytes.
  constexpr std::string_view kAlphabet =
      "0123456789ABCDEFGHIJKLMNOPQRSTUVabcdefuv= \n-wxyzWXYZ!~";
  Rng rng(0xB32);
  for (int i = 0; i < 5000; ++i) {
    const std::string text = random_text(rng, kAlphabet, 40);
    EXPECT_EQ(base32hex_decode(text), oracle::base32hex_decode(text))
        << "input: " << text;
  }
}

TEST(CodecDifferential, Base64DecodeMatchesOldImplementation) {
  constexpr std::string_view kAlphabet =
      "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"
      "+/= \t\n\r*!";
  Rng rng(0xB64);
  for (int i = 0; i < 5000; ++i) {
    const std::string text = random_text(rng, kAlphabet, 40);
    EXPECT_EQ(base64_decode(text), oracle::base64_decode(text))
        << "input: " << text;
  }
}

TEST(CodecDifferential, PaddingMidStringTruncatesLikeOldImplementation) {
  // '=' stops decoding and ignores everything after — even garbage. The
  // old loop `break`ed there; the tables must preserve that quirk.
  EXPECT_EQ(base64_decode("Zm9v=@@@@"), oracle::base64_decode("Zm9v=@@@@"));
  EXPECT_EQ(base32hex_decode("CO=zz"), oracle::base32hex_decode("CO=zz"));
  EXPECT_EQ(base64_decode("="), oracle::base64_decode("="));
}

}  // namespace
}  // namespace dfx
