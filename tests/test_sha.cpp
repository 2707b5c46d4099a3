// Hash function tests against FIPS 180-4 / RFC test vectors.
#include <gtest/gtest.h>

#include "crypto/sha1.h"
#include "crypto/sha2.h"
#include "util/codec.h"

namespace dfx::crypto {
namespace {

std::string sha1_hex(std::string_view s) {
  return hex_encode(Sha1::digest(as_bytes(s)));
}

TEST(Sha1, KnownVectors) {
  EXPECT_EQ(sha1_hex(""), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
  EXPECT_EQ(sha1_hex("abc"), "a9993e364706816aba3e25717850c26c9cd0d89d");
  EXPECT_EQ(sha1_hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1, MillionAs) {
  Sha1 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(as_bytes(chunk));
  const auto d = h.finish();
  EXPECT_EQ(hex_encode(ByteView(d)),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1, IncrementalMatchesOneShot) {
  const std::string text =
      "The quick brown fox jumps over the lazy dog, repeatedly, to cross "
      "block boundaries in interesting ways.";
  for (std::size_t split = 0; split <= text.size(); split += 7) {
    Sha1 h;
    h.update(as_bytes(std::string_view(text).substr(0, split)));
    h.update(as_bytes(std::string_view(text).substr(split)));
    const auto d = h.finish();
    EXPECT_EQ(Bytes(d.begin(), d.end()), Sha1::digest(as_bytes(text)));
  }
}

TEST(Sha256, KnownVectors) {
  EXPECT_EQ(hex_encode(sha256(as_bytes(""))),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(hex_encode(sha256(as_bytes("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(
      hex_encode(sha256(as_bytes(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha224, KnownVectors) {
  EXPECT_EQ(hex_encode(sha224(as_bytes("abc"))),
            "23097d223405d8228642a477bda255b32aadbce4bda0b3f7e36c9da7");
}

TEST(Sha384, KnownVectors) {
  EXPECT_EQ(hex_encode(sha384(as_bytes("abc"))),
            "cb00753f45a35e8bb5a03d699ac65007272c32ab0eded1631a8b605a43ff5bed"
            "8086072ba1e7cc2358baeca134c825a7");
}

TEST(Sha512, KnownVectors) {
  EXPECT_EQ(hex_encode(sha512(as_bytes("abc"))),
            "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a"
            "2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f");
  EXPECT_EQ(hex_encode(sha512(as_bytes(""))),
            "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce"
            "47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e");
}

TEST(Sha2, DigestSizes) {
  EXPECT_EQ(sha224(as_bytes("x")).size(), 28u);
  EXPECT_EQ(sha256(as_bytes("x")).size(), 32u);
  EXPECT_EQ(sha384(as_bytes("x")).size(), 48u);
  EXPECT_EQ(sha512(as_bytes("x")).size(), 64u);
}

/// Digests of the bytes (i * 31 + 7) mod 256, i < length, at every length
/// near the 64/128-byte block boundaries, computed independently with
/// Python's hashlib.
struct BoundaryDigests {
  std::size_t length;
  const char* sha1;
  const char* sha256;
  const char* sha512;
};

constexpr BoundaryDigests kBoundaryDigests[] = {
    {0,
     "da39a3ee5e6b4b0d3255bfef95601890afd80709",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce"
     "47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e"},
    {1,
     "5d1be7e9dda1ee8896be5b7e34a85ee16452a7b4",
     "ca358758f6d27e6cf45272937977a748fd88391db679ceda7dc7bf1f005ee879",
     "365d11a1dfe610b60efa996136d37ab8afd2715b8c6bc2850dc5e6005b702bb9"
     "f59b0f306ecb2c43ee44c429967d45843524eb2f7c16aab9bde142ee268b51c6"},
    {55,
     "749bbefb28edc4638b28b2b9a9e03ab9a4032b90",
     "8aa994584139d128848eeebc4e815639ba5ab6e6e39574195a63ac4f14f7c43b",
     "330eb5e81b4d722cae1e0efbf883efb180c3e346d2b3b797dafc90409583ed35"
     "af65dc2d7974a353f0c21663e196b60d3ee5a2c70c50b7b3bccdb93a5dbce6bf"},
    {56,
     "a5b6e9c29d201c774753ff8e7fb64931656f5e63",
     "ad574708f75c044c9b85de64cb568ee7711ff4f36448c6242f053ba8f6cc2b63",
     "1b5b63bfd5420b2dc480abce3dbdb3e19e5f9d4fabffba7764883937eaae878a"
     "55362c938c141712c44c3076c3fabb2c60814c2994c311c33049a8d6de2a8898"},
    {57,
     "eb0737bed5451790722b2df351829ce117e3d9dd",
     "5b46e502092be01b1100193e089fdda95638c12e19a1d24f308eb2c3d3ae849d",
     "909cad7c59ce1bf85c5f52fa6ad3104cddccce5e380453f124c6a3c570c421dc"
     "6a6160c4d42abb0cf71f735bd81cbbe08355b400961361f5050f3fab673aa418"},
    {63,
     "d1a454409359fc372b4d22b3cea6488d6ba1be00",
     "280ed3e8ff1df845b2e7dfe6ac6cee817bef20e783cc65abc41b818b4d2fe076",
     "b16f76c30db64b5ee1ef166d2d37e13ff6cee9fd88bae9ba283cd58e0a2133b2"
     "20a76db56279406461f84ce2cffd1d116d38fd9f38fc5df18770a987ff695499"},
    {64,
     "39a0d8b645ad85f1f976731ed112ac9455e28b78",
     "c6ab9724ade5b6a7a1edfffb12f3aa9181351355af8fd08c919952ad211339dd",
     "4c7aba3659929c4fd87604c532a3b5f174d0626b2d661dbbbfac76c97a49a5a7"
     "789d2c68324c754f66bf629fa72054f334feaad8b1cf4c885ae03a1e634afc18"},
    {65,
     "d0c96e18890114a14716e9686528d2e3fdba8d9e",
     "788367c73c7ddf4c53f65e68cc0d943e6227ab55b0e78ba63ace822b1c6301c0",
     "31ad8ce60482e91ec7f83455c280f2dbb4940a400795ae90815bc86891210ebe"
     "07b51995eb2d123d6a55a79a998e20cc07716aea7848f6c955b4a4bf14ad0b0a"},
    {111,
     "b7b42d19ae6be209c36efe0c5dfe5bde4d306c43",
     "dd1413178fb627f9abbc041ffe39c44aa7aaa0e2e6d2ca5c4528ac7073a2da45",
     "da780d8338a8a920ceb6892cb4ecbb0cc0c66956269aadd5dd0f48790a00857b"
     "d975890f3b2955a317738cc7a770820c29f922ffbc22020f1909d594cc987d1b"},
    {112,
     "11e920cd4ed45c60c05a916e48a942f9e39c770b",
     "a65c92dac124062d0ab951a42773cb04fc98d1d4bf8897b176f8cff3509d379e",
     "053182f7fa4e59f8636e415a77ed4fdc650f0a43834c9d35adf899599c3ab9c4"
     "153f02ff50bd01888060cd36a6fa12d9db242fc35164c80135613514186d5843"},
    {113,
     "2a7237734453edb508687d4fcec7e027f10be533",
     "6f184b6619128e865ecb2b3ea96c03d461f0664d87689480988dbee53a449161",
     "766fea2f90094ecec1166ea4d6e9ddc6ae6fbe4a060e049300ecbe631a7d6547"
     "409b6ac39865409e6dd5dada112955fddf32698feb98806c1910f446ac5af7e3"},
    {127,
     "bebc42d2d3d1e5fb8ad8895c2dcef2d68a6c279a",
     "192409cd280e14b743642ad1343fbd3e82d9305de72c078117745a679210cc3d",
     "a7a75593826fd37d4e60f6101eabb9f8ab1cf4d5319ebc805266d5da8deb5097"
     "de1a235fc5d9d3d73c50ac100ffc75089fb454674ab61232091bd19cbdc67396"},
    {128,
     "0060f2a7e34b6e4d459f560197ef93243732a400",
     "cc548ca2dec1f6fe4f58b2e27aa9c7521607df1130d140b55a4dad0665302356",
     "df007a08f3aaae47e0c92ef840ecd43645ae6098c819f2a4a66174ef1cd49e5c"
     "6dfccf0616895e570b7564af641de5863dff9f89c752913d30cf0ecf678e1635"},
    {129,
     "3a16082d1bf09b604907ec6908b9893ca3e937c0",
     "81e89a7b2911aaa7795f9e3d4910cb47d6cd2b00d83b8399481527261a1a7519",
     "a10ea769b79831bca33e9efb29fc501ded6e9c88885d079acb76eecaa8ac58d6"
     "8bdc7e00103053e1519352c0d064c87accc3d553a6039decc2c4f1e7667eef79"},
    {200,
     "9194d8145e556594766df1e7699e2dfda424d1ee",
     "44cae5223d431caed4a9e32271d6abf17c3f2f4abac45fcdb48a99fcc6072a09",
     "5d625ba6509497bd2ca98040de4ae84cdf2ecd52a5340287d3ca2e4fb1eeb543"
     "5ad15f7775f714e2ae44173e6a8838902c223d223bf324cdd01c93626d9de5ae"},
};

class ShaBlockBoundary : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ShaBlockBoundary, LengthsAroundBlockSizeHashConsistently) {
  // The padding edge cases: the known digest, reached both by hashing in
  // one call and by hashing byte at a time.
  const std::size_t n = GetParam();
  const BoundaryDigests* want = nullptr;
  for (const auto& row : kBoundaryDigests) {
    if (row.length == n) want = &row;
  }
  ASSERT_NE(want, nullptr) << "no pinned digests for length " << n;
  Bytes data(n);
  for (std::size_t i = 0; i < n; ++i) {
    data[i] = static_cast<std::uint8_t>(i * 31 + 7);
  }
  EXPECT_EQ(hex_encode(Sha1::digest(data)), want->sha1);
  EXPECT_EQ(hex_encode(sha256(data)), want->sha256);
  EXPECT_EQ(hex_encode(sha512(data)), want->sha512);

  Sha1 incremental1;
  for (const auto b : data) incremental1.update({&b, 1});
  const auto d1 = incremental1.finish();
  EXPECT_EQ(hex_encode(ByteView(d1)), want->sha1);

  Sha256Core incremental(false);
  for (const auto b : data) incremental.update({&b, 1});
  EXPECT_EQ(hex_encode(incremental.finish()), want->sha256);

  Sha512Core incremental512(false);
  for (const auto b : data) incremental512.update({&b, 1});
  EXPECT_EQ(hex_encode(incremental512.finish()), want->sha512);
}

INSTANTIATE_TEST_SUITE_P(Boundaries, ShaBlockBoundary,
                         ::testing::Values(0, 1, 55, 56, 57, 63, 64, 65,
                                           111, 112, 113, 127, 128, 129,
                                           200));

}  // namespace
}  // namespace dfx::crypto
