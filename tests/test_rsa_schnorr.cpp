// Signature scheme tests: correctness, tamper resistance, cross-key and
// cross-domain rejection.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>

#include "bignum_reference.h"
#include "crypto/rsa.h"
#include "crypto/schnorr.h"
#include "crypto/sha2.h"
#include "util/rng.h"

namespace dfx::crypto {
namespace {

TEST(Rsa, SignVerifyRoundTrip) {
  Rng rng(1);
  const auto key = rsa_generate(rng, 256);
  const Bytes digest = sha256(as_bytes("hello dnssec"));
  const Bytes truncated(digest.begin(), digest.begin() + 20);
  const Bytes sig = rsa_sign(key, truncated);
  EXPECT_TRUE(rsa_verify(key.pub, truncated, sig));
}

TEST(Rsa, RejectsTamperedDigest) {
  Rng rng(2);
  const auto key = rsa_generate(rng, 256);
  Bytes digest(20, 0x42);
  const Bytes sig = rsa_sign(key, digest);
  digest[0] ^= 1;
  EXPECT_FALSE(rsa_verify(key.pub, digest, sig));
}

TEST(Rsa, RejectsTamperedSignature) {
  Rng rng(3);
  const auto key = rsa_generate(rng, 256);
  const Bytes digest(20, 0x42);
  Bytes sig = rsa_sign(key, digest);
  sig[sig.size() / 2] ^= 0x10;
  EXPECT_FALSE(rsa_verify(key.pub, digest, sig));
}

TEST(Rsa, RejectsWrongKey) {
  Rng rng(4);
  const auto key1 = rsa_generate(rng, 256);
  const auto key2 = rsa_generate(rng, 256);
  const Bytes digest(20, 0x42);
  const Bytes sig = rsa_sign(key1, digest);
  EXPECT_FALSE(rsa_verify(key2.pub, digest, sig));
}

TEST(Rsa, RejectsWrongLengthSignature) {
  Rng rng(5);
  const auto key = rsa_generate(rng, 256);
  const Bytes digest(20, 0x42);
  Bytes sig = rsa_sign(key, digest);
  sig.pop_back();
  EXPECT_FALSE(rsa_verify(key.pub, digest, sig));
}

TEST(Rsa, PublicKeyEncodeDecode) {
  Rng rng(6);
  const auto key = rsa_generate(rng, 256);
  const Bytes wire = key.pub.encode();
  RsaPublicKey decoded;
  ASSERT_TRUE(RsaPublicKey::decode(wire, decoded));
  EXPECT_EQ(decoded.n, key.pub.n);
  EXPECT_EQ(decoded.e, key.pub.e);
}

TEST(Rsa, DecodeRejectsGarbage) {
  RsaPublicKey out;
  EXPECT_FALSE(RsaPublicKey::decode(Bytes{}, out));
  EXPECT_FALSE(RsaPublicKey::decode(Bytes{0x00}, out));
  EXPECT_FALSE(RsaPublicKey::decode(Bytes{0x05, 0x01}, out));  // truncated
}

TEST(Rsa, SignatureIsModulusSized) {
  Rng rng(7);
  const auto key = rsa_generate(rng, 256);
  const Bytes sig = rsa_sign(key, Bytes(20, 1));
  EXPECT_EQ(sig.size(), (key.pub.n.bit_length() + 7) / 8);
}

// Known answer: the public key, private exponent and signatures over fixed
// digests of `rsa_generate(Rng(s), 256)` for s = 1..64, folded into one
// SHA-256. The value was computed with the plain square-and-multiply
// `modexp`, so it pins the RNG stream through prime search as well as the
// arithmetic: every key, key tag and RRSIG downstream depends on both.
TEST(Rsa, KnownAnswerKeysAndSignatures) {
  Bytes transcript;
  for (std::uint64_t s = 1; s <= 64; ++s) {
    Rng rng(s);
    const auto key = rsa_generate(rng, 256);
    append(transcript, key.pub.encode());
    append(transcript, key.d.to_bytes());
    for (const std::uint8_t fill : {0x00, 0x5A, 0xFF}) {
      append(transcript, rsa_sign(key, Bytes(20, fill)));
    }
  }
  const Bytes digest = sha256(transcript);
  char hex[17];
  for (std::size_t i = 0; i < 8; ++i) {
    std::snprintf(hex + 2 * i, 3, "%02x", digest[i]);
  }
  EXPECT_STREQ(hex, "ad19a61741fb4e36");
}

// CRT signing (RFC 8017 §5.1.2, RSASP1 step 2.b) is an identity: for the
// known-answer keys and random digests it equals pad(digest)^d mod n by
// the plain reference modexp, padded to the modulus size.
TEST(Rsa, CrtSignMatchesPlainModexp) {
  Rng digests(99);
  for (std::uint64_t s = 1; s <= 64; ++s) {
    Rng rng(s);
    const auto key = rsa_generate(rng, 256);
    const std::size_t k = (key.pub.n.bit_length() + 7) / 8;
    for (int i = 0; i < 16; ++i) {
      Bytes digest(20);
      digests.fill(digest);
      // 0x00 0x01 FF..FF 0x00 digest, as rsa.cpp pads.
      Bytes em(k, 0xFF);
      em[0] = 0x00;
      em[1] = 0x01;
      em[k - digest.size() - 1] = 0x00;
      std::copy(digest.begin(), digest.end(), em.end() - 20);
      const BigNum plain =
          reference_modexp(BigNum::from_bytes(em), key.d, key.pub.n);
      EXPECT_EQ(rsa_sign(key, digest), plain.to_bytes_padded(k))
          << "key seed " << s << ", digest " << i;
    }
  }
}

TEST(Schnorr, SignVerifyRoundTrip) {
  Rng rng(10);
  const auto key = schnorr_generate(rng);
  const Bytes msg = to_bytes("the rrset signing buffer");
  const Bytes sig = schnorr_sign(key, msg, 13);
  EXPECT_TRUE(schnorr_verify(key.pub, msg, sig, 13));
}

TEST(Schnorr, RejectsTamperedMessage) {
  Rng rng(11);
  const auto key = schnorr_generate(rng);
  Bytes msg = to_bytes("authentic data");
  const Bytes sig = schnorr_sign(key, msg, 13);
  msg[0] ^= 1;
  EXPECT_FALSE(schnorr_verify(key.pub, msg, sig, 13));
}

TEST(Schnorr, RejectsTamperedSignature) {
  Rng rng(12);
  const auto key = schnorr_generate(rng);
  const Bytes msg = to_bytes("authentic data");
  Bytes sig = schnorr_sign(key, msg, 13);
  sig[3] ^= 0x80;
  EXPECT_FALSE(schnorr_verify(key.pub, msg, sig, 13));
}

TEST(Schnorr, RejectsWrongDomainTag) {
  // The same key must not validate across DNSSEC algorithm numbers.
  Rng rng(13);
  const auto key = schnorr_generate(rng);
  const Bytes msg = to_bytes("data");
  const Bytes sig = schnorr_sign(key, msg, 13);
  EXPECT_FALSE(schnorr_verify(key.pub, msg, sig, 14));
}

TEST(Schnorr, RejectsWrongKey) {
  Rng rng(14);
  const auto key1 = schnorr_generate(rng);
  const auto key2 = schnorr_generate(rng);
  const Bytes msg = to_bytes("data");
  const Bytes sig = schnorr_sign(key1, msg, 15);
  EXPECT_FALSE(schnorr_verify(key2.pub, msg, sig, 15));
}

TEST(Schnorr, RejectsMalformedInputs) {
  Rng rng(15);
  const auto key = schnorr_generate(rng);
  const Bytes msg = to_bytes("data");
  EXPECT_FALSE(schnorr_verify(key.pub, msg, Bytes(15, 0), 13));  // short
  EXPECT_FALSE(schnorr_verify(0, msg, Bytes(16, 0), 13));        // pub = 0
}

TEST(Schnorr, PubKeyEncodeDecode) {
  Rng rng(16);
  const auto key = schnorr_generate(rng);
  std::uint64_t decoded = 0;
  ASSERT_TRUE(schnorr_decode_pub(schnorr_encode_pub(key.pub), decoded));
  EXPECT_EQ(decoded, key.pub);
  EXPECT_FALSE(schnorr_decode_pub(Bytes(7, 0), decoded));
}

TEST(Schnorr, DeterministicSignatures) {
  Rng rng(17);
  const auto key = schnorr_generate(rng);
  const Bytes msg = to_bytes("same input");
  EXPECT_EQ(schnorr_sign(key, msg, 13), schnorr_sign(key, msg, 13));
}

class SchnorrSweep : public ::testing::TestWithParam<int> {};

TEST_P(SchnorrSweep, ManyKeysManyMessages) {
  Rng rng(1000 + GetParam());
  const auto key = schnorr_generate(rng);
  for (int i = 0; i < 20; ++i) {
    Bytes msg(1 + rng.uniform(100));
    rng.fill(msg);
    const Bytes sig = schnorr_sign(key, msg, 13);
    EXPECT_TRUE(schnorr_verify(key.pub, msg, sig, 13));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchnorrSweep, ::testing::Range(0, 8));

}  // namespace
}  // namespace dfx::crypto
