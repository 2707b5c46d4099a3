// Bignum arithmetic tests: identities, division invariants, modular
// arithmetic against independently computed values, primality, and a
// differential of the fixed-width Montgomery path against the plain
// square-and-multiply reference in bignum_reference.h.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "bignum_reference.h"
#include "crypto/bignum.h"
#include "util/rng.h"

namespace dfx::crypto {
namespace {

BigNum odd_modulus(Rng& rng, std::size_t bits) {
  const BigNum m = BigNum::random_bits(rng, bits);
  return m.is_odd() ? m : m + BigNum(1);
}

void expect_modexp_matches(const BigNum& base, const BigNum& exp,
                           const BigNum& m) {
  EXPECT_EQ(BigNum::modexp(base, exp, m), reference_modexp(base, exp, m))
      << "base=" << base.to_hex() << " exp=" << exp.to_hex()
      << " m=" << m.to_hex();
}

TEST(BigNum, ConstructionAndHex) {
  EXPECT_TRUE(BigNum().is_zero());
  EXPECT_EQ(BigNum(0x123456789ABCDEFULL).to_hex(), "123456789abcdef");
  EXPECT_EQ(BigNum::from_hex("0"), BigNum());
  EXPECT_EQ(BigNum::from_hex("ff"), BigNum(255));
  EXPECT_EQ(BigNum::from_hex("00000010"), BigNum(16));
}

TEST(BigNum, ByteRoundTrip) {
  const Bytes data = {0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09};
  EXPECT_EQ(BigNum::from_bytes(data).to_bytes(), data);
  // Leading zeros are stripped on export.
  const Bytes padded = {0x00, 0x00, 0x7F};
  EXPECT_EQ(BigNum::from_bytes(padded).to_bytes(), (Bytes{0x7F}));
  // Fixed-width export pads on the left.
  EXPECT_EQ(BigNum(0x1234).to_bytes_padded(4), (Bytes{0, 0, 0x12, 0x34}));
}

TEST(BigNum, ComparisonOrdering) {
  EXPECT_LT(BigNum(1), BigNum(2));
  EXPECT_LT(BigNum(0xFFFFFFFFULL), BigNum(0x100000000ULL));
  EXPECT_GT(BigNum::from_hex("10000000000000000"), BigNum::from_hex("ffff"));
}

TEST(BigNum, AddSubIdentity) {
  Rng rng(100);
  for (int i = 0; i < 500; ++i) {
    const BigNum a = BigNum::random_bits(rng, 1 + rng.uniform(300));
    const BigNum b = BigNum::random_bits(rng, 1 + rng.uniform(300));
    const BigNum sum = a + b;
    EXPECT_EQ(sum - a, b);
    EXPECT_EQ(sum - b, a);
  }
}

TEST(BigNum, SubtractionUnderflowThrows) {
  EXPECT_THROW(BigNum(1) - BigNum(2), std::underflow_error);
}

TEST(BigNum, MulDistributesOverAdd) {
  Rng rng(101);
  for (int i = 0; i < 300; ++i) {
    const BigNum a = BigNum::random_bits(rng, 1 + rng.uniform(200));
    const BigNum b = BigNum::random_bits(rng, 1 + rng.uniform(200));
    const BigNum c = BigNum::random_bits(rng, 1 + rng.uniform(200));
    EXPECT_EQ(a * (b + c), a * b + a * c);
  }
}

TEST(BigNum, KnownProduct) {
  // 0xFFFFFFFFFFFFFFFF^2 = 0xFFFFFFFFFFFFFFFE0000000000000001.
  const BigNum v = BigNum::from_hex("ffffffffffffffff");
  EXPECT_EQ((v * v).to_hex(), "fffffffffffffffe0000000000000001");
}

TEST(BigNum, ShiftsAreInverse) {
  Rng rng(102);
  for (int i = 0; i < 200; ++i) {
    const BigNum a = BigNum::random_bits(rng, 1 + rng.uniform(256));
    const std::size_t s = rng.uniform(130);
    EXPECT_EQ((a << s) >> s, a);
  }
}

TEST(BigNum, DivModInvariantSweep) {
  Rng rng(103);
  for (int i = 0; i < 3000; ++i) {
    const BigNum a = BigNum::random_bits(rng, 1 + rng.uniform(512));
    const BigNum b = BigNum::random_bits(rng, 1 + rng.uniform(256));
    if (b.is_zero()) continue;
    BigNum q;
    BigNum r;
    BigNum::divmod(a, b, q, r);
    EXPECT_EQ(q * b + r, a);
    EXPECT_LT(r, b);
  }
}

TEST(BigNum, DivisionByZeroThrows) {
  BigNum q, r;
  EXPECT_THROW(BigNum::divmod(BigNum(1), BigNum(), q, r), std::domain_error);
}

TEST(BigNum, SingleLimbDivision) {
  EXPECT_EQ((BigNum::from_hex("123456789abcdef0") / BigNum(7)).to_hex(),
            "299c335ccf668fd");
  EXPECT_EQ(BigNum::from_hex("123456789abcdef0") % BigNum(7), BigNum(5));
}

TEST(BigNum, ModExpKnownValues) {
  // 2^10 mod 1000 = 24.
  EXPECT_EQ(BigNum::modexp(BigNum(2), BigNum(10), BigNum(1000)), BigNum(24));
  // Fermat: a^(p-1) = 1 mod p for prime p = 2^31-1.
  const BigNum p(2147483647);
  EXPECT_EQ(BigNum::modexp(BigNum(12345), p - BigNum(1), p), BigNum(1));
  // Cross-checked with Python pow():
  EXPECT_EQ(BigNum::modexp(BigNum::from_hex("123456789abcdef0aa55"),
                           BigNum(65537),
                           BigNum::from_hex("fedcba987654321fff1"))
                .to_hex(),
            "347c0c053c45833422e");
}

// 10,000 random triples at each 64-bit limb width of the fixed-width path:
// odd moduli filling the width, exponents up to 128 bits, bases below and
// (one in eight) above the modulus. Long exponents are covered by the edge
// cases and the prime-search sweeps below.
class ModExpWidth : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ModExpWidth, MatchesReference) {
  const std::size_t limbs = GetParam();
  Rng rng(110 + limbs);
  const std::size_t lo = limbs == 1 ? 2 : 64 * (limbs - 1) + 1;
  for (int i = 0; i < 10000; ++i) {
    const BigNum m = odd_modulus(rng, lo + rng.uniform(64 * limbs - lo + 1));
    const BigNum base =
        rng.uniform(8) == 0
            ? BigNum::random_bits(rng, 1 + rng.uniform(m.bit_length() + 64))
            : BigNum::random_below(rng, m);
    const BigNum exp = BigNum::random_bits(rng, rng.uniform(129));
    expect_modexp_matches(base, exp, m);
  }
}

INSTANTIATE_TEST_SUITE_P(Limbs, ModExpWidth, ::testing::Values(1, 2, 3, 4));

TEST(BigNum, ModExpEdgeCasesMatchReference) {
  Rng rng(111);
  std::vector<BigNum> moduli = {
      BigNum(1),  // falls back; modexp(b, 0, 1) stays 1
      BigNum(3),
      BigNum(0xFFFFFFFFFFFFFFFFULL),
      BigNum::from_hex("10000000000000001"),
      BigNum::from_hex(std::string(64, 'f')),  // 2^256 - 1
      // Even moduli and moduli wider than 256 bits take the fallback.
      BigNum(2),
      BigNum(1000),
      BigNum::from_hex("1" + std::string(64, '0')),  // 2^256
      BigNum::from_hex("1" + std::string(63, '0') + "1"),  // 2^256 + 1
  };
  for (const std::size_t bits : {2u, 63u, 64u, 65u, 128u, 129u, 192u, 193u,
                                 255u, 256u, 257u, 512u, 1024u}) {
    moduli.push_back(odd_modulus(rng, bits));
    moduli.push_back(odd_modulus(rng, bits) + BigNum(1));  // even
  }
  for (const BigNum& m : moduli) {
    const BigNum m_minus_1 = m - BigNum(1);
    const std::vector<BigNum> bases = {
        BigNum(), BigNum(1), m_minus_1, m, m + BigNum(1),
        m * m + BigNum(5), BigNum::random_below(rng, m)};
    const std::vector<BigNum> exps = {
        BigNum(), BigNum(1), BigNum(2), BigNum(65537), m_minus_1,
        BigNum::random_bits(rng, 300)};
    for (const BigNum& base : bases) {
      for (const BigNum& exp : exps) expect_modexp_matches(base, exp, m);
    }
  }
  EXPECT_EQ(BigNum::modexp(BigNum(7), BigNum(), BigNum(1)), BigNum(1));
  EXPECT_EQ(BigNum::modexp(BigNum(7), BigNum(3), BigNum(1)), BigNum());
  EXPECT_THROW(BigNum::modexp(BigNum(7), BigNum(3), BigNum()),
               std::domain_error);
}

// Prime search must consume the RNG exactly as the reference does: same
// accepted prime, and the generator left in the same state.
TEST(BigNum, PrimeSearchMatchesReferenceAndRngStream) {
  const std::pair<std::size_t, int> sweeps[] = {
      {8, 32}, {40, 32}, {64, 32}, {65, 16}, {96, 16}, {128, 64},
      {129, 16}, {192, 8}, {256, 8}, {300, 4}};
  for (const auto& [bits, seeds] : sweeps) {
    for (int s = 0; s < seeds; ++s) {
      Rng fast(1000 * bits + static_cast<std::uint64_t>(s));
      Rng ref(1000 * bits + static_cast<std::uint64_t>(s));
      EXPECT_EQ(BigNum::generate_prime(fast, bits),
                reference_generate_prime(ref, bits))
          << bits << " bits, seed " << s;
      EXPECT_EQ(fast.next_u64(), ref.next_u64()) << bits << " bits, seed " << s;
    }
  }
}

TEST(BigNum, ProbablePrimeMatchesReferenceAndRngStream) {
  Rng pick(112);
  std::vector<BigNum> candidates;
  for (std::uint64_t v = 0; v < 3000; ++v) candidates.emplace_back(v);
  // Strong pseudoprimes to the first few prime bases whose factors all
  // exceed 137, so that they get past trial division to Miller-Rabin.
  for (const std::uint64_t v :
       {3215031751ULL, 2152302898747ULL, 3474749660383ULL,
        341550071728321ULL, 3825123056546413051ULL}) {
    candidates.emplace_back(v);
  }
  for (int i = 0; i < 2000; ++i) {
    candidates.push_back(BigNum::random_bits(pick, 2 + pick.uniform(300)));
  }
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    Rng fast(i);
    Rng ref(i);
    EXPECT_EQ(BigNum::is_probable_prime(candidates[i], fast, 8),
              reference_is_probable_prime(candidates[i], ref, 8))
        << candidates[i].to_hex();
    EXPECT_EQ(fast.next_u64(), ref.next_u64()) << candidates[i].to_hex();
  }
}

TEST(BigNum, ModInvIsInverse) {
  Rng rng(104);
  const BigNum m = BigNum::generate_prime(rng, 96);
  for (int i = 0; i < 50; ++i) {
    const BigNum a = BigNum(2) + BigNum::random_below(rng, m - BigNum(3));
    const BigNum inv = BigNum::modinv(a, m);
    ASSERT_FALSE(inv.is_zero());
    EXPECT_EQ((a * inv) % m, BigNum(1));
  }
}

TEST(BigNum, ModInvOfNonInvertible) {
  EXPECT_TRUE(BigNum::modinv(BigNum(6), BigNum(12)).is_zero());
}

TEST(BigNum, GcdBasics) {
  EXPECT_EQ(BigNum::gcd(BigNum(48), BigNum(18)), BigNum(6));
  EXPECT_EQ(BigNum::gcd(BigNum(17), BigNum(5)), BigNum(1));
  EXPECT_EQ(BigNum::gcd(BigNum(0), BigNum(9)), BigNum(9));
}

TEST(BigNum, MillerRabinClassifiesSmallNumbers) {
  Rng rng(105);
  // Primes.
  for (std::uint64_t p : {2ULL, 3ULL, 5ULL, 104729ULL, 2147483647ULL}) {
    EXPECT_TRUE(BigNum::is_probable_prime(BigNum(p), rng)) << p;
  }
  // Composites, including Carmichael numbers.
  for (std::uint64_t c : {1ULL, 4ULL, 561ULL, 1729ULL, 104730ULL,
                          2147483647ULL * 3ULL}) {
    EXPECT_FALSE(BigNum::is_probable_prime(BigNum(c), rng)) << c;
  }
}

TEST(BigNum, GeneratePrimeHasExactBitLength) {
  Rng rng(106);
  for (std::size_t bits : {64u, 96u, 128u}) {
    const BigNum p = BigNum::generate_prime(rng, bits);
    EXPECT_EQ(p.bit_length(), bits);
    EXPECT_TRUE(BigNum::is_probable_prime(p, rng));
  }
}

TEST(BigNum, RandomBelowStaysBelow) {
  Rng rng(107);
  const BigNum bound = BigNum::from_hex("10000000000000001");
  for (int i = 0; i < 200; ++i) {
    EXPECT_LT(BigNum::random_below(rng, bound), bound);
  }
}

}  // namespace
}  // namespace dfx::crypto
