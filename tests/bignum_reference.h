// Test-only oracle: `modexp` and prime search exactly as they were before
// BigNum gained its fixed-width Montgomery path. Square-and-multiply with a
// division per product, trial division through BigNum temporaries. The
// differential tests in test_bignum and test_fuzz compare the library
// against these; nothing outside tests/ may use them.
#pragma once

#include <cstdint>

#include "crypto/bignum.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace dfx::crypto {

inline BigNum reference_modexp(const BigNum& base, const BigNum& exp,
                               const BigNum& m) {
  BigNum result(1);
  BigNum b = base % m;
  const Bytes e = exp.to_bytes();  // big-endian
  const std::size_t bits = exp.bit_length();
  for (std::size_t i = 0; i < bits; ++i) {
    const bool bit = ((e[e.size() - 1 - i / 8] >> (i % 8)) & 1U) != 0;
    if (bit) result = (result * b) % m;
    b = (b * b) % m;
  }
  return result;
}

inline bool reference_is_probable_prime(const BigNum& n, Rng& rng,
                                        int rounds) {
  static constexpr std::uint32_t kSmallPrimes[] = {
      3,  5,  7,  11, 13, 17, 19, 23, 29, 31, 37, 41, 43,  47,  53,  59,
      61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137};
  if (n < BigNum(2)) return false;
  if (n == BigNum(2)) return true;
  if (!n.is_odd()) return false;
  for (std::uint32_t p : kSmallPrimes) {
    const BigNum bp(p);
    if (n == bp) return true;
    if ((n % bp).is_zero()) return false;
  }
  const BigNum n_minus_1 = n - BigNum(1);
  BigNum d = n_minus_1;
  std::size_t r = 0;
  while (!d.is_odd()) {
    d = d >> 1;
    ++r;
  }
  for (int round = 0; round < rounds; ++round) {
    const BigNum a = BigNum(2) + BigNum::random_below(rng, n - BigNum(4));
    BigNum x = reference_modexp(a, d, n);
    if (x == BigNum(1) || x == n_minus_1) continue;
    bool witness = true;
    for (std::size_t i = 1; i < r; ++i) {
      x = (x * x) % n;
      if (x == n_minus_1) {
        witness = false;
        break;
      }
    }
    if (witness) return false;
  }
  return true;
}

inline BigNum reference_generate_prime(Rng& rng, std::size_t bits) {
  while (true) {
    BigNum candidate = BigNum::random_bits(rng, bits);
    if (!candidate.is_odd()) candidate = candidate + BigNum(1);
    if (reference_is_probable_prime(candidate, rng, 16)) return candidate;
  }
}

}  // namespace dfx::crypto
