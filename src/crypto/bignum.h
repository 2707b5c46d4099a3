// Arbitrary-precision unsigned integers, from scratch.
//
// Just enough number theory for a genuine (if deliberately small-modulus)
// RSA: add/sub/mul, division with remainder, modular exponentiation, gcd /
// modular inverse, and Miller-Rabin primality.
//
// Modular exponentiation has two paths behind the one `modexp` entry point.
// Odd moduli of 2..256 bits (every modulus the signer generates, and the
// primes behind them) run in a fixed-width Montgomery context: 1..4 64-bit
// limbs on the stack, CIOS multiply and a dedicated square with 128-bit
// products, no heap traffic inside the exponent loop. Even moduli and
// moduli wider than 256 bits, which only DNSKEY bytes off the wire and
// tests produce, take the plain square-and-multiply loop with one division
// per product. Miller-Rabin runs every round of a candidate in one context
// of the same kind. Both paths compute the same values.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/bytes.h"
#include "util/rng.h"

namespace dfx::crypto {

/// Unsigned big integer stored as little-endian 32-bit limbs.
class BigNum {
 public:
  BigNum() = default;
  explicit BigNum(std::uint64_t v);

  /// Big-endian byte import/export (the DNS wire convention).
  static BigNum from_bytes(ByteView data);
  Bytes to_bytes() const;
  /// Export padded/truncated to exactly `size` bytes (fixed-width fields).
  Bytes to_bytes_padded(std::size_t size) const;

  static BigNum from_hex(std::string_view hex);
  std::string to_hex() const;

  bool is_zero() const { return limbs_.empty(); }
  bool is_odd() const { return !limbs_.empty() && (limbs_[0] & 1) != 0; }
  std::size_t bit_length() const;

  bool operator==(const BigNum& o) const { return limbs_ == o.limbs_; }
  bool operator!=(const BigNum& o) const { return limbs_ != o.limbs_; }
  bool operator<(const BigNum& o) const { return cmp(o) < 0; }
  bool operator<=(const BigNum& o) const { return cmp(o) <= 0; }
  bool operator>(const BigNum& o) const { return cmp(o) > 0; }
  bool operator>=(const BigNum& o) const { return cmp(o) >= 0; }

  BigNum operator+(const BigNum& o) const;
  /// Subtraction requires *this >= o (unsigned arithmetic).
  BigNum operator-(const BigNum& o) const;
  BigNum operator*(const BigNum& o) const;
  BigNum operator%(const BigNum& o) const;
  BigNum operator/(const BigNum& o) const;

  BigNum operator<<(std::size_t bits) const;
  BigNum operator>>(std::size_t bits) const;

  /// Quotient and remainder in one pass.
  static void divmod(const BigNum& num, const BigNum& den, BigNum& quot,
                     BigNum& rem);

  /// (base ^ exp) mod m, m > 0. `modexp(b, 0, 1)` is 1, not 0.
  static BigNum modexp(const BigNum& base, const BigNum& exp, const BigNum& m);

  /// Modular inverse of a mod m; returns zero BigNum when gcd(a, m) != 1.
  static BigNum modinv(const BigNum& a, const BigNum& m);

  static BigNum gcd(BigNum a, BigNum b);

  /// Uniform in [0, bound).
  static BigNum random_below(Rng& rng, const BigNum& bound);

  /// Random integer with exactly `bits` bits (top bit set).
  static BigNum random_bits(Rng& rng, std::size_t bits);

  /// Trial division by the small primes, then Miller-Rabin with `rounds`
  /// random bases. The RNG draws (one `random_below(n - 4)` per round run)
  /// are part of the contract: key generation replays them bit for bit.
  static bool is_probable_prime(const BigNum& n, Rng& rng, int rounds = 20);

  /// Generate a random prime with exactly `bits` bits.
  static BigNum generate_prime(Rng& rng, std::size_t bits);

  int cmp(const BigNum& o) const;

 private:
  void trim();

  // The Montgomery path in bignum.cpp packs and unpacks limbs directly.
  friend struct LimbAccess;

  std::vector<std::uint32_t> limbs_;  // little-endian, no trailing zeros
};

}  // namespace dfx::crypto
