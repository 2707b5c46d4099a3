// Genuine textbook-RSA over our own bignum, used for the RSA-family DNSSEC
// algorithm numbers (5, 7, 8, 10).
//
// Signing is s = pad(hash(m))^d mod n, computed by the Chinese remainder
// theorem (RFC 8017 §5.1.2, RSASP1 step 2.b): two half-width modexps,
// m^dp mod p and m^dq mod q, recombined with qinv. That is the same value
// as the plain modexp by d, at about a third of its cost. Verification
// recomputes s^e mod n and compares. The DNSSEC layer generates 256-bit
// moduli for speed (`kRsaActualBits` in algorithm.cpp; the evaluation
// pipeline generates thousands of keys), which keeps every modexp on
// BigNum's fixed-width Montgomery path (2 limbs for the CRT halves, 4 for
// verification). The *nominal* key size a zone claims is tracked separately
// in the DNSKEY metadata so "Bad Key Length" scenarios can be modelled
// without paying for 4096-bit arithmetic.
#pragma once

#include <cstdint>

#include "crypto/bignum.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace dfx::crypto {

struct RsaPublicKey {
  BigNum n;  // modulus
  BigNum e;  // public exponent

  /// DNSKEY public-key field per RFC 3110: [explen?] exp | modulus.
  Bytes encode() const;
  [[nodiscard]] static bool decode(ByteView data, RsaPublicKey& out);
};

/// The private key in both forms of RFC 8017 §3.2: the exponent `d`, and
/// the CRT quintuple `rsa_sign` uses. `rsa_generate` fills every field.
struct RsaPrivateKey {
  RsaPublicKey pub;
  BigNum d;     // private exponent
  BigNum p;     // first prime factor of n
  BigNum q;     // second prime factor of n
  BigNum dp;    // d mod (p - 1)
  BigNum dq;    // d mod (q - 1)
  BigNum qinv;  // q^-1 mod p
};

/// Generate an RSA key pair with the given *actual* modulus size in bits.
RsaPrivateKey rsa_generate(Rng& rng, std::size_t modulus_bits);

/// Sign a message digest (any hash output) by CRT; returns the signature
/// bytes, fixed-width at the modulus size.
Bytes rsa_sign(const RsaPrivateKey& key, ByteView digest);

/// Verify a signature over a digest.
[[nodiscard]] bool rsa_verify(const RsaPublicKey& key, ByteView digest,
                              ByteView signature);

}  // namespace dfx::crypto
