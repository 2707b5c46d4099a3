#include "crypto/rsa.h"

#include <stdexcept>

#include "util/check.hpp"

namespace dfx::crypto {
namespace {

// Deterministic PKCS#1-v1.5-style padding (no OID blob; the digest already
// identifies the hash in our algorithm registry): 0x00 0x01 FF..FF 0x00 H.
BigNum pad_digest(ByteView digest, std::size_t modulus_bytes) {
  if (digest.size() + 11 > modulus_bytes) {
    throw std::invalid_argument("rsa: digest too large for modulus");
  }
  Bytes em(modulus_bytes, 0xFF);
  em[0] = 0x00;
  em[1] = 0x01;
  em[modulus_bytes - digest.size() - 1] = 0x00;
  std::copy(digest.begin(), digest.end(),
            em.end() - static_cast<std::ptrdiff_t>(digest.size()));
  return BigNum::from_bytes(em);
}

}  // namespace

Bytes RsaPublicKey::encode() const {
  // RFC 3110 wire form: 1-byte exponent length (we keep e small), exponent,
  // modulus.
  Bytes exp = e.to_bytes();
  if (exp.size() > 255) throw std::invalid_argument("rsa: exponent too large");
  Bytes out;
  const std::size_t exp_octets = exp.size();  // <= 255, checked above
  out.push_back(static_cast<std::uint8_t>(exp_octets));
  append(out, exp);
  Bytes mod = n.to_bytes();
  append(out, mod);
  return out;
}

[[nodiscard]] bool RsaPublicKey::decode(ByteView data, RsaPublicKey& out) {
  if (data.size() < 3) return false;
  const std::size_t explen = data[0];
  if (explen == 0 || data.size() < 1 + explen + 1) return false;
  out.e = BigNum::from_bytes(data.subspan(1, explen));
  out.n = BigNum::from_bytes(data.subspan(1 + explen));
  return !out.n.is_zero();
}

RsaPrivateKey rsa_generate(Rng& rng, std::size_t modulus_bits) {
  if (modulus_bits < 128) {
    throw std::invalid_argument("rsa_generate: modulus too small");
  }
  const BigNum e(65537);
  while (true) {
    const BigNum p = BigNum::generate_prime(rng, modulus_bits / 2);
    const BigNum q =
        BigNum::generate_prime(rng, modulus_bits - modulus_bits / 2);
    if (p == q) continue;
    const BigNum n = p * q;
    const BigNum phi = (p - BigNum(1)) * (q - BigNum(1));
    if (BigNum::gcd(e, phi) != BigNum(1)) continue;
    const BigNum d = BigNum::modinv(e, phi);
    if (d.is_zero()) continue;
    // The CRT quintuple is pure arithmetic on p, q and d: no RNG draw, so
    // the key stream is the same as without it.
    RsaPrivateKey key;
    key.pub.n = n;
    key.pub.e = e;
    key.d = d;
    key.dp = d % (p - BigNum(1));
    key.dq = d % (q - BigNum(1));
    key.qinv = BigNum::modinv(q, p);
    key.p = p;
    key.q = q;
    return key;
  }
}

Bytes rsa_sign(const RsaPrivateKey& key, ByteView digest) {
  const std::size_t k = (key.pub.n.bit_length() + 7) / 8;
  const BigNum m = pad_digest(digest, k);
  // RFC 8017 §5.1.2 step 2.b: m1 = m^dp mod p, m2 = m^dq mod q,
  // h = qinv (m1 - m2) mod p, s = m2 + q h. BigNum is unsigned, so m1 - m2
  // is taken mod p as m1 + (p - m2 mod p).
  const BigNum m1 = BigNum::modexp(m, key.dp, key.p);
  const BigNum m2 = BigNum::modexp(m, key.dq, key.q);
  const BigNum m2_mod_p = m2 % key.p;
  const BigNum diff = m1 >= m2_mod_p ? m1 - m2_mod_p : m1 + key.p - m2_mod_p;
  const BigNum s = m2 + key.q * ((key.qinv * diff) % key.p);
  DFX_DCHECK(BigNum::modexp(s, key.pub.e, key.pub.n) == m,
             "rsa_sign: CRT signature does not verify");
  return s.to_bytes_padded(k);
}

[[nodiscard]] bool rsa_verify(const RsaPublicKey& key, ByteView digest,
                              ByteView signature) {
  const std::size_t k = (key.n.bit_length() + 7) / 8;
  if (signature.size() != k) return false;
  const BigNum s = BigNum::from_bytes(signature);
  if (s >= key.n) return false;
  const BigNum m = BigNum::modexp(s, key.e, key.n);
  BigNum expected;
  try {
    expected = pad_digest(digest, k);
  } catch (const std::invalid_argument&) {
    return false;
  }
  return m == expected;
}

}  // namespace dfx::crypto
