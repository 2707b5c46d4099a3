#include "crypto/schnorr.h"

#include "crypto/sha2.h"

namespace dfx::crypto {
namespace {

// p = 2q + 1 with q prime; g generates the order-q subgroup.
// p is the largest safe prime below 2^63 with small generator 4 = 2^2
// (squares generate the index-2 subgroup of Z_p*, which has order q).
constexpr std::uint64_t kP = 0x7FFFFFFFFFFFEE27ULL;  // safe prime
constexpr std::uint64_t kQ = (kP - 1) / 2;
constexpr std::uint64_t kG = 4;

std::uint64_t mulmod(std::uint64_t a, std::uint64_t b, std::uint64_t m) {
  return static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(a) * b) % m);
}

std::uint64_t powmod(std::uint64_t base, std::uint64_t exp, std::uint64_t m) {
  std::uint64_t result = 1;
  base %= m;
  while (exp != 0) {
    if ((exp & 1) != 0) result = mulmod(result, base, m);
    base = mulmod(base, base, m);
    exp >>= 1;
  }
  return result;
}

std::uint64_t hash_to_u64(ByteView a, ByteView b, ByteView c,
                          std::uint8_t tag) {
  Sha256Core h(false);
  const std::uint8_t t[1] = {tag};
  h.update({t, 1});
  h.update(a);
  h.update(b);
  h.update(c);
  const Bytes d = h.finish();
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | d[static_cast<std::size_t>(i)];
  return v;
}

Bytes u64_bytes(std::uint64_t v) {
  Bytes out(8);
  for (int i = 0; i < 8; ++i) {
    out[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(v >> (56 - i * 8));
  }
  return out;
}

std::uint64_t bytes_u64(ByteView b) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 8; ++i) v = (v << 8) | b[i];
  return v;
}

}  // namespace

SchnorrKeyPair schnorr_generate(Rng& rng) {
  SchnorrKeyPair kp;
  kp.priv = 1 + rng.uniform(kQ - 1);
  kp.pub = powmod(kG, kp.priv, kP);
  return kp;
}

Bytes schnorr_sign(const SchnorrKeyPair& key, ByteView message,
                   std::uint8_t domain_tag) {
  const Bytes priv_bytes = u64_bytes(key.priv);
  const Bytes pub_bytes = u64_bytes(key.pub);
  std::uint64_t k = hash_to_u64(priv_bytes, message, {}, domain_tag) % kQ;
  if (k == 0) k = 1;
  const std::uint64_t r = powmod(kG, k, kP);
  const Bytes r_bytes = u64_bytes(r);
  const std::uint64_t e =
      hash_to_u64(r_bytes, pub_bytes, message, domain_tag) % kQ;
  const std::uint64_t s = (k + mulmod(e, key.priv, kQ)) % kQ;
  Bytes sig = u64_bytes(e);
  append(sig, u64_bytes(s));
  return sig;  // 16 bytes: (e, s)
}

[[nodiscard]] bool schnorr_verify(std::uint64_t pub, ByteView message,
                                  ByteView signature, std::uint8_t domain_tag) {
  if (signature.size() != 16) return false;
  if (pub == 0 || pub >= kP) return false;
  const std::uint64_t e = bytes_u64(signature.subspan(0, 8)) % kQ;
  const std::uint64_t s = bytes_u64(signature.subspan(8, 8));
  if (s >= kQ) return false;
  // r' = g^s * pub^(q - e) — pub has order q, so pub^(q-e) = pub^{-e}.
  const std::uint64_t gs = powmod(kG, s, kP);
  const std::uint64_t pe = powmod(pub, kQ - e, kP);
  const std::uint64_t r = mulmod(gs, pe, kP);
  const Bytes r_bytes = u64_bytes(r);
  const Bytes pub_bytes = u64_bytes(pub);
  const std::uint64_t expected =
      hash_to_u64(r_bytes, pub_bytes, message, domain_tag) % kQ;
  return expected == e;
}

Bytes schnorr_encode_pub(std::uint64_t pub) { return u64_bytes(pub); }

[[nodiscard]] bool schnorr_decode_pub(ByteView data, std::uint64_t& out) {
  if (data.size() != 8) return false;
  out = bytes_u64(data);
  return true;
}

}  // namespace dfx::crypto
