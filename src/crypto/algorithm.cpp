#include "crypto/algorithm.h"

#include <stdexcept>

#include "crypto/sha1.h"
#include "crypto/sha2.h"

namespace dfx::crypto {
namespace {

const std::vector<AlgorithmInfo> kAlgorithms = {
    {DnssecAlgorithm::kDsa, "DSA", false, false, 1024},
    {DnssecAlgorithm::kRsaSha1, "RSASHA1", true, true, 1024},
    {DnssecAlgorithm::kDsaNsec3Sha1, "DSA-NSEC3-SHA1", false, false, 1024},
    {DnssecAlgorithm::kRsaSha1Nsec3Sha1, "NSEC3RSASHA1", true, true, 1024},
    {DnssecAlgorithm::kRsaSha256, "RSASHA256", true, true, 2048},
    {DnssecAlgorithm::kRsaSha512, "RSASHA512", true, true, 2048},
    {DnssecAlgorithm::kGost, "ECC-GOST", false, false, 512},
    {DnssecAlgorithm::kEcdsaP256Sha256, "ECDSAP256SHA256", true, false, 256},
    {DnssecAlgorithm::kEcdsaP384Sha384, "ECDSAP384SHA384", true, false, 384},
    {DnssecAlgorithm::kEd25519, "ED25519", true, false, 256},
    {DnssecAlgorithm::kEd448, "ED448", true, false, 456},
};

// Real modulus size used for RSA-family keys regardless of the nominal bits
// the operator requests; keeps keygen fast in the 100K-zone pipeline while
// remaining genuine RSA. Must exceed digest size + 11 padding bytes; the
// internal digest is SHA-1-sized (see hash_for_algorithm).
constexpr std::size_t kRsaActualBits = 256;

// Digest used inside RSA signatures. The algorithm number is mixed into the
// hash input for domain separation; SHA-256 stands in for the larger SHA-2
// variants because their digests would not fit the deliberately small RSA
// modulus (see kRsaActualBits). Failure semantics are unaffected: any
// mismatch of key, algorithm number or message still breaks verification.
Bytes hash_for_algorithm(DnssecAlgorithm alg, ByteView message) {
  Bytes input;
  input.reserve(message.size() + 1);
  input.push_back(static_cast<std::uint8_t>(alg));
  append(input, message);
  // SHA-1-sized digests fit the small modulus; the algorithm byte above
  // keeps the signature domains of RSA algorithm numbers disjoint.
  return Sha1::digest(input);
}

std::uint8_t domain_tag(DnssecAlgorithm alg) {
  return static_cast<std::uint8_t>(alg);
}

}  // namespace

const std::vector<AlgorithmInfo>& all_algorithms() { return kAlgorithms; }

[[nodiscard]] std::optional<AlgorithmInfo> algorithm_info(DnssecAlgorithm alg) {
  for (const auto& info : kAlgorithms) {
    if (info.number == alg) return info;
  }
  return std::nullopt;
}

[[nodiscard]] std::optional<AlgorithmInfo> algorithm_info(std::uint8_t number) {
  return algorithm_info(static_cast<DnssecAlgorithm>(number));
}

bool plausible_signature_length(std::uint8_t algorithm, std::size_t size) {
  const auto info = algorithm_info(algorithm);
  if (!info) return size > 0;
  if (info->rsa_family) return size >= 24;  // smallest real modulus we emit
  return size == 16;                        // Schnorr-64 signatures
}

bool plausible_key_length(std::uint8_t algorithm, ByteView public_key) {
  const auto info = algorithm_info(algorithm);
  if (!info) return !public_key.empty();
  if (info->rsa_family) {
    RsaPublicKey pub;
    if (!RsaPublicKey::decode(public_key, pub)) return false;
    return pub.n.bit_length() >= 128;
  }
  return public_key.size() == 8;
}

std::vector<DnssecAlgorithm> bind_supported_algorithms() {
  std::vector<DnssecAlgorithm> out;
  for (const auto& info : kAlgorithms) {
    if (info.supported_by_bind) out.push_back(info.number);
  }
  return out;
}

std::string algorithm_mnemonic(DnssecAlgorithm alg) {
  const auto info = algorithm_info(alg);
  return info ? info->mnemonic
              : "ALG" + std::to_string(static_cast<int>(alg));
}

KeyPair generate_key(Rng& rng, DnssecAlgorithm alg, std::size_t nominal_bits) {
  const auto info = algorithm_info(alg);
  if (!info) {
    throw std::invalid_argument("generate_key: unknown algorithm " +
                                std::to_string(static_cast<int>(alg)));
  }
  if (!info->supported_by_bind) {
    throw std::invalid_argument("generate_key: algorithm " + info->mnemonic +
                                " not supported by the modelled BIND");
  }
  KeyPair key;
  key.algorithm = alg;
  key.nominal_bits = nominal_bits == 0 ? info->default_key_bits : nominal_bits;
  if (info->rsa_family) {
    key.rsa = rsa_generate(rng, kRsaActualBits);
    key.public_key = key.rsa->pub.encode();
  } else {
    key.schnorr = schnorr_generate(rng);
    key.public_key = schnorr_encode_pub(key.schnorr->pub);
  }
  return key;
}

Bytes sign_message(const KeyPair& key, ByteView message) {
  if (key.rsa) {
    return rsa_sign(*key.rsa, hash_for_algorithm(key.algorithm, message));
  }
  if (key.schnorr) {
    return schnorr_sign(*key.schnorr, message, domain_tag(key.algorithm));
  }
  throw std::logic_error("sign_message: key has no private material");
}

[[nodiscard]] bool verify_message(DnssecAlgorithm alg, ByteView public_key,
                                  ByteView message, ByteView signature) {
  const auto info = algorithm_info(alg);
  if (!info) return false;
  if (info->rsa_family) {
    RsaPublicKey pub;
    if (!RsaPublicKey::decode(public_key, pub)) return false;
    return rsa_verify(pub, hash_for_algorithm(alg, message), signature);
  }
  std::uint64_t pub = 0;
  if (!schnorr_decode_pub(public_key, pub)) return false;
  return schnorr_verify(pub, message, signature, domain_tag(alg));
}

std::uint16_t key_tag(ByteView dnskey_rdata) {
  // RFC 4034 Appendix B.
  std::uint32_t ac = 0;
  for (std::size_t i = 0; i < dnskey_rdata.size(); ++i) {
    ac += (i & 1) != 0 ? dnskey_rdata[i]
                       : static_cast<std::uint32_t>(dnskey_rdata[i]) << 8;
  }
  ac += (ac >> 16) & 0xFFFF;
  return static_cast<std::uint16_t>(ac & 0xFFFF);
}

Bytes ds_digest(DigestType type, ByteView owner_wire, ByteView dnskey_rdata) {
  Bytes input;
  input.reserve(owner_wire.size() + dnskey_rdata.size());
  append(input, owner_wire);
  append(input, dnskey_rdata);
  switch (type) {
    case DigestType::kSha1:
      return Sha1::digest(input);
    case DigestType::kSha256:
      return sha256(input);
    case DigestType::kSha384:
      return sha384(input);
    case DigestType::kGost:
      return {};
  }
  return {};
}

std::size_t digest_length(DigestType type) {
  switch (type) {
    case DigestType::kSha1:
      return 20;
    case DigestType::kSha256:
      return 32;
    case DigestType::kSha384:
      return 48;
    case DigestType::kGost:
      return 0;
  }
  return 0;
}

}  // namespace dfx::crypto
