// DNSSEC algorithm and digest registries.
//
// Maps IANA DNSSEC algorithm numbers to concrete sign/verify implementations
// (our RSA or Schnorr schemes), records which algorithms the modelled BIND
// toolchain still supports (ZReplicator's substitution logic depends on
// this), and implements the RFC 4034 key tag and DS digest computations.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "crypto/rsa.h"
#include "crypto/schnorr.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace dfx::crypto {

/// IANA DNSSEC algorithm numbers (the subset the paper's dataset exercises).
enum class DnssecAlgorithm : std::uint8_t {
  kReserved = 0,
  kDsa = 3,               // retired, BIND-unsupported
  kRsaSha1 = 5,
  kDsaNsec3Sha1 = 6,      // retired, BIND-unsupported
  kRsaSha1Nsec3Sha1 = 7,
  kRsaSha256 = 8,
  kRsaSha512 = 10,
  kGost = 12,             // retired, BIND-unsupported
  kEcdsaP256Sha256 = 13,
  kEcdsaP384Sha384 = 14,
  kEd25519 = 15,
  kEd448 = 16,
};

/// DS digest types (RFC 4509 / 6605).
enum class DigestType : std::uint8_t {
  kSha1 = 1,
  kSha256 = 2,
  kGost = 3,   // unsupported
  kSha384 = 4,
};

/// Static facts about an algorithm number.
struct AlgorithmInfo {
  DnssecAlgorithm number;
  std::string mnemonic;
  bool supported_by_bind;  // drives ZReplicator substitution
  bool rsa_family;         // RSA vs Schnorr backing scheme
  std::size_t default_key_bits;  // nominal size dnssec-keygen would pick
};

/// All algorithm numbers the registry knows about, ascending.
const std::vector<AlgorithmInfo>& all_algorithms();

/// Lookup; nullopt for unknown numbers.
[[nodiscard]] std::optional<AlgorithmInfo> algorithm_info(DnssecAlgorithm alg);
[[nodiscard]] std::optional<AlgorithmInfo> algorithm_info(std::uint8_t number);

/// Whether `size` octets is a plausible signature length for `algorithm`'s
/// family. The one judgement grok applies to probed RRSIGs and zonelint to
/// a zone file's own.
[[nodiscard]] bool plausible_signature_length(std::uint8_t algorithm,
                                              std::size_t size);

/// Whether `public_key` is plausible DNSKEY key material for `algorithm`'s
/// family (an RSA key must decode to a modulus of at least 128 bits).
[[nodiscard]] bool plausible_key_length(std::uint8_t algorithm,
                                        ByteView public_key);

/// Algorithms a modelled BIND can sign with, ascending by number.
std::vector<DnssecAlgorithm> bind_supported_algorithms();

std::string algorithm_mnemonic(DnssecAlgorithm alg);

/// A generated key pair: public wire bytes plus the private material needed
/// to sign. `nominal_bits` is what the operator asked for; for RSA we may
/// generate a smaller real modulus for speed, recorded in `actual_bits`.
struct KeyPair {
  DnssecAlgorithm algorithm = DnssecAlgorithm::kRsaSha256;
  Bytes public_key;   // DNSKEY "public key" field bytes
  std::size_t nominal_bits = 0;

  // Private material (exactly one is populated, by family).
  std::optional<RsaPrivateKey> rsa;
  std::optional<SchnorrKeyPair> schnorr;
};

/// Generate a key pair for `alg`. `nominal_bits == 0` uses the algorithm's
/// default. Throws std::invalid_argument for BIND-unsupported algorithms
/// (mirrors dnssec-keygen refusing retired algorithms).
KeyPair generate_key(Rng& rng, DnssecAlgorithm alg,
                     std::size_t nominal_bits = 0);

/// Sign `message` with the key pair.
Bytes sign_message(const KeyPair& key, ByteView message);

/// Verify using only the *public* wire bytes.
[[nodiscard]] bool verify_message(DnssecAlgorithm alg, ByteView public_key,
                                  ByteView message, ByteView signature);

/// RFC 4034 Appendix B key tag over the canonical DNSKEY RDATA.
std::uint16_t key_tag(ByteView dnskey_rdata);

/// DS digest over owner-name wire form + DNSKEY RDATA.
/// Returns empty for unsupported digest types (e.g. GOST).
Bytes ds_digest(DigestType type, ByteView owner_wire, ByteView dnskey_rdata);

/// Expected digest length for a type; 0 when unsupported.
std::size_t digest_length(DigestType type);

}  // namespace dfx::crypto
