// The zone-signing engine: our dnssec-signzone.
//
// Takes an unsigned zone plus a key store and produces a signed zone:
// DNSKEY RRset from the key directory, RRSIGs over every authoritative
// RRset, and a complete NSEC or NSEC3 chain (with NSEC3PARAM, iterations,
// salt and opt-out handling per RFC 5155).
#pragma once

#include <cstdint>
#include <optional>

#include "util/bytes.h"
#include "util/simclock.h"
#include "zone/key.h"
#include "zone/zone.h"

namespace dfx::zone {

/// Negative-proof style for a signed zone.
enum class DenialMode : std::uint8_t { kNsec, kNsec3 };

struct SigningConfig {
  DenialMode denial = DenialMode::kNsec;
  std::uint16_t nsec3_iterations = 0;  // RFC 9276 says 0
  Bytes nsec3_salt;                    // RFC 9276 says empty
  bool nsec3_opt_out = false;

  /// Signature validity window relative to signing time.
  UnixTime inception_offset = kHour;      // backdate 1h for clock skew
  UnixTime validity = 30 * kDay;          // BIND default

  /// Publish CDS/CDNSKEY records for the active KSKs (RFC 7344), so a
  /// parental agent can synchronize the DS set without manual registrar
  /// interaction — the automation §5.5.2 of the paper notes it could not
  /// rely on in the wild.
  bool publish_cds = false;

  bool operator==(const SigningConfig&) const = default;
};

/// Create one RRSIG over `rrset` using `key`. Exposed separately so error
/// injectors can produce signatures with deliberately wrong parameters.
dns::RrsigRdata make_rrsig(const dns::RRset& rrset, const ZoneKey& key,
                           const dns::Name& apex, UnixTime inception,
                           UnixTime expiration,
                           std::optional<std::uint8_t> labels_override =
                               std::nullopt);

/// The data an RRSIG signs (RFC 4034 §3.1.8.1): the RRSIG RDATA without
/// its signature, then every RR of `rrset` in canonical order as
///   owner | type | class | sig.original_ttl | rdlength | rdata.
/// `rrset`'s own TTL is ignored; its owner is used as given, so a
/// validator checking a wildcard expansion passes the source of synthesis.
/// The one builder: make_rrsig signs it, verify_rrsig and grok verify it.
Bytes rrsig_signed_data(const dns::RRset& rrset, const dns::RrsigRdata& sig);

/// Verify one RRSIG against a DNSKEY (crypto only; validity windows and key
/// matching are the analyzer's concern).
[[nodiscard]] bool verify_rrsig(const dns::RRset& rrset,
                                const dns::RrsigRdata& sig,
                                const dns::DnskeyRdata& key);

/// Sign `unsigned_zone`: returns a new zone with DNSKEY/RRSIG/NSEC(3)
/// records added. Pre-existing DNSSEC records in the input are discarded
/// (dnssec-signzone semantics). Keys marked revoked still co-sign the
/// DNSKEY RRset (RFC 5011) but nothing else.
Zone sign_zone(const Zone& unsigned_zone, const KeyStore& keys,
               const SigningConfig& config, UnixTime now);

/// Build a DS record for `key` at digest `type` (dnssec-dsfromkey).
dns::DsRdata make_ds(const ZoneKey& key, crypto::DigestType type);
dns::DsRdata make_ds_from_dnskey(const dns::Name& owner,
                                 const dns::DnskeyRdata& dnskey,
                                 crypto::DigestType type);

/// Strip all DNSSEC record types from a zone (the inverse of signing).
Zone strip_dnssec(const Zone& signed_zone);

}  // namespace dfx::zone
