// Snapshot: the grok output for one query domain at one point in time —
// the unit of the paper's measurement dataset and the input to ZReplicator
// and DFixer. Serializes to/from a DNSViz-like JSON schema.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "analyzer/errorcode.h"
#include "crypto/algorithm.h"
#include "dnscore/name.h"
#include "json/json.h"
#include "util/bytes.h"
#include "util/simclock.h"

namespace dfx::analyzer {

/// The six snapshot categories from §3.2.1 of the paper.
enum class SnapshotStatus : std::uint8_t {
  kSignedValid,           // sv
  kSignedValidMisconfig,  // svm
  kSignedBogus,           // sb
  kInsecure,              // is
  kLame,                  // lm
  kIncomplete,            // ic
};

std::string status_name(SnapshotStatus status);       // "sv", "svm", ...
[[nodiscard]] std::optional<SnapshotStatus> status_from_name(
    std::string_view name);

/// One DNSKEY as observed (meta-parameters ZReplicator needs).
struct KeyMeta {
  std::uint16_t flags = 0x0100;
  std::uint8_t algorithm = 8;
  std::uint16_t key_tag = 0;
  std::size_t key_bits = 0;
  /// False when the key material's length is impossible for the algorithm.
  bool length_plausible = true;

  bool is_ksk() const { return (flags & 0x0001) != 0; }
  bool is_revoked() const { return (flags & 0x0080) != 0; }

  bool operator==(const KeyMeta&) const = default;
};

/// One DS as observed at the parent.
struct DsMeta {
  std::uint16_t key_tag = 0;
  std::uint8_t algorithm = 8;
  std::uint8_t digest_type = 2;
  /// Hex of the digest bytes (identifies the exact record when several DS
  /// entries share a key tag).
  std::string digest_hex;
  /// Whether a DNSKEY matching (tag, algorithm) existed in the child.
  bool matches_dnskey = false;
  /// Whether the DS fully validated (matched a non-revoked DNSKEY and the
  /// digest verified) — i.e. it establishes a secure entry point.
  bool valid = false;

  bool operator==(const DsMeta&) const = default;
};

/// Zone meta-parameters extracted from a snapshot (Fig. 7 step 2): exactly
/// the knobs ZReplicator mirrors when rebuilding the zone locally.
struct ZoneMeta {
  dns::Name apex;
  int server_count = 2;
  std::vector<KeyMeta> keys;
  std::vector<DsMeta> ds_records;
  bool uses_nsec3 = false;
  std::uint16_t nsec3_iterations = 0;
  std::string nsec3_salt_hex;  // empty = no salt
  bool nsec3_opt_out = false;
  std::uint32_t max_ttl = 3600;
  /// The zone contains a catch-all wildcard (changes negative-answer
  /// behaviour: NXDOMAIN probes synthesize answers instead).
  bool has_wildcard = false;

  bool operator==(const ZoneMeta&) const = default;
};

/// One diagnostic snapshot of one query domain.
struct Snapshot {
  dns::Name query_domain;
  dns::Name query_zone;  // the zone containing query_domain
  UnixTime time = 0;
  SnapshotStatus status = SnapshotStatus::kInsecure;
  std::vector<ErrorInstance> errors;      // Table 3 codes, zone-attributed
  std::vector<ErrorInstance> companions;  // context codes for DResolver
  ZoneMeta target_meta;

  /// Errors whose zone is the query zone itself (DFixer's remit: §5.5
  /// limits fixing to the leaf zone and its delegation in the parent).
  std::vector<ErrorInstance> target_zone_errors() const;

  bool has_error(ErrorCode code) const;
  bool has_companion(ErrorCode code) const;
};

json::Value snapshot_to_json(const Snapshot& snapshot);
[[nodiscard]] std::optional<Snapshot> snapshot_from_json(
    const json::Value& value);

}  // namespace dfx::analyzer
