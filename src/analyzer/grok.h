// The grok stage: interpret probe data, build the chain of trust from the
// (sandbox) root to the query domain, and emit error codes wherever
// validation fails — our equivalent of `dnsviz grok`.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "analyzer/probe.h"
#include "analyzer/snapshot.h"

namespace dfx::analyzer {

struct GrokConfig {
  /// A minority of validators treat nonzero NSEC3 iterations as fatal
  /// (Daniluk et al., RFC 9276); DNSViz itself reports it as a warning-
  /// level violation, which is the default here.
  bool nzic_is_fatal = false;

  // ---- KeyTrap hardening (CVE-2023-50387/50868) ------------------------
  // Work budgets enforced while validating one zone of the chain. A zone
  // that demands more work than the budget allows is abandoned with
  // kValidatorWorkBudgetExceeded (EDE 49) instead of burning CPU, the way
  // patched BIND/Unbound cap validation effort. Defaults are far above
  // anything a well-configured zone needs (the replication corpus peaks at
  // ~40 signature checks and 20 NSEC3 iterations per zone) but far below
  // what the KeyTrap shapes demand.

  /// Maximum signature-verification attempts per zone. Colliding key tags
  /// multiply attempts: every candidate key matching an RRSIG's
  /// (key tag, algorithm) pair must be tried before the RRSIG fails.
  /// The budget counts attempts, not crypto runs: grok keeps one verdict
  /// per (signed data, signature, algorithm, public key) per zone, so an
  /// RRSIG served by several servers or in several probes is verified
  /// once, but every attempt is charged. The memo only skips repeated
  /// crypto; it never changes an error code.
  std::size_t max_sig_validations = 200;

  /// Candidate (RRSIG, DNSKEY) pairings tolerated for a single RRset
  /// before the zone is flagged with kExcessiveSignatureValidations.
  std::size_t sig_pairing_threshold = 16;

  /// NSEC3 iteration counts above this are refused outright with
  /// kExcessiveNsec3Iterations and never hashed (BIND and Unbound cap at
  /// 150; RFC 9276 wants 0).
  std::uint16_t max_nsec3_iterations = 150;

  /// Total NSEC3 hashing budget per zone, in SHA-1 applications (one
  /// nsec3_hash call costs iterations + 1).
  std::size_t max_hash_cost = 5000;
};

/// Validate a probed chain and produce the diagnostic snapshot: the fold
/// of grok_zone() down the chain, root first.
Snapshot grok(const ProbeData& data, const GrokConfig& config = {});

/// The trust state a validator holds on entering a zone of the chain.
enum class TrustState : std::uint8_t { kSecure, kInsecure, kBogus };

/// Everything grok learns from one zone of the chain.
struct ZoneVerdict {
  /// Why the fold stops at this zone, if it does.
  enum class Stop : std::uint8_t { kNone, kLame, kIncomplete };

  /// The zone's error reports in the order grok makes them, each
  /// (code, zone) pair once. Later zones' reports de-duplicate against
  /// earlier zones' when the fold replays them into one list.
  std::vector<ErrorInstance> events;
  /// The state the fold hands to the next zone (the incoming one when
  /// the fold stops here).
  TrustState state = TrustState::kSecure;
  Stop stop = Stop::kNone;
  /// The target zone's meta-parameters; only the last zone carries them.
  std::optional<ZoneMeta> target_meta;
  /// Signature-verification attempts charged, and crypto verifications
  /// actually run (`analyzer.sig_validation_attempts` and
  /// `analyzer.sig_verifications`).
  std::size_t sig_validation_attempts = 0;
  std::size_t sig_verifications = 0;
  /// Mirrored servers (ServerProbe::mirror_of) whose per-server checks
  /// were skipped as a repeat of their original's
  /// (`analyzer.mirrored_servers`). It tells how the verdict was reached,
  /// not what it says, so same_as() ignores it.
  std::size_t mirrored_servers = 0;

  /// Equal verdicts, details of every event and the two signature work
  /// counts included.
  bool same_as(const ZoneVerdict& other) const;
};

/// Validate one zone of a probed chain. `incoming` is the state the fold
/// reached above it, `parent_apex` the zone above it (null for the trust
/// anchor at the top), `is_target` whether it is the query zone. Depends
/// on its arguments only, so a verdict may be kept for as long as they
/// stay the same. A mirrored server's checks are skipped when the
/// budget charges of its original's checks still fit, and the verdict is
/// then the same as with `mirror_of` cleared. Touches no counters: the
/// caller charges the work counters of a verdict it computed
/// (count_grok_work).
ZoneVerdict grok_zone(const ZoneProbe& zone, TrustState incoming,
                      const dns::Name* parent_apex, UnixTime now,
                      const GrokConfig& config, bool is_target);

/// Add a freshly computed verdict's work to the registry counters.
void count_grok_work(const ZoneVerdict& verdict);

/// The snapshot of a chain whose zones (root first, up to the one the
/// fold stopped at) have the given verdicts. `query_zone` is the last
/// zone of the probed chain; an empty chain is lame.
Snapshot fold_verdicts(const dns::Name& query_domain,
                       const dns::Name& query_zone, UnixTime time,
                       const std::vector<const ZoneVerdict*>& verdicts);

}  // namespace dfx::analyzer
