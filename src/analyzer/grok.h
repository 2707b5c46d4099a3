// The grok stage: interpret probe data, build the chain of trust from the
// (sandbox) root to the query domain, and emit error codes wherever
// validation fails — our equivalent of `dnsviz grok`.
#pragma once

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

/// Validate a probed chain and produce the diagnostic snapshot.
Snapshot grok(const ProbeData& data, const GrokConfig& config = {});

}  // namespace dfx::analyzer
