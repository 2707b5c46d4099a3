// zonelint: static DNSSEC analysis of zone data.
//
// Predicts the DNSViz-style error codes grok would emit for a zone without
// a single signature verification or probe. The checks are not a copy of
// grok's: the questions grok's prober puts to one server (apex DNSKEY,
// SOA, NS and A, and the four negative probes) are put to
// `authserver::answer`, and grok's own judge (analyzer/judge.h) reads the
// answers — the key-level checks, the DS linkage against the parent's DS
// set, the RRSIG checks, the wildcard and denial judgement, and algorithm
// completeness. Only the validator work budget is priced statically, by
// the cost model (costmodel.h). The prediction is exact for every code
// whose evidence is visible in zone data; two codes are inherently out of
// reach:
//
//  - kInvalidSignature from a *corrupted* signature: indistinguishable from
//    a valid one without doing the crypto (an RRSIG by a key absent from
//    the DNSKEY RRset is still reported — that case is structural).
//  - kInconsistentDnskeyBetweenServers: a cross-server property; a single
//    zone file has nothing to disagree with.
//
// Every finding carries a machine-applicable fix (a zone::Instruction, the
// same vocabulary DFixer emits) so downstream tooling can repair what the
// lint flagged.
#pragma once

#include <set>
#include <span>
#include <string>
#include <vector>

#include "analyzer/errorcode.h"
#include "analyzer/grok.h"
#include "dnscore/rdata.h"
#include "util/simclock.h"
#include "zone/bindcmd.h"
#include "zone/zone.h"
#include "zonelint/costmodel.h"

namespace dfx::zonelint {

struct LintOptions {
  /// The work budgets the live validator enforces (grok uses the same
  /// defaults); the lint flags any zone whose static worst-case cost would
  /// trip them.
  analyzer::GrokConfig budget;
  /// Reference time for the signature-window rules (expired, not yet
  /// valid, TTL beyond expiration). 0 disables them (useful when linting
  /// archived zone files).
  UnixTime now = 0;
};

/// One predicted error with its location, evidence and repair.
struct Finding {
  analyzer::ErrorCode code = analyzer::ErrorCode::kMissingSignature;
  dns::Name zone;
  std::string detail;
  /// Machine-applicable repair in DFixer's instruction vocabulary (empty
  /// command list when no automatic fix applies).
  zone::Instruction fix;
};

struct Report {
  dns::Name apex;
  bool zone_signed = false;
  ValidationCost cost;
  /// Error-level predictions (grok's `errors`) and companion-category
  /// predictions (grok's `companions`), both de-duplicated by code.
  std::vector<Finding> findings;
  std::vector<Finding> companions;
};

/// Analyse one zone. `parent_ds` is the DS set the parent publishes for
/// this apex; empty skips the DS-linkage rules (island of trust).
Report lint_zone(const zone::Zone& zone,
                 std::span<const dns::DsRdata> parent_ds = {},
                 const LintOptions& options = {});

/// The error-level codes of a report, as a set (prediction comparisons).
std::set<analyzer::ErrorCode> finding_codes(const Report& report);

}  // namespace dfx::zonelint
