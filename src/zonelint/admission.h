// ZoneStore admission checking backed by zonelint's cost model.
//
// The serving path must not let a KeyTrap-shaped zone through to resolvers:
// once served, every validating client pays the blowup. The admission
// policy runs a dedicated single-pass cost scan — no trust-graph node
// construction, no denial-chain decoding, no probe answers — so upsert
// latency stays within the benchmarked <5% overhead budget
// (bench/bench_zonelint.cpp).
//
// Work is priced per response, the way the validator's budget
// (GrokConfig::max_sig_validations) and KeyTrap's bound are per
// resolution: the zone's worst single-RRset pairing count times the
// signed RRsets one response can carry. The whole zone's signature total
// would grow with its size and refuse every large benign zone.
//
// Verdicts:
//  - kReject: one response's worst-case validator work exceeds the budget,
//    one RRset's pairings exceed the pairing threshold (KeyTrap blowup),
//    or the NSEC3 iteration count is above the refusal cap. The store
//    refuses the upsert.
//  - kFlag: colliding key tags present but the work still fits the budget.
//    Admitted, counted, for operators to chase.
//  - kAdmit: everything else.
#pragma once

#include "analyzer/grok.h"
#include "server/zonestore.h"
#include "zonelint/costmodel.h"

namespace dfx::zonelint {

/// Signed RRsets one response can carry: the answer, the SOA, and up to
/// three denial proofs (NSEC3 closest encloser, next closer, wildcard).
inline constexpr std::size_t kSignedRrsetsPerResponse = 5;

/// The single-pass cost scan the admission policy runs: one walk over the
/// zone's RRsets, no graph allocation. Agrees with
/// estimate_cost(build_trust_graph(zone)) on the priced fields for any
/// zone without signed occluded glue (where it over-counts — a deliberate
/// upper bound on the validator's work). `zone_signed`, when non-null,
/// receives whether the zone carries DNSKEYs or RRSIGs at all.
ValidationCost admission_cost_scan(const zone::Zone& zone,
                                   bool* zone_signed = nullptr);

/// Build an admission policy enforcing `budget` (defaults mirror the
/// budgeted validator). Install with ZoneStore::set_admission_policy; the
/// returned callable is self-contained and thread-compatible (the store
/// serializes calls under its writer lock).
server::AdmissionPolicy make_admission_policy(
    analyzer::GrokConfig budget = {});

}  // namespace dfx::zonelint
