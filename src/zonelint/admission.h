// ZoneStore admission checking backed by zonelint's cost model.
//
// The serving path must not let a KeyTrap-shaped zone through to resolvers:
// once served, every validating client pays the blowup. The admission
// policy runs on every ZoneStore upsert, so it must cost what changed, not
// what the zone holds (the budget is <5% of an upsert,
// bench/bench_zonelint.cpp). It reads the apex with one lookup (the
// DNSKEY (key tag, algorithm) groups and NSEC3PARAM) and the signature
// bound the zone keeps up to date on every write
// (zone::Zone::signature_bound: the largest RRSIG RRset and the highest
// NSEC3 iteration count). The largest RRSIG set times the largest key
// group bounds every RRset's pairings; when that bound passes both
// pairing limits, the verdict follows without a walk. Otherwise (a
// KeyTrap-shaped zone, or a bound made unknown by find_mutable) the
// policy runs admission_cost_scan, one walk over the zone's RRsets. The
// verdict, reason text included, is the scan's either way.
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

/// The zone's validation cost, in one walk over its RRsets: zonelint's
/// one cost function (lint_zone reports it, the admission policy falls
/// back to it). It prices every RRSIG RRset, including signed occluded
/// glue and RRSIGs over absent types: a deliberate upper bound, since a
/// validator still has to recognize them. `zone_signed`, when non-null,
/// receives whether the zone carries DNSKEYs or RRSIGs at all.
ValidationCost admission_cost_scan(const zone::Zone& zone,
                                   bool* zone_signed = nullptr);

/// The admission verdict for a zone of cost `cost`. It reads the NSEC3
/// iteration count, the single-RRset pairing peak and the colliding key
/// groups.
server::AdmissionVerdict admission_verdict(
    const ValidationCost& cost, bool zone_signed,
    const analyzer::GrokConfig& budget);

/// Build an admission policy enforcing `budget` (defaults mirror the
/// budgeted validator). Install with ZoneStore::set_admission_policy; the
/// returned callable is self-contained and thread-compatible (the store
/// serializes calls under its writer lock). Its verdict equals
/// admission_verdict(admission_cost_scan(zone)) on every zone.
server::AdmissionPolicy make_admission_policy(
    analyzer::GrokConfig budget = {});

}  // namespace dfx::zonelint
