// The explicit chain-of-trust graph zonelint analyses.
//
// Where the analyzer's grok stage reconstructs trust from *probe responses*
// (what servers actually answered), this graph is built statically from the
// zone data itself: DS → DNSKEY links, RRSIG → candidate-DNSKEY edges per
// RRset, and the NSEC3 parameters. Rules over the graph predict the grok
// error codes a validator would emit — without performing a single
// signature verification. The graph is also the substrate for whole-chain
// reasoning across delegations (ROADMAP item 4): every cut below the apex
// is recorded as a delegation edge.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "dnscore/rdata.h"
#include "dnscore/rrset.h"
#include "zone/zone.h"

namespace dfx::zonelint {

/// One DNSKEY in the apex key set, with the static facts rules need.
struct KeyNode {
  dns::DnskeyRdata rdata;
  std::uint16_t tag = 0;
  bool revoked = false;
  bool sep = false;               // SEP bit (operationally: a KSK)
  bool plausible_length = true;   // key material decodes for its algorithm
};

/// One RRSIG over one RRset, with edges to every DNSKEY a validator would
/// have to try: key tags are not unique (RFC 4034 App. B), so all keys
/// matching the RRSIG's (key tag, algorithm) pair are candidates — the
/// multiplicity KeyTrap exploits.
struct SigEdge {
  dns::RrsigRdata rdata;
  std::vector<std::size_t> candidates;  // indices into TrustGraph::keys
};

/// One RRset node plus its covering signatures. Non-authoritative nodes
/// (delegation NS sets, occluded glue) exist in the graph — delegations are
/// the cross-zone edges — but are exempt from signature requirements.
struct RRsetNode {
  const dns::RRset* rrset = nullptr;
  bool authoritative = true;
  bool delegation_ns = false;  // an NS set at a cut below the apex
  std::vector<SigEdge> sigs;
};

/// Parent DS → child DNSKEY link. Only present when the caller supplies
/// the parent's DS set; a standalone zone has no DS links and is analysed
/// as an island of trust.
struct DsLink {
  dns::DsRdata rdata;
  std::optional<std::size_t> matched_key;   // (tag, algorithm) match
  bool algorithm_present = false;           // some key carries the algorithm
  std::optional<std::size_t> revoked_link;  // matches a pre-revocation tag
  bool digest_supported = true;
  bool digest_ok = false;  // digest recomputed over the matched key agrees
};

/// What the fix builders need of the zone's NSEC3 setup: the apex
/// parameters and every NSEC3 rdata (the chain itself is judged by
/// analyzer::judge_denial over served answers, not from the graph).
struct DenialChain {
  std::optional<dns::Nsec3ParamRdata> params;  // apex NSEC3PARAM, if any
  std::vector<dns::Nsec3Rdata> nsec3;

  bool uses_nsec3() const { return !nsec3.empty() || params.has_value(); }
};

struct TrustGraph {
  const zone::Zone* zone = nullptr;
  std::vector<KeyNode> keys;
  std::vector<RRsetNode> rrsets;  // every RRset except the RRSIGs themselves
  std::vector<DsLink> ds_links;
  DenialChain denial;

  bool is_signed() const { return !keys.empty(); }

  /// Indices of every key a validator must try for (tag, algorithm).
  std::vector<std::size_t> keys_matching(std::uint16_t tag,
                                         std::uint8_t algorithm) const;
};

/// Build the graph for one zone. `parent_ds` is the DS set the parent
/// publishes for this zone's apex (empty when unknown: DS-linkage rules
/// are then skipped, everything else still runs).
TrustGraph build_trust_graph(const zone::Zone& zone,
                             std::span<const dns::DsRdata> parent_ds = {});

}  // namespace dfx::zonelint
