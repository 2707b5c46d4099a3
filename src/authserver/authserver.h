// In-memory authoritative nameserver.
//
// Serves one or more zones with full positive/negative/referral answer
// logic, including NSEC and NSEC3 proof selection. Each server holds its
// own *copy* of zone data, so multi-server inconsistencies (a key error
// class in the paper) arise naturally when only one copy is updated.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dnscore/message.h"
#include "dnscore/name.h"
#include "dnscore/rr.h"
#include "dnscore/rrset.h"
#include "zone/zone.h"

namespace dfx::authserver {

/// Does `name` fall in the NSEC interval (owner, next) in canonical order,
/// with wrap-around at the end of the chain? The one definition of the
/// interval predicates: grok judges served proofs with them, zonelint
/// predicts grok's verdicts with them, and the serving layer's AnswerCache
/// (src/server) synthesizes aggressive negative answers with them.
bool nsec_covers(const dns::Name& owner, const dns::Name& next,
                 const dns::Name& name);

/// Same for NSEC3 hash intervals (owner_hash, next_hash).
bool nsec3_hash_covers(const Bytes& owner_hash, const Bytes& next_hash,
                       const Bytes& target);

/// The server's reply to one question.
struct QueryResult {
  bool reachable = true;  // false models a lame/unresponsive server
  dns::RCode rcode = dns::RCode::kNoError;
  bool authoritative = false;
  std::vector<dns::ResourceRecord> answers;
  std::vector<dns::ResourceRecord> authorities;
  std::vector<dns::ResourceRecord> additionals;

  /// All NSEC/NSEC3 records (with RRSIGs) in the authority section.
  std::vector<dns::ResourceRecord> negative_proofs() const;

  /// Render as a wire-ready response to `question`: QR set, AA from
  /// `authoritative`, RCODE from `rcode`, sections copied. The caller owns
  /// everything transport-level — message ID, RD/CD echo, EDNS attachment
  /// and truncation (src/server/frontend does all four). Must not be
  /// called on an unreachable result: a lame server sends nothing.
  dns::Message to_message(const dns::Question& question,
                          std::uint16_t id = 0) const;
};

/// Answer a question from one zone with standard authoritative-server
/// semantics: referral below a cut, positive (or CNAME) answer, NODATA,
/// wildcard synthesis, NXDOMAIN. NSEC/NSEC3 proofs are picked the way real
/// nameservers pick them — predecessor in canonical or hash order, wrapping
/// to the last record — so a corrupt chain is served as-is and the
/// validator is the one that notices. The one answer path: AuthServer,
/// the serving layer (ZoneStore, WireFrontend) and zonelint all call it.
/// `qname` must lie within the zone.
DFX_COLD("the full zone walk only runs on answer-cache misses; its results are cached")
QueryResult answer(const zone::Zone& zone, const dns::Name& qname,
                   dns::RRType qtype);

class AuthServer {
 public:
  explicit AuthServer(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  /// Unresponsive mode: every query times out (lame delegation modelling).
  void set_lame(bool lame) { lame_ = lame; }
  bool lame() const { return lame_; }

  /// Install (or replace) a zone copy on this server.
  void load_zone(zone::Zone zone);

  /// Drop a zone.
  void unload_zone(const dns::Name& apex);

  bool serves(const dns::Name& apex) const;
  const zone::Zone* zone_data(const dns::Name& apex) const;
  zone::Zone* mutable_zone_data(const dns::Name& apex);

  /// Answer from the deepest hosted zone covering `qname` (answer()).
  QueryResult query(const dns::Name& qname, dns::RRType qtype) const;

  /// Answer from one specific hosted zone (the parent-side view a prober
  /// gets from servers that are authoritative only for the parent).
  QueryResult query_in_zone(const dns::Name& zone_apex, const dns::Name& qname,
                            dns::RRType qtype) const;

 private:
  const zone::Zone* best_zone_for(const dns::Name& qname,
                                  dns::RRType qtype) const;

  std::string name_;
  bool lame_ = false;
  std::map<dns::Name, zone::Zone, dns::Name::Less> zones_;
};

}  // namespace dfx::authserver
