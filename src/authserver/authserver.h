// In-memory authoritative nameserver.
//
// Serves one or more zones with full positive/negative/referral answer
// logic, including NSEC and NSEC3 proof selection. Each server holds its
// own *copy* of zone data, so multi-server inconsistencies (a key error
// class in the paper) arise naturally when only one copy is updated. Each
// hosted copy carries the DenialIndex built when it was loaded; a new
// version replaces both together.
#pragma once

#include <cstdint>
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

/// Everything a negative answer needs from one zone version, sorted the
/// way the server searches it. Built in one walk over the zone and never
/// changed afterwards, so every lookup is a binary search:
///  - the NSEC owners, in canonical order (the zone's own order);
///  - the NSEC3 owners whose first label base32hex-decodes, by decoded
///    hash, ties kept in canonical owner order;
///  - the NSEC3 owners whose first label does not decode (only a broken
///    signer makes them), in canonical order;
///  - whether the apex has an NSEC3PARAM RRset, and its first rdata.
/// The layout is flat: owners are pointers to the owner names inside the
/// zone's RRsets, and the decoded hashes share one array of fixed-width
/// slots (the widest hash's length; shorter ones compare as the prefix
/// they are). So the index is valid only while the zone version it was
/// built from is alive and unwritten (zone::Zone's pointer rule): hold it
/// beside a zone that nothing writes, as HostedZone does, or for the
/// length of one call, as zonelint does.
class DenialIndex {
 public:
  explicit DenialIndex(const zone::Zone& zone);

  /// Negative answers use the NSEC3 chain: the apex has an NSEC3PARAM
  /// RRset (even one that cannot be used).
  bool nsec3() const { return nsec3_; }

  /// The apex's first NSEC3PARAM rdata; null when absent or not an
  /// NSEC3PARAM, in which case NSEC3 negative answers carry no proofs.
  const dns::Nsec3ParamRdata* nsec3_param() const {
    return nsec3_param_ ? &*nsec3_param_ : nullptr;
  }

  /// The NSEC owner equal to `name`, or null.
  const dns::Name* nsec_match(const dns::Name& name) const;

  /// The last NSEC owner at or before `name` in canonical order, wrapping
  /// to the last owner; null only for an empty chain.
  const dns::Name* nsec_predecessor(const dns::Name& name) const;

  /// The first NSEC3 owner (in index order) whose hash equals `hash`.
  const dns::Name* nsec3_match(const Bytes& hash) const;

  /// The owner of the last NSEC3 record whose hash is at or before `hash`,
  /// wrapping to the last record; null only for an empty chain.
  const dns::Name* nsec3_predecessor(const Bytes& hash) const;

  /// NSEC3 owners with undecodable first labels; served with every NSEC3
  /// negative answer, since the server cannot place them in hash order.
  const std::vector<const dns::Name*>& nsec3_undecodable() const {
    return nsec3_undecodable_;
  }

 private:
  /// The decoded hash of NSEC3 entry `i`.
  ByteView nsec3_hash(std::size_t i) const {
    return {nsec3_hashes_.data() + i * nsec3_width_, nsec3_lengths_[i]};
  }
  /// The first NSEC3 entry whose hash is above `hash` (`or_equal`: at or
  /// above it).
  std::size_t nsec3_bound(ByteView hash, bool or_equal) const;

  std::vector<const dns::Name*> nsec_owners_;
  /// NSEC3 entry i: owner, and its hash in slot i of `nsec3_hashes_`.
  std::vector<const dns::Name*> nsec3_owners_;
  std::vector<std::uint8_t> nsec3_hashes_;
  std::vector<std::uint32_t> nsec3_lengths_;
  std::size_t nsec3_width_ = 0;
  std::vector<const dns::Name*> nsec3_undecodable_;
  bool nsec3_ = false;
  std::optional<dns::Nsec3ParamRdata> nsec3_param_;
};

/// One hosted zone version and the denial index built from it. Built
/// once when the version is loaded and never changed afterwards (both
/// members are const), so the index always describes the zone beside it
/// and its pointers into that zone stay valid. AuthServer keeps one per
/// hosted apex; the serving layer's ZoneStore shares them between shard
/// snapshots.
struct HostedZone {
  explicit HostedZone(zone::Zone z) : zone(std::move(z)), denial(zone) {}

  const zone::Zone zone;
  const DenialIndex denial;
};

/// Answer a question from one zone with standard authoritative-server
/// semantics: referral below a cut, positive (or CNAME) answer, NODATA,
/// wildcard synthesis, NXDOMAIN. NSEC/NSEC3 proofs are picked the way real
/// nameservers pick them — predecessor in canonical or hash order, wrapping
/// to the last record — so a corrupt chain is served as-is and the
/// validator is the one that notices. The one answer path: AuthServer,
/// the serving layer (ZoneStore, WireFrontend) and zonelint all call it.
/// `denial` must have been built from `zone` as it is now. `qname` must
/// lie within the zone.
DFX_COLD("runs on answer-cache misses only; its results are cached")
QueryResult answer(const zone::Zone& zone, const DenialIndex& denial,
                   const dns::Name& qname, dns::RRType qtype);

class AuthServer {
 public:
  explicit AuthServer(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  /// Unresponsive mode: every query times out (lame delegation modelling).
  void set_lame(bool lame);
  bool lame() const { return lame_; }

  /// Install (or replace) a zone copy on this server, and build its
  /// DenialIndex: one index per hosted zone version, which every negative
  /// answer from that version reuses.
  void load_zone(zone::Zone zone);

  /// Drop a zone.
  void unload_zone(const dns::Name& apex);

  /// Bumped by every change to what this server answers: load_zone,
  /// unload_zone and set_lame. Hosted zones are read-only otherwise, so
  /// an unchanged version means unchanged answers (ServerFarm::generation
  /// sums these).
  std::uint64_t version() const { return version_; }

  bool serves(const dns::Name& apex) const;
  const zone::Zone* zone_data(const dns::Name& apex) const;

  /// Answer from the deepest hosted zone covering `qname` (answer()).
  QueryResult query(const dns::Name& qname, dns::RRType qtype) const;

  /// Answer from one specific hosted zone (the parent-side view a prober
  /// gets from servers that are authoritative only for the parent).
  QueryResult query_in_zone(const dns::Name& zone_apex, const dns::Name& qname,
                            dns::RRType qtype) const;

 private:
  const HostedZone* best_zone_for(const dns::Name& qname,
                                  dns::RRType qtype) const;

  std::string name_;
  bool lame_ = false;
  std::uint64_t version_ = 0;
  std::map<dns::Name, HostedZone, dns::Name::Less> zones_;
};

}  // namespace dfx::authserver
