// In-memory authoritative nameserver.
//
// Serves one or more zones with full positive/negative/referral answer
// logic, including NSEC and NSEC3 proof selection. A server holds each
// zone as a shared, read-only version (HostedZone: the zone, its
// DenialIndex and a load serial). An answer copies no record: its
// sections are views of the version's RRsets, and the QueryResult holds
// the version (its pin) for as long as it lives, so a result stays valid
// across a reload or unload of the zone it came from. A push to every server of a zone gives
// them one version, so they share it; a push to one server gives it a
// version of its own, so multi-server inconsistencies (a key error class
// in the paper) arise naturally when only one server is updated.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
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

struct HostedZone;

/// One section of a served answer: its records in the order the server
/// emits them. A section answer() fills holds no record of its own. Each
/// of its parts is a view of one zone RRset: all of its records, or the
/// RRSIGs of an RRSIG RRset that cover one type. A part is served under
/// the RRset's owner, or under the one name the section keeps a copy of
/// (the query name, when a wildcard expands or a proof is spelled the way
/// the question spelled it). Records that are in no zone (hand-built
/// results, test models) are owned. Iteration yields dns::RecordRef, and
/// every reader (the encoder, grok's extract, the resolver, to_message)
/// goes through it. Views are valid while the zone version they point
/// into lives: QueryResult::pin keeps it alive.
class Section {
 public:
  /// One run of records: a view of an RRset (`rrset`), or one owned
  /// record (`rrset` null, `owned` its index).
  struct Part {
    const dns::RRset* rrset = nullptr;
    std::uint32_t owned = 0;
    /// An RRSIG RRset of which only the rdatas covering `covered` belong.
    bool sigs = false;
    dns::RRType covered = dns::RRType::kA;
    /// Served under the section's spelled owner, not the RRset's.
    bool spelled = false;

    /// The records' type.
    dns::RRType type(const Section& section) const {
      return rrset != nullptr ? rrset->type()
                              : section.owned_[owned].type;
    }
    /// The records' owner as served.
    const dns::Name& owner(const Section& section) const;
  };

  class const_iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = dns::RecordRef;
    using reference = dns::RecordRef;
    using pointer = void;
    using difference_type = std::ptrdiff_t;

    const_iterator() = default;
    dns::RecordRef operator*() const { return section_->at(part_, rdata_); }
    const_iterator& operator++() {
      ++rdata_;
      settle();
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator before = *this;
      ++*this;
      return before;
    }
    bool operator==(const const_iterator& other) const {
      return part_ == other.part_ && rdata_ == other.rdata_;
    }

   private:
    friend class Section;
    const_iterator(const Section* section, std::size_t part)
        : section_(section), part_(part) {
      settle();
    }
    /// Step to the next record that belongs to the section (or the end).
    void settle();

    const Section* section_ = nullptr;
    std::size_t part_ = 0;
    std::size_t rdata_ = 0;
  };

  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, parts_.size()}; }
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  dns::RecordRef front() const;
  dns::RecordRef back() const;
  const std::vector<Part>& parts() const { return parts_; }

  /// Append an owned record.
  void push_back(dns::ResourceRecord rr);
  /// Append every record of `rrset` (a view), served under `owner`.
  void add_rrset(const dns::RRset& rrset, const dns::Name& owner);
  void add_rrset(const dns::RRset& rrset) { add_rrset(rrset, rrset.owner()); }
  /// Append the RRSIGs of `rrsigs` covering `covered` (a view), served
  /// under `owner`. Nothing when none covers it.
  void add_sigs(const dns::RRset& rrsigs, dns::RRType covered,
                const dns::Name& owner);
  /// Append the records of another section's part.
  void add_part(const Section& from, const Part& part);

  /// Owned copies of the records.
  std::vector<dns::ResourceRecord> to_records() const;

 private:
  dns::RecordRef at(std::size_t part, std::size_t rdata) const;
  /// Whether rdata `i` of view `part` is one of its records.
  static bool belongs(const Part& part, std::size_t i);
  /// Serve `part` under `owner`: the RRset's own owner when spelled the
  /// same, else the section's spelled owner (set on first use). False
  /// when the section already spells another name.
  bool spell(Part& part, const dns::Name& owner);
  void add_view(Part part, const dns::Name& owner);

  std::vector<Part> parts_;
  std::vector<dns::ResourceRecord> owned_;
  dns::Name spelled_owner_;
  bool has_spelled_owner_ = false;
  std::size_t size_ = 0;
};

/// The server's reply to one question.
struct QueryResult {
  bool reachable = true;  // false models a lame/unresponsive server
  dns::RCode rcode = dns::RCode::kNoError;
  bool authoritative = false;
  /// The hosted version the sections' views point into, kept alive for
  /// as long as this result (or a copy) lives. Null for answers from a
  /// borrowed zone (valid only while it lives) and for owned records.
  std::shared_ptr<const HostedZone> pin;
  Section answers;
  Section authorities;
  Section additionals;

  /// All NSEC/NSEC3 records (with RRSIGs) in the authority section; its
  /// views are valid while this result lives.
  Section negative_proofs() const;

  /// Render as a wire-ready response to `question`: QR set, AA from
  /// `authoritative`, RCODE from `rcode`, sections copied. The caller owns
  /// everything transport-level — message ID, RD/CD echo, EDNS attachment
  /// and truncation (src/server/frontend does all four, and encodes the
  /// sections in place without this copy). Must not be called on an
  /// unreachable result: a lame server sends nothing.
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
/// The index holds its owner names by value, in canonical case, and the
/// decoded hashes share one array of fixed-width slots (the widest hash's
/// length; shorter ones compare as the prefix they are). It reads nothing
/// but the zone's apex and its NSEC, NSEC3 and NSEC3PARAM RRsets, so it
/// serves every zone version with the same chain (zone::Zone::same_chain)
/// and outlives the version it was built from. answer() looks each owner
/// it returns up in the zone it answers from and serves the proof under
/// that RRset's own spelling.
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
  const std::vector<dns::Name>& nsec3_undecodable() const {
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

  std::vector<dns::Name> nsec_owners_;
  /// NSEC3 entry i: owner, and its hash in slot i of `nsec3_hashes_`.
  std::vector<dns::Name> nsec3_owners_;
  std::vector<std::uint8_t> nsec3_hashes_;
  std::vector<std::uint32_t> nsec3_lengths_;
  std::size_t nsec3_width_ = 0;
  std::vector<dns::Name> nsec3_undecodable_;
  bool nsec3_ = false;
  std::optional<dns::Nsec3ParamRdata> nsec3_param_;
};

/// One hosted zone version and its denial index. Built once when the
/// version is loaded and never changed afterwards (all members are const).
/// The index is the one `previous` (the version hosted at the apex
/// before) holds when the two zones have the same chain
/// (zone::Zone::same_chain), so a re-publish that leaves the chain alone
/// builds none; otherwise it is built from `zone`. AuthServer keeps one
/// per hosted apex, shared by every server the version was pushed to; the
/// serving layer's ZoneStore shares them between published maps.
struct HostedZone {
  explicit HostedZone(zone::Zone z, std::uint64_t load_serial = 0,
                      const HostedZone* previous = nullptr);

  const zone::Zone zone;
  const std::shared_ptr<const DenialIndex> denial;
  /// load_version() draws it from one process-wide counter, so two loaded
  /// versions never share a serial and an unchanged serial means
  /// unchanged answers. 0 for versions built outside load_version().
  const std::uint64_t serial;
};

/// Hosted zone versions by apex: an AuthServer's zones and the serving
/// layer's published ZoneStore map.
using HostedZones =
    std::map<dns::Name, std::shared_ptr<const HostedZone>, dns::Name::Less>;

/// The hosted zone that answers (qname, qtype): the deepest apex in
/// `zones` at or above qname. An apex DS question belongs to the parent
/// side of the cut, so it goes to the deepest hosted proper ancestor
/// instead when one exists. `zones.end()` when no apex covers qname. The
/// one rule for picking a zone: AuthServer::query and the serving layer's
/// ZoneStore::find both call it.
HostedZones::const_iterator find_hosted(const HostedZones& zones,
                                        const dns::Name& qname,
                                        dns::RRType qtype);

/// A new hosted version of `zone` with a fresh load serial, sharing the
/// denial index of `previous` (the version hosted at its apex, if any)
/// when the chain is unchanged. ServerFarm builds one per push and gives
/// it to every server the push reaches, so servers holding the same serial
/// hold the same version.
std::shared_ptr<const HostedZone> load_version(
    zone::Zone zone, const HostedZone* previous = nullptr);

/// Answer a question from one zone with standard authoritative-server
/// semantics: referral below a cut, positive (or CNAME) answer, NODATA,
/// wildcard synthesis, NXDOMAIN. NSEC/NSEC3 proofs are picked the way real
/// nameservers pick them — predecessor in canonical or hash order, wrapping
/// to the last record — so a corrupt chain is served as-is and the
/// validator is the one that notices. The one answer path: AuthServer,
/// the serving layer (ZoneStore, WireFrontend) and zonelint all call it.
/// `denial` must have been built from a zone with `zone`'s chain
/// (zone::Zone::same_chain). `qname` must lie within the zone. The
/// result's sections are views into `zone`, valid while it lives
/// unchanged; the HostedZone overload pins the version instead, so its
/// result may outlive every other holder.
DFX_COLD("runs on answer-cache misses only; its results are cached")
QueryResult answer(const zone::Zone& zone, const DenialIndex& denial,
                   const dns::Name& qname, dns::RRType qtype);
DFX_COLD("runs on answer-cache misses only; its results are cached")
QueryResult answer(std::shared_ptr<const HostedZone> hosted,
                   const dns::Name& qname, dns::RRType qtype);

class AuthServer {
 public:
  explicit AuthServer(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  /// Unresponsive mode: every query times out (lame delegation modelling).
  void set_lame(bool lame);
  bool lame() const { return lame_; }

  /// Install (or replace) a hosted version (from load_version()) under
  /// its apex. Its DenialIndex serves every negative answer from it; other
  /// servers given the same version share it. The other hosted zones keep
  /// their versions.
  void load_zone(std::shared_ptr<const HostedZone> version);

  /// Drop a zone.
  void unload_zone(const dns::Name& apex);

  bool serves(const dns::Name& apex) const;
  const zone::Zone* zone_data(const dns::Name& apex) const;
  /// The hosted version at `apex`, or null.
  std::shared_ptr<const HostedZone> hosted(const dns::Name& apex) const;

  /// Answer from the deepest hosted zone covering `qname` (answer()).
  QueryResult query(const dns::Name& qname, dns::RRType qtype) const;

  /// Answer from one specific hosted zone (the parent-side view a prober
  /// gets from servers that are authoritative only for the parent).
  QueryResult query_in_zone(const dns::Name& zone_apex, const dns::Name& qname,
                            dns::RRType qtype) const;

  /// The load serial of the hosted zone query(qname, qtype) answers from,
  /// or 0 when none does. Hosted zones are read-only, so while this and
  /// lame() are unchanged, so is that answer.
  std::uint64_t answering_serial(const dns::Name& qname,
                                 dns::RRType qtype) const;

  /// The load serial of the zone query_in_zone(zone_apex, ...) answers
  /// from, or 0 when it is not hosted.
  std::uint64_t zone_serial(const dns::Name& zone_apex) const;

 private:
  std::string name_;
  bool lame_ = false;
  HostedZones zones_;
};

}  // namespace dfx::authserver
