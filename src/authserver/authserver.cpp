#include "authserver/authserver.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <iterator>
#include <numeric>
#include <string_view>

#include "zone/nsec3.h"
#include "util/check.hpp"
#include "util/codec.h"

namespace dfx::authserver {

bool nsec_covers(const dns::Name& owner, const dns::Name& next,
                 const dns::Name& name) {
  if (owner < next) return owner < name && name < next;
  // Wrap-around record (last NSEC points back to the apex).
  return name > owner || name < next;
}

bool nsec3_hash_covers(const Bytes& owner_hash, const Bytes& next_hash,
                       const Bytes& target) {
  if (owner_hash < next_hash) {
    return owner_hash < target && target < next_hash;
  }
  return target > owner_hash || target < next_hash;
}

namespace {

/// Orders decoded hashes as Bytes' operator< does: bytewise, and a hash
/// that is a prefix of another sorts first.
bool hash_less(ByteView a, ByteView b) {
  const std::size_t common = std::min(a.size(), b.size());
  const int c = common == 0 ? 0 : std::memcmp(a.data(), b.data(), common);
  return c != 0 ? c < 0 : a.size() < b.size();
}

}  // namespace

DenialIndex::DenialIndex(const zone::Zone& zone) {
  const dns::Name& apex = zone.apex();
  const auto first_label = [](const dns::Name& owner) -> std::string_view {
    return owner.is_root() ? std::string_view() : owner.label(0);
  };
  // Sized from the zone's own chain counts: growing by doubling would move
  // every owner copied so far at each step.
  nsec_owners_.reserve(zone.nsec_rrsets());
  nsec3_owners_.reserve(zone.nsec3_rrsets());
  // Owners are copied in canonical case (base32hex decodes either case).
  zone.for_each_rrset([&](const dns::RRset& rrset) {
    const auto& rdatas = rrset.rdatas();
    if (rrset.type() == dns::RRType::kNSEC3PARAM) {
      if (rrset.owner() != apex) return;
      nsec3_ = true;  // even when empty or malformed: then with no proofs
      if (rdatas.empty()) return;
      if (const auto* p = std::get_if<dns::Nsec3ParamRdata>(&rdatas.front())) {
        nsec3_param_ = *p;
      }
      return;
    }
    if (rdatas.empty()) return;
    if (rrset.type() == dns::RRType::kNSEC &&
        std::holds_alternative<dns::NsecRdata>(rdatas.front())) {
      // The walk's order is already canonical.
      nsec_owners_.push_back(rrset.owner().canonical());
    } else if (rrset.type() == dns::RRType::kNSEC3 &&
               std::holds_alternative<dns::Nsec3Rdata>(rdatas.front())) {
      nsec3_owners_.push_back(rrset.owner().canonical());
      nsec3_width_ =
          std::max(nsec3_width_, first_label(rrset.owner()).size() * 5 / 8);
    }
  });

  // Decode each first label straight into its slot; owners that do not
  // decode leave the chain for the undecodable list.
  nsec3_hashes_.resize(nsec3_owners_.size() * nsec3_width_);
  nsec3_lengths_.reserve(nsec3_owners_.size());
  std::size_t kept = 0;
  for (dns::Name& owner : nsec3_owners_) {
    const auto length = base32hex_decode_to(
        first_label(owner), nsec3_hashes_.data() + kept * nsec3_width_);
    if (!length) {
      nsec3_undecodable_.push_back(std::move(owner));
      continue;
    }
    nsec3_owners_[kept++] = std::move(owner);  // a self-move is a no-op
    nsec3_lengths_.push_back(static_cast<std::uint32_t>(*length));
  }
  nsec3_owners_.resize(kept);
  nsec3_hashes_.resize(kept * nsec3_width_);

  // Base32hex preserves order, so a well-formed chain walked in canonical
  // order is already in hash order. Otherwise sort stably: owners sharing
  // a hash keep their canonical order.
  std::size_t i = 1;
  while (i < kept && !hash_less(nsec3_hash(i), nsec3_hash(i - 1))) ++i;
  if (i >= kept) return;
  std::vector<std::size_t> order(kept);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return hash_less(nsec3_hash(a), nsec3_hash(b));
                   });
  std::vector<dns::Name> owners(kept);
  std::vector<std::uint8_t> hashes(nsec3_hashes_.size());
  std::vector<std::uint32_t> lengths(kept);
  for (std::size_t to = 0; to < kept; ++to) {
    const std::size_t from = order[to];
    owners[to] = std::move(nsec3_owners_[from]);
    lengths[to] = nsec3_lengths_[from];
    std::copy_n(nsec3_hashes_.data() + from * nsec3_width_, nsec3_width_,
                hashes.data() + to * nsec3_width_);
  }
  nsec3_owners_ = std::move(owners);
  nsec3_hashes_ = std::move(hashes);
  nsec3_lengths_ = std::move(lengths);
}

const dns::Name* DenialIndex::nsec_match(const dns::Name& name) const {
  const auto it =
      std::lower_bound(nsec_owners_.begin(), nsec_owners_.end(), name);
  return it != nsec_owners_.end() && *it == name ? &*it : nullptr;
}

const dns::Name* DenialIndex::nsec_predecessor(const dns::Name& name) const {
  if (nsec_owners_.empty()) return nullptr;
  const auto it =
      std::upper_bound(nsec_owners_.begin(), nsec_owners_.end(), name);
  return it == nsec_owners_.begin() ? &nsec_owners_.back() : &*std::prev(it);
}

std::size_t DenialIndex::nsec3_bound(ByteView hash, bool or_equal) const {
  std::size_t lo = 0;
  std::size_t hi = nsec3_owners_.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    const bool before = or_equal ? hash_less(nsec3_hash(mid), hash)
                                 : !hash_less(hash, nsec3_hash(mid));
    if (before) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

const dns::Name* DenialIndex::nsec3_match(const Bytes& hash) const {
  const std::size_t i = nsec3_bound(hash, /*or_equal=*/true);
  return i < nsec3_owners_.size() && !hash_less(hash, nsec3_hash(i))
             ? &nsec3_owners_[i]
             : nullptr;
}

const dns::Name* DenialIndex::nsec3_predecessor(const Bytes& hash) const {
  if (nsec3_owners_.empty()) return nullptr;
  const std::size_t i = nsec3_bound(hash, /*or_equal=*/false);
  return &nsec3_owners_[i == 0 ? nsec3_owners_.size() - 1 : i - 1];
}

namespace {

/// The RRset of `type` among `rrsets` (nullptr: the owner has none).
const dns::RRset* rrset_of(const zone::Zone::RRsets* rrsets,
                           dns::RRType type) {
  if (rrsets == nullptr) return nullptr;
  const auto it = rrsets->find(type);
  return it == rrsets->end() ? nullptr : &it->second;
}

/// The `type` RRset at `owner` and the RRSIGs covering it, served under
/// `spelling`, or under the RRset's own owner when it is null.
void add_rrset_with_sigs(const zone::Zone& zone, const dns::NameView& owner,
                         dns::RRType type, Section& section,
                         const dns::Name* spelling) {
  const zone::Zone::RRsets* rrsets = zone.rrsets_at(owner);
  const auto* rrset = rrset_of(rrsets, type);
  if (rrset == nullptr) return;
  section.add_rrset(*rrset);
  if (const auto* sigs = rrset_of(rrsets, dns::RRType::kRRSIG)) {
    section.add_sigs(*sigs, type,
                     spelling != nullptr ? *spelling : rrset->owner());
  }
}

/// The denial proofs of one negative answer. Real nameservers locate the
/// proof by *predecessor* — owner name in canonical order, or hash in hash
/// order, wrapping to the last record — not by checking that the record's
/// interval actually covers the name: a zone whose chain was corrupted
/// still serves the broken record, and the validator is the one that
/// notices.
void add_nsec_proofs(const zone::Zone& zone, const DenialIndex& denial,
                     const dns::Name& qname, bool nxdomain,
                     QueryResult& result) {
  // The index keeps owners in canonical case: a proof it locates goes out
  // under its RRset's own spelling.
  const auto emit = [&](const dns::Name* owner) {
    if (owner == nullptr) return;
    add_rrset_with_sigs(zone, *owner, dns::RRType::kNSEC, result.authorities,
                        nullptr);
  };
  if (!nxdomain) {
    // NODATA: the NSEC matching qname proves the type's absence (its
    // RRSIGs go out under qname's spelling); otherwise the predecessor
    // NSEC stands in (ENT case).
    if (denial.nsec_match(qname) != nullptr) {
      add_rrset_with_sigs(zone, qname, dns::RRType::kNSEC, result.authorities,
                          &qname);
    } else {
      emit(denial.nsec_predecessor(qname));
    }
    return;
  }
  emit(denial.nsec_predecessor(qname));
  // ...plus the proof for the source-of-synthesis wildcard.
  emit(denial.nsec_predecessor(zone.apex().child("*")));
}

void add_nsec3_proofs(const zone::Zone& zone, const DenialIndex& denial,
                      const dns::Name& qname, bool nxdomain,
                      QueryResult& result) {
  const dns::Nsec3ParamRdata* param = denial.nsec3_param();
  if (param == nullptr) return;
  const auto emit = [&](const dns::Name* owner) {
    if (owner == nullptr) return;
    add_rrset_with_sigs(zone, *owner, dns::RRType::kNSEC3,
                        result.authorities, nullptr);
  };
  const auto hash_of = [&](const dns::NameView& name) {
    return zone::nsec3_hash(name, param->salt, param->iterations);
  };
  // The server cannot place these in the hash order, but it still serves
  // them alongside every negative answer — validation is the resolver's
  // job, not the server's.
  for (const dns::Name& owner : denial.nsec3_undecodable()) emit(&owner);

  if (!nxdomain) {
    // NODATA: NSEC3 matching qname.
    emit(denial.nsec3_match(hash_of(qname)));
    return;
  }
  // NXDOMAIN: closest-encloser proof (RFC 5155 §7.2.1):
  //   1. matching NSEC3 for the closest encloser,
  //   2. covering NSEC3 for the next-closer name,
  //   3. covering NSEC3 for the wildcard at the closest encloser.
  // Both walks step through suffix views of qname; only the wildcard
  // below builds a name.
  dns::NameView closest = qname;
  while (closest.label_count() > zone.apex().label_count()) {
    closest = closest.parent();
    if (zone.name_exists(closest) ||
        zone.name_or_descendant_exists(closest) ||
        closest == zone.apex()) {
      break;
    }
  }
  emit(denial.nsec3_match(hash_of(closest)));
  // Next-closer: one label below the closest encloser toward qname.
  const dns::NameView next_closer =
      dns::NameView(qname).suffix(closest.label_count() + 1);
  emit(denial.nsec3_predecessor(hash_of(next_closer)));
  emit(denial.nsec3_predecessor(hash_of(closest.child("*"))));
}

/// NSEC3 proofs when the apex advertises NSEC3PARAM, NSEC proofs otherwise.
void add_denial_proofs(const zone::Zone& zone, const DenialIndex& denial,
                       const dns::Name& qname, bool nxdomain,
                       QueryResult& result) {
  if (denial.nsec3()) {
    add_nsec3_proofs(zone, denial, qname, nxdomain, result);
  } else {
    add_nsec_proofs(zone, denial, qname, nxdomain, result);
  }
}

void answer_positive(const zone::Zone& zone, const dns::Name& qname,
                     dns::RRType qtype, QueryResult& result) {
  result.rcode = dns::RCode::kNoError;
  add_rrset_with_sigs(zone, qname, qtype, result.answers, &qname);
}

/// NODATA (the name exists, possibly as an empty non-terminal) or NXDOMAIN:
/// the apex SOA plus the denial proofs.
void answer_negative(const zone::Zone& zone, const DenialIndex& denial,
                     const dns::Name& qname, bool nxdomain,
                     QueryResult& result) {
  result.rcode = nxdomain ? dns::RCode::kNXDomain : dns::RCode::kNoError;
  add_rrset_with_sigs(zone, zone.apex(), dns::RRType::kSOA,
                      result.authorities, &zone.apex());
  add_denial_proofs(zone, denial, qname, nxdomain, result);
}

void answer_wildcard(const zone::Zone& zone, const DenialIndex& denial,
                     const dns::Name& qname, const dns::Name& wildcard,
                     dns::RRType qtype, QueryResult& result) {
  result.rcode = dns::RCode::kNoError;
  const auto* rrset = zone.find(wildcard, qtype);
  if (rrset == nullptr) return;
  // The answer is served at the query name; the RRSIG travels verbatim
  // from the wildcard owner (its labels field signals the expansion).
  result.answers.add_rrset(*rrset, qname);
  if (const auto* sigs = zone.find(wildcard, dns::RRType::kRRSIG)) {
    result.answers.add_sigs(*sigs, qtype, qname);
  }
  // RFC 4035 §3.1.3.3: the response must prove the query name itself does
  // not exist (the next-closer cover).
  add_denial_proofs(zone, denial, qname, /*nxdomain=*/true, result);
}

void answer_referral(const zone::Zone& zone, const DenialIndex& denial,
                     const dns::Name& cut, QueryResult& result) {
  result.rcode = dns::RCode::kNoError;
  result.authoritative = false;
  const auto* ns = zone.find(cut, dns::RRType::kNS);
  if (ns != nullptr) result.authorities.add_rrset(*ns);
  // DS (plus signature) travels with the referral; its absence is proven
  // with NSEC(3) like any other missing type.
  if (zone.find(cut, dns::RRType::kDS) != nullptr) {
    add_rrset_with_sigs(zone, cut, dns::RRType::kDS, result.authorities, &cut);
  } else {
    add_denial_proofs(zone, denial, cut, /*nxdomain=*/false, result);
  }
  // Glue.
  if (ns != nullptr) {
    for (const auto& rdata : ns->rdatas()) {
      const auto* nsr = std::get_if<dns::NsRdata>(&rdata);
      if (nsr == nullptr) continue;
      for (dns::RRType glue_type : {dns::RRType::kA, dns::RRType::kAAAA}) {
        const auto* glue = zone.find(nsr->nsdname, glue_type);
        if (glue != nullptr) result.additionals.add_rrset(*glue);
      }
    }
  }
}

}  // namespace

QueryResult answer(const zone::Zone& zone, const DenialIndex& denial,
                   const dns::Name& qname, dns::RRType qtype) {
  QueryResult result;
  result.authoritative = true;

  // One search of the owner map answers the cut, type, CNAME and existence
  // questions about qname itself; the cut walk goes on from its parent.
  const zone::Zone::RRsets* at_qname = zone.rrsets_at(qname);
  const bool qname_is_cut =
      qname.label_count() > zone.apex().label_count() &&
      rrset_of(at_qname, dns::RRType::kNS) != nullptr;
  // Below a zone cut (or at one, for non-DS questions): referral.
  if (qname_is_cut) {
    if (qtype != dns::RRType::kDS) {
      answer_referral(zone, denial, qname, result);
      return result;
    }
  } else if (const auto cut =
                 zone.covering_delegation(dns::NameView(qname).parent())) {
    answer_referral(zone, denial, *cut, result);
    return result;
  }

  if (rrset_of(at_qname, qtype) != nullptr) {
    answer_positive(zone, qname, qtype, result);
    return result;
  }
  // CNAME at the owner answers any type.
  if (qtype != dns::RRType::kCNAME &&
      rrset_of(at_qname, dns::RRType::kCNAME) != nullptr) {
    answer_positive(zone, qname, dns::RRType::kCNAME, result);
    return result;
  }
  if (at_qname != nullptr || zone.name_or_descendant_exists(qname)) {
    // Name exists (possibly as an empty non-terminal): NODATA.
    answer_negative(zone, denial, qname, /*nxdomain=*/false, result);
    return result;
  }
  // Wildcard synthesis (RFC 1034 §4.3.3): a "*" child of the closest
  // encloser answers for every non-existent name beneath it.
  dns::NameView closest = dns::NameView(qname).parent();
  while (closest.label_count() > zone.apex().label_count() &&
         !zone.name_or_descendant_exists(closest)) {
    closest = closest.parent();
  }
  const dns::Name wildcard = closest.child("*");
  if (zone.find(wildcard, qtype) != nullptr) {
    answer_wildcard(zone, denial, qname, wildcard, qtype, result);
    return result;
  }
  answer_negative(zone, denial, qname, /*nxdomain=*/true, result);
  return result;
}

QueryResult answer(std::shared_ptr<const HostedZone> hosted,
                   const dns::Name& qname, dns::RRType qtype) {
  QueryResult result = answer(hosted->zone, *hosted->denial, qname, qtype);
  result.pin = std::move(hosted);
  return result;
}

const dns::Name& Section::Part::owner(const Section& section) const {
  if (rrset == nullptr) return section.owned_[owned].owner;
  return spelled ? section.spelled_owner_ : rrset->owner();
}

bool Section::belongs(const Part& part, std::size_t i) {
  if (!part.sigs) return true;
  const auto* sig = std::get_if<dns::RrsigRdata>(&part.rrset->rdatas()[i]);
  return sig != nullptr && sig->type_covered == part.covered;
}

void Section::const_iterator::settle() {
  const auto& parts = section_->parts_;
  while (part_ < parts.size()) {
    const Part& part = parts[part_];
    const std::size_t n = part.rrset != nullptr ? part.rrset->size() : 1;
    if (rdata_ >= n) {
      ++part_;
      rdata_ = 0;
      continue;
    }
    if (part.rrset == nullptr || belongs(part, rdata_)) return;
    ++rdata_;
  }
  rdata_ = 0;
}

dns::RecordRef Section::at(std::size_t part_index, std::size_t rdata) const {
  const Part& part = parts_[part_index];
  if (part.rrset == nullptr) return owned_[part.owned];
  return {part.owner(*this), part.rrset->type(), dns::RRClass::kIN,
          part.rrset->ttl(), part.rrset->rdatas()[rdata]};
}

dns::RecordRef Section::front() const {
  DFX_CHECK(!empty());
  return *begin();
}

dns::RecordRef Section::back() const {
  DFX_CHECK(!empty());
  const std::size_t last = parts_.size() - 1;
  const Part& part = parts_[last];
  if (part.rrset == nullptr) return at(last, 0);
  std::size_t i = part.rrset->size();
  while (!belongs(part, i - 1)) --i;  // the part holds at least one record
  return at(last, i - 1);
}

void Section::push_back(dns::ResourceRecord rr) {
  Part part;
  part.owned = static_cast<std::uint32_t>(owned_.size());
  owned_.push_back(std::move(rr));
  parts_.push_back(part);
  ++size_;
}

bool Section::spell(Part& part, const dns::Name& owner) {
  const auto same_spelling = [](const dns::Name& a, const dns::Name& b) {
    return a == b && std::ranges::equal(a.wire(), b.wire());
  };
  if (same_spelling(owner, part.rrset->owner())) return true;
  if (!has_spelled_owner_) {
    spelled_owner_ = owner;
    has_spelled_owner_ = true;
  } else if (!same_spelling(owner, spelled_owner_)) {
    return false;
  }
  part.spelled = true;
  return true;
}

void Section::add_view(Part part, const dns::Name& owner) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < part.rrset->size(); ++i) {
    count += belongs(part, i) ? 1 : 0;
  }
  if (count == 0) return;
  if (!spell(part, owner)) {
    // A second spelling in one section (never in answer()'s output, whose
    // only spelled name is the query name or its cut): owned copies.
    for (std::size_t i = 0; i < part.rrset->size(); ++i) {
      if (!belongs(part, i)) continue;
      push_back(dns::ResourceRecord{owner, part.rrset->type(),
                                    dns::RRClass::kIN, part.rrset->ttl(),
                                    part.rrset->rdatas()[i]});
    }
    return;
  }
  if (parts_.empty()) parts_.reserve(8);  // an NSEC3 denial's parts
  size_ += count;
  parts_.push_back(part);
}

void Section::add_rrset(const dns::RRset& rrset, const dns::Name& owner) {
  Part part;
  part.rrset = &rrset;
  add_view(part, owner);
}

void Section::add_sigs(const dns::RRset& rrsigs, dns::RRType covered,
                       const dns::Name& owner) {
  Part part;
  part.rrset = &rrsigs;
  part.sigs = true;
  part.covered = covered;
  add_view(part, owner);
}

void Section::add_part(const Section& from, const Part& part) {
  if (part.rrset == nullptr) {
    push_back(from.owned_[part.owned]);
    return;
  }
  Part copy = part;
  copy.spelled = false;
  add_view(copy, part.owner(from));
}

std::vector<dns::ResourceRecord> Section::to_records() const {
  std::vector<dns::ResourceRecord> out;
  out.reserve(size_);
  for (const dns::RecordRef rr : *this) out.push_back(rr.to_record());
  return out;
}

Section QueryResult::negative_proofs() const {
  Section out;
  for (const Section::Part& part : authorities.parts()) {
    const dns::RRType type = part.type(authorities);
    if (type == dns::RRType::kNSEC || type == dns::RRType::kNSEC3 ||
        type == dns::RRType::kRRSIG) {
      out.add_part(authorities, part);
    }
  }
  return out;
}

dns::Message QueryResult::to_message(const dns::Question& question,
                                     std::uint16_t id) const {
  DFX_CHECK(reachable);
  dns::Message msg;
  msg.header.id = id;
  msg.header.qr = true;
  msg.header.aa = authoritative;
  msg.header.rcode = rcode;
  msg.questions.push_back(question);
  msg.answers = answers.to_records();
  msg.authorities = authorities.to_records();
  msg.additionals = additionals.to_records();
  return msg;
}

void AuthServer::set_lame(bool lame) { lame_ = lame; }

HostedZone::HostedZone(zone::Zone z, std::uint64_t load_serial,
                       const HostedZone* previous)
    : zone(std::move(z)),
      denial(previous != nullptr && zone.same_chain(previous->zone)
                 ? previous->denial
                 : std::make_shared<const DenialIndex>(zone)),
      serial(load_serial) {}

std::shared_ptr<const HostedZone> load_version(zone::Zone zone,
                                               const HostedZone* previous) {
  static std::atomic<std::uint64_t> next_serial{1};
  return std::make_shared<const HostedZone>(
      std::move(zone), next_serial.fetch_add(1, std::memory_order_relaxed),
      previous);
}

HostedZones::const_iterator find_hosted(const HostedZones& zones,
                                        const dns::Name& qname,
                                        dns::RRType qtype) {
  // Deepest first over suffix views of qname, so no candidate is copied;
  // a name has at most 127 labels, so each walk is strictly bounded.
  const auto deepest_at_or_above = [&zones](dns::NameView candidate) {
    DFX_BOUNDED_LOOP(guard, 128);
    while (true) {
      guard.tick();
      const auto it = zones.find(candidate);
      if (it != zones.end() || candidate.is_root()) return it;
      candidate = candidate.parent();
    }
  };
  const auto best = deepest_at_or_above(qname);
  if (best == zones.end() || qtype != dns::RRType::kDS || qname.is_root() ||
      best->first != qname) {
    return best;
  }
  const auto parent_side = deepest_at_or_above(dns::NameView(qname).parent());
  return parent_side == zones.end() ? best : parent_side;
}

void AuthServer::load_zone(std::shared_ptr<const HostedZone> version) {
  DFX_CHECK(version != nullptr && version->serial != 0);
  dns::Name apex = version->zone.apex();
  zones_.insert_or_assign(std::move(apex), std::move(version));
}

void AuthServer::unload_zone(const dns::Name& apex) { zones_.erase(apex); }

bool AuthServer::serves(const dns::Name& apex) const {
  return zones_.find(apex) != zones_.end();
}

const zone::Zone* AuthServer::zone_data(const dns::Name& apex) const {
  const auto it = zones_.find(apex);
  return it == zones_.end() ? nullptr : &it->second->zone;
}

std::shared_ptr<const HostedZone> AuthServer::hosted(
    const dns::Name& apex) const {
  const auto it = zones_.find(apex);
  return it == zones_.end() ? nullptr : it->second;
}

// Hot by name collision with ZoneStore::query; this is the reference
// zone walk the answer cache fronts — it only runs on cache misses.
// dfx-lint: allow(hot-path-cost): cache-miss reference path, results cached.
QueryResult AuthServer::query(const dns::Name& qname,
                              dns::RRType qtype) const {
  QueryResult result;
  if (lame_) {
    result.reachable = false;
    return result;
  }
  const auto it = find_hosted(zones_, qname, qtype);
  if (it == zones_.end()) {
    result.rcode = dns::RCode::kRefused;
    return result;
  }
  return answer(it->second, qname, qtype);
}

QueryResult AuthServer::query_in_zone(const dns::Name& zone_apex,
                                      const dns::Name& qname,
                                      dns::RRType qtype) const {
  QueryResult result;
  if (lame_) {
    result.reachable = false;
    return result;
  }
  const auto it = zones_.find(zone_apex);
  if (it == zones_.end() || !qname.is_subdomain_of(zone_apex)) {
    result.rcode = dns::RCode::kRefused;
    return result;
  }
  return answer(it->second, qname, qtype);
}

std::uint64_t AuthServer::answering_serial(const dns::Name& qname,
                                           dns::RRType qtype) const {
  const auto it = find_hosted(zones_, qname, qtype);
  return it == zones_.end() ? 0 : it->second->serial;
}

std::uint64_t AuthServer::zone_serial(const dns::Name& zone_apex) const {
  const auto it = zones_.find(zone_apex);
  return it == zones_.end() ? 0 : it->second->serial;
}

}  // namespace dfx::authserver
