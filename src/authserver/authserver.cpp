#include "authserver/authserver.h"

#include <algorithm>
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
    const auto& labels = owner.labels();
    return labels.empty() ? std::string_view() : labels.front();
  };
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
      nsec_owners_.push_back(&rrset.owner());  // already canonical
    } else if (rrset.type() == dns::RRType::kNSEC3 &&
               std::holds_alternative<dns::Nsec3Rdata>(rdatas.front())) {
      nsec3_owners_.push_back(&rrset.owner());
      nsec3_width_ =
          std::max(nsec3_width_, first_label(rrset.owner()).size() * 5 / 8);
    }
  });

  // Decode each first label straight into its slot; owners that do not
  // decode leave the chain for the undecodable list.
  nsec3_hashes_.resize(nsec3_owners_.size() * nsec3_width_);
  nsec3_lengths_.reserve(nsec3_owners_.size());
  std::size_t kept = 0;
  for (const dns::Name* owner : nsec3_owners_) {
    const auto length = base32hex_decode_to(
        first_label(*owner), nsec3_hashes_.data() + kept * nsec3_width_);
    if (!length) {
      nsec3_undecodable_.push_back(owner);
      continue;
    }
    nsec3_owners_[kept++] = owner;
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
  std::vector<const dns::Name*> owners(kept);
  std::vector<std::uint8_t> hashes(nsec3_hashes_.size());
  std::vector<std::uint32_t> lengths(kept);
  for (std::size_t to = 0; to < kept; ++to) {
    const std::size_t from = order[to];
    owners[to] = nsec3_owners_[from];
    lengths[to] = nsec3_lengths_[from];
    std::copy_n(nsec3_hashes_.data() + from * nsec3_width_, nsec3_width_,
                hashes.data() + to * nsec3_width_);
  }
  nsec3_owners_ = std::move(owners);
  nsec3_hashes_ = std::move(hashes);
  nsec3_lengths_ = std::move(lengths);
}

const dns::Name* DenialIndex::nsec_match(const dns::Name& name) const {
  const auto it = std::lower_bound(
      nsec_owners_.begin(), nsec_owners_.end(), name,
      [](const dns::Name* owner, const dns::Name& n) { return *owner < n; });
  return it != nsec_owners_.end() && **it == name ? *it : nullptr;
}

const dns::Name* DenialIndex::nsec_predecessor(const dns::Name& name) const {
  if (nsec_owners_.empty()) return nullptr;
  const auto it = std::upper_bound(
      nsec_owners_.begin(), nsec_owners_.end(), name,
      [](const dns::Name& n, const dns::Name* owner) { return n < *owner; });
  return it == nsec_owners_.begin() ? nsec_owners_.back() : *std::prev(it);
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
             ? nsec3_owners_[i]
             : nullptr;
}

const dns::Name* DenialIndex::nsec3_predecessor(const Bytes& hash) const {
  if (nsec3_owners_.empty()) return nullptr;
  const std::size_t i = nsec3_bound(hash, /*or_equal=*/false);
  return nsec3_owners_[i == 0 ? nsec3_owners_.size() - 1 : i - 1];
}

namespace {

void add_rrset_with_sigs(const zone::Zone& zone, const dns::Name& owner,
                         dns::RRType type,
                         std::vector<dns::ResourceRecord>& section) {
  const auto* rrset = zone.find(owner, type);
  if (rrset == nullptr) return;
  for (const auto& rr : rrset->to_records()) section.push_back(rr);
  const auto* sigs = zone.find(owner, dns::RRType::kRRSIG);
  if (sigs == nullptr) return;
  for (const auto& rdata : sigs->rdatas()) {
    const auto* sig = std::get_if<dns::RrsigRdata>(&rdata);
    if (sig != nullptr && sig->type_covered == type) {
      section.push_back(dns::ResourceRecord{owner, dns::RRType::kRRSIG,
                                            dns::RRClass::kIN, sigs->ttl(),
                                            rdata});
    }
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
  const auto emit = [&](const dns::Name* owner) {
    if (owner == nullptr) return;
    add_rrset_with_sigs(zone, *owner, dns::RRType::kNSEC, result.authorities);
  };
  if (!nxdomain) {
    // NODATA: the NSEC matching qname proves the type's absence (its
    // RRSIGs go out under qname's spelling); otherwise the predecessor
    // NSEC stands in (ENT case).
    emit(denial.nsec_match(qname) != nullptr ? &qname
                                             : denial.nsec_predecessor(qname));
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
                        result.authorities);
  };
  const auto hash_of = [&](const dns::Name& name) {
    return zone::nsec3_hash(name, param->salt, param->iterations);
  };
  // The server cannot place these in the hash order, but it still serves
  // them alongside every negative answer — validation is the resolver's
  // job, not the server's.
  for (const dns::Name* owner : denial.nsec3_undecodable()) emit(owner);

  if (!nxdomain) {
    // NODATA: NSEC3 matching qname.
    emit(denial.nsec3_match(hash_of(qname)));
    return;
  }
  // NXDOMAIN: closest-encloser proof (RFC 5155 §7.2.1):
  //   1. matching NSEC3 for the closest encloser,
  //   2. covering NSEC3 for the next-closer name,
  //   3. covering NSEC3 for the wildcard at the closest encloser.
  dns::Name closest = qname;
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
  const std::size_t next_labels = closest.label_count() + 1;
  dns::Name next_closer = qname;
  while (next_closer.label_count() > next_labels) {
    next_closer = next_closer.parent();
  }
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
  add_rrset_with_sigs(zone, qname, qtype, result.answers);
}

/// NODATA (the name exists, possibly as an empty non-terminal) or NXDOMAIN:
/// the apex SOA plus the denial proofs.
void answer_negative(const zone::Zone& zone, const DenialIndex& denial,
                     const dns::Name& qname, bool nxdomain,
                     QueryResult& result) {
  result.rcode = nxdomain ? dns::RCode::kNXDomain : dns::RCode::kNoError;
  add_rrset_with_sigs(zone, zone.apex(), dns::RRType::kSOA,
                      result.authorities);
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
  for (const auto& rdata : rrset->rdatas()) {
    result.answers.push_back(dns::ResourceRecord{
        qname, qtype, dns::RRClass::kIN, rrset->ttl(), rdata});
  }
  if (const auto* sigs = zone.find(wildcard, dns::RRType::kRRSIG)) {
    for (const auto& rdata : sigs->rdatas()) {
      const auto* sig = std::get_if<dns::RrsigRdata>(&rdata);
      if (sig != nullptr && sig->type_covered == qtype) {
        result.answers.push_back(dns::ResourceRecord{
            qname, dns::RRType::kRRSIG, dns::RRClass::kIN, sigs->ttl(),
            rdata});
      }
    }
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
  if (ns != nullptr) {
    for (const auto& rr : ns->to_records()) result.authorities.push_back(rr);
  }
  // DS (plus signature) travels with the referral; its absence is proven
  // with NSEC(3) like any other missing type.
  if (zone.find(cut, dns::RRType::kDS) != nullptr) {
    add_rrset_with_sigs(zone, cut, dns::RRType::kDS, result.authorities);
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
        if (glue != nullptr) {
          for (const auto& rr : glue->to_records()) {
            result.additionals.push_back(rr);
          }
        }
      }
    }
  }
}

}  // namespace

QueryResult answer(const zone::Zone& zone, const DenialIndex& denial,
                   const dns::Name& qname, dns::RRType qtype) {
  QueryResult result;
  result.authoritative = true;

  // Below a zone cut (or at one, for non-DS questions): referral.
  const auto cut = zone.covering_delegation(qname);
  if (cut && !(qname == *cut && qtype == dns::RRType::kDS)) {
    answer_referral(zone, denial, *cut, result);
    return result;
  }

  if (zone.find(qname, qtype) != nullptr) {
    answer_positive(zone, qname, qtype, result);
    return result;
  }
  // CNAME at the owner answers any type.
  if (qtype != dns::RRType::kCNAME &&
      zone.find(qname, dns::RRType::kCNAME) != nullptr) {
    answer_positive(zone, qname, dns::RRType::kCNAME, result);
    return result;
  }
  if (zone.name_exists(qname) ||
      zone.name_or_descendant_exists(qname)) {
    // Name exists (possibly as an empty non-terminal): NODATA.
    answer_negative(zone, denial, qname, /*nxdomain=*/false, result);
    return result;
  }
  // Wildcard synthesis (RFC 1034 §4.3.3): a "*" child of the closest
  // encloser answers for every non-existent name beneath it.
  dns::Name closest = qname.parent();
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

std::vector<dns::ResourceRecord> QueryResult::negative_proofs() const {
  std::vector<dns::ResourceRecord> out;
  for (const auto& rr : authorities) {
    if (rr.type == dns::RRType::kNSEC || rr.type == dns::RRType::kNSEC3 ||
        rr.type == dns::RRType::kRRSIG) {
      out.push_back(rr);
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
  msg.answers = answers;
  msg.authorities = authorities;
  msg.additionals = additionals;
  return msg;
}

void AuthServer::set_lame(bool lame) {
  lame_ = lame;
  ++version_;
}

void AuthServer::load_zone(zone::Zone zone) {
  dns::Name apex = zone.apex();
  zones_.erase(apex);
  zones_.try_emplace(std::move(apex), std::move(zone));
  ++version_;
}

void AuthServer::unload_zone(const dns::Name& apex) {
  zones_.erase(apex);
  ++version_;
}

bool AuthServer::serves(const dns::Name& apex) const {
  return zones_.find(apex) != zones_.end();
}

const zone::Zone* AuthServer::zone_data(const dns::Name& apex) const {
  const auto it = zones_.find(apex);
  return it == zones_.end() ? nullptr : &it->second.zone;
}

const HostedZone* AuthServer::best_zone_for(const dns::Name& qname,
                                            dns::RRType qtype) const {
  // Deepest apex that is an ancestor of (or equal to) qname. For DS the
  // *parent* side of the cut is authoritative, so a query for the apex DS
  // must fall through to the enclosing zone.
  const HostedZone* best = nullptr;
  for (const auto& [apex, hosted] : zones_) {
    if (!qname.is_subdomain_of(apex)) continue;
    if (qtype == dns::RRType::kDS && qname == apex) {
      // Serve from the parent zone when we also host it.
      bool parent_hosted = false;
      for (const auto& [other_apex, _] : zones_) {
        if (other_apex != apex && qname.is_subdomain_of(other_apex)) {
          parent_hosted = true;
          break;
        }
      }
      if (parent_hosted) continue;
    }
    if (best == nullptr ||
        apex.label_count() > best->zone.apex().label_count()) {
      best = &hosted;
    }
  }
  return best;
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
  const HostedZone* hosted = best_zone_for(qname, qtype);
  if (hosted == nullptr) {
    result.rcode = dns::RCode::kRefused;
    return result;
  }
  return answer(hosted->zone, hosted->denial, qname, qtype);
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
  return answer(it->second.zone, it->second.denial, qname, qtype);
}

}  // namespace dfx::authserver
