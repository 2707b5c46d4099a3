#include "authserver/authserver.h"

#include <algorithm>

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

void add_nsec_proofs(const zone::Zone& zone, const dns::Name& qname,
                     bool nxdomain, QueryResult& result) {
  // Collect all NSEC owners once.
  std::vector<dns::Name> chain;
  for (const auto* rrset : zone.all_rrsets()) {
    if (rrset->type() != dns::RRType::kNSEC || rrset->empty()) continue;
    if (std::holds_alternative<dns::NsecRdata>(rrset->rdatas().front())) {
      chain.push_back(rrset->owner());
    }
  }
  // Real nameservers locate the proof by *owner-name predecessor* in
  // canonical order (wrapping to the last record), not by checking that the
  // record's interval actually covers the name — so a zone whose NSEC
  // intervals were corrupted still serves the broken record, and the
  // validator is the one that notices.
  std::sort(chain.begin(), chain.end());
  const auto emit = [&](const dns::Name& owner) {
    add_rrset_with_sigs(zone, owner, dns::RRType::kNSEC, result.authorities);
  };
  const auto predecessor = [&](const dns::Name& name) -> const dns::Name* {
    const dns::Name* best = nullptr;
    for (const auto& owner : chain) {
      if (owner <= name) best = &owner;
    }
    if (best == nullptr && !chain.empty()) best = &chain.back();  // wrap
    return best;
  };
  if (chain.empty()) return;
  if (!nxdomain) {
    // NODATA: the NSEC matching qname proves the type's absence.
    if (std::find(chain.begin(), chain.end(), qname) != chain.end()) {
      emit(qname);
      return;
    }
    // Fall through: the predecessor NSEC stands in (ENT case).
  }
  if (const auto* cover = predecessor(qname)) emit(*cover);
  if (nxdomain) {
    // ...plus the proof for the source-of-synthesis wildcard.
    const dns::Name wildcard = zone.apex().child("*");
    if (const auto* cover = predecessor(wildcard)) emit(*cover);
  }
}

void add_nsec3_proofs(const zone::Zone& zone, const dns::Name& qname,
                      bool nxdomain, QueryResult& result) {
  const auto* param_set = zone.find(zone.apex(), dns::RRType::kNSEC3PARAM);
  if (param_set == nullptr || param_set->empty()) return;
  const auto* param =
      std::get_if<dns::Nsec3ParamRdata>(&param_set->rdatas().front());
  if (param == nullptr) return;

  struct Nsec3Entry {
    dns::Name owner;
    Bytes owner_hash;  // decoded from the first label
  };
  std::vector<Nsec3Entry> chain;
  std::vector<dns::Name> undecodable;  // broken-signer artifacts
  for (const auto* rrset : zone.all_rrsets()) {
    if (rrset->type() != dns::RRType::kNSEC3 || rrset->empty()) continue;
    if (!std::holds_alternative<dns::Nsec3Rdata>(rrset->rdatas().front())) {
      continue;
    }
    auto decoded = base32hex_decode(rrset->owner().leftmost_label());
    if (!decoded) {
      // The server cannot place this record in the hash order, but it still
      // serves it alongside every negative answer — validation is the
      // resolver's job, not the server's.
      undecodable.push_back(rrset->owner());
      continue;
    }
    chain.push_back({rrset->owner(), *std::move(decoded)});
  }
  // Undecodable owner labels (only produced by a broken signer) sort after
  // the rest; the server still serves them — validation is not its job.
  std::sort(chain.begin(), chain.end(),
            [](const Nsec3Entry& a, const Nsec3Entry& b) {
              return a.owner_hash < b.owner_hash;
            });
  const auto emit = [&](const dns::Name& owner) {
    add_rrset_with_sigs(zone, owner, dns::RRType::kNSEC3, result.authorities);
  };
  const auto hash_of = [&](const dns::Name& name) {
    return zone::nsec3_hash(name, param->salt, param->iterations);
  };
  const auto emit_match = [&](const dns::Name& name) {
    const Bytes h = hash_of(name);
    for (const auto& e : chain) {
      if (e.owner_hash == h) {
        emit(e.owner);
        return true;
      }
    }
    return false;
  };
  // Predecessor-by-hash selection, wrapping to the last record: the server
  // serves whatever record its chain says is adjacent, even if the record's
  // interval is corrupt — the validator decides whether it proves anything.
  const auto emit_cover = [&](const dns::Name& name) {
    if (chain.empty()) return false;
    const Bytes h = hash_of(name);
    const Nsec3Entry* best = nullptr;
    for (const auto& e : chain) {
      if (e.owner_hash <= h) best = &e;
    }
    if (best == nullptr) best = &chain.back();  // wrap-around
    emit(best->owner);
    return true;
  };

  for (const auto& owner : undecodable) emit(owner);

  if (!nxdomain) {
    // NODATA: NSEC3 matching qname.
    emit_match(qname);
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
  emit_match(closest);
  // Next-closer: one label below the closest encloser toward qname.
  const std::size_t next_labels = closest.label_count() + 1;
  dns::Name next_closer = qname;
  while (next_closer.label_count() > next_labels) {
    next_closer = next_closer.parent();
  }
  emit_cover(next_closer);
  emit_cover(closest.child("*"));
}

/// NSEC3 proofs when the apex advertises NSEC3PARAM, NSEC proofs otherwise.
void add_denial_proofs(const zone::Zone& zone, const dns::Name& qname,
                       bool nxdomain, QueryResult& result) {
  if (zone.find(zone.apex(), dns::RRType::kNSEC3PARAM) != nullptr) {
    add_nsec3_proofs(zone, qname, nxdomain, result);
  } else {
    add_nsec_proofs(zone, qname, nxdomain, result);
  }
}

void answer_positive(const zone::Zone& zone, const dns::Name& qname,
                     dns::RRType qtype, QueryResult& result) {
  result.rcode = dns::RCode::kNoError;
  add_rrset_with_sigs(zone, qname, qtype, result.answers);
}

/// NODATA (the name exists, possibly as an empty non-terminal) or NXDOMAIN:
/// the apex SOA plus the denial proofs.
void answer_negative(const zone::Zone& zone, const dns::Name& qname,
                     bool nxdomain, QueryResult& result) {
  result.rcode = nxdomain ? dns::RCode::kNXDomain : dns::RCode::kNoError;
  add_rrset_with_sigs(zone, zone.apex(), dns::RRType::kSOA,
                      result.authorities);
  add_denial_proofs(zone, qname, nxdomain, result);
}

void answer_wildcard(const zone::Zone& zone, const dns::Name& qname,
                     const dns::Name& wildcard, dns::RRType qtype,
                     QueryResult& result) {
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
  add_denial_proofs(zone, qname, /*nxdomain=*/true, result);
}

void answer_referral(const zone::Zone& zone, const dns::Name& cut,
                     QueryResult& result) {
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
    add_denial_proofs(zone, cut, /*nxdomain=*/false, result);
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

QueryResult answer(const zone::Zone& zone, const dns::Name& qname,
                   dns::RRType qtype) {
  QueryResult result;
  result.authoritative = true;

  // Below a zone cut (or at one, for non-DS questions): referral.
  const auto cut = zone.covering_delegation(qname);
  if (cut && !(qname == *cut && qtype == dns::RRType::kDS)) {
    answer_referral(zone, *cut, result);
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
    answer_negative(zone, qname, /*nxdomain=*/false, result);
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
    answer_wildcard(zone, qname, wildcard, qtype, result);
    return result;
  }
  answer_negative(zone, qname, /*nxdomain=*/true, result);
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

void AuthServer::load_zone(zone::Zone zone) {
  zones_.insert_or_assign(zone.apex(), std::move(zone));
}

void AuthServer::unload_zone(const dns::Name& apex) { zones_.erase(apex); }

bool AuthServer::serves(const dns::Name& apex) const {
  return zones_.find(apex) != zones_.end();
}

const zone::Zone* AuthServer::zone_data(const dns::Name& apex) const {
  const auto it = zones_.find(apex);
  return it == zones_.end() ? nullptr : &it->second;
}

zone::Zone* AuthServer::mutable_zone_data(const dns::Name& apex) {
  auto it = zones_.find(apex);
  return it == zones_.end() ? nullptr : &it->second;
}

const zone::Zone* AuthServer::best_zone_for(const dns::Name& qname,
                                            dns::RRType qtype) const {
  // Deepest apex that is an ancestor of (or equal to) qname. For DS the
  // *parent* side of the cut is authoritative, so a query for the apex DS
  // must fall through to the enclosing zone.
  const zone::Zone* best = nullptr;
  for (const auto& [apex, zone] : zones_) {
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
        apex.label_count() > best->apex().label_count()) {
      best = &zone;
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
  const zone::Zone* zone = best_zone_for(qname, qtype);
  if (zone == nullptr) {
    result.rcode = dns::RCode::kRefused;
    return result;
  }
  return answer(*zone, qname, qtype);
}

QueryResult AuthServer::query_in_zone(const dns::Name& zone_apex,
                                      const dns::Name& qname,
                                      dns::RRType qtype) const {
  QueryResult result;
  if (lame_) {
    result.reachable = false;
    return result;
  }
  const zone::Zone* zone = zone_data(zone_apex);
  if (zone == nullptr || !qname.is_subdomain_of(zone_apex)) {
    result.rcode = dns::RCode::kRefused;
    return result;
  }
  return answer(*zone, qname, qtype);
}

}  // namespace dfx::authserver
