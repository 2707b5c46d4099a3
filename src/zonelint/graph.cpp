#include "zonelint/graph.h"

#include <set>
#include <string>

#include "crypto/algorithm.h"
#include "util/codec.h"

namespace dfx::zonelint {

std::vector<std::size_t> TrustGraph::keys_matching(
    std::uint16_t tag, std::uint8_t algorithm) const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (keys[i].tag == tag && keys[i].rdata.algorithm == algorithm) {
      out.push_back(i);
    }
  }
  return out;
}

TrustGraph build_trust_graph(const zone::Zone& zone,
                             std::span<const dns::DsRdata> parent_ds) {
  TrustGraph g;
  g.zone = &zone;
  const dns::Name& apex = zone.apex();

  // ---- Key nodes ----------------------------------------------------------
  if (const auto* dnskeys = zone.find(apex, dns::RRType::kDNSKEY)) {
    for (const auto& rdata : dnskeys->rdatas()) {
      const auto* key = std::get_if<dns::DnskeyRdata>(&rdata);
      if (key == nullptr) continue;
      KeyNode node;
      node.rdata = *key;
      node.tag = key->key_tag();
      node.revoked = key->is_revoked();
      node.sep = (key->flags & 0x0001) != 0;
      node.plausible_length =
          crypto::plausible_key_length(key->algorithm, key->public_key);
      g.keys.push_back(std::move(node));
    }
  }

  // ---- Delegation cuts ----------------------------------------------------
  std::vector<dns::Name> cuts;
  for (const auto* rrset : zone.all_rrsets()) {
    if (rrset->type() == dns::RRType::kNS && rrset->owner() != apex) {
      cuts.push_back(rrset->owner());
    }
  }
  const auto below_a_cut = [&](const dns::Name& owner) {
    for (const auto& cut : cuts) {
      if (owner != cut && owner.is_subdomain_of(cut)) return true;
    }
    return false;
  };

  // ---- RRset nodes with RRSIG → DNSKEY edges ------------------------------
  for (const auto* rrset : zone.all_rrsets()) {
    if (rrset->type() == dns::RRType::kRRSIG) continue;
    RRsetNode node;
    node.rrset = rrset;
    node.delegation_ns =
        rrset->type() == dns::RRType::kNS && rrset->owner() != apex;
    // Below a cut only occluded glue lives; at the cut itself the parent
    // side is authoritative solely for DS (and the denial records).
    if (node.delegation_ns || below_a_cut(rrset->owner())) {
      node.authoritative = false;
    } else if (zone.is_delegation(rrset->owner()) &&
               rrset->type() != dns::RRType::kDS &&
               rrset->type() != dns::RRType::kNSEC &&
               rrset->type() != dns::RRType::kNSEC3) {
      node.authoritative = false;
    }
    if (const auto* sigs = zone.find(rrset->owner(), dns::RRType::kRRSIG)) {
      for (const auto& rdata : sigs->rdatas()) {
        const auto* sig = std::get_if<dns::RrsigRdata>(&rdata);
        if (sig == nullptr || sig->type_covered != rrset->type()) continue;
        SigEdge edge;
        edge.rdata = *sig;
        edge.candidates = g.keys_matching(sig->key_tag, sig->algorithm);
        node.sigs.push_back(std::move(edge));
      }
    }
    g.rrsets.push_back(std::move(node));
  }

  // ---- DS links -----------------------------------------------------------
  for (const auto& ds : parent_ds) {
    DsLink link;
    link.rdata = ds;
    for (std::size_t i = 0; i < g.keys.size(); ++i) {
      const KeyNode& key = g.keys[i];
      if (key.rdata.algorithm != ds.algorithm) continue;
      link.algorithm_present = true;
      if (key.tag == ds.key_tag) {
        link.matched_key = i;
        break;
      }
      if (key.revoked && !link.revoked_link.has_value()) {
        dns::DnskeyRdata unrevoked = key.rdata;
        unrevoked.flags &= static_cast<std::uint16_t>(~0x0080);
        if (unrevoked.key_tag() == ds.key_tag) link.revoked_link = i;
      }
    }
    if (link.matched_key.has_value()) {
      const auto digest_type = static_cast<crypto::DigestType>(ds.digest_type);
      const Bytes expected = crypto::ds_digest(
          digest_type, apex.to_canonical_wire(),
          dns::rdata_to_wire(dns::Rdata(g.keys[*link.matched_key].rdata)));
      link.digest_supported = !expected.empty();
      link.digest_ok = link.digest_supported && expected == ds.digest;
    }
    g.ds_links.push_back(std::move(link));
  }

  // ---- Denial chain -------------------------------------------------------
  if (const auto* params = zone.find(apex, dns::RRType::kNSEC3PARAM)) {
    if (!params->empty()) {
      const auto* p =
          std::get_if<dns::Nsec3ParamRdata>(&params->rdatas().front());
      if (p != nullptr) g.denial.params = *p;
    }
  }
  for (const auto* rrset : zone.all_rrsets()) {
    if (rrset->type() == dns::RRType::kNSEC) {
      for (const auto& rdata : rrset->rdatas()) {
        const auto* nsec = std::get_if<dns::NsecRdata>(&rdata);
        if (nsec != nullptr) g.denial.nsec.push_back({rrset->owner(), *nsec});
      }
    } else if (rrset->type() == dns::RRType::kNSEC3) {
      for (const auto& rdata : rrset->rdatas()) {
        const auto* n3 = std::get_if<dns::Nsec3Rdata>(&rdata);
        if (n3 == nullptr) continue;
        Nsec3Span span{rrset->owner(), *n3, std::nullopt};
        auto decoded = base32hex_decode(rrset->owner().leftmost_label());
        if (decoded && decoded->size() == 20) {
          span.owner_hash = *std::move(decoded);
        }
        g.denial.nsec3.push_back(std::move(span));
      }
    }
  }
  return g;
}

}  // namespace dfx::zonelint
