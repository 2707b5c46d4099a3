#include "zonelint/admission.h"

#include <algorithm>
#include <string>
#include <vector>

#include "zonelint/costmodel.h"

namespace dfx::zonelint {

namespace {

/// (key tag, algorithm) → DNSKEY count, as a flat linearly-searched array:
/// real key sets hold a handful of entries and the scan runs on the upsert
/// hot path, where per-node map allocations dominate the walk itself.
struct TagCounts {
  struct Entry {
    std::uint16_t tag;
    std::uint8_t algorithm;
    std::size_t count;
  };
  std::vector<Entry> entries;

  void add(std::uint16_t tag, std::uint8_t algorithm) {
    for (auto& e : entries) {
      if (e.tag == tag && e.algorithm == algorithm) {
        ++e.count;
        return;
      }
    }
    entries.push_back({tag, algorithm, 1});
  }
  std::size_t count_of(std::uint16_t tag, std::uint8_t algorithm) const {
    for (const auto& e : entries) {
      if (e.tag == tag && e.algorithm == algorithm) return e.count;
    }
    return 0;
  }
};

}  // namespace

ValidationCost admission_cost_scan(const zone::Zone& zone,
                                   bool* zone_signed) {
  ValidationCost cost;
  const dns::Name& apex = zone.apex();
  bool saw_signed = false;
  bool saw_nsec3 = false;

  // The apex's DNSKEY and NSEC3PARAM RRsets, from one lookup.
  TagCounts tag_count;
  std::uint16_t iterations = 0;
  for (const dns::RRset* rrset : zone.at(apex)) {
    if (rrset->type() == dns::RRType::kDNSKEY) {
      saw_signed = !rrset->empty();
      for (const auto& rdata : rrset->rdatas()) {
        if (const auto* key = std::get_if<dns::DnskeyRdata>(&rdata)) {
          tag_count.add(key->key_tag(), key->algorithm);
        }
      }
    } else if (rrset->type() == dns::RRType::kNSEC3PARAM) {
      saw_nsec3 = true;
      for (const auto& rdata : rrset->rdatas()) {
        if (const auto* p = std::get_if<dns::Nsec3ParamRdata>(&rdata)) {
          iterations = std::max(iterations, p->iterations);
        }
      }
    }
  }
  for (const auto& e : tag_count.entries) {
    if (e.count < 2) continue;
    ++cost.colliding_tag_groups;
    cost.surplus_colliding_keys += e.count - 1;
  }

  // Scratch for the per-RRSIG-rrset pairing tally, hoisted so the walk
  // allocates at most once. A sane RRSIG set covers one or two types.
  struct TypePairings {
    dns::RRType type;
    std::size_t pairings;
  };
  std::vector<TypePairings> per_type;
  zone.for_each_rrset([&](const dns::RRset& rrset) {
    if (rrset.type() == dns::RRType::kNSEC3) {
      saw_nsec3 = true;
      for (const auto& rdata : rrset.rdatas()) {
        if (const auto* n = std::get_if<dns::Nsec3Rdata>(&rdata)) {
          iterations = std::max(iterations, n->iterations);
        }
      }
      return;
    }
    if (rrset.type() != dns::RRType::kRRSIG) return;
    saw_signed = true;
    // Pairings per covered RRset at this owner: sum of candidate counts
    // over the sigs sharing a type_covered (the per-RRset blowup KeyTrap
    // maximizes). Counts stray RRSIGs over absent types too — a deliberate
    // upper bound; a validator still has to recognize them.
    per_type.clear();
    for (const auto& rdata : rrset.rdatas()) {
      const auto* sig = std::get_if<dns::RrsigRdata>(&rdata);
      if (sig == nullptr) continue;
      const std::size_t candidates =
          tag_count.count_of(sig->key_tag, sig->algorithm);
      bool merged = false;
      for (auto& tp : per_type) {
        if (tp.type == sig->type_covered) {
          tp.pairings += candidates;
          merged = true;
          break;
        }
      }
      if (!merged) per_type.push_back({sig->type_covered, candidates});
    }
    for (const auto& tp : per_type) {
      cost.signature_attempts += tp.pairings;
      cost.max_rrset_pairings =
          std::max(cost.max_rrset_pairings, tp.pairings);
    }
  });

  cost.nsec3_iterations = iterations;
  if (saw_nsec3) {
    cost.negative_proof_hash_cost =
        kHashProbesPerNegativeLookup *
        (static_cast<std::size_t>(iterations) + 1);
  }
  if (zone_signed != nullptr) *zone_signed = saw_signed;
  return cost;
}

server::AdmissionPolicy make_admission_policy(analyzer::GrokConfig budget) {
  return [budget](const zone::Zone& zone) {
    server::AdmissionVerdict verdict;
    bool zone_signed = false;
    const ValidationCost cost = admission_cost_scan(zone, &zone_signed);
    if (!zone_signed) return verdict;  // plain DNS: nothing to price
    if (cost.nsec3_iterations > budget.max_nsec3_iterations) {
      verdict.action = server::AdmissionVerdict::Action::kReject;
      verdict.reason = "NSEC3 iterations=" +
                       std::to_string(cost.nsec3_iterations) +
                       " above the validator cap of " +
                       std::to_string(budget.max_nsec3_iterations);
      return verdict;
    }
    // Priced per response, as the validator's budget is per resolution:
    // the worst RRset's pairings times the RRsets one response carries.
    const std::size_t per_response =
        cost.max_rrset_pairings * kSignedRrsetsPerResponse;
    if (per_response > budget.max_sig_validations ||
        cost.max_rrset_pairings > budget.sig_pairing_threshold) {
      verdict.action = server::AdmissionVerdict::Action::kReject;
      verdict.reason =
          "worst-case validator work " + std::to_string(per_response) +
          " signature attempts per response (single-RRset peak " +
          std::to_string(cost.max_rrset_pairings) + ") exceeds the budget";
      return verdict;
    }
    if (cost.colliding_tag_groups > 0) {
      verdict.action = server::AdmissionVerdict::Action::kFlag;
      verdict.reason = std::to_string(cost.colliding_tag_groups) +
                       " DNSKEY (key tag, algorithm) collision group(s), " +
                       std::to_string(cost.surplus_colliding_keys) +
                       " surplus key(s)";
    }
    return verdict;
  };
}

}  // namespace dfx::zonelint
