#include "zonelint/admission.h"

#include <algorithm>
#include <array>
#include <cstddef>
#include <memory_resource>
#include <string>
#include <vector>

#include "zonelint/costmodel.h"

namespace dfx::zonelint {

namespace {

/// (key tag, algorithm) → DNSKEY count, as a flat linearly-searched array:
/// real key sets hold a handful of entries and the policy runs on every
/// upsert, where even one heap allocation is a visible share of its cost.
/// Up to kInline groups live in the object itself.
struct TagCounts {
  struct Entry {
    std::uint16_t tag;
    std::uint8_t algorithm;
    std::size_t count;
  };
  static constexpr std::size_t kInline = 16;
  alignas(Entry) std::array<std::byte, kInline * sizeof(Entry)> buffer;
  std::pmr::monotonic_buffer_resource arena{buffer.data(), buffer.size()};
  std::pmr::vector<Entry> entries{&arena};

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

/// What the apex says about pricing, from one visit of the apex: the DNSKEY
/// (key tag, algorithm) groups, whether the key set is non-empty, and the
/// NSEC3PARAM RRset's presence and highest iteration count.
struct ApexFacts {
  TagCounts tags;
  bool has_keys = false;
  bool has_nsec3param = false;
  std::uint16_t iterations = 0;

  explicit ApexFacts(const zone::Zone& zone) {
    zone.for_each_at(zone.apex(), [&](const dns::RRset& rrset) {
      if (rrset.type() == dns::RRType::kDNSKEY) {
        has_keys = !rrset.empty();
        tags.entries.reserve(rrset.size());
        for (const auto& rdata : rrset.rdatas()) {
          if (const auto* key = std::get_if<dns::DnskeyRdata>(&rdata)) {
            tags.add(key->key_tag(), key->algorithm);
          }
        }
      } else if (rrset.type() == dns::RRType::kNSEC3PARAM) {
        has_nsec3param = true;
        for (const auto& rdata : rrset.rdatas()) {
          if (const auto* p = std::get_if<dns::Nsec3ParamRdata>(&rdata)) {
            iterations = std::max(iterations, p->iterations);
          }
        }
      }
    });
  }

  /// The most DNSKEYs sharing one (key tag, algorithm) pair.
  std::size_t largest_group() const {
    std::size_t largest = 0;
    for (const auto& e : tags.entries) largest = std::max(largest, e.count);
    return largest;
  }

  void count_collisions(ValidationCost& cost) const {
    for (const auto& e : tags.entries) {
      if (e.count < 2) continue;
      ++cost.colliding_tag_groups;
      cost.surplus_colliding_keys += e.count - 1;
    }
  }
};

}  // namespace

ValidationCost admission_cost_scan(const zone::Zone& zone,
                                   bool* zone_signed) {
  ValidationCost cost;
  const ApexFacts apex(zone);
  bool saw_signed = apex.has_keys;
  bool saw_nsec3 = apex.has_nsec3param;
  std::uint16_t iterations = apex.iterations;
  apex.count_collisions(cost);

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
          apex.tags.count_of(sig->key_tag, sig->algorithm);
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

server::AdmissionVerdict admission_verdict(
    const ValidationCost& cost, bool zone_signed,
    const analyzer::GrokConfig& budget) {
  server::AdmissionVerdict verdict;
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
}

server::AdmissionPolicy make_admission_policy(analyzer::GrokConfig budget) {
  return [budget](const zone::Zone& zone) {
    const auto bound = zone.signature_bound();
    if (bound.has_value()) {
      // No RRset pairs more RRSIGs with more keys than its RRSIG set's
      // size times the largest (key tag, algorithm) group. When that
      // product passes both pairing limits, the exact peak does too, and
      // the rest of the verdict needs only the apex and the bound.
      const ApexFacts apex(zone);
      const std::size_t pairing_bound =
          bound->largest_rrsig_set * apex.largest_group();
      ValidationCost cost;
      cost.nsec3_iterations =
          std::max(apex.iterations, bound->max_nsec3_iterations);
      if (cost.nsec3_iterations > budget.max_nsec3_iterations ||
          (pairing_bound <= budget.sig_pairing_threshold &&
           pairing_bound <=
               budget.max_sig_validations / kSignedRrsetsPerResponse)) {
        apex.count_collisions(cost);
        // max_rrset_pairings stays 0: within both limits, which is all
        // the verdict reads of it.
        return admission_verdict(cost, apex.has_keys || bound->rrsig_sets > 0,
                                 budget);
      }
    }
    bool zone_signed = false;
    const ValidationCost cost = admission_cost_scan(zone, &zone_signed);
    return admission_verdict(cost, zone_signed, budget);
  };
}

}  // namespace dfx::zonelint
