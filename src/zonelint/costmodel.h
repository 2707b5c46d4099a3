// Worst-case validator work for one zone. One function computes it:
// admission_cost_scan (admission.h), in one walk over the zone's RRsets.
//
// The model prices exactly the two resources the KeyTrap attack class
// (CVE-2023-50387/50868) exhausts:
//
//  - Signature verifications. A validator must try every DNSKEY matching
//    an RRSIG's (key tag, algorithm) pair, so the worst case for one RRset
//    is sum over its RRSIGs of the candidate-key count — colliding tags
//    multiply the candidates, many RRSIGs multiply the sums.
//  - NSEC3 hashing. One RFC 5155 §8.4 nonexistence proof hashes the
//    closest-encloser candidates, the next-closer name and the wildcard;
//    each hash costs iterations + 1 SHA-1 applications.
//
// The numbers mirror what the budgeted validator (analyzer/grok.cpp)
// actually charges per zone view, so a zone whose static cost fits the
// GrokConfig budget validates without tripping
// kValidatorWorkBudgetExceeded.
#pragma once

#include <cstddef>
#include <cstdint>

namespace dfx::zonelint {

/// Hashes one negative lookup may need under §8.4: the closest-encloser
/// probe at the apex, the next-closer cover, wildcard cover + match, and
/// the NODATA bitmap match at the apex.
inline constexpr std::size_t kHashProbesPerNegativeLookup = 5;

struct ValidationCost {
  /// Worst-case signature-verification attempts across every signed RRset.
  std::size_t signature_attempts = 0;
  /// The single worst RRset's (RRSIG, candidate DNSKEY) pairing count.
  std::size_t max_rrset_pairings = 0;
  /// (key tag, algorithm) groups shared by two or more DNSKEYs, and how
  /// many surplus keys those groups hold in total.
  std::size_t colliding_tag_groups = 0;
  std::size_t surplus_colliding_keys = 0;
  /// Highest NSEC3 iteration count advertised anywhere in the zone.
  std::uint16_t nsec3_iterations = 0;
  /// SHA-1 applications one negative lookup costs at that iteration count.
  std::size_t negative_proof_hash_cost = 0;
};

}  // namespace dfx::zonelint
