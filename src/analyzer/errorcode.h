// The DNSSEC error-code taxonomy from the paper (Table 3): 8 categories,
// 26 subcategories, plus companion codes grok emits for root-cause analysis
// (the paper's DResolver consumes these but Table 3 does not count them).
#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "dnscore/name.h"

namespace dfx::analyzer {

enum class ErrorCategory : std::uint8_t {
  kDelegation,
  kKey,
  kAlgorithm,
  kSignature,
  kTtl,
  kNsecCommon,  // "NSEC(3)" in the paper
  kNsecOnly,
  kNsec3Only,
  kCompanion,      // not counted in Table 3
  kResourceLimit,  // KeyTrap-class resource-cost findings, outside Table 3
};

enum class ErrorCode : std::uint8_t {
  // Delegation
  kMissingKskForAlgorithm,   // ⑤ DS algorithm has no matching KSK
  kInvalidDigest,            // ① DS digest does not match any DNSKEY
  // Key
  kInconsistentDnskeyBetweenServers,  // ③
  kRevokedKey,
  kBadKeyLength,
  // Algorithm
  kIncompleteAlgorithmSetup,  // ②
  // Signature
  kMissingSignature,
  kExpiredSignature,     // ④
  kInvalidSignature,     // ⑥
  kIncorrectSigner,
  kNotYetValidSignature,
  kIncorrectSignatureLabels,
  kBadSignatureLength,
  // TTL
  kOriginalTtlExceedsRrsetTtl,  // ⑧
  kTtlBeyondExpiration,
  // NSEC(3) common
  kMissingNonexistenceProof,  // ⑦
  kIncorrectTypeBitmap,
  kBadNonexistenceProof,
  // NSEC only
  kIncorrectLastNsec,
  // NSEC3 only
  kNonzeroIterationCount,  // ⑨ (NZIC)
  kInconsistentAncestorForNxdomain,
  kIncorrectClosestEncloserProof,
  kInvalidNsec3Hash,
  kInvalidNsec3OwnerName,
  kIncorrectOptOutFlag,
  kUnsupportedNsec3Algorithm,
  // Companion codes (context for DResolver, outside Table 3)
  kNoSecureEntryPoint,
  kMissingSignatureForAlgorithm,
  kMissingDnskeyForDs,
  kLameDelegation,
  kMissingNsInParent,
  // Resource-limit codes (KeyTrap-class, CVE-2023-50387/50868; outside
  // Table 3 — the paper's dataset predates the attack class).
  kCollidingKeyTags,                // >=2 DNSKEYs share (key tag, algorithm)
  kExcessiveSignatureValidations,   // keys x RRSIGs pairing blowup
  kExcessiveNsec3Iterations,        // iteration count above validator caps
  kValidatorWorkBudgetExceeded,     // budgeted validator gave up mid-zone
};

/// Count of Table 3 subcategory codes (companions excluded).
constexpr std::size_t kTable3CodeCount = 26;

ErrorCategory category_of(ErrorCode code);
std::string error_code_name(ErrorCode code);
std::string error_category_name(ErrorCategory category);

/// The ①-⑨ marker index from Table 3 / Figure 4, when the code has one.
[[nodiscard]] std::optional<int> paper_marker(ErrorCode code);

/// Codes whose presence breaks validation for at least one validator path
/// (drives sb), vs. violations most validators tolerate (svm).
bool is_critical(ErrorCode code);

/// All Table 3 codes in table order.
const std::vector<ErrorCode>& table3_codes();

/// One concrete finding: code + the zone it was found in + object detail.
struct ErrorInstance {
  ErrorCode code;
  dns::Name zone;
  std::string detail;

  bool operator==(const ErrorInstance& o) const {
    return code == o.code && zone == o.zone;
  }
  bool operator<(const ErrorInstance& o) const {
    if (code != o.code) return code < o.code;
    return zone < o.zone;
  }
};

/// The set-of-codes view the evaluation metrics (IE/GE/AE) use.
std::set<ErrorCode> code_set(const std::vector<ErrorInstance>& errors);

}  // namespace dfx::analyzer
