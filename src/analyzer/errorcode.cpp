#include "analyzer/errorcode.h"

namespace dfx::analyzer {
namespace {

struct CodeInfo {
  ErrorCode code;
  ErrorCategory category;
  const char* name;
  int marker;      // 0 = none
  bool critical;   // breaks at least one validator path
};

constexpr CodeInfo kCodes[] = {
    {ErrorCode::kMissingKskForAlgorithm, ErrorCategory::kDelegation,
     "Missing KSK for Algorithm", 5, true},
    {ErrorCode::kInvalidDigest, ErrorCategory::kDelegation, "Invalid Digest",
     1, true},
    {ErrorCode::kInconsistentDnskeyBetweenServers, ErrorCategory::kKey,
     "Inconsistent DNSKEY b/w Servers", 3, true},
    {ErrorCode::kRevokedKey, ErrorCategory::kKey, "Revoked Key", 0, true},
    {ErrorCode::kBadKeyLength, ErrorCategory::kKey, "Bad Key Length", 0,
     true},
    {ErrorCode::kIncompleteAlgorithmSetup, ErrorCategory::kAlgorithm,
     "Incomplete Algorithm Setup", 2, false},
    {ErrorCode::kMissingSignature, ErrorCategory::kSignature,
     "Missing Signature", 7, true},
    {ErrorCode::kExpiredSignature, ErrorCategory::kSignature,
     "Expired Signature", 4, true},
    {ErrorCode::kInvalidSignature, ErrorCategory::kSignature,
     "Invalid Signature", 6, true},
    {ErrorCode::kIncorrectSigner, ErrorCategory::kSignature,
     "Incorrect Signer", 0, true},
    {ErrorCode::kNotYetValidSignature, ErrorCategory::kSignature,
     "Not Yet Valid Signature", 0, true},
    {ErrorCode::kIncorrectSignatureLabels, ErrorCategory::kSignature,
     "Incorrect Signature Labels", 0, true},
    {ErrorCode::kBadSignatureLength, ErrorCategory::kSignature,
     "Bad Signature Length", 0, true},
    {ErrorCode::kOriginalTtlExceedsRrsetTtl, ErrorCategory::kTtl,
     "Original TTL Exceeds RRSet TTL", 8, false},
    {ErrorCode::kTtlBeyondExpiration, ErrorCategory::kTtl,
     "TTL Beyond Expiration", 0, false},
    {ErrorCode::kMissingNonexistenceProof, ErrorCategory::kNsecCommon,
     "Missing Non-existence Proof", 7, true},
    {ErrorCode::kIncorrectTypeBitmap, ErrorCategory::kNsecCommon,
     "Incorrect Type Bitmap", 0, true},
    {ErrorCode::kBadNonexistenceProof, ErrorCategory::kNsecCommon,
     "Bad Non-existence Proof", 0, true},
    {ErrorCode::kIncorrectLastNsec, ErrorCategory::kNsecOnly,
     "Incorrect Last NSEC", 0, true},
    {ErrorCode::kNonzeroIterationCount, ErrorCategory::kNsec3Only,
     "Nonzero Iteration Count (NZIC)", 9, false},
    {ErrorCode::kInconsistentAncestorForNxdomain, ErrorCategory::kNsec3Only,
     "Inconsistent Ancestor for NXDOMAIN", 0, true},
    {ErrorCode::kIncorrectClosestEncloserProof, ErrorCategory::kNsec3Only,
     "Incorrect Closest Encloser Proof", 0, true},
    {ErrorCode::kInvalidNsec3Hash, ErrorCategory::kNsec3Only,
     "Invalid NSEC3 Hash", 0, true},
    {ErrorCode::kInvalidNsec3OwnerName, ErrorCategory::kNsec3Only,
     "Invalid NSEC3 Owner Name", 0, true},
    {ErrorCode::kIncorrectOptOutFlag, ErrorCategory::kNsec3Only,
     "Incorrect Opt-out Flag", 0, true},
    {ErrorCode::kUnsupportedNsec3Algorithm, ErrorCategory::kNsec3Only,
     "Unsupported NSEC3 Algorithm", 0, true},
    // Companions.
    {ErrorCode::kNoSecureEntryPoint, ErrorCategory::kCompanion,
     "No Secure Entry Point", 0, true},
    {ErrorCode::kMissingSignatureForAlgorithm, ErrorCategory::kCompanion,
     "Missing Signature for Algorithm", 0, false},
    {ErrorCode::kMissingDnskeyForDs, ErrorCategory::kCompanion,
     "Missing DNSKEY for DS", 0, true},
    {ErrorCode::kLameDelegation, ErrorCategory::kCompanion, "Lame Delegation",
     0, true},
    {ErrorCode::kMissingNsInParent, ErrorCategory::kCompanion,
     "Missing NS in Parent", 0, true},
    // Resource limits (KeyTrap-class).
    {ErrorCode::kCollidingKeyTags, ErrorCategory::kResourceLimit,
     "Colliding Key Tags", 0, false},
    {ErrorCode::kExcessiveSignatureValidations, ErrorCategory::kResourceLimit,
     "Excessive Signature Validations", 0, true},
    {ErrorCode::kExcessiveNsec3Iterations, ErrorCategory::kResourceLimit,
     "Excessive NSEC3 Iterations", 0, true},
    {ErrorCode::kValidatorWorkBudgetExceeded, ErrorCategory::kResourceLimit,
     "Validator Work Budget Exceeded", 0, true},
};

const CodeInfo& info(ErrorCode code) {
  for (const auto& ci : kCodes) {
    if (ci.code == code) return ci;
  }
  return kCodes[0];  // unreachable for valid enum values
}

}  // namespace

ErrorCategory category_of(ErrorCode code) { return info(code).category; }

std::string error_code_name(ErrorCode code) { return info(code).name; }

std::string error_category_name(ErrorCategory category) {
  switch (category) {
    case ErrorCategory::kDelegation:
      return "Delegation";
    case ErrorCategory::kKey:
      return "Key";
    case ErrorCategory::kAlgorithm:
      return "Algorithm";
    case ErrorCategory::kSignature:
      return "Signature";
    case ErrorCategory::kTtl:
      return "TTL";
    case ErrorCategory::kNsecCommon:
      return "NSEC(3)";
    case ErrorCategory::kNsecOnly:
      return "NSEC(Only)";
    case ErrorCategory::kNsec3Only:
      return "NSEC3(Only)";
    case ErrorCategory::kCompanion:
      return "Companion";
    case ErrorCategory::kResourceLimit:
      return "Resource Limit";
  }
  return "?";
}

[[nodiscard]] std::optional<int> paper_marker(ErrorCode code) {
  const int m = info(code).marker;
  if (m == 0) return std::nullopt;
  return m;
}

bool is_critical(ErrorCode code) { return info(code).critical; }

const std::vector<ErrorCode>& table3_codes() {
  static const std::vector<ErrorCode> codes = [] {
    std::vector<ErrorCode> out;
    for (const auto& ci : kCodes) {
      if (ci.category == ErrorCategory::kCompanion ||
          ci.category == ErrorCategory::kResourceLimit) {
        continue;
      }
      out.push_back(ci.code);
    }
    return out;
  }();
  return codes;
}

std::set<ErrorCode> code_set(const std::vector<ErrorInstance>& errors) {
  std::set<ErrorCode> out;
  for (const auto& e : errors) out.insert(e.code);
  return out;
}

}  // namespace dfx::analyzer
