// zonelint tests: trust-graph construction, the cost model against a brute
// force count, per-rule prediction equality against grok on injected
// errors, fix specs, the validator work budget (EDE 49), ZoneStore
// admission, and DFixer repair of the KeyTrap shapes verified by re-grok.
//
// The equality tests compare zonelint's *static* prediction with what grok
// observes over live probes. Two codes are excluded by design (see
// zonelint/zonelint.h): kInvalidSignature from crypto tampering and
// kInconsistentDnskeyBetweenServers. Grok's error set is filtered to the
// child apex — parent-zone attributions (e.g. a DS-absence proof served by
// the parent) are outside a single zone file's remit.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "analyzer/ede.h"
#include "analyzer/errorcode.h"
#include "dfixer/autofix.h"
#include "server/zonestore.h"
#include "zone/signer.h"
#include "zonelint/admission.h"
#include "zonelint/costmodel.h"
#include "zonelint/graph.h"
#include "zonelint/zonelint.h"
#include "zreplicator/injector.h"
#include "zreplicator/replicate.h"
#include "zreplicator/spec_corpus.h"

namespace dfx {
namespace {

using analyzer::ErrorCode;
using analyzer::SnapshotStatus;
using zreplicator::ReplicationResult;
using zreplicator::SnapshotSpec;

SnapshotSpec base_spec(bool nsec3) {
  SnapshotSpec spec;
  analyzer::KeyMeta ksk;
  ksk.flags = 0x0101;
  ksk.algorithm = 13;
  analyzer::KeyMeta zsk;
  zsk.flags = 0x0100;
  zsk.algorithm = 13;
  spec.meta.keys = {ksk, zsk};
  spec.meta.uses_nsec3 = nsec3;
  spec.meta.max_ttl = 3600;
  return spec;
}

/// The parent-published DS set for the sandbox's child zone.
std::vector<dns::DsRdata> parent_ds_for_child(zreplicator::Sandbox& sb) {
  std::vector<dns::DsRdata> out;
  const auto& parent = sb.managed(sb.parent_apex()).signed_zone;
  if (const auto* ds = parent.find(sb.child_apex(), dns::RRType::kDS)) {
    for (const auto& rdata : ds->rdatas()) {
      if (const auto* d = std::get_if<dns::DsRdata>(&rdata)) {
        out.push_back(*d);
      }
    }
  }
  return out;
}

zonelint::Report lint_child(zreplicator::Sandbox& sb) {
  zonelint::LintOptions options;
  options.now = sb.clock().now();
  const auto ds = parent_ds_for_child(sb);
  return zonelint::lint_zone(sb.managed(sb.child_apex()).signed_zone, ds,
                             options);
}

/// Codes zonelint cannot reach from zone data (header contract) plus codes
/// grok attributes from live multi-server / delegation probing.
const std::set<ErrorCode>& excluded_codes() {
  static const std::set<ErrorCode> codes = {
      ErrorCode::kInvalidSignature,
      ErrorCode::kInconsistentDnskeyBetweenServers,
  };
  return codes;
}

std::set<ErrorCode> grok_child_codes(const analyzer::Snapshot& snapshot,
                                     const dns::Name& child_apex) {
  std::set<ErrorCode> out;
  for (const auto& e : snapshot.errors) {
    if (e.zone == child_apex && !excluded_codes().contains(e.code)) {
      out.insert(e.code);
    }
  }
  return out;
}

std::set<ErrorCode> lint_codes(const zonelint::Report& report) {
  std::set<ErrorCode> out;
  for (const auto code : zonelint::finding_codes(report)) {
    if (!excluded_codes().contains(code)) out.insert(code);
  }
  return out;
}

std::string code_list(const std::set<ErrorCode>& codes) {
  std::string out;
  for (const auto code : codes) {
    if (!out.empty()) out += ", ";
    out += analyzer::error_code_name(code);
  }
  return out.empty() ? "(none)" : out;
}

// ---------------------------------------------------------------------------
// Trust graph
// ---------------------------------------------------------------------------

TEST(TrustGraph, BuildsKeysSigEdgesDsLinksAndDenial) {
  auto result = zreplicator::replicate(base_spec(/*nsec3=*/true), 101);
  ASSERT_NE(result.sandbox, nullptr);
  auto& sb = *result.sandbox;
  const auto ds = parent_ds_for_child(sb);
  ASSERT_FALSE(ds.empty());
  const auto graph = zonelint::build_trust_graph(
      sb.managed(sb.child_apex()).signed_zone, ds);

  ASSERT_EQ(graph.keys.size(), 2u);  // KSK + ZSK
  EXPECT_TRUE(graph.keys[0].plausible_length);
  ASSERT_EQ(graph.ds_links.size(), ds.size());
  for (const auto& link : graph.ds_links) {
    EXPECT_TRUE(link.matched_key.has_value());
    EXPECT_TRUE(link.digest_ok);
  }
  ASSERT_FALSE(graph.rrsets.empty());
  bool saw_signed = false;
  for (const auto& node : graph.rrsets) {
    for (const auto& sig : node.sigs) {
      saw_signed = true;
      EXPECT_FALSE(sig.candidates.empty())
          << "every RRSIG in a clean zone points at its signing key";
    }
  }
  EXPECT_TRUE(saw_signed);
  EXPECT_TRUE(graph.denial.uses_nsec3());
}

TEST(TrustGraph, CollidingTagsMultiplySigCandidates) {
  // The pairing-blowup shape: colliding keys *and* RRSIGs naming the
  // shared tag. (The plain kCollidingKeyTags shape publishes keys that
  // never sign, so its RRSIGs keep a single candidate by design.)
  SnapshotSpec spec = base_spec(false);
  spec.intended_errors = {ErrorCode::kExcessiveSignatureValidations};
  auto result = zreplicator::replicate(spec, 102);
  ASSERT_NE(result.sandbox, nullptr);
  ASSERT_TRUE(result.complete) << result.failure_reason;
  auto& sb = *result.sandbox;
  const auto graph = zonelint::build_trust_graph(
      sb.managed(sb.child_apex()).signed_zone, parent_ds_for_child(sb));
  const auto cost = zonelint::estimate_cost(graph);
  EXPECT_GE(cost.colliding_tag_groups, 1u);
  EXPECT_GE(cost.surplus_colliding_keys, 1u);
  bool multiplied = false;
  for (const auto& node : graph.rrsets) {
    for (const auto& sig : node.sigs) {
      if (sig.candidates.size() > 1) multiplied = true;
    }
  }
  EXPECT_TRUE(multiplied)
      << "a colliding tag must fan one RRSIG out to several candidates";
}

// ---------------------------------------------------------------------------
// Cost model
// ---------------------------------------------------------------------------

/// Brute-force worst-case verification count, straight from RFC 4035 §5.3.1
/// semantics: for every RRSIG over every RRset, count the DNSKEYs whose
/// (key tag, algorithm) pair matches — the validator may have to try all.
std::size_t brute_force_attempts(const zone::Zone& zone) {
  std::vector<dns::DnskeyRdata> keys;
  if (const auto* dnskeys = zone.find(zone.apex(), dns::RRType::kDNSKEY)) {
    for (const auto& rdata : dnskeys->rdatas()) {
      if (const auto* key = std::get_if<dns::DnskeyRdata>(&rdata)) {
        keys.push_back(*key);
      }
    }
  }
  std::size_t attempts = 0;
  for (const auto* rrset : zone.all_rrsets()) {
    if (rrset->type() == dns::RRType::kRRSIG) continue;
    const auto* sigs = zone.find(rrset->owner(), dns::RRType::kRRSIG);
    if (sigs == nullptr) continue;
    for (const auto& rdata : sigs->rdatas()) {
      const auto* sig = std::get_if<dns::RrsigRdata>(&rdata);
      if (sig == nullptr || sig->type_covered != rrset->type()) continue;
      for (const auto& key : keys) {
        if (key.key_tag() == sig->key_tag &&
            key.algorithm == sig->algorithm) {
          ++attempts;
        }
      }
    }
  }
  return attempts;
}

TEST(CostModel, SignatureAttemptsMatchBruteForce) {
  for (const ErrorCode code :
       {ErrorCode::kCollidingKeyTags,
        ErrorCode::kExcessiveSignatureValidations}) {
    SnapshotSpec spec = base_spec(false);
    spec.intended_errors = {code};
    auto result =
        zreplicator::replicate(spec, 103 + static_cast<int>(code));
    ASSERT_NE(result.sandbox, nullptr);
    auto& sb = *result.sandbox;
    const auto& zone = sb.managed(sb.child_apex()).signed_zone;
    const auto graph =
        zonelint::build_trust_graph(zone, parent_ds_for_child(sb));
    const auto cost = zonelint::estimate_cost(graph);
    EXPECT_EQ(cost.signature_attempts, brute_force_attempts(zone))
        << "cost model diverged from brute force for "
        << analyzer::error_code_name(code);
  }
}

TEST(CostModel, CleanZoneCostsOneAttemptPerSignature) {
  auto result = zreplicator::replicate(base_spec(false), 104);
  ASSERT_NE(result.sandbox, nullptr);
  auto& sb = *result.sandbox;
  const auto& zone = sb.managed(sb.child_apex()).signed_zone;
  const auto cost = zonelint::estimate_cost(
      zonelint::build_trust_graph(zone, parent_ds_for_child(sb)));
  EXPECT_EQ(cost.signature_attempts, brute_force_attempts(zone));
  EXPECT_EQ(cost.colliding_tag_groups, 0u);
  EXPECT_EQ(cost.max_rrset_pairings,
            cost.max_rrset_pairings == 0 ? 0 : cost.max_rrset_pairings);
  EXPECT_EQ(cost.nsec3_iterations, 0u);  // NSEC zone: no hashing at all
  EXPECT_EQ(cost.negative_proof_hash_cost, 0u);
}

TEST(CostModel, Nsec3HashCostScalesWithIterations) {
  SnapshotSpec spec = base_spec(true);
  spec.meta.nsec3_iterations = 10;
  spec.intended_errors = {ErrorCode::kNonzeroIterationCount};
  auto result = zreplicator::replicate(spec, 105);
  ASSERT_NE(result.sandbox, nullptr);
  auto& sb = *result.sandbox;
  const auto cost = zonelint::estimate_cost(zonelint::build_trust_graph(
      sb.managed(sb.child_apex()).signed_zone, parent_ds_for_child(sb)));
  EXPECT_EQ(cost.nsec3_iterations, 10u);
  EXPECT_EQ(cost.negative_proof_hash_cost,
            zonelint::kHashProbesPerNegativeLookup * (10u + 1u));
}

// ---------------------------------------------------------------------------
// Prediction vs grok — the core equality contract
// ---------------------------------------------------------------------------

TEST(Prediction, CleanZonesPredictNoErrors) {
  // The wildcard dimension covers the one response field zonelint derives
  // rather than copies: whether the nx probe was answered by synthesis.
  // The apex-MX dimension answers the NODATA probe (apex MX) positively.
  for (bool apex_mx : {false, true}) {
    for (bool has_wildcard : {false, true}) {
      for (bool nsec3 : {false, true}) {
        SnapshotSpec spec = base_spec(nsec3);
        spec.meta.has_wildcard = has_wildcard;
        auto result =
            zreplicator::replicate(spec, 106 + nsec3 + 2 * has_wildcard);
        ASSERT_NE(result.sandbox, nullptr);
        auto& sb = *result.sandbox;
        if (apex_mx) {
          const dns::Name apex = sb.child_apex();
          sb.managed(apex).unsigned_zone.add(
              apex, dns::RRType::kMX, 3600,
              dns::MxRdata{.preference = 10, .exchange = apex.child("mail")});
          sb.resign_and_sync(apex);
        }
        const auto report = lint_child(sb);
        const std::string shape = std::string(nsec3 ? "NSEC3" : "NSEC") +
                                  (has_wildcard ? " wildcard" : "") +
                                  (apex_mx ? " apex-MX" : "");
        EXPECT_TRUE(report.zone_signed);
        EXPECT_TRUE(report.findings.empty())
            << "unexpected prediction on a clean " << shape
            << " zone: " << code_list(lint_codes(report));
        const auto observed =
            grok_child_codes(sb.analyze(), sb.child_apex());
        EXPECT_EQ(lint_codes(report), observed)
            << "clean " << shape << " zone: grok observed ["
            << code_list(observed) << "]";
      }
    }
  }
}

struct PredictionCase {
  ErrorCode code;
  bool nsec3;
};

class PredictionEquality : public ::testing::TestWithParam<PredictionCase> {};

TEST_P(PredictionEquality, StaticLintMatchesLiveGrok) {
  const PredictionCase& c = GetParam();
  SnapshotSpec spec = base_spec(c.nsec3);
  spec.intended_errors = {c.code};
  auto result = zreplicator::replicate(
      spec, 9000 + 2 * static_cast<int>(c.code) + (c.nsec3 ? 1 : 0));
  ASSERT_NE(result.sandbox, nullptr);
  ASSERT_TRUE(result.complete) << result.failure_reason;
  auto& sb = *result.sandbox;

  const auto snapshot = sb.analyze();
  const auto observed = grok_child_codes(snapshot, sb.child_apex());
  const auto predicted = lint_codes(lint_child(sb));

  EXPECT_EQ(predicted, observed)
      << "zonelint predicted [" << code_list(predicted)
      << "] but grok observed [" << code_list(observed) << "]";
  EXPECT_TRUE(predicted.contains(c.code))
      << "the injected code itself must be predicted";
}

INSTANTIATE_TEST_SUITE_P(
    InjectedCodes, PredictionEquality,
    ::testing::Values(
        // Key / DS layer.
        PredictionCase{ErrorCode::kRevokedKey, false},
        PredictionCase{ErrorCode::kBadKeyLength, false},
        PredictionCase{ErrorCode::kMissingKskForAlgorithm, false},
        PredictionCase{ErrorCode::kInvalidDigest, false},
        PredictionCase{ErrorCode::kIncompleteAlgorithmSetup, false},
        // Signature anomalies (statically visible in the RRSIG rdata).
        PredictionCase{ErrorCode::kExpiredSignature, false},
        PredictionCase{ErrorCode::kNotYetValidSignature, false},
        PredictionCase{ErrorCode::kMissingSignature, false},
        PredictionCase{ErrorCode::kIncorrectSigner, false},
        PredictionCase{ErrorCode::kIncorrectSignatureLabels, false},
        PredictionCase{ErrorCode::kBadSignatureLength, false},
        PredictionCase{ErrorCode::kOriginalTtlExceedsRrsetTtl, false},
        PredictionCase{ErrorCode::kTtlBeyondExpiration, false},
        // NSEC denial chain.
        PredictionCase{ErrorCode::kMissingNonexistenceProof, false},
        PredictionCase{ErrorCode::kBadNonexistenceProof, false},
        PredictionCase{ErrorCode::kIncorrectLastNsec, false},
        PredictionCase{ErrorCode::kIncorrectTypeBitmap, false},
        // NSEC3 denial chain.
        PredictionCase{ErrorCode::kMissingNonexistenceProof, true},
        PredictionCase{ErrorCode::kBadNonexistenceProof, true},
        PredictionCase{ErrorCode::kIncorrectTypeBitmap, true},
        PredictionCase{ErrorCode::kInconsistentAncestorForNxdomain, true},
        PredictionCase{ErrorCode::kIncorrectClosestEncloserProof, true},
        PredictionCase{ErrorCode::kInvalidNsec3Hash, true},
        PredictionCase{ErrorCode::kInvalidNsec3OwnerName, true},
        PredictionCase{ErrorCode::kIncorrectOptOutFlag, true},
        PredictionCase{ErrorCode::kUnsupportedNsec3Algorithm, true},
        PredictionCase{ErrorCode::kNonzeroIterationCount, true},
        // KeyTrap-class resource shapes.
        PredictionCase{ErrorCode::kCollidingKeyTags, false},
        PredictionCase{ErrorCode::kExcessiveSignatureValidations, false},
        PredictionCase{ErrorCode::kExcessiveNsec3Iterations, true}),
    [](const ::testing::TestParamInfo<PredictionCase>& info) {
      std::string name = analyzer::error_code_name(info.param.code);
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name + (info.param.nsec3 ? "_nsec3" : "_nsec");
    });

/// Replicate every spec of a generated corpus and require the static
/// prediction to agree with grok on each complete replica. Returns how many
/// replicas were compared.
int sweep_corpus(const zreplicator::SpecCorpusOptions& options,
                 int seed_base) {
  int checked = 0;
  for (const auto& eval : zreplicator::generate_eval_specs(options)) {
    // A server-inconsistent DNSKEY is injected into one server's copy only.
    // A single zone file cannot see it (the exclusion zonelint.h states),
    // and the replica grok observes differs from the zone linted here.
    if (eval.spec.intended_errors.contains(
            ErrorCode::kInconsistentDnskeyBetweenServers)) {
      continue;
    }
    auto result = zreplicator::replicate(eval.spec, seed_base + checked);
    if (result.sandbox == nullptr || !result.complete) continue;
    auto& sb = *result.sandbox;
    const auto observed = grok_child_codes(sb.analyze(), sb.child_apex());
    const auto predicted = lint_codes(lint_child(sb));
    EXPECT_EQ(predicted, observed)
        << "corpus seed " << options.seed << " spec " << checked
        << ": predicted [" << code_list(predicted) << "] observed ["
        << code_list(observed) << "]";
    ++checked;
  }
  return checked;
}

TEST(Prediction, SpecCorpusKeytrapSweepMatchesGrok) {
  // A corpus-driven sweep: every generated spec is a KeyTrap shape; the
  // static prediction must agree with grok on each replica.
  zreplicator::SpecCorpusOptions keytrap;
  keytrap.count = 6;
  keytrap.seed = 77;
  keytrap.s1_share = 0.0;
  keytrap.keytrap_rate = 1.0;
  keytrap.s2_artifact_rate = 0.0;
  keytrap.s2_variant_rate = 0.0;
  keytrap.parent_bogus_rate = 0.0;
  EXPECT_GE(sweep_corpus(keytrap, 7000), 4)
      << "the sweep must actually exercise replicas";

  // The calibrated corpus at its default rates exercises NSEC/NSEC3 proof
  // selection over the paper's error mix, not just the pinned cases.
  zreplicator::SpecCorpusOptions calibrated;
  calibrated.count = 300;
  calibrated.seed = 77;
  EXPECT_GE(sweep_corpus(calibrated, 8000), 250)
      << "the default-rate sweep must compare most of its replicas";
}

// ---------------------------------------------------------------------------
// Fix specs
// ---------------------------------------------------------------------------

TEST(FixSpec, CollidingKeysFindingCarriesKeyRemoval) {
  SnapshotSpec spec = base_spec(false);
  spec.intended_errors = {ErrorCode::kCollidingKeyTags};
  auto result = zreplicator::replicate(spec, 108);
  ASSERT_NE(result.sandbox, nullptr);
  const auto report = lint_child(*result.sandbox);
  bool found = false;
  for (const auto& finding : report.findings) {
    if (finding.code != ErrorCode::kCollidingKeyTags) continue;
    found = true;
    EXPECT_EQ(finding.fix.kind, zone::InstructionKind::kRemoveRevokedKey);
    bool removes_key = false;
    for (const auto& cmd : finding.fix.commands) {
      if (cmd.kind == zone::CommandKind::kRemoveKeyFile) removes_key = true;
    }
    EXPECT_TRUE(removes_key) << "fix must prune a colliding key file";
  }
  EXPECT_TRUE(found);
}

TEST(FixSpec, OversizedIterationsFindingResignsAtZero) {
  SnapshotSpec spec = base_spec(true);
  spec.intended_errors = {ErrorCode::kExcessiveNsec3Iterations};
  auto result = zreplicator::replicate(spec, 109);
  ASSERT_NE(result.sandbox, nullptr);
  const auto report = lint_child(*result.sandbox);
  bool found = false;
  for (const auto& finding : report.findings) {
    if (finding.code != ErrorCode::kExcessiveNsec3Iterations) continue;
    found = true;
    EXPECT_EQ(finding.fix.kind, zone::InstructionKind::kSignZone);
    bool resigns_at_zero = false;
    for (const auto& cmd : finding.fix.commands) {
      if (cmd.kind != zone::CommandKind::kDnssecSignzone) continue;
      const auto it = cmd.args.find("iterations");
      if (it != cmd.args.end() && it->second == "0") resigns_at_zero = true;
    }
    EXPECT_TRUE(resigns_at_zero)
        << "fix must re-sign with zero NSEC3 iterations";
  }
  EXPECT_TRUE(found);
}

// ---------------------------------------------------------------------------
// Validator work budget → EDE 49
// ---------------------------------------------------------------------------

TEST(Budget, PairingBlowupTripsWorkBudgetAndSurfacesEde49) {
  SnapshotSpec spec = base_spec(false);
  spec.intended_errors = {ErrorCode::kExcessiveSignatureValidations,
                          ErrorCode::kValidatorWorkBudgetExceeded};
  auto result = zreplicator::replicate(spec, 110);
  ASSERT_NE(result.sandbox, nullptr);
  ASSERT_TRUE(result.complete) << result.failure_reason;
  auto& sb = *result.sandbox;

  const auto snapshot = sb.analyze();
  EXPECT_TRUE(snapshot.has_error(ErrorCode::kValidatorWorkBudgetExceeded));

  // The static prediction agrees, from the cost model alone.
  const auto report = lint_child(sb);
  const auto predicted = lint_codes(report);
  EXPECT_TRUE(predicted.contains(ErrorCode::kValidatorWorkBudgetExceeded));
  zonelint::LintOptions defaults;
  EXPECT_GT(report.cost.signature_attempts,
            defaults.budget.max_sig_validations);

  // RFC 8914: the abandonment surfaces as EDE 49 on the resolver side.
  EXPECT_EQ(analyzer::ede_for_error(ErrorCode::kValidatorWorkBudgetExceeded),
            analyzer::EdeCode::kValidationBudgetExceeded);
  const auto entries = analyzer::ede_for_snapshot(snapshot);
  const bool has_49 = std::any_of(
      entries.begin(), entries.end(), [](const analyzer::EdeEntry& e) {
        return e.code == analyzer::EdeCode::kValidationBudgetExceeded;
      });
  EXPECT_TRUE(has_49);
}

// ---------------------------------------------------------------------------
// ZoneStore admission
// ---------------------------------------------------------------------------

zone::Zone child_zone_with(ErrorCode code, int seed, bool nsec3 = false) {
  SnapshotSpec spec = base_spec(nsec3);
  spec.intended_errors = {code};
  auto result = zreplicator::replicate(spec, seed);
  EXPECT_NE(result.sandbox, nullptr);
  EXPECT_TRUE(result.complete) << result.failure_reason;
  auto& sb = *result.sandbox;
  return sb.managed(sb.child_apex()).signed_zone;
}

TEST(Admission, CleanZoneIsAdmittedWithoutTelemetry) {
  auto result = zreplicator::replicate(base_spec(false), 111);
  ASSERT_NE(result.sandbox, nullptr);
  auto& sb = *result.sandbox;
  server::ZoneStore store;
  store.set_admission_policy(zonelint::make_admission_policy());
  EXPECT_TRUE(store.upsert(sb.managed(sb.child_apex()).signed_zone));
  EXPECT_EQ(store.flagged_count(), 0u);
  EXPECT_EQ(store.rejected_count(), 0u);
}

TEST(Admission, CollidingTagsWithinBudgetAreFlaggedButAdmitted) {
  server::ZoneStore store;
  store.set_admission_policy(zonelint::make_admission_policy());
  EXPECT_TRUE(store.upsert(child_zone_with(ErrorCode::kCollidingKeyTags,
                                           112)));
  EXPECT_EQ(store.flagged_count(), 1u);
  EXPECT_EQ(store.rejected_count(), 0u);
}

TEST(Admission, PairingBlowupIsRejected) {
  server::ZoneStore store;
  store.set_admission_policy(zonelint::make_admission_policy());
  EXPECT_FALSE(store.upsert(
      child_zone_with(ErrorCode::kExcessiveSignatureValidations, 113)));
  EXPECT_EQ(store.rejected_count(), 1u);
}

TEST(Admission, OversizedNsec3IterationsAreRejected) {
  server::ZoneStore store;
  store.set_admission_policy(zonelint::make_admission_policy());
  EXPECT_FALSE(store.upsert(child_zone_with(
      ErrorCode::kExcessiveNsec3Iterations, 114, /*nsec3=*/true)));
  EXPECT_EQ(store.rejected_count(), 1u);
}

// Admission is priced per response, not per zone: a benign zone of any
// size fits the default budget. The whole-zone price refused every signed
// zone above about 100 names.
TEST(Admission, DefaultPolicyAdmitsLargeBenignZones) {
  constexpr UnixTime kNow = kDatasetStart;
  Rng rng{119};
  for (const auto denial :
       {zone::DenialMode::kNsec, zone::DenialMode::kNsec3}) {
    const dns::Name apex = dns::Name::of("large.example.");
    zone::Zone z(apex);
    dns::SoaRdata soa;
    soa.mname = apex.child("ns1");
    soa.rname = apex.child("hostmaster");
    z.add(apex, dns::RRType::kSOA, 3600, soa);
    z.add(apex, dns::RRType::kNS, 3600, dns::NsRdata{apex.child("ns1")});
    for (int i = 0; i < 2000; ++i) {
      z.add(apex.child("host" + std::to_string(i)), dns::RRType::kA, 3600,
            dns::ARdata{{10, 0, static_cast<std::uint8_t>(i >> 8),
                         static_cast<std::uint8_t>(i & 0xFF)}});
    }
    zone::KeyStore keys(apex);
    keys.generate(rng, zone::KeyRole::kKsk,
                  crypto::DnssecAlgorithm::kEcdsaP256Sha256, kNow);
    keys.generate(rng, zone::KeyRole::kZsk,
                  crypto::DnssecAlgorithm::kEcdsaP256Sha256, kNow);
    zone::SigningConfig config;
    config.denial = denial;
    zone::Zone signed_zone = zone::sign_zone(z, keys, config, kNow);
    const auto cost = zonelint::admission_cost_scan(signed_zone);
    ASSERT_GT(cost.signature_attempts,
              analyzer::GrokConfig{}.max_sig_validations)
        << "the whole-zone total alone would refuse this zone";

    server::ZoneStore store;
    store.set_admission_policy(zonelint::make_admission_policy());
    EXPECT_TRUE(store.upsert(std::move(signed_zone)));
    EXPECT_EQ(store.rejected_count(), 0u);
    EXPECT_EQ(store.flagged_count(), 0u);
  }
}

// The admission fast path skips trust-graph construction; this pins the
// contract from admission.h that its cost figures agree with the full
// model on clean and KeyTrap-shaped zones (no signed occluded glue here).
TEST(Admission, FastScanAgreesWithFullCostModel) {
  const auto check = [](const zone::Zone& z, const char* label) {
    const auto full =
        zonelint::estimate_cost(zonelint::build_trust_graph(z));
    bool zone_signed = false;
    const auto fast = zonelint::admission_cost_scan(z, &zone_signed);
    EXPECT_TRUE(zone_signed) << label;
    EXPECT_EQ(fast.signature_attempts, full.signature_attempts) << label;
    EXPECT_EQ(fast.max_rrset_pairings, full.max_rrset_pairings) << label;
    EXPECT_EQ(fast.colliding_tag_groups, full.colliding_tag_groups) << label;
    EXPECT_EQ(fast.surplus_colliding_keys, full.surplus_colliding_keys)
        << label;
    EXPECT_EQ(fast.nsec3_iterations, full.nsec3_iterations) << label;
    EXPECT_EQ(fast.negative_proof_hash_cost, full.negative_proof_hash_cost)
        << label;
  };
  for (const bool nsec3 : {false, true}) {
    auto clean = zreplicator::replicate(base_spec(nsec3), 115);
    ASSERT_NE(clean.sandbox, nullptr);
    auto& sb = *clean.sandbox;
    check(sb.managed(sb.child_apex()).signed_zone,
          nsec3 ? "clean nsec3" : "clean nsec");
  }
  check(child_zone_with(ErrorCode::kCollidingKeyTags, 116),
        "colliding tags");
  check(child_zone_with(ErrorCode::kExcessiveSignatureValidations, 117),
        "pairing blowup");
  check(child_zone_with(ErrorCode::kExcessiveNsec3Iterations, 118,
                        /*nsec3=*/true),
        "oversized iterations");
}

// ---------------------------------------------------------------------------
// DFixer repair of the KeyTrap shapes, verified by re-grok and re-lint
// ---------------------------------------------------------------------------

class KeytrapRepair : public ::testing::TestWithParam<PredictionCase> {};

TEST_P(KeytrapRepair, AutoFixConvergesAndLintComesBackClean) {
  const PredictionCase& c = GetParam();
  SnapshotSpec spec = base_spec(c.nsec3);
  spec.intended_errors = {c.code};
  auto result = zreplicator::replicate(
      spec, 115 + static_cast<int>(c.code));
  ASSERT_NE(result.sandbox, nullptr);
  ASSERT_TRUE(result.complete) << result.failure_reason;
  EXPECT_TRUE(result.generated.contains(c.code));
  auto& sb = *result.sandbox;

  auto report = dfixer::auto_fix(sb);
  EXPECT_TRUE(report.success)
      << "DFixer left errors behind; first: "
      << (report.final_snapshot.errors.empty()
              ? "?"
              : analyzer::error_code_name(
                    report.final_snapshot.errors[0].code));
  EXPECT_EQ(report.final_snapshot.status, SnapshotStatus::kSignedValid);

  // Post-repair, the static lint agrees the shape is gone.
  const auto relint = lint_child(sb);
  EXPECT_TRUE(relint.findings.empty())
      << "residual prediction: " << code_list(lint_codes(relint));
  zonelint::LintOptions defaults;
  EXPECT_LE(relint.cost.signature_attempts,
            defaults.budget.max_sig_validations);
}

INSTANTIATE_TEST_SUITE_P(
    KeytrapShapes, KeytrapRepair,
    ::testing::Values(
        PredictionCase{ErrorCode::kCollidingKeyTags, false},
        PredictionCase{ErrorCode::kExcessiveSignatureValidations, false},
        PredictionCase{ErrorCode::kExcessiveNsec3Iterations, true}),
    [](const ::testing::TestParamInfo<PredictionCase>& info) {
      std::string name = analyzer::error_code_name(info.param.code);
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace dfx
