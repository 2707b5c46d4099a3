// Analyzer (probe + grok) tests: snapshot categorisation and specific
// validation checks, driven through the sandbox.
#include <gtest/gtest.h>

#include "analyzer/grok.h"
#include "analyzer/probe.h"
#include "util/metrics.h"
#include "zreplicator/injector.h"
#include "zreplicator/replicate.h"

namespace dfx::analyzer {
namespace {

using zreplicator::Sandbox;
using zreplicator::SnapshotSpec;

SnapshotSpec clean_spec(bool nsec3 = false) {
  SnapshotSpec spec;
  KeyMeta ksk;
  ksk.flags = 0x0101;
  ksk.algorithm = 13;
  KeyMeta zsk;
  zsk.flags = 0x0100;
  zsk.algorithm = 13;
  spec.meta.keys = {ksk, zsk};
  spec.meta.uses_nsec3 = nsec3;
  return spec;
}

TEST(Grok, CleanZoneIsSv) {
  auto r = zreplicator::replicate(clean_spec(), 1);
  const auto snapshot = r.sandbox->analyze();
  EXPECT_EQ(snapshot.status, SnapshotStatus::kSignedValid);
  EXPECT_TRUE(snapshot.errors.empty());
  EXPECT_TRUE(snapshot.companions.empty());
  EXPECT_EQ(snapshot.query_zone, r.sandbox->child_apex());
}

TEST(Grok, RepeatedSignaturesRunTheCryptoOncePerZone) {
  // Both servers serve the same signed RRsets, so at most half of the
  // charged attempts may reach the crypto; the rest come from the memo.
  auto r = zreplicator::replicate(clean_spec(), 1);
  auto& sandbox = *r.sandbox;
  auto& attempts =
      metrics::Registry::global().counter("analyzer.sig_validation_attempts");
  auto& verifications =
      metrics::Registry::global().counter("analyzer.sig_verifications");
  const std::int64_t attempts_before = attempts.value();
  const std::int64_t verifications_before = verifications.value();
  const auto snapshot =
      grok(probe(sandbox.farm(), sandbox.chain(), sandbox.child_apex(),
                 sandbox.clock().now()));
  EXPECT_EQ(snapshot.status, SnapshotStatus::kSignedValid);
  const std::int64_t charged = attempts.value() - attempts_before;
  const std::int64_t ran = verifications.value() - verifications_before;
  EXPECT_GT(ran, 0);
  EXPECT_LE(2 * ran, charged);
}

TEST(Grok, UnsignedDelegationIsInsecure) {
  auto r = zreplicator::replicate(clean_spec(), 2);
  auto& sandbox = *r.sandbox;
  // Remove the child's DS and its DNSSEC records entirely.
  auto& mz = sandbox.managed(sandbox.child_apex());
  for (const auto& key : mz.keys.keys()) {
    sandbox.remove_parent_ds(sandbox.child_apex(), key.tag());
  }
  mz.keys = zone::KeyStore(sandbox.child_apex());
  sandbox.resign_and_sync(sandbox.child_apex());
  const auto snapshot = sandbox.analyze();
  EXPECT_EQ(snapshot.status, SnapshotStatus::kInsecure);
  EXPECT_TRUE(snapshot.errors.empty());
}

TEST(Grok, AllServersLameIsLm) {
  auto r = zreplicator::replicate(clean_spec(), 3);
  r.sandbox->farm().server(Sandbox::kNs1).set_lame(true);
  r.sandbox->farm().server(Sandbox::kNs2).set_lame(true);
  const auto snapshot = r.sandbox->analyze();
  EXPECT_EQ(snapshot.status, SnapshotStatus::kLame);
}

TEST(Grok, MissingDelegationNsIsIc) {
  auto r = zreplicator::replicate(clean_spec(), 4);
  auto& sandbox = *r.sandbox;
  auto& parent = sandbox.managed(sandbox.parent_apex());
  parent.unsigned_zone.remove(sandbox.child_apex(), dns::RRType::kNS);
  parent.unsigned_zone.remove(sandbox.child_apex(), dns::RRType::kDS);
  parent.signed_zone = zone::sign_zone(parent.unsigned_zone, parent.keys,
                                       parent.config,
                                       sandbox.clock().now());
  sandbox.farm().sync_zone(parent.signed_zone);
  const auto snapshot = sandbox.analyze();
  EXPECT_EQ(snapshot.status, SnapshotStatus::kIncomplete);
}

TEST(Grok, ExpiredSignatureIsSb) {
  auto spec = clean_spec();
  spec.intended_errors = {ErrorCode::kExpiredSignature};
  auto r = zreplicator::replicate(spec, 5);
  const auto snapshot = r.sandbox->analyze();
  EXPECT_EQ(snapshot.status, SnapshotStatus::kSignedBogus);
  EXPECT_TRUE(snapshot.has_error(ErrorCode::kExpiredSignature));
}

TEST(Grok, NzicAloneIsSvm) {
  auto spec = clean_spec(true);
  spec.meta.nsec3_iterations = 10;
  spec.intended_errors = {ErrorCode::kNonzeroIterationCount};
  auto r = zreplicator::replicate(spec, 6);
  const auto snapshot = r.sandbox->analyze();
  EXPECT_EQ(snapshot.status, SnapshotStatus::kSignedValidMisconfig);
  EXPECT_TRUE(snapshot.has_error(ErrorCode::kNonzeroIterationCount));
}

TEST(Grok, NzicFatalConfigMakesItSb) {
  auto spec = clean_spec(true);
  spec.meta.nsec3_iterations = 10;
  spec.intended_errors = {ErrorCode::kNonzeroIterationCount};
  auto r = zreplicator::replicate(spec, 7);
  const auto data = analyzer::probe(r.sandbox->farm(), r.sandbox->chain(),
                                    r.sandbox->child_apex(),
                                    r.sandbox->clock().now());
  GrokConfig config;
  config.nzic_is_fatal = true;  // the minority-validator behaviour
  const auto snapshot = grok(data, config);
  EXPECT_EQ(snapshot.status, SnapshotStatus::kSignedBogus);
}

TEST(Grok, ApexMxZoneIsSignedValid) {
  // The NODATA probe asks for apex MX. A zone that holds one answers it
  // positively, which needs no denial proof.
  for (bool nsec3 : {false, true}) {
    auto r = zreplicator::replicate(clean_spec(nsec3), 8 + nsec3);
    auto& sandbox = *r.sandbox;
    const dns::Name apex = sandbox.child_apex();
    sandbox.managed(apex).unsigned_zone.add(
        apex, dns::RRType::kMX, 3600,
        dns::MxRdata{.preference = 10, .exchange = apex.child("mail")});
    sandbox.resign_and_sync(apex);
    const auto snapshot = sandbox.analyze();
    EXPECT_EQ(snapshot.status, SnapshotStatus::kSignedValid)
        << (nsec3 ? "NSEC3" : "NSEC");
    EXPECT_TRUE(snapshot.errors.empty()) << (nsec3 ? "NSEC3" : "NSEC");
  }
}

TEST(Grok, Nsec3HashBudgetAbandonsTheProofWalk) {
  // A spent hashing budget abandons the closest-encloser walk: the zone
  // is bogus for the budget alone, with no proof error for the hashes it
  // never computed.
  auto r = zreplicator::replicate(clean_spec(true), 5);
  auto& sandbox = *r.sandbox;
  const auto data = probe(sandbox.farm(), sandbox.chain(),
                          sandbox.child_apex(), sandbox.clock().now());
  GrokConfig config;
  config.max_hash_cost = 1;
  const auto starved = grok(data, config);
  EXPECT_EQ(starved.status, SnapshotStatus::kSignedBogus);
  ASSERT_EQ(starved.errors.size(), 1u);
  EXPECT_EQ(starved.errors.front().code,
            ErrorCode::kValidatorWorkBudgetExceeded);
  EXPECT_EQ(starved.errors.front().zone, sandbox.child_apex());

  config.max_hash_cost = 8;
  EXPECT_EQ(grok(data, config).status, SnapshotStatus::kSignedValid);
}

TEST(Grok, RevokedKeyEmitsCompanionNoSep) {
  auto spec = clean_spec();
  spec.intended_errors = {ErrorCode::kRevokedKey};
  auto r = zreplicator::replicate(spec, 8);
  const auto snapshot = r.sandbox->analyze();
  EXPECT_TRUE(snapshot.has_error(ErrorCode::kRevokedKey));
  EXPECT_TRUE(snapshot.has_companion(ErrorCode::kNoSecureEntryPoint));
  EXPECT_EQ(snapshot.status, SnapshotStatus::kSignedBogus);
}

TEST(Grok, ExtraneousDsIsSvmWhenValidPathExists) {
  auto spec = clean_spec();
  spec.intended_errors = {ErrorCode::kMissingKskForAlgorithm};
  auto r = zreplicator::replicate(spec, 9);
  const auto snapshot = r.sandbox->analyze();
  // A valid DS remains, so every validator finds a path: svm, not sb.
  EXPECT_EQ(snapshot.status, SnapshotStatus::kSignedValidMisconfig);
  EXPECT_TRUE(snapshot.has_error(ErrorCode::kMissingKskForAlgorithm));
}

TEST(Grok, TargetMetaReflectsZone) {
  auto spec = clean_spec(true);
  spec.meta.nsec3_iterations = 0;
  auto r = zreplicator::replicate(spec, 10);
  const auto snapshot = r.sandbox->analyze();
  const auto& meta = snapshot.target_meta;
  EXPECT_EQ(meta.apex, r.sandbox->child_apex());
  EXPECT_EQ(meta.server_count, 2);
  EXPECT_EQ(meta.keys.size(), 2u);
  int ksks = 0;
  for (const auto& key : meta.keys) ksks += key.is_ksk() ? 1 : 0;
  EXPECT_EQ(ksks, 1);
  ASSERT_EQ(meta.ds_records.size(), 1u);
  EXPECT_TRUE(meta.ds_records[0].valid);
  EXPECT_TRUE(meta.uses_nsec3);
}

TEST(Grok, ErrorsAttributedToCorrectZone) {
  auto spec = clean_spec();
  spec.intended_errors = {ErrorCode::kInvalidSignature};
  auto r = zreplicator::replicate(spec, 11);
  const auto snapshot = r.sandbox->analyze();
  for (const auto& e : snapshot.errors) {
    EXPECT_EQ(e.zone, r.sandbox->child_apex()) << e.detail;
  }
  EXPECT_FALSE(snapshot.target_zone_errors().empty());
}

TEST(Probe, CollectsAllServersAndParentView) {
  auto r = zreplicator::replicate(clean_spec(), 12);
  const auto data = analyzer::probe(r.sandbox->farm(), r.sandbox->chain(),
                                    r.sandbox->child_apex(),
                                    r.sandbox->clock().now());
  ASSERT_EQ(data.chain.size(), 3u);
  EXPECT_EQ(data.chain[0].apex, r.sandbox->base_apex());
  EXPECT_EQ(data.chain[2].apex, r.sandbox->child_apex());
  EXPECT_EQ(data.chain[2].servers.size(), 2u);
  EXPECT_FALSE(data.chain[2].parent_ds.empty());
  EXPECT_TRUE(data.chain[0].parent_ds.empty());  // root has no parent
}

TEST(ErrorTaxonomy, Table3CountsAndCategories) {
  EXPECT_EQ(table3_codes().size(), kTable3CodeCount);
  EXPECT_EQ(category_of(ErrorCode::kNonzeroIterationCount),
            ErrorCategory::kNsec3Only);
  EXPECT_EQ(category_of(ErrorCode::kExpiredSignature),
            ErrorCategory::kSignature);
  EXPECT_EQ(category_of(ErrorCode::kNoSecureEntryPoint),
            ErrorCategory::kCompanion);
  EXPECT_EQ(paper_marker(ErrorCode::kInvalidDigest), 1);
  EXPECT_EQ(paper_marker(ErrorCode::kNonzeroIterationCount), 9);
  EXPECT_FALSE(paper_marker(ErrorCode::kRevokedKey).has_value());
  EXPECT_TRUE(is_critical(ErrorCode::kMissingSignature));
  EXPECT_FALSE(is_critical(ErrorCode::kNonzeroIterationCount));
}

}  // namespace
}  // namespace dfx::analyzer
