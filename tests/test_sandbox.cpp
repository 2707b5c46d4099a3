// Sandbox (CommandHost) tests: each BIND command's effect on the zones,
// and the analyze() memo: it must agree with a fresh probe + grok, and
// every kind of state change must invalidate it.
#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "analyzer/grok.h"
#include "analyzer/probe.h"
#include "dfixer/autofix.h"
#include "json/json.h"
#include "util/codec.h"
#include "util/metrics.h"
#include "zreplicator/replicate.h"
#include "zreplicator/sandbox.h"
#include "zreplicator/spec_corpus.h"

namespace dfx::zreplicator {
namespace {

using dns::Name;
using dns::RRType;

Sandbox make_sandbox(std::uint64_t seed = 42) {
  Sandbox sandbox(seed, kDatasetStart);
  sandbox.build_base();
  zone::SigningConfig config;
  sandbox.build_child(Name::of("chd.par.a.com."),
                      {{zone::KeyRole::kKsk,
                        crypto::DnssecAlgorithm::kEcdsaP256Sha256, 0},
                       {zone::KeyRole::kZsk,
                        crypto::DnssecAlgorithm::kEcdsaP256Sha256, 0}},
                      config, crypto::DigestType::kSha256, 3600);
  return sandbox;
}

TEST(Sandbox, BuildsValidHierarchy) {
  auto sandbox = make_sandbox();
  const auto snapshot = sandbox.analyze();
  EXPECT_EQ(snapshot.status, analyzer::SnapshotStatus::kSignedValid);
  EXPECT_EQ(sandbox.chain().size(), 3u);
}

TEST(Sandbox, KeygenAddsKeyToDirectory) {
  auto sandbox = make_sandbox();
  const auto before =
      sandbox.managed(sandbox.child_apex()).keys.keys().size();
  auto cmd = zone::cmd_keygen(sandbox.child_apex(),
                              crypto::DnssecAlgorithm::kEcdsaP256Sha256,
                              256, /*ksk=*/true);
  EXPECT_TRUE(sandbox.apply(cmd));
  EXPECT_EQ(sandbox.managed(sandbox.child_apex()).keys.keys().size(),
            before + 1);
}

TEST(Sandbox, KeygenRefusesRetiredAlgorithm) {
  auto sandbox = make_sandbox();
  zone::BindCommand cmd;
  cmd.kind = zone::CommandKind::kDnssecKeygen;
  cmd.args["zone"] = sandbox.child_apex().to_string();
  cmd.args["algorithm_number"] = "6";  // DSA-NSEC3-SHA1
  EXPECT_FALSE(sandbox.apply(cmd));
}

TEST(Sandbox, SignzoneChangesDenialParameters) {
  auto sandbox = make_sandbox();
  zone::SignZoneParams params;
  params.zone = sandbox.child_apex();
  params.nsec3 = true;
  params.nsec3_iterations = 0;
  EXPECT_TRUE(sandbox.apply(zone::cmd_signzone(params)));
  const auto& mz = sandbox.managed(sandbox.child_apex());
  EXPECT_NE(mz.signed_zone.find(sandbox.child_apex(), RRType::kNSEC3PARAM),
            nullptr);
  // The fresh copy reached both servers.
  for (const char* name : {Sandbox::kNs1, Sandbox::kNs2}) {
    const auto* data =
        sandbox.farm().server(name).zone_data(sandbox.child_apex());
    ASSERT_NE(data, nullptr);
    EXPECT_NE(data->find(sandbox.child_apex(), RRType::kNSEC3PARAM),
              nullptr);
  }
}

TEST(Sandbox, UploadAndRemoveDs) {
  auto sandbox = make_sandbox();
  auto& child = sandbox.managed(sandbox.child_apex());
  const auto ksk_tag =
      child.keys.active_with_role(kDatasetStart, zone::KeyRole::kKsk)[0]
          ->tag();
  // Remove the existing DS: the delegation goes insecure.
  EXPECT_TRUE(sandbox.apply(
      zone::cmd_remove_ds(sandbox.child_apex(), ksk_tag)));
  EXPECT_EQ(sandbox.analyze().status, analyzer::SnapshotStatus::kInsecure);
  // Upload it back: secure again.
  EXPECT_TRUE(sandbox.apply(zone::cmd_upload_ds(
      sandbox.child_apex(), ksk_tag, crypto::DigestType::kSha256)));
  EXPECT_EQ(sandbox.analyze().status,
            analyzer::SnapshotStatus::kSignedValid);
}

TEST(Sandbox, RemoveDsByDigestIsSelective) {
  auto sandbox = make_sandbox();
  auto& child = sandbox.managed(sandbox.child_apex());
  const auto* ksk =
      child.keys.active_with_role(kDatasetStart, zone::KeyRole::kKsk)[0];
  // Add a second DS with the same tag but corrupt digest.
  auto bad = zone::make_ds(*ksk, crypto::DigestType::kSha256);
  bad.digest[0] ^= 0xFF;
  sandbox.add_parent_ds(sandbox.child_apex(), bad);
  EXPECT_TRUE(sandbox.remove_parent_ds(sandbox.child_apex(), ksk->tag(),
                                       hex_encode(bad.digest)));
  // The good DS must survive.
  EXPECT_EQ(sandbox.analyze().status,
            analyzer::SnapshotStatus::kSignedValid);
}

TEST(Sandbox, SettimeDeleteRetiresKey) {
  auto sandbox = make_sandbox();
  auto& child = sandbox.managed(sandbox.child_apex());
  const auto zsk_tag =
      child.keys.active_with_role(kDatasetStart, zone::KeyRole::kZsk)[0]
          ->tag();
  EXPECT_TRUE(sandbox.apply(zone::cmd_settime_delete(
      sandbox.child_apex(), zsk_tag, sandbox.clock().now())));
  EXPECT_TRUE(child.keys
                  .active_with_role(sandbox.clock().now(),
                                    zone::KeyRole::kZsk)
                  .empty());
  // Unknown tags are a no-op (no key file), not a failure.
  EXPECT_TRUE(sandbox.apply(zone::cmd_settime_delete(
      sandbox.child_apex(), 12321, sandbox.clock().now())));
}

TEST(Sandbox, WaitTtlAdvancesClock) {
  auto sandbox = make_sandbox();
  const auto before = sandbox.clock().now();
  EXPECT_TRUE(sandbox.apply(zone::cmd_wait_ttl(7200)));
  EXPECT_EQ(sandbox.clock().now(), before + 7200);
}

TEST(Sandbox, ReduceTtlCapsRecords) {
  auto sandbox = make_sandbox();
  EXPECT_TRUE(sandbox.apply(
      zone::cmd_reduce_ttl(sandbox.child_apex(), "ALL", 300)));
  const auto& mz = sandbox.managed(sandbox.child_apex());
  for (const auto* rrset : mz.unsigned_zone.all_rrsets()) {
    EXPECT_LE(rrset->ttl(), 300u);
  }
}

TEST(Sandbox, CommandsOutsideManagedZonesFail) {
  auto sandbox = make_sandbox();
  zone::BindCommand cmd;
  cmd.kind = zone::CommandKind::kDnssecSignzone;
  cmd.args["zone"] = "evil.example.org.";
  EXPECT_FALSE(sandbox.apply(cmd));
}

TEST(Sandbox, ParentBogusScenario) {
  Sandbox sandbox(99, kDatasetStart);
  sandbox.build_base(/*parent_bogus=*/true);
  zone::SigningConfig config;
  sandbox.build_child(Name::of("chd.par.a.com."),
                      {{zone::KeyRole::kKsk,
                        crypto::DnssecAlgorithm::kEcdsaP256Sha256, 0},
                       {zone::KeyRole::kZsk,
                        crypto::DnssecAlgorithm::kEcdsaP256Sha256, 0}},
                      config, crypto::DigestType::kSha256, 3600);
  const auto snapshot = sandbox.analyze();
  EXPECT_EQ(snapshot.status, analyzer::SnapshotStatus::kSignedBogus);
  // The blocking error lives in the parent zone, not the child.
  bool parent_error = false;
  for (const auto& e : snapshot.companions) {
    parent_error |= e.zone == sandbox.parent_apex();
  }
  for (const auto& e : snapshot.errors) {
    parent_error |= e.zone == sandbox.parent_apex();
  }
  EXPECT_TRUE(parent_error);
}

TEST(Sandbox, DeterministicGivenSeed) {
  auto a = make_sandbox(7);
  auto b = make_sandbox(7);
  const auto sa = a.analyze();
  const auto sb = b.analyze();
  EXPECT_EQ(sa.status, sb.status);
  ASSERT_EQ(sa.target_meta.keys.size(), sb.target_meta.keys.size());
  for (std::size_t i = 0; i < sa.target_meta.keys.size(); ++i) {
    EXPECT_EQ(sa.target_meta.keys[i].key_tag,
              sb.target_meta.keys[i].key_tag);
  }
}

// ---- analyze() memo -------------------------------------------------------

std::int64_t memo_hits() {
  return metrics::Registry::global()
      .counter("zreplicator.analysis_memo_hits")
      .value();
}

std::string render(const analyzer::Snapshot& snapshot) {
  return json::serialize(analyzer::snapshot_to_json(snapshot));
}

/// What analyze() stands for, computed without the memo.
std::string fresh_analysis(Sandbox& sandbox) {
  return render(analyzer::grok(analyzer::probe(sandbox.farm(),
                                               sandbox.chain(),
                                               sandbox.child_apex(),
                                               sandbox.clock().now())));
}

std::int64_t counter(const char* name) {
  return metrics::Registry::global().counter(name).value();
}

/// Stands between auto_fix and the sandbox and checks every analysis the
/// fixer asks for against a fresh one.
class CheckingHost : public dfixer::CommandHost {
 public:
  explicit CheckingHost(Sandbox& sandbox) : sandbox_(sandbox) {}

  bool apply(const zone::BindCommand& command) override {
    return sandbox_.apply(command);
  }

  analyzer::Snapshot analyze() override {
    const std::int64_t full_hits = memo_hits();
    const std::int64_t zone_hits = counter("zreplicator.zone_memo_hits");
    analyzer::Snapshot snapshot = sandbox_.analyze();
    if (memo_hits() == full_hits) {
      // A re-analysis: the zones it kept are the upper-zone hits.
      partial_zone_hits += counter("zreplicator.zone_memo_hits") - zone_hits;
    }
    EXPECT_EQ(render(snapshot), fresh_analysis(sandbox_));
    ++analyses;
    return snapshot;
  }

  int analyses = 0;
  std::int64_t partial_zone_hits = 0;

 private:
  Sandbox& sandbox_;
};

TEST(SandboxMemo, MatchesFreshAnalysisThroughoutAutoFix) {
  SpecCorpusOptions options;
  options.count = 200;
  const auto specs = generate_eval_specs(options);
  const std::int64_t hits_before = memo_hits();
  int fixed = 0;
  int analyses = 0;
  std::uint64_t seed = 0;
  int fixed_after_changes = 0;
  int without_upper_hits = 0;
  for (const auto& eval : specs) {
    auto replication = replicate(eval.spec, ++seed);
    if (!replication.complete) continue;
    CheckingHost host(*replication.sandbox);
    const auto report = dfixer::auto_fix(host);
    fixed += report.success ? 1 : 0;
    analyses += host.analyses;
    // A fix changes the child, or the parent's DS: each re-analysis
    // after one keeps at least the base zone's verdict.
    if (report.success && !report.iterations.empty()) {
      ++fixed_after_changes;
      if (host.partial_zone_hits == 0) ++without_upper_hits;
    }
  }
  EXPECT_GT(fixed, 100);
  // Every auto_fix starts on the state replicate() just analysed.
  EXPECT_GE(memo_hits() - hits_before, fixed);
  EXPECT_GT(analyses, fixed);
  EXPECT_GT(fixed_after_changes, 0);
  EXPECT_EQ(without_upper_hits, 0);
}

TEST(SandboxMemo, CleanReplicateThenAutoFixHitsOnce) {
  SnapshotSpec spec;
  analyzer::KeyMeta ksk;
  ksk.flags = 0x0101;
  ksk.algorithm = 13;
  analyzer::KeyMeta zsk;
  zsk.flags = 0x0100;
  zsk.algorithm = 13;
  spec.meta.keys = {ksk, zsk};
  const std::int64_t before = memo_hits();
  auto replication = replicate(spec, 5);
  ASSERT_TRUE(replication.complete);
  const auto report = dfixer::auto_fix(*replication.sandbox);
  EXPECT_TRUE(report.success);
  EXPECT_TRUE(report.iterations.empty());
  EXPECT_EQ(memo_hits() - before, 1);
}

/// analyze() twice (the second is a memo hit), then `mutate`: the next
/// analyze() must be computed afresh, and must equal a fresh analysis.
void expect_recomputed_after(Sandbox& sandbox,
                             const std::function<void()>& mutate) {
  const std::string first = render(sandbox.analyze());
  const std::int64_t hits = memo_hits();
  EXPECT_EQ(render(sandbox.analyze()), first);
  ASSERT_EQ(memo_hits(), hits + 1);
  mutate();
  const std::string after = render(sandbox.analyze());
  EXPECT_EQ(memo_hits(), hits + 1) << "stale memo served after the change";
  EXPECT_EQ(after, fresh_analysis(sandbox));
}

TEST(SandboxMemo, LameServerInvalidates) {
  auto sandbox = make_sandbox();
  expect_recomputed_after(sandbox, [&] {
    sandbox.farm().server(Sandbox::kNs1).set_lame(true);
  });
}

TEST(SandboxMemo, ClockAdvanceInvalidates) {
  auto sandbox = make_sandbox();
  expect_recomputed_after(sandbox,
                          [&] { sandbox.clock().advance(40 * kDay); });
  EXPECT_FALSE(sandbox.analyze().errors.empty());  // signatures expired
}

TEST(SandboxMemo, PushToOneServerInvalidates) {
  auto sandbox = make_sandbox();
  expect_recomputed_after(sandbox, [&] {
    zone::Zone stale = sandbox.managed(sandbox.child_apex()).signed_zone;
    stale.remove(sandbox.child_apex(), RRType::kDNSKEY);
    sandbox.push_signed_to(Sandbox::kNs2, sandbox.child_apex(), stale);
  });
  EXPECT_TRUE(sandbox.analyze().has_error(
      analyzer::ErrorCode::kInconsistentDnskeyBetweenServers));
}

TEST(SandboxMemo, PollCdsInvalidates) {
  auto sandbox = make_sandbox();
  const Name child = sandbox.child_apex();
  auto& mz = sandbox.managed(child);
  // A second KSK, published as CDS: accepting it rewrites the parent's DS.
  Rng rng(3);
  mz.keys.generate(rng, zone::KeyRole::kKsk,
                   crypto::DnssecAlgorithm::kEcdsaP256Sha256,
                   sandbox.clock().now());
  mz.config.publish_cds = true;
  sandbox.resign_and_sync(child);
  expect_recomputed_after(sandbox,
                          [&] { EXPECT_TRUE(sandbox.poll_cds(child)); });
}

TEST(SandboxMemo, WaitTtlCommandInvalidates) {
  auto sandbox = make_sandbox();
  expect_recomputed_after(sandbox, [&] {
    EXPECT_TRUE(sandbox.apply(zone::cmd_wait_ttl(7200)));
  });
}

// ---- per-zone memo ----------------------------------------------------------

/// After `mutate`, analyze() must recompute exactly `misses` of the
/// chain's three zones, keep the others, and equal a fresh analysis.
void expect_zone_misses(Sandbox& sandbox, std::int64_t misses,
                        const std::function<void()>& mutate) {
  (void)sandbox.analyze();  // settle the memo on the current state
  const std::int64_t hits = counter("zreplicator.zone_memo_hits");
  const std::int64_t missed = counter("zreplicator.zone_memo_misses");
  mutate();
  const std::string after = render(sandbox.analyze());
  EXPECT_EQ(counter("zreplicator.zone_memo_misses") - missed, misses);
  EXPECT_EQ(counter("zreplicator.zone_memo_hits") - hits, 3 - misses);
  EXPECT_EQ(after, fresh_analysis(sandbox));
}

TEST(SandboxMemo, PerZoneInvalidationMatrix) {
  auto sandbox = make_sandbox();
  const Name child = sandbox.child_apex();
  ASSERT_EQ(sandbox.chain().size(), 3u);
  {
    SCOPED_TRACE("child-only re-sign: base and parent hit, child misses");
    expect_zone_misses(sandbox, 1, [&] { sandbox.resign_and_sync(child); });
  }
  {
    SCOPED_TRACE("parent DS change: base hits, parent and child miss");
    expect_zone_misses(sandbox, 2, [&] {
      const auto ksks = sandbox.managed(child).keys.active_with_role(
          sandbox.clock().now(), zone::KeyRole::kKsk);
      ASSERT_FALSE(ksks.empty());
      sandbox.add_parent_ds(
          child, zone::make_ds(*ksks.front(), crypto::DigestType::kSha1));
    });
  }
  {
    SCOPED_TRACE("clock advance: every zone misses");
    expect_zone_misses(sandbox, 3, [&] { sandbox.clock().advance(kHour); });
  }
  {
    SCOPED_TRACE("child pushed to one server: only the child misses");
    expect_zone_misses(sandbox, 1, [&] {
      zone::Zone stale = sandbox.managed(child).signed_zone;
      stale.remove(child, RRType::kDNSKEY);
      sandbox.push_signed_to(Sandbox::kNs2, child, stale);
    });
    EXPECT_TRUE(sandbox.analyze().has_error(
        analyzer::ErrorCode::kInconsistentDnskeyBetweenServers));
  }
  {
    SCOPED_TRACE("ns1 lame: every zone it serves misses");
    expect_zone_misses(sandbox, 3, [&] {
      sandbox.farm().server(Sandbox::kNs1).set_lame(true);
    });
  }
}

}  // namespace
}  // namespace dfx::zreplicator
