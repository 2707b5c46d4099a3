// Sandbox (CommandHost) tests: each BIND command's effect on the zones,
// the analyze() memo (it must agree with a fresh probe + grok, and every
// kind of state change must invalidate it), and the hosted version the
// sandbox's two servers share: probe asks it once and grok checks it once,
// with verdicts unchanged.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <string>
#include <thread>
#include <vector>

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
    sandbox.push_signed_to(Sandbox::kNs2, stale);
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
      sandbox.push_signed_to(Sandbox::kNs2, stale);
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


// ---- one hosted version per push ------------------------------------------

std::uint64_t child_serial(Sandbox& sandbox, const char* server) {
  return sandbox.farm().server(server).zone_serial(sandbox.child_apex());
}

const zone::Zone* child_data(Sandbox& sandbox, const char* server) {
  return sandbox.farm().server(server).zone_data(sandbox.child_apex());
}

/// Push a copy of the child without its DNSKEY RRset to ns2 alone.
void diverge_ns2(Sandbox& sandbox) {
  zone::Zone stale = sandbox.managed(sandbox.child_apex()).signed_zone;
  stale.remove(sandbox.child_apex(), RRType::kDNSKEY);
  sandbox.push_signed_to(Sandbox::kNs2, stale);
}

TEST(SharedVersion, SyncZoneGivesEveryServerOneVersion) {
  auto sandbox = make_sandbox();
  const std::uint64_t hosted = child_serial(sandbox, Sandbox::kNs1);
  EXPECT_NE(hosted, 0u);
  EXPECT_EQ(child_serial(sandbox, Sandbox::kNs2), hosted);
  EXPECT_EQ(child_data(sandbox, Sandbox::kNs1),
            child_data(sandbox, Sandbox::kNs2));

  sandbox.resign_and_sync(sandbox.child_apex());
  const std::uint64_t synced = child_serial(sandbox, Sandbox::kNs1);
  EXPECT_NE(synced, hosted);
  EXPECT_EQ(child_serial(sandbox, Sandbox::kNs2), synced);
  EXPECT_EQ(child_data(sandbox, Sandbox::kNs1),
            child_data(sandbox, Sandbox::kNs2));
}

TEST(SharedVersion, PushToOneDivergesAndSyncConverges) {
  auto sandbox = make_sandbox();
  const std::uint64_t shared = child_serial(sandbox, Sandbox::kNs1);
  diverge_ns2(sandbox);
  EXPECT_EQ(child_serial(sandbox, Sandbox::kNs1), shared);
  EXPECT_NE(child_serial(sandbox, Sandbox::kNs2), shared);
  EXPECT_NE(child_data(sandbox, Sandbox::kNs1),
            child_data(sandbox, Sandbox::kNs2));
  const auto diverged = sandbox.analyze();
  EXPECT_TRUE(diverged.has_error(
      analyzer::ErrorCode::kInconsistentDnskeyBetweenServers));
  EXPECT_EQ(render(diverged), fresh_analysis(sandbox));

  sandbox.resign_and_sync(sandbox.child_apex());
  EXPECT_EQ(child_serial(sandbox, Sandbox::kNs1),
            child_serial(sandbox, Sandbox::kNs2));
  EXPECT_EQ(child_data(sandbox, Sandbox::kNs1),
            child_data(sandbox, Sandbox::kNs2));
  const auto converged = sandbox.analyze();
  EXPECT_FALSE(converged.has_error(
      analyzer::ErrorCode::kInconsistentDnskeyBetweenServers));
  EXPECT_EQ(render(converged), fresh_analysis(sandbox));
}

TEST(SharedVersion, ProbeMirrorsTheSecondServerAndGrokSkipsIt) {
  auto sandbox = make_sandbox();
  const auto probe_now = [&] {
    return analyzer::probe(sandbox.farm(), sandbox.chain(),
                           sandbox.child_apex(), sandbox.clock().now());
  };
  const auto data = probe_now();
  ASSERT_EQ(data.chain.size(), 3u);
  for (const auto& zp : data.chain) {
    ASSERT_EQ(zp.servers.size(), 2u);
    EXPECT_FALSE(zp.servers[0].mirror_of);
    EXPECT_EQ(zp.servers[1].mirror_of, std::optional<std::size_t>{0});
    EXPECT_EQ(zp.servers[1].server, Sandbox::kNs2);
  }
  const std::int64_t before = counter("analyzer.mirrored_servers");
  EXPECT_EQ(analyzer::grok(data).status,
            analyzer::SnapshotStatus::kSignedValid);
  EXPECT_EQ(counter("analyzer.mirrored_servers") - before, 3);

  // A server holding a version of its own is asked in full.
  diverge_ns2(sandbox);
  const auto diverged = probe_now();
  EXPECT_EQ(diverged.chain[1].servers[1].mirror_of,
            std::optional<std::size_t>{0});
  EXPECT_FALSE(diverged.chain[2].servers[1].mirror_of);
}

TEST(SharedVersion, TwoThreadsProbeOneFarm) {
  auto sandbox = make_sandbox();
  const std::string expected = fresh_analysis(sandbox);
  std::array<std::vector<std::string>, 2> seen;
  std::vector<std::thread> threads;
  for (auto& out : seen) {
    threads.emplace_back([&sandbox, &out] {
      for (int i = 0; i < 4; ++i) out.push_back(fresh_analysis(sandbox));
    });
  }
  for (auto& thread : threads) thread.join();
  for (const auto& out : seen) {
    ASSERT_EQ(out.size(), 4u);
    for (const auto& analysis : out) EXPECT_EQ(analysis, expected);
  }
}

// ---- grok on mirrors: same verdicts as without them -------------------------

analyzer::ZoneProbe without_mirrors(analyzer::ZoneProbe zp) {
  for (auto& sp : zp.servers) sp.mirror_of.reset();
  return zp;
}

/// Stands between auto_fix and the sandbox and, at every analysis, groks
/// each probed zone twice: as probed, and with every mirror_of cleared.
class MirrorCheckingHost : public dfixer::CommandHost {
 public:
  explicit MirrorCheckingHost(Sandbox& sandbox) : sandbox_(sandbox) {}

  bool apply(const zone::BindCommand& command) override {
    return sandbox_.apply(command);
  }

  analyzer::Snapshot analyze() override {
    const std::vector<Name> zones = sandbox_.chain();
    const UnixTime now = sandbox_.clock().now();
    const analyzer::GrokConfig config;
    analyzer::TrustState state = analyzer::TrustState::kSecure;
    for (std::size_t i = 0; i < zones.size(); ++i) {
      const Name* parent = i == 0 ? nullptr : &zones[i - 1];
      const bool is_target = i + 1 == zones.size();
      const auto zp = analyzer::probe_zone(sandbox_.farm(), zones, i);
      const auto mirrored =
          analyzer::grok_zone(zp, state, parent, now, config, is_target);
      const auto plain = analyzer::grok_zone(without_mirrors(zp), state,
                                             parent, now, config, is_target);
      EXPECT_TRUE(mirrored.same_as(plain))
          << zones[i].to_string() << " after " << analyses << " analyses";
      skipped += mirrored.mirrored_servers;
      if (mirrored.stop != analyzer::ZoneVerdict::Stop::kNone) break;
      state = mirrored.state;
    }
    ++analyses;
    return sandbox_.analyze();
  }

  int analyses = 0;
  std::size_t skipped = 0;

 private:
  Sandbox& sandbox_;
};

TEST(Mirror, GrokMatchesUnmirroredThroughoutAutoFix) {
  SpecCorpusOptions options;
  options.count = 200;
  const auto specs = generate_eval_specs(options);
  int analyses = 0;
  std::size_t skipped = 0;
  std::uint64_t seed = 0;
  for (const auto& eval : specs) {
    auto replication = replicate(eval.spec, ++seed);
    if (!replication.complete) continue;
    MirrorCheckingHost host(*replication.sandbox);
    (void)dfixer::auto_fix(host);  // the checks are the host's
    analyses += host.analyses;
    skipped += host.skipped;
  }
  EXPECT_GT(analyses, 200);
  EXPECT_GT(skipped, static_cast<std::size_t>(analyses));
}

/// The child's probe in a replicated sandbox whose servers share one
/// version, and grok_zone over it as analyze() calls it.
struct ChildProbe {
  explicit ChildProbe(const SnapshotSpec& spec, std::uint64_t seed)
      : replication(replicate(spec, seed)) {
    EXPECT_TRUE(replication.complete) << replication.failure_reason;
    Sandbox& sandbox = *replication.sandbox;
    zp = analyzer::probe_zone(sandbox.farm(), sandbox.chain(), 2);
  }

  analyzer::ZoneVerdict grok(const analyzer::ZoneProbe& probe,
                             const analyzer::GrokConfig& config) const {
    Sandbox& sandbox = *replication.sandbox;
    return analyzer::grok_zone(probe, analyzer::TrustState::kSecure,
                               &sandbox.parent_apex(), sandbox.clock().now(),
                               config, /*is_target=*/true);
  }

  /// Grok with only the first server: one per-server pass.
  analyzer::ZoneVerdict grok_one_server(
      const analyzer::GrokConfig& config) const {
    analyzer::ZoneProbe one = zp;
    one.servers.resize(1);
    return grok(one, config);
  }

  ReplicationResult replication;
  analyzer::ZoneProbe zp;
};

bool budget_exceeded(const analyzer::ZoneVerdict& verdict) {
  return std::any_of(verdict.events.begin(), verdict.events.end(),
                     [](const analyzer::ErrorInstance& e) {
                       return e.code ==
                              analyzer::ErrorCode::kValidatorWorkBudgetExceeded;
                     });
}

/// With the budget `set` to `one_pass` (what one server's checks cost)
/// times two, minus one, the mirror's checks do not fit: grok must run
/// them, and report the exhausted budget exactly as without mirrors. At
/// twice `one_pass` they fit and are skipped.
void expect_budget_boundary(
    const ChildProbe& child, std::size_t one_pass,
    const std::function<void(analyzer::GrokConfig&, std::size_t)>& set) {
  ASSERT_EQ(child.zp.servers.size(), 2u);
  ASSERT_EQ(child.zp.servers[1].mirror_of, std::optional<std::size_t>{0});
  ASSERT_GE(one_pass, 2u);
  analyzer::GrokConfig config;
  set(config, 2 * one_pass - 1);
  const auto starved = child.grok(child.zp, config);
  EXPECT_TRUE(starved.same_as(child.grok(without_mirrors(child.zp), config)));
  EXPECT_TRUE(budget_exceeded(starved));
  EXPECT_EQ(starved.mirrored_servers, 0u);

  set(config, 2 * one_pass);
  const auto fed = child.grok(child.zp, config);
  EXPECT_TRUE(fed.same_as(child.grok(without_mirrors(child.zp), config)));
  EXPECT_FALSE(budget_exceeded(fed));
  EXPECT_EQ(fed.mirrored_servers, 1u);
}

/// A spec for a child with one ECDSA KSK and one ECDSA ZSK.
SnapshotSpec two_ecdsa_keys() {
  SnapshotSpec spec;
  analyzer::KeyMeta ksk;
  ksk.flags = 0x0101;
  ksk.algorithm = 13;
  analyzer::KeyMeta zsk;
  zsk.flags = 0x0100;
  zsk.algorithm = 13;
  spec.meta.keys = {ksk, zsk};
  return spec;
}

TEST(Mirror, SignatureBudgetBetweenOneAndTwoPasses) {
  SnapshotSpec spec = two_ecdsa_keys();
  spec.intended_errors = {analyzer::ErrorCode::kCollidingKeyTags};
  const ChildProbe child(spec, 112);
  const auto one = child.grok_one_server({});
  ASSERT_FALSE(budget_exceeded(one));
  ASSERT_TRUE(std::any_of(one.events.begin(), one.events.end(),
                          [](const analyzer::ErrorInstance& e) {
                            return e.code ==
                                   analyzer::ErrorCode::kCollidingKeyTags;
                          }));
  expect_budget_boundary(child, one.sig_validation_attempts,
                         [](analyzer::GrokConfig& config, std::size_t n) {
                           config.max_sig_validations = n;
                         });
}

TEST(Mirror, HashBudgetBetweenOneAndTwoPasses) {
  SnapshotSpec spec = two_ecdsa_keys();
  spec.meta.uses_nsec3 = true;
  spec.meta.nsec3_iterations = 5;
  const ChildProbe child(spec, 5);
  // One pass's hash cost: the least budget one server's checks fit in.
  analyzer::GrokConfig config;
  std::size_t one_pass = 1;
  for (; one_pass < 1000; ++one_pass) {
    config.max_hash_cost = one_pass;
    if (!budget_exceeded(child.grok_one_server(config))) break;
  }
  ASSERT_LT(one_pass, 1000u);
  expect_budget_boundary(child, one_pass,
                         [](analyzer::GrokConfig& c, std::size_t n) {
                           c.max_hash_cost = n;
                         });
}

}  // namespace
}  // namespace dfx::zreplicator
