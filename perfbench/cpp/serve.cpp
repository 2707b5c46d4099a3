// Workloads "serve-hot" and "serve-miss": WireFrontend::serve() over the
// public server API, closed loop (each client sends its next query when
// the previous answer is back).
//
// serve-hot   a fixed set of distinct packets covering every answer shape,
//             DO on and off, after an untimed warm pass: every timed query
//             is a packet-cache hit. Loads the frontend and the AnswerCache
//             hit path only.
// serve-miss  random-subdomain traffic against one NSEC and one NSEC3 zone
//             of 2,000 names each: never-repeated NXDOMAIN labels plus
//             existing names and NODATA types, each asked once per cache
//             epoch. After every epoch the client re-publishes the next
//             pre-signed version of one zone through ZoneStore::upsert
//             (admission policy installed, invalidation connected), which
//             empties the cache. Loads the miss path (store find,
//             authserver answer with NSEC/NSEC3 proof selection, encode)
//             and the cache's write side (insert, harvest, synthesis,
//             epoch invalidation).
//
// Both check, before timing, that cache-on bytes equal cache-off bytes for
// every distinct query, that every zone is hosted, and that each query
// class gets the rcode its oracle expects; the timed passes keep counting
// rcode failures.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "dnscore/message.h"
#include "server/frontend.h"
#include "trace.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "zone/nsec3.h"
#include "zone/signer.h"
#include "zonelint/admission.h"

namespace perfbench {
namespace {

using dfx::Bytes;
using dfx::dns::Name;
using dfx::dns::RCode;
using dfx::dns::RRType;
using dfx::server::AnswerCache;
using dfx::server::WireFrontend;
using dfx::server::ZoneStore;

constexpr dfx::UnixTime kNow = dfx::kDatasetStart;

enum class QueryClass { kPositive, kNodata, kNsecNx, kNsec3Nx, kOther };

struct Query {
  Bytes packet;
  Name qname{Name::root()};
  RRType qtype = RRType::kA;
  bool do_bit = true;
  RCode expect = RCode::kNoError;
  QueryClass kind = QueryClass::kOther;
  int zone = 0;  // serve-miss: index of the zone the query falls in
};

Bytes encode_query(std::uint16_t id, const Name& qname, RRType qtype,
                   bool do_bit) {
  dfx::dns::Message msg;
  msg.header.id = id;
  msg.header.rd = true;
  msg.questions.push_back({qname, qtype, dfx::dns::RRClass::kIN});
  if (do_bit) {
    dfx::dns::EdnsInfo edns;
    edns.udp_size = 4096;
    edns.do_bit = true;
    msg.edns = edns;
  }
  return dfx::dns::encode_message(msg);
}

Query make_query(std::uint16_t id, const Name& qname, RRType qtype,
                 bool do_bit, RCode expect, QueryClass kind, int zone = 0) {
  Query q;
  q.packet = encode_query(id, qname, qtype, do_bit);
  q.qname = qname;
  q.qtype = qtype;
  q.do_bit = do_bit;
  q.expect = expect;
  q.kind = kind;
  q.zone = zone;
  return q;
}

bool same_packets(const std::vector<Query>& a, const std::vector<Query>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const Query& x, const Query& y) {
                      return x.packet == y.packet && x.expect == y.expect;
                    });
}

/// The oracle check: a non-empty response carrying the expected rcode.
bool answered_as_expected(const Bytes& response, const Query& query) {
  return response.size() >= 12 &&
         (response[3] & 0x0F) == static_cast<std::uint8_t>(query.expect);
}

std::int64_t counter(const char* name) {
  return dfx::metrics::Registry::global().counter(name).value();
}

struct CacheCounters {
  std::int64_t queries = 0;
  std::int64_t hits = 0;
  std::int64_t inserts = 0;
  std::int64_t synth_hits = 0;

  static CacheCounters now() {
    return {counter("server.queries"), counter("server.cache.hits"),
            counter("server.cache.inserts"),
            counter("server.cache.synth_hits")};
  }
  CacheCounters operator-(const CacheCounters& o) const {
    return {queries - o.queries, hits - o.hits, inserts - o.inserts,
            synth_hits - o.synth_hits};
  }
  CacheCounters operator+(const CacheCounters& o) const {
    return {queries + o.queries, hits + o.hits, inserts + o.inserts,
            synth_hits + o.synth_hits};
  }
  double share(std::int64_t n) const {
    return queries == 0 ? 0.0
                        : static_cast<double>(n) / static_cast<double>(queries);
  }
};

/// A store, a cache wired to it, and a cached and an uncached frontend.
/// Member order matters: the cache must outlive the store (the store's
/// swap listener holds a reference to it).
struct Serving {
  std::unique_ptr<AnswerCache> cache = std::make_unique<AnswerCache>();
  std::unique_ptr<ZoneStore> store = std::make_unique<ZoneStore>();
  std::unique_ptr<WireFrontend> cached;
  std::unique_ptr<WireFrontend> uncached;

  explicit Serving(dfx::server::AdmissionPolicy policy) {
    store->set_admission_policy(std::move(policy));
    dfx::server::connect_invalidation(*store, *cache);
    cached = std::make_unique<WireFrontend>(*store, cache.get());
    uncached = std::make_unique<WireFrontend>(*store, nullptr);
  }
};

/// Compare cache-on and cache-off bytes and the rcode oracle for one query.
/// Returns false on a mismatch; only the first one is reported.
bool check_query(const WireFrontend& uncached, const WireFrontend& cached,
                 const Query& q, const char* what, Report& report,
                 bool& reported) {
  const Bytes want = uncached.serve(q.packet);
  const Bytes got = cached.serve(q.packet);
  const bool ok = want == got && answered_as_expected(got, q);
  if (!ok && !reported) {
    reported = true;
    report.fail(std::string(what) + ": " + q.qname.to_string() + " type " +
                std::to_string(static_cast<int>(q.qtype)) +
                (want == got ? " got the wrong rcode"
                             : " cache-on bytes differ from cache-off"));
  }
  return ok;
}

// ---- serve-hot -------------------------------------------------------------

constexpr std::int64_t kHotRoundQueries = 200'000;  // per thread per round
constexpr int kHotRoundsPerSecond = 3;
constexpr std::int64_t kHotLatencyRoundQueries = 50'000;
constexpr int kHotRoundsPerSetup = 6;  // rebuild (setup_s) every 6 rounds
constexpr int kHotSampleEvery = 16;  // traced run: span 1 serve() in 16

/// One signed zone with every answer shape: positives, a CNAME, a
/// wildcard subtree, an empty non-terminal, and a signed delegation with
/// glue and DS (the bench_qps fixture).
dfx::zone::Zone build_shapes_zone(const Name& apex,
                                  dfx::zone::DenialMode denial,
                                  dfx::zone::KeyStore& keys, dfx::Rng& rng) {
  dfx::zone::Zone zone(apex);
  dfx::dns::SoaRdata soa;
  soa.mname = apex.child("ns1");
  soa.rname = apex.child("hostmaster");
  zone.add(apex, RRType::kSOA, 3600, soa);
  zone.add(apex, RRType::kNS, 3600, dfx::dns::NsRdata{apex.child("ns1")});
  dfx::dns::ARdata a;
  a.address = {192, 0, 2, 1};
  zone.add(apex.child("ns1"), RRType::kA, 3600, a);
  zone.add(apex.child("www"), RRType::kA, 3600, a);
  zone.add(apex.child("mail"), RRType::kMX, 3600,
           dfx::dns::MxRdata{10, apex.child("www")});
  zone.add(apex.child("alias"), RRType::kCNAME, 3600,
           dfx::dns::CnameRdata{apex.child("www")});
  zone.add(apex.child("wild").child("*"), RRType::kA, 3600, a);
  zone.add(apex.child("ent").child("deep"), RRType::kTXT, 3600,
           dfx::dns::TxtRdata{{"ent-probe"}});
  const Name child = apex.child("child");
  zone.add(child, RRType::kNS, 3600, dfx::dns::NsRdata{child.child("ns")});
  dfx::dns::ARdata glue;
  glue.address = {192, 0, 2, 53};
  zone.add(child.child("ns"), RRType::kA, 3600, glue);
  dfx::dns::DsRdata ds;
  ds.key_tag = 4242;
  ds.algorithm = 13;
  ds.digest_type = 2;
  ds.digest.assign(32, 0x5A);
  zone.add(child, RRType::kDS, 3600, ds);

  keys.generate(rng, dfx::zone::KeyRole::kKsk,
                dfx::crypto::DnssecAlgorithm::kEcdsaP256Sha256, kNow);
  keys.generate(rng, dfx::zone::KeyRole::kZsk,
                dfx::crypto::DnssecAlgorithm::kEcdsaP256Sha256, kNow);
  dfx::zone::SigningConfig config;
  config.denial = denial;
  if (denial == dfx::zone::DenialMode::kNsec3) {
    config.nsec3_iterations = 2;
    config.nsec3_salt = {0xAB};
  }
  return dfx::zone::sign_zone(zone, keys, config, kNow);
}

struct HotFixture {
  Serving serving{dfx::zonelint::make_admission_policy()};
  std::vector<Query> queries;
  std::vector<Name> apexes;
};

/// Sign and host the three zones, pre-encode the packets, warm the cache.
std::unique_ptr<HotFixture> build_hot(std::uint64_t seed) {
  auto f = std::make_unique<HotFixture>();
  const Name parent_apex = Name::of("test.");
  const Name nsec_apex = Name::of("example.test.");
  const Name nsec3_apex = Name::of("n3.test.");
  f->apexes = {nsec_apex, nsec3_apex};
  dfx::Rng rng{seed};
  dfx::zone::KeyStore nsec_keys{nsec_apex};
  dfx::zone::KeyStore nsec3_keys{nsec3_apex};
  ZoneStore& store = *f->serving.store;
  store.upsert(build_shapes_zone(nsec_apex, dfx::zone::DenialMode::kNsec,
                                 nsec_keys, rng));
  store.upsert(build_shapes_zone(nsec3_apex, dfx::zone::DenialMode::kNsec3,
                                 nsec3_keys, rng));
  dfx::zone::Zone parent(parent_apex);
  dfx::dns::SoaRdata soa;
  soa.mname = parent_apex.child("ns1");
  soa.rname = parent_apex.child("hostmaster");
  parent.add(parent_apex, RRType::kSOA, 3600, soa);
  parent.add(parent_apex, RRType::kNS, 3600,
             dfx::dns::NsRdata{parent_apex.child("ns1")});
  for (const auto* keys : {&nsec_keys, &nsec3_keys}) {
    const auto ksks = keys->active_with_role(kNow, dfx::zone::KeyRole::kKsk);
    if (ksks.empty()) throw std::runtime_error("no KSK generated");
    parent.add(keys->zone(), RRType::kDS, 3600,
               dfx::zone::make_ds(*ksks[0], dfx::crypto::DigestType::kSha256));
    parent.add(keys->zone(), RRType::kNS, 3600,
               dfx::dns::NsRdata{keys->zone().child("ns1")});
  }
  store.upsert(std::move(parent));

  const auto add = [&](const Name& qname, RRType qtype, RCode expect) {
    for (const bool do_bit : {true, false}) {
      f->queries.push_back(make_query(
          static_cast<std::uint16_t>(f->queries.size() * 7919u), qname,
          qtype, do_bit, expect, QueryClass::kOther));
    }
  };
  for (const Name& apex : f->apexes) {
    add(apex.child("www"), RRType::kA, RCode::kNoError);       // positive
    add(apex.child("alias"), RRType::kA, RCode::kNoError);     // CNAME
    add(apex, RRType::kSOA, RCode::kNoError);                  // apex
    add(apex, RRType::kDNSKEY, RCode::kNoError);               // key set
    add(apex.child("www"), RRType::kMX, RCode::kNoError);      // NODATA
    add(apex.child("ent"), RRType::kA, RCode::kNoError);       // ENT
    add(apex.child("wild").child("any"), RRType::kA, RCode::kNoError);
    add(apex.child("child").child("deep"), RRType::kA, RCode::kNoError);
    add(apex.child("child"), RRType::kDS, RCode::kNoError);    // DS at cut
    add(apex.child("child"), RRType::kMX, RCode::kNoError);    // referral
    add(apex, RRType::kDS, RCode::kNoError);                   // parent DS
    for (int i = 0; i < 6; ++i) {
      add(apex.child("nx" + std::to_string(i)), RRType::kA,
          RCode::kNXDomain);
    }
  }
  add(Name::of("unhosted.example."), RRType::kA, RCode::kRefused);

  for (const Query& q : f->queries) (void)f->serving.cached->serve(q.packet);
  return f;
}

void hot_gate(HotFixture& f, Report& report) {
  const ZoneStore& store = *f.serving.store;
  if (store.zone_count() != 3 || store.rejected_count() != 0) {
    report.fail("serve-hot: " + std::to_string(store.zone_count()) +
                " zones hosted, " + std::to_string(store.rejected_count()) +
                " rejected (want 3 and 0)");
  }
  // A cold cache of its own: cold, warm, then synthesized answers.
  AnswerCache cold_cache;
  const WireFrontend cold(store, &cold_cache);
  const WireFrontend& uncached = *f.serving.uncached;
  std::int64_t attempted = 0, failed = 0;
  bool reported = false;
  const auto check = [&](const WireFrontend& cached, const Query& q,
                         const char* what) {
    attempted += 1;
    failed += check_query(uncached, cached, q, what, report, reported) ? 0 : 1;
  };
  for (int pass = 0; pass < 2; ++pass) {
    for (const Query& q : f.queries) check(cold, q, "serve-hot gate");
  }
  const std::int64_t synth_before = counter("server.cache.synth_hits");
  for (const Name& apex : f.apexes) {
    for (int i = 0; i < 40; ++i) {
      check(cold,
            make_query(static_cast<std::uint16_t>(i),
                       apex.child("probe" + std::to_string(i)), RRType::kA,
                       true, RCode::kNXDomain, QueryClass::kOther),
            "serve-hot gate (synthesis)");
    }
  }
  if (counter("server.cache.synth_hits") == synth_before) {
    report.fail("serve-hot gate: no answer was synthesized");
  }
  // And the warmed fixture itself.
  for (const Query& q : f.queries) {
    check(*f.serving.cached, q, "serve-hot gate (warm)");
  }
  report.pass("serve-hot/gate", attempted, failed);
}

/// The traced run's hooks into hot_loop<true>.
struct HotSampling {
  const std::vector<std::string>* keys = nullptr;  // AnswerCache keys
  std::int64_t component_ns = 0;  // time spent outside serve() spans
};

/// Serve `count` queries cycling through queries[begin, end) on the
/// calling thread, without clock reads; returns the rcode failures.
/// Traced, every kHotSampleEvery-th serve() gets a span, preceded by an
/// empty span (what a span adds to the duration it measures, taken off
/// these ~300 ns calls) and followed by the cache lookup serve() performs,
/// timed on its own and counted in `sampling->component_ns`.
template <bool kTraced>
std::int64_t hot_loop(const HotFixture& f, std::size_t begin, std::size_t end,
                      std::int64_t count, HotSampling* sampling = nullptr) {
  std::int64_t bad = 0;
  std::size_t at = begin;
  for (std::int64_t i = 0; i < count; ++i) {
    const Query& q = f.queries[at];
    if constexpr (kTraced) {
      if (i % kHotSampleEvery == 0) {
        trace::set_op(static_cast<std::uint64_t>(i) + 1);
        { trace::Scope empty("trace.empty"); }
        Bytes response;
        {
          trace::Scope span("server.serve");
          response = f.serving.cached->serve(q.packet);
        }
        bad += answered_as_expected(response, q) ? 0 : 1;
        const std::int64_t c0 = trace::now_ns();
        {
          trace::Scope span("server.cache.lookup");
          if (!f.serving.cache->lookup((*sampling->keys)[at])) bad += 1;
        }
        sampling->component_ns += trace::now_ns() - c0;
        if (++at == end) at = begin;
        continue;
      }
    }
    const Bytes response = f.serving.cached->serve(q.packet);
    bad += answered_as_expected(response, q) ? 0 : 1;
    if (++at == end) at = begin;
  }
  return bad;
}

struct RoundTime {
  double seconds = 0.0;  // one thread: its CPU time; several: wall time
  double wall_seconds = 0.0;
};

/// Serve `per_thread` queries on each of `threads` threads (pinned from
/// CPU `cpu` on), thread t cycling through its own slice of the packets.
/// Adds rcode failures to `failed`.
RoundTime hot_round(const HotFixture& f, unsigned threads,
                    std::int64_t per_thread, unsigned cpu,
                    std::atomic<std::int64_t>& failed) {
  const std::size_t n = f.queries.size();
  std::int64_t cpu_ns = 0;
  RoundTime time;
  time.wall_seconds = run_threads(
      threads,
      [&](unsigned t) {
        const std::int64_t cpu_begin = thread_cpu_ns();
        failed += hot_loop<false>(f, n * t / threads, n * (t + 1) / threads,
                                  per_thread);
        if (threads == 1) cpu_ns = thread_cpu_ns() - cpu_begin;
      },
      cpu);
  time.seconds = threads == 1 ? static_cast<double>(cpu_ns) / 1e9
                              : time.wall_seconds;
  return time;
}

/// Time each of samples.size() queries on the calling thread, in us.
/// Returns the number of rcode failures.
std::int64_t hot_latency_round(const HotFixture& f,
                               std::vector<double>& samples) {
  std::int64_t bad = 0;
  std::size_t at = 0;
  for (auto& sample : samples) {
    const Query& q = f.queries[at];
    const std::int64_t t0 = trace::now_ns();
    const Bytes response = f.serving.cached->serve(q.packet);
    const std::int64_t t1 = trace::now_ns();
    sample = static_cast<double>(t1 - t0) / 1e3;
    bad += answered_as_expected(response, q) ? 0 : 1;
    if (++at == f.queries.size()) at = 0;
  }
  return bad;
}

void run_hot_untraced(const Options& options, Report& report) {
  SetupTimer setup;
  const auto build = [&] { return build_hot(options.seed); };
  const auto f = setup.time(build);
  hot_gate(*f, report);
  if (!report.correct()) return;

  // The three passes alternate round by round, so that each samples the
  // whole run; one-thread rounds rotate over the CPUs.
  const int rounds = kHotRoundsPerSecond * options.seconds;
  std::vector<double> rates_1t, rates_mt, p50s, p99s;
  std::atomic<std::int64_t> failed_1t{0}, failed_mt{0};
  std::int64_t failed_latency = 0;
  std::vector<double> samples(
      static_cast<std::size_t>(kHotLatencyRoundQueries));
  for (int r = 0; r < rounds; ++r) {
    if (r % kHotRoundsPerSetup == 0 &&
        !same_packets(setup.time(build)->queries, f->queries)) {
      report.fail("serve-hot: the fixture is not deterministic");
    }
    const auto cpu = static_cast<unsigned>(r);
    rates_1t.push_back(
        static_cast<double>(kHotRoundQueries) /
        hot_round(*f, 1, kHotRoundQueries, cpu, failed_1t).seconds);
    rates_mt.push_back(
        static_cast<double>(kHotRoundQueries * kThreads) /
        hot_round(*f, kThreads, kHotRoundQueries, 0, failed_mt).seconds);
    on_client_thread(cpu,
                     [&] { failed_latency += hot_latency_round(*f, samples); });
    p50s.push_back(percentile(samples, 0.50));
    p99s.push_back(percentile(samples, 0.99));
  }
  report.pass("serve-hot/1t", rounds * kHotRoundQueries, failed_1t.load());
  report.pass("serve-hot/mt", rounds * kHotRoundQueries * kThreads,
              failed_mt.load());
  report.pass("serve-hot/latency", rounds * kHotLatencyRoundQueries,
              failed_latency);
  report.metric("setup_s", setup.median_s());
  report.metric("ops_per_s", median(rates_1t));
  report.metric("ops_per_s_mt", median(rates_mt));
  report.metric("latency_p50_us", median(p50s));
  report.metric("latency_p99_us", median(p99s));
}

void run_hot_traced(const Options& options, Report& report) {
  auto f = build_hot(options.seed);
  hot_gate(*f, report);
  if (!report.correct()) return;
  const int rounds = options.seconds;
  std::vector<std::string> keys;
  for (const Query& q : f->queries) {
    keys.push_back(AnswerCache::key_of(q.qname, q.qtype, q.do_bit));
  }

  // Per round: an untraced one-thread round (reference rate and cache
  // counters), an untraced multi-thread round, then the same one-thread
  // round traced.
  std::vector<double> rates_1t, rates_mt, plain_wall_rates, traced_rates;
  std::atomic<std::int64_t> failed{0};
  CacheCounters delta;
  std::int64_t bad = 0;
  std::int64_t served_ns = 0;
  for (int r = 0; r < rounds; ++r) {
    const CacheCounters before = CacheCounters::now();
    const RoundTime plain = hot_round(*f, 1, kHotRoundQueries, 0, failed);
    delta = delta + (CacheCounters::now() - before);
    rates_1t.push_back(static_cast<double>(kHotRoundQueries) /
                       plain.seconds);
    plain_wall_rates.push_back(static_cast<double>(kHotRoundQueries) /
                               plain.wall_seconds);
    rates_mt.push_back(
        static_cast<double>(kHotRoundQueries * kThreads) /
        hot_round(*f, kThreads, kHotRoundQueries, 0, failed).seconds);
    HotSampling sampling;
    sampling.keys = &keys;
    trace::enable(true);
    const double seconds = run_threads(1, [&](unsigned) {
      bad += hot_loop<true>(*f, 0, f->queries.size(), kHotRoundQueries,
                            &sampling);
    });
    trace::enable(false);
    const double wall_ns =
        seconds * 1e9 - static_cast<double>(sampling.component_ns);
    served_ns += static_cast<std::int64_t>(wall_ns);
    traced_rates.push_back(static_cast<double>(kHotRoundQueries) /
                           (wall_ns / 1e9));
  }
  report.pass("serve-hot/reference", rounds * kHotRoundQueries * (1 + kThreads),
              failed.exchange(0));
  report.pass("serve-hot/1t-traced", rounds * kHotRoundQueries, bad);
  const double rate_1t = median(rates_1t);
  report.metric("server.cache.hit_ratio", delta.share(delta.hits));
  report.metric("server.cache.synth_share", delta.share(delta.synth_hits));
  report.metric("server.cache.inserts_per_query", delta.share(delta.inserts));
  report.metric("server.mt_scaling", median(rates_mt) / (kThreads * rate_1t));

  const auto spans = trace::summarize();
  const auto mean_ns = [&](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.mean_inclusive_ns();
  };
  const double empty_ns = mean_ns("trace.empty");
  const double serve_ns = mean_ns("server.serve") - empty_ns;
  const double lookup_ns = mean_ns("server.cache.lookup") - empty_ns;
  report.metric("server.serve_ns", serve_ns);
  report.metric("server.cache.lookup_ns", lookup_ns);
  report.metric("server.frontend_self_ns", serve_ns - lookup_ns);
  // Wall-clock rates on both sides: spans read the steady clock.
  report.metric("trace.overhead",
                1.0 - median(traced_rates) / median(plain_wall_rates));
  // Sampled spans (net of the tracer's own cost): the mean serve() time
  // over all ops against wall time.
  report.metric("trace.coverage",
                serve_ns * static_cast<double>(rounds * kHotRoundQueries) /
                    static_cast<double>(served_ns));
  if (!options.trace_out.empty() &&
      !trace::write_chrome_json(options.trace_out, 50'000)) {
    report.fail("cannot write " + options.trace_out);
  }
  trace::clear();

  // Shape check on a second seed: every warmed query is a hit.
  auto second = build_hot(options.seed + 1);
  const CacheCounters b2 = CacheCounters::now();
  hot_round(*second, 1, kHotRoundQueries, 0, failed);
  const CacheCounters d2 = CacheCounters::now() - b2;
  report.pass("serve-hot/seed+1", kHotRoundQueries, failed.exchange(0));
  std::printf("serve-hot seed+1: hit ratio %.6f\n", d2.share(d2.hits));
  if (d2.share(d2.hits) < 0.999) {
    report.fail("serve-hot seed+1: hit ratio " +
                std::to_string(d2.share(d2.hits)) + " below 0.999");
  }
}

// ---- serve-miss ------------------------------------------------------------

constexpr std::size_t kZoneNames = 2000;  // names per zone
constexpr int kEpochQueries = 250;      // queries between two re-publishes
constexpr int kEpochsPerRound = 4;      // a multiple of kThreads
constexpr int kMissSecondsPerRound = 4;  // --seconds per round of each pass
constexpr int kMissSetupReps = 3;
constexpr int kMissWarmQueries = 50;
// Each epoch asks ~50 NXDOMAIN names per zone of 2,000 intervals, so only
// a few percent can be synthesized before the next re-publish.
constexpr double kMaxSynthShare = 0.05;
// Query mix per epoch (counts out of kEpochQueries; positives and NODATA
// are split evenly between the two zones). Sorted by cost the classes
// form clusters: positives (and the few synthesized answers) in ~10 us,
// then NSEC3-zone NODATA, NSEC3 NXDOMAIN, NSEC-zone NODATA and NSEC
// NXDOMAIN in milliseconds. The shares put latency_p50_us inside the
// NSEC3 NXDOMAIN cluster and latency_p99_us inside the NSEC NXDOMAIN one,
// not on a boundary between clusters, where a small shift in the mix would
// move them far.
constexpr int kNsecNxPerEpoch = 50;
constexpr int kNsec3NxPerEpoch = 74;
constexpr int kPositivePerEpoch = 76;
constexpr int kNodataPerEpoch = 50;
static_assert(kNsecNxPerEpoch + kNsec3NxPerEpoch + kPositivePerEpoch +
                  kNodataPerEpoch ==
              kEpochQueries);
static_assert(kEpochsPerRound % kThreads == 0);
static_assert(kPositivePerEpoch % 2 == 0 && kNodataPerEpoch % 2 == 0);
// Every zone here has ~2 signed RRsets per name; the default budget
// (GrokConfig::max_sig_validations = 200) would reject any of them.
constexpr std::size_t kAdmissionSigBudget = 100'000;

const char* class_name(QueryClass kind) {
  switch (kind) {
    case QueryClass::kPositive: return "positive";
    case QueryClass::kNodata: return "nodata";
    case QueryClass::kNsecNx: return "nsec_nx";
    case QueryClass::kNsec3Nx: return "nsec3_nx";
    case QueryClass::kOther: break;
  }
  return "other";
}

std::string random_label(dfx::Rng& rng, std::size_t length) {
  std::string label(length, 'a');
  for (char& c : label) c = static_cast<char>('a' + rng.uniform(26));
  return label;
}

struct MissZones {
  Name apex[2] = {Name::of("nsec.bench."), Name::of("nsec3.bench.")};
  /// Labels of the hosted names, in canonical order.
  std::vector<std::string> labels[2];
  std::vector<Name> names[2];
  /// Two signed versions of each zone: SOA serial 1, and serial 2 with
  /// only the SOA re-signed (an incremental re-sign).
  std::vector<dfx::zone::Zone> versions[2];
};

/// `signed_zone` with its SOA serial set to `serial` and the SOA RRSIGs
/// made again by the active ZSKs; every other record is kept.
dfx::zone::Zone resign_soa(const dfx::zone::Zone& signed_zone,
                           const dfx::zone::KeyStore& keys,
                           std::uint32_t serial) {
  dfx::zone::Zone zone = signed_zone;
  const Name& apex = zone.apex();
  const dfx::dns::RRset* old_soa = zone.find(apex, RRType::kSOA);
  if (old_soa == nullptr || old_soa->empty()) {
    throw std::runtime_error("zone has no SOA");
  }
  auto soa = std::get<dfx::dns::SoaRdata>(old_soa->rdatas()[0]);
  soa.serial = serial;
  dfx::dns::RRset new_soa(apex, RRType::kSOA, old_soa->ttl());
  new_soa.add(soa);
  const dfx::dns::RRset* old_sigs = zone.find(apex, RRType::kRRSIG);
  if (old_sigs == nullptr) throw std::runtime_error("zone is not signed");
  dfx::dns::RRset sigs(apex, RRType::kRRSIG, old_sigs->ttl());
  for (const auto& rdata : old_sigs->rdatas()) {
    if (std::get<dfx::dns::RrsigRdata>(rdata).type_covered != RRType::kSOA) {
      sigs.add(rdata);
    }
  }
  for (const auto* key :
       keys.active_with_role(kNow, dfx::zone::KeyRole::kZsk)) {
    sigs.add(dfx::zone::make_rrsig(new_soa, *key, apex, kNow - dfx::kHour,
                                   kNow + 30 * dfx::kDay));
  }
  zone.put(std::move(new_soa));
  zone.put(std::move(sigs));
  return zone;
}

std::unique_ptr<MissZones> build_miss_zones(std::uint64_t seed) {
  auto z = std::make_unique<MissZones>();
  dfx::Rng rng{seed};
  for (int zi = 0; zi < 2; ++zi) {
    const Name& apex = z->apex[zi];
    std::set<std::string> labels;
    while (labels.size() < kZoneNames) {
      // Hosted names have 6-10 letters; NXDOMAIN labels have 12, or
      // contain a digit.
      labels.insert(random_label(rng, 6 + rng.uniform(5)));
    }
    dfx::zone::KeyStore keys{apex};
    keys.generate(rng, dfx::zone::KeyRole::kKsk,
                  dfx::crypto::DnssecAlgorithm::kEcdsaP256Sha256, kNow);
    keys.generate(rng, dfx::zone::KeyRole::kZsk,
                  dfx::crypto::DnssecAlgorithm::kEcdsaP256Sha256, kNow);
    dfx::zone::SigningConfig config;
    config.denial =
        zi == 0 ? dfx::zone::DenialMode::kNsec : dfx::zone::DenialMode::kNsec3;
    dfx::zone::Zone zone(apex);
    dfx::dns::SoaRdata soa;
    soa.mname = apex.child("ns1");
    soa.rname = apex.child("hostmaster");
    soa.serial = 1;
    zone.add(apex, RRType::kSOA, 3600, soa);
    zone.add(apex, RRType::kNS, 3600, dfx::dns::NsRdata{apex.child("ns1")});
    dfx::dns::ARdata a;
    a.address = {192, 0, 2, 1};
    zone.add(apex.child("ns1"), RRType::kA, 3600, a);
    std::uint32_t host = 0;
    for (const auto& label : labels) {
      a.address = {198, 51, static_cast<std::uint8_t>(host >> 8),
                   static_cast<std::uint8_t>(host & 0xFF)};
      zone.add(apex.child(label), RRType::kA, 3600, a);
      ++host;
      z->labels[zi].push_back(label);
      z->names[zi].push_back(apex.child(label));
    }
    z->versions[zi].push_back(dfx::zone::sign_zone(zone, keys, config, kNow));
    z->versions[zi].push_back(resign_soa(z->versions[zi][0], keys, 2));
  }
  return z;
}

/// One round of traffic: kEpochsPerRound epochs of kEpochQueries queries.
std::vector<Query> build_miss_queries(const MissZones& z, std::uint64_t seed) {
  dfx::Rng rng{seed ^ 0x9E37'79B9'7F4A'7C15ULL};
  std::vector<Query> round;
  round.reserve(static_cast<std::size_t>(kEpochQueries) * kEpochsPerRound);
  std::uint16_t id = 1;
  for (int epoch = 0; epoch < kEpochsPerRound; ++epoch) {
    std::vector<Query> queries;
    for (int i = 0; i < kNsecNxPerEpoch + kNsec3NxPerEpoch; ++i) {
      const int zi = i < kNsecNxPerEpoch ? 0 : 1;
      queries.push_back(make_query(
          id++, z.apex[zi].child(random_label(rng, 12)), RRType::kA, true,
          RCode::kNXDomain,
          zi == 0 ? QueryClass::kNsecNx : QueryClass::kNsec3Nx,
          zi));
    }
    // Existing names, each asked at most once per epoch and class.
    for (int zi = 0; zi < 2; ++zi) {
      std::vector<std::size_t> order(z.names[zi].size());
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      for (std::size_t i = 0; i < order.size(); ++i) {
        std::swap(order[i], order[i + rng.uniform(order.size() - i)]);
      }
      const int positives = kPositivePerEpoch / 2;
      const int nodata = kNodataPerEpoch / 2;
      for (int i = 0; i < positives + nodata; ++i) {
        const bool positive = i < positives;
        queries.push_back(make_query(
            id++, z.names[zi][order[static_cast<std::size_t>(i)]],
            positive ? RRType::kA : RRType::kTXT, true, RCode::kNoError,
            positive ? QueryClass::kPositive : QueryClass::kNodata, zi));
      }
    }
    for (std::size_t i = queries.size(); i > 1; --i) {
      std::swap(queries[i - 1], queries[rng.uniform(i)]);
    }
    for (auto& q : queries) round.push_back(std::move(q));
  }
  return round;
}

struct MissFixture {
  std::unique_ptr<MissZones> zones;
  std::vector<Query> queries;  // one round
  dfx::server::AdmissionPolicy policy;
};

dfx::server::AdmissionPolicy miss_policy() {
  dfx::analyzer::GrokConfig budget;
  budget.max_sig_validations = kAdmissionSigBudget;
  return dfx::zonelint::make_admission_policy(budget);
}

/// A fresh store and cache hosting version 0 of both zones.
std::unique_ptr<Serving> fresh_serving(const MissFixture& f) {
  auto s = std::make_unique<Serving>(f.policy);
  for (int zi = 0; zi < 2; ++zi) s->store->upsert(f.zones->versions[zi][0]);
  return s;
}

/// Re-publisher: each call upserts the next version of alternate zones.
class Republisher {
 public:
  explicit Republisher(const MissZones& zones) : zones_(zones) {}

  /// Upsert the other version of zone (epoch % 2); false when the store
  /// refused it. Safe from several threads.
  bool publish(ZoneStore& store, int epoch) {
    const int zi = epoch % 2;
    const unsigned version = hosted_[zi].fetch_xor(1) ^ 1;
    return store.upsert(zones_.versions[zi][version]);
  }
  /// The zone the next publish(epoch) will upsert.
  const dfx::zone::Zone& next(int epoch) const {
    const int zi = epoch % 2;
    return zones_.versions[zi][hosted_[zi].load() ^ 1];
  }

 private:
  const MissZones& zones_;
  std::atomic<unsigned> hosted_[2] = {0, 0};  // version each zone has now
};

std::unique_ptr<MissFixture> build_miss(std::uint64_t seed) {
  auto f = std::make_unique<MissFixture>();
  f->zones = build_miss_zones(seed);
  f->queries = build_miss_queries(*f->zones, seed);
  f->policy = miss_policy();
  // Warm pass: a few queries through a cached frontend, then a re-publish.
  auto s = fresh_serving(*f);
  for (int i = 0; i < kMissWarmQueries; ++i) {
    (void)s->cached->serve(f->queries[static_cast<std::size_t>(i)].packet);
  }
  Republisher republisher(*f->zones);
  republisher.publish(*s->store, 0);
  return f;
}

/// Pairs of never-hosted names under one zone that fall in the same denial
/// interval: answering the first harvests the proof that lets the cache
/// synthesize the second.
std::vector<std::pair<Query, Query>> synthesis_pairs(const MissZones& z) {
  std::vector<std::pair<Query, Query>> pairs;
  const auto nx = [&](int zi, const Name& qname) {
    return make_query(7, qname, RRType::kA, true, RCode::kNXDomain,
                      zi == 0 ? QueryClass::kNsecNx : QueryClass::kNsec3Nx, zi);
  };
  // NSEC: "<label>0" and "<label>1" sort right after <label> and before
  // the next hosted name (hosted labels have no digits).
  for (std::size_t i = 0; i < z.labels[0].size(); i += z.labels[0].size() / 3) {
    const std::string& label = z.labels[0][i];
    pairs.emplace_back(nx(0, z.apex[0].child(label + "0")),
                       nx(0, z.apex[0].child(label + "1")));
  }
  // NSEC3: search for two probe names whose hashes share an interval.
  std::vector<dfx::Bytes> hashes;
  hashes.push_back(dfx::zone::nsec3_hash(z.apex[1], {}, 0));
  hashes.push_back(dfx::zone::nsec3_hash(z.apex[1].child("ns1"), {}, 0));
  for (const Name& name : z.names[1]) {
    hashes.push_back(dfx::zone::nsec3_hash(name, {}, 0));
  }
  std::sort(hashes.begin(), hashes.end());
  std::map<std::size_t, Name> first_in_interval;
  for (int k = 0; pairs.size() < 6 && k < 100'000; ++k) {
    const Name probe = z.apex[1].child("probe" + std::to_string(k));
    const auto h = dfx::zone::nsec3_hash(probe, {}, 0);
    const auto interval = static_cast<std::size_t>(
        std::upper_bound(hashes.begin(), hashes.end(), h) - hashes.begin());
    const auto [it, fresh] = first_in_interval.emplace(interval, probe);
    if (!fresh) pairs.emplace_back(nx(1, it->second), nx(1, probe));
  }
  return pairs;
}

void miss_gate(const MissFixture& f, Report& report) {
  // The round follows the designed mix.
  std::map<QueryClass, int> mix;
  for (const Query& q : f.queries) mix[q.kind] += 1;
  if (mix[QueryClass::kNsecNx] != kNsecNxPerEpoch * kEpochsPerRound ||
      mix[QueryClass::kNsec3Nx] != kNsec3NxPerEpoch * kEpochsPerRound ||
      mix[QueryClass::kPositive] != kPositivePerEpoch * kEpochsPerRound ||
      mix[QueryClass::kNodata] != kNodataPerEpoch * kEpochsPerRound) {
    report.fail("serve-miss: query mix differs from its design");
  }

  auto s = fresh_serving(f);
  Republisher republisher(*f.zones);
  std::int64_t attempted = 0, failed = 0;
  bool reported = false;
  const auto check = [&](const Query& q, const char* what) {
    attempted += 1;
    failed += check_query(*s->uncached, *s->cached, q, what, report, reported)
                  ? 0
                  : 1;
  };
  // The first epoch, a re-publish, and the start of the next epoch.
  for (int i = 0; i < kEpochQueries + kMissWarmQueries; ++i) {
    if (i == kEpochQueries && !republisher.publish(*s->store, 0)) {
      report.fail("serve-miss gate: a re-publish was rejected");
    }
    check(f.queries[static_cast<std::size_t>(i)], "serve-miss gate");
  }
  // Synthesized NXDOMAINs, in both zones.
  for (const auto& [first, second] : synthesis_pairs(*f.zones)) {
    check(first, "serve-miss gate (harvest)");
    const std::int64_t synth_before = counter("server.cache.synth_hits");
    check(second, "serve-miss gate (synthesis)");
    if (counter("server.cache.synth_hits") == synth_before) {
      report.fail("serve-miss gate: " + second.qname.to_string() +
                  " was not synthesized");
      break;
    }
  }
  if (s->store->zone_count() != 2 || s->store->rejected_count() != 0) {
    report.fail("serve-miss: " + std::to_string(s->store->zone_count()) +
                " zones hosted, " + std::to_string(s->store->rejected_count()) +
                " rejected (want 2 and 0)");
  }
  report.pass("serve-miss/gate", attempted, failed);
}

struct MissRound {
  double seconds = 0.0;  // the client thread's CPU time
  double wall_seconds = 0.0;
  std::int64_t failed = 0;
  std::vector<double> latencies_us;  // filled when timing each query
};

/// Both clocks at one instant.
struct Instant {
  std::int64_t wall = trace::now_ns();
  std::int64_t cpu = thread_cpu_ns();
};

/// One round on one thread: serve every epoch, re-publishing after each.
/// With `traced`, spans wrap each serve() and each upsert, and every
/// `component_every`-th query is re-asked of the store and the cache
/// component by component (that time is left out of the round's times).
MissRound miss_round_1t(const MissFixture& f, Serving& s,
                        Republisher& republisher, bool time_each,
                        bool traced, int component_every) {
  MissRound out;
  if (time_each) out.latencies_us.reserve(f.queries.size());
  std::int64_t component_wall_ns = 0;
  std::int64_t component_cpu_ns = 0;
  const auto add_component = [&](const Instant& since) {
    const Instant now;
    component_wall_ns += now.wall - since.wall;
    component_cpu_ns += now.cpu - since.cpu;
  };
  const Instant begin;
  for (int epoch = 0; epoch < kEpochsPerRound; ++epoch) {
    for (int i = 0; i < kEpochQueries; ++i) {
      const std::size_t index =
          static_cast<std::size_t>(epoch * kEpochQueries + i);
      const Query& q = f.queries[index];
      Bytes response;
      if (traced) {
        trace::set_op(index + 1);
        trace::Scope span("server.serve");
        response = s.cached->serve(q.packet);
      } else if (time_each) {
        const std::int64_t t0 = thread_cpu_ns();
        response = s.cached->serve(q.packet);
        out.latencies_us.push_back(
            static_cast<double>(thread_cpu_ns() - t0) / 1e3);
      } else {
        response = s.cached->serve(q.packet);
      }
      out.failed += answered_as_expected(response, q) ? 0 : 1;
      if (traced && i % component_every == 0) {
        const Instant c0;
        const char* find_name = nullptr;
        const char* query_name = nullptr;
        switch (q.kind) {
          case QueryClass::kNsecNx:
            find_name = "server.store.find.nsec_nx";
            query_name = "authserver.query.nsec_nx";
            break;
          case QueryClass::kNsec3Nx:
            find_name = "server.store.find.nsec3_nx";
            query_name = "authserver.query.nsec3_nx";
            break;
          case QueryClass::kPositive:
            find_name = "server.store.find.positive";
            query_name = "authserver.query.positive";
            break;
          default:
            find_name = "server.store.find.nodata";
            query_name = "authserver.query.nodata";
            break;
        }
        {
          trace::Scope span(find_name);
          if (!s.store->find(q.qname, q.qtype)) out.failed += 1;
        }
        {
          trace::Scope span(query_name);
          if (!s.store->query(q.qname, q.qtype)) out.failed += 1;
        }
        {
          trace::Scope span("server.cache.synthesize");
          (void)s.cache->synthesize(f.zones->apex[q.zone], q.qname, q.qtype,
                                    s.cache->epoch());
        }
        add_component(c0);
      }
    }
    if (traced) {
      const Instant c0;
      {
        trace::Scope span("zonelint.admission");
        const auto verdict = f.policy(republisher.next(epoch));
        if (verdict.action ==
            dfx::server::AdmissionVerdict::Action::kReject) {
          out.failed += 1;
        }
      }
      add_component(c0);
      trace::Scope span("server.store.upsert");
      if (!republisher.publish(*s.store, epoch)) out.failed += 1;
    } else if (!republisher.publish(*s.store, epoch)) {
      out.failed += 1;
    }
  }
  const Instant end;
  out.seconds =
      static_cast<double>(end.cpu - begin.cpu - component_cpu_ns) / 1e9;
  out.wall_seconds =
      static_cast<double>(end.wall - begin.wall - component_wall_ns) / 1e9;
  return out;
}

/// One round on kThreads threads: thread t serves epochs t, t+kThreads, ...
/// and re-publishes after each of them.
double miss_round_mt(const MissFixture& f, Serving& s, Republisher& republisher,
                     std::atomic<std::int64_t>& failed) {
  return run_threads(kThreads, [&](unsigned t) {
    std::int64_t bad = 0;
    for (int epoch = static_cast<int>(t); epoch < kEpochsPerRound;
         epoch += static_cast<int>(kThreads)) {
      for (int i = 0; i < kEpochQueries; ++i) {
        const Query& q =
            f.queries[static_cast<std::size_t>(epoch * kEpochQueries + i)];
        bad += answered_as_expected(s.cached->serve(q.packet), q) ? 0 : 1;
      }
      if (!republisher.publish(*s.store, epoch)) bad += 1;
    }
    failed += bad;
  });
}

/// Rounds per pass: a multiple of kThreads, so that the one-thread rounds
/// run on every CPU equally often.
int miss_rounds(const Options& options) {
  const int rounds = std::max(1, options.seconds / kMissSecondsPerRound);
  const int threads = static_cast<int>(kThreads);
  return (rounds + threads - 1) / threads * threads;
}

void run_miss_untraced(const Options& options, Report& report) {
  // Built back to back: a rebuild between rounds would add a second copy
  // of every zone to peak_rss_mb.
  SetupTimer setup;
  std::unique_ptr<MissFixture> f;
  for (int rep = 0; rep < kMissSetupReps; ++rep) {
    f.reset();
    f = setup.time([&] { return build_miss(options.seed); });
  }
  report.metric("setup_s", setup.median_s());
  miss_gate(*f, report);
  if (!report.correct()) return;

  const int rounds = miss_rounds(options);
  const auto round_queries =
      static_cast<std::int64_t>(kEpochQueries) * kEpochsPerRound;
  // The two passes alternate round by round, each on its own fresh store
  // and cache, so that both sample the whole run; one-thread rounds
  // rotate over the CPUs.
  std::vector<double> rates_1t, rates_mt, p50s, p99s;
  auto serving_1t = fresh_serving(*f);
  auto serving_mt = fresh_serving(*f);
  Republisher republisher_1t(*f->zones), republisher_mt(*f->zones);
  std::int64_t failed_1t = 0;
  std::atomic<std::int64_t> failed_mt{0};
  for (int r = 0; r < rounds; ++r) {
    MissRound round;
    on_client_thread(static_cast<unsigned>(r), [&] {
      round = miss_round_1t(*f, *serving_1t, republisher_1t, true, false, 0);
    });
    failed_1t += round.failed;
    rates_1t.push_back(static_cast<double>(round_queries) / round.seconds);
    p50s.push_back(percentile(round.latencies_us, 0.50));
    p99s.push_back(percentile(round.latencies_us, 0.99));
    rates_mt.push_back(
        static_cast<double>(round_queries) /
        miss_round_mt(*f, *serving_mt, republisher_mt, failed_mt));
  }
  report.pass("serve-miss/1t", rounds * round_queries, failed_1t);
  report.pass("serve-miss/mt", rounds * round_queries, failed_mt.load());
  report.metric("ops_per_s", median(rates_1t));
  report.metric("ops_per_s_mt", median(rates_mt));
  report.metric("latency_p50_us", median(p50s));
  report.metric("latency_p99_us", median(p99s));
}

void run_miss_traced(const Options& options, Report& report) {
  auto f = build_miss(options.seed);
  miss_gate(*f, report);
  if (!report.correct()) return;
  const int rounds = std::max(1, miss_rounds(options) / 2);
  const auto round_queries =
      static_cast<std::int64_t>(kEpochQueries) * kEpochsPerRound;

  // Per round: an untraced one-thread round (reference rate and cache
  // counters), then a traced one on its own fresh store and cache, with
  // spans around every serve() and upsert and every 4th query re-asked of
  // the store and the cache component by component.
  std::vector<double> plain_rates, traced_rates;
  double traced_wall_seconds = 0.0;
  CacheCounters delta;
  auto plain = fresh_serving(*f);
  auto traced = fresh_serving(*f);
  Republisher plain_republisher(*f->zones), traced_republisher(*f->zones);
  std::int64_t plain_failed = 0, traced_failed = 0;
  for (int r = 0; r < rounds; ++r) {
    MissRound round;
    const CacheCounters before = CacheCounters::now();
    on_client_thread(0, [&] {
      round = miss_round_1t(*f, *plain, plain_republisher, false, false, 0);
    });
    delta = delta + (CacheCounters::now() - before);
    plain_failed += round.failed;
    plain_rates.push_back(static_cast<double>(round_queries) / round.seconds);
    trace::enable(true);
    on_client_thread(0, [&] {
      round = miss_round_1t(*f, *traced, traced_republisher, false, true, 4);
    });
    trace::enable(false);
    traced_failed += round.failed;
    traced_wall_seconds += round.wall_seconds;
    traced_rates.push_back(static_cast<double>(round_queries) / round.seconds);
  }
  report.pass("serve-miss/1t", rounds * round_queries, plain_failed);
  report.pass("serve-miss/1t-traced", rounds * round_queries, traced_failed);
  report.metric("server.cache.hit_ratio", delta.share(delta.hits));
  report.metric("server.cache.synth_share", delta.share(delta.synth_hits));
  report.metric("server.cache.inserts_per_query", delta.share(delta.inserts));

  const auto spans = trace::summarize();
  const auto stat = [&](const std::string& name) {
    const auto it = spans.find(name);
    return it == spans.end() ? trace::Stat{} : it->second;
  };
  report.metric("server.serve_ns", stat("server.serve").mean_inclusive_ns());
  trace::Stat find_all;
  for (const QueryClass kind :
       {QueryClass::kNsecNx, QueryClass::kNsec3Nx, QueryClass::kPositive,
        QueryClass::kNodata}) {
    const std::string cls = class_name(kind);
    const trace::Stat find = stat("server.store.find." + cls);
    const trace::Stat query = stat("authserver.query." + cls);
    find_all.count += find.count;
    find_all.inclusive_ns += find.inclusive_ns;
    report.metric("authserver.answer_us." + cls,
                  (query.mean_inclusive_ns() - find.mean_inclusive_ns()) / 1e3);
  }
  report.metric("server.store.find_us", find_all.mean_inclusive_ns() / 1e3);
  report.metric("server.cache.synthesize_us",
                stat("server.cache.synthesize").mean_inclusive_ns() / 1e3);
  report.metric("server.store.upsert_ms",
                stat("server.store.upsert").mean_inclusive_ns() / 1e6);
  report.metric("zonelint.admission_ms",
                stat("zonelint.admission").mean_inclusive_ns() / 1e6);
  report.metric("trace.overhead",
                1.0 - median(traced_rates) / median(plain_rates));
  report.metric("trace.coverage",
                (stat("server.serve").inclusive_ns +
                 stat("server.store.upsert").inclusive_ns) /
                    (traced_wall_seconds * 1e9));
  if (!options.trace_out.empty() &&
      !trace::write_chrome_json(options.trace_out, 50'000)) {
    report.fail("cannot write " + options.trace_out);
  }
  trace::clear();

  // Shape check on a second seed: the gate (mix, hosting, synthesis) holds
  // there too, and the re-publishes keep the synthesized share small.
  auto second = build_miss(options.seed + 1);
  miss_gate(*second, report);
  auto s = fresh_serving(*second);
  Republisher republisher(*second->zones);
  const CacheCounters b2 = CacheCounters::now();
  MissRound round;
  on_client_thread(0, [&] {
    round = miss_round_1t(*second, *s, republisher, false, false, 0);
  });
  const CacheCounters d2 = CacheCounters::now() - b2;
  report.pass("serve-miss/seed+1", round_queries, round.failed);
  const double synth = d2.share(d2.synth_hits);
  std::printf("serve-miss seed+1: synthesized share %.4f (seed %.4f)\n",
              synth, delta.share(delta.synth_hits));
  if (synth > kMaxSynthShare) {
    report.fail("serve-miss seed+1: synthesized share " +
                std::to_string(synth) + " above " +
                std::to_string(kMaxSynthShare));
  }
}

}  // namespace

void run_serve_hot(const Options& options, Report& report) {
  if (options.trace) {
    run_hot_traced(options, report);
  } else {
    run_hot_untraced(options, report);
  }
}

void run_serve_miss(const Options& options, Report& report) {
  if (options.trace) {
    run_miss_traced(options, report);
  } else {
    run_miss_untraced(options, report);
  }
}

}  // namespace perfbench
