// Wire-level serving throughput: drives millions of mixed queries
// (positive / NXDOMAIN / NODATA / referral / DS / wildcard, DO on and
// off) through WireFrontend::serve() at 1, 2, 4 and 8 threads and reports
// aggregate QPS plus p50/p99 latency from the metrics registry.
//
// Before anything is timed, the run digest-asserts the serving engine's
// core contract: for every query in the workload, the cache-on frontend
// (packet tier + RFC 8198 aggressive synthesis) must answer bit-identically
// to the cache-off frontend — on the cold pass, the warm pass, and on a
// probe set of never-before-seen negative names that can only be answered
// by synthesis. The fixture and that check live in qps_fixture.h, shared
// with the tier-1 test that pins the digest (tests/test_qps_fixture.cpp).
//
// Set DFX_QPS_ASSERT=1 to additionally enforce the >= 1M aggregate QPS
// floor at 8 threads (off by default: CI smoke runs on shared 1-2 core
// machines where the floor is meaningless).
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "qps_fixture.h"
#include "util/check.hpp"

int main(int argc, char** argv) {
  const auto args = dfx::bench::parse_args(argc, argv);
  dfx::bench::BenchRun run("qps", args);  // resets the metrics registry

  // --- Fixture (bench/qps_fixture.h): an NSEC zone, an NSEC3 zone, and
  // the parent hosting their DS sets, with every answer shape, DO on and
  // off, as the workload.
  std::unique_ptr<dfx::bench::QpsFixture> fixture;
  run.stage("sign_zones", [&] {
    fixture = std::make_unique<dfx::bench::QpsFixture>(args.seed);
  });
  const dfx::server::WireFrontend& cached = fixture->cached;
  const std::vector<dfx::Bytes>& queries = fixture->queries;

  // --- Digest assertions: cache-on == cache-off, bit for bit.
  dfx::bench::IdentityCheck check;
  run.stage("digest_check",
            [&] { check = dfx::bench::check_cache_identity(*fixture); });
  DFX_CHECK(check.mismatches == 0,
            "cache-on response diverged from cache-off (%d, first: %s)",
            check.mismatches, check.first_mismatch.c_str());
  DFX_CHECK(check.synthesized > 0,
            "probe set exercised no aggressive synthesis");
  run.checksum("responses", check.digest);

  // --- Timed runs: 1 -> 8 threads over the byte-level API.
  const std::size_t per_run = std::max<std::size_t>(
      4000, static_cast<std::size_t>(args.scale * 2'000'000));
  std::printf(
      "Wire-level QPS — %zu mixed queries/run over %zu distinct packets "
      "(hardware_concurrency=%u)\n",
      per_run, queries.size(), std::thread::hardware_concurrency());
  std::printf("%s\n", std::string(68, '-').c_str());

  struct Sample {
    unsigned threads = 1;
    double seconds = 0.0;
    double qps = 0.0;
    double p50 = 0.0;
    double p99 = 0.0;
  };
  std::vector<Sample> samples;
  std::int64_t total = 0;
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    auto& latency = dfx::metrics::Registry::global().histogram(
        "server.latency." + std::to_string(threads) + "t");
    std::atomic<bool> go{false};
    std::vector<std::thread> workers;
    const std::size_t per_thread = per_run / threads;
    for (unsigned t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        dfx::metrics::Histogram local;
        while (!go.load(std::memory_order_acquire)) {
        }
        std::size_t at = (t * 7919u) % queries.size();
        for (std::size_t i = 0; i < per_thread; ++i) {
          if ((i & 0xF) == 0) {
            // Sample 1 in 16 latencies; timing every call would turn the
            // bench into a clock benchmark.
            const auto begin = std::chrono::steady_clock::now();
            const dfx::Bytes response = cached.serve(queries[at]);
            local.record(std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - begin)
                             .count());
            DFX_CHECK(!response.empty());
          } else {
            const dfx::Bytes response = cached.serve(queries[at]);
            DFX_CHECK(!response.empty());
          }
          ++at;
          if (at == queries.size()) at = 0;
        }
        latency.merge(local);
      });
    }
    const auto begin = std::chrono::steady_clock::now();
    go.store(true, std::memory_order_release);
    for (auto& w : workers) w.join();
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - begin)
            .count();
    const std::size_t served = per_thread * threads;
    total += static_cast<std::int64_t>(served);
    Sample s;
    s.threads = threads;
    s.seconds = seconds;
    s.qps = seconds > 0.0 ? static_cast<double>(served) / seconds : 0.0;
    s.p50 = latency.percentile(0.5);
    s.p99 = latency.percentile(0.99);
    samples.push_back(s);
    dfx::metrics::Registry::global()
        .gauge("server.qps." + std::to_string(threads) + "t")
        .set(s.qps);
    std::printf(
        "  threads %2u   %8.3fs   %10.0f qps   p50 %8.0fns   p99 %8.0fns\n",
        threads, seconds, s.qps, s.p50 * 1e9, s.p99 * 1e9);
  }

  const Sample& final_run = samples.back();  // dfx-lint: allow(unchecked-front-back): loop above always fills 4 samples
  if (std::getenv("DFX_QPS_ASSERT") != nullptr) {
    DFX_CHECK(final_run.qps >= 1'000'000.0,
              "aggregate throughput %.0f qps below the 1M floor at %u threads",
              final_run.qps, final_run.threads);
  }

  run.set_items(total);
  return run.finish();
}
