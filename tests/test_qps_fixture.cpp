// The serving engine's byte-identity gate as tier-1 tests: over every
// answer shape with DO on and off, plus 80 probes only aggressive
// synthesis can answer, the cache-on frontend must answer exactly as the
// cache-off one, from one thread and from eight at once. The digest of the
// cache-off responses is pinned, so a change to any served byte shows here
// before it shows in a benchmark record.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <thread>
#include <utility>
#include <vector>

#include "qps_fixture.h"

namespace dfx::bench {
namespace {

TEST(QpsFixture, CacheOnMatchesCacheOffOnEveryAnswerShape) {
  // bench_common's default seed, the one the pinned digest was taken at.
  const QpsFixture fixture(Args{}.seed);
  ASSERT_EQ(fixture.queries.size(), 70u);
  const IdentityCheck check = check_cache_identity(fixture);
  EXPECT_EQ(check.mismatches, 0) << "first: " << check.first_mismatch;
  EXPECT_GT(check.synthesized, 0);
  // A lone thread never finds the negative tier taken.
  EXPECT_EQ(check.neg_busy, 0);
  EXPECT_EQ(check.digest, 0x07680bf831c46336ULL);
}

// Eight readers share one cache-on frontend, warmed by a pass over the
// fixture packets. The synthesis probes reach the cache first under
// contention, so the threads race on aggressive synthesis and packet-tier
// inserts as well as on hits. The store is never written (no upsert).
TEST(QpsFixture, ConcurrentReadersMatchCacheOffAnswers) {
  const QpsFixture fixture(Args{}.seed);
  std::vector<Bytes> queries = fixture.queries;
  for (Bytes& probe : synthesis_probes(fixture)) {
    queries.push_back(std::move(probe));
  }
  std::vector<Bytes> want;
  want.reserve(queries.size());
  for (const Bytes& query : queries) {
    want.push_back(fixture.uncached.serve(query));
  }
  for (std::size_t i = 0; i < fixture.queries.size(); ++i) {
    ASSERT_EQ(fixture.cached.serve(fixture.queries[i]), want[i]) << i;
  }

  auto& synth_hits =
      metrics::Registry::global().counter("server.cache.synth_hits");
  const std::int64_t synth_before = synth_hits.value();
  constexpr std::size_t kThreads = 8;
  constexpr int kRounds = 8;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  readers.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    readers.emplace_back([&, t] {
      // Each reader walks the whole set from its own offset.
      const std::size_t offset = t * queries.size() / kThreads;
      for (int round = 0; round < kRounds; ++round) {
        for (std::size_t j = 0; j < queries.size(); ++j) {
          const std::size_t at = (offset + j) % queries.size();
          if (fixture.cached.serve(queries[at]) != want[at]) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (auto& reader : readers) reader.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(synth_hits.value() - synth_before, 0);

  // Hot key: every thread serves the same packet, so every hit lands on
  // one shard's read side at once.
  constexpr int kHotServes = 2000;
  readers.clear();
  for (std::size_t t = 0; t < kThreads; ++t) {
    readers.emplace_back([&] {
      for (int i = 0; i < kHotServes; ++i) {
        if (fixture.cached.serve(queries[0]) != want[0]) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& reader : readers) reader.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace dfx::bench
