// Metrics-layer tests: counter semantics under concurrency, the registry's
// name lookup and snapshot, and the read-mostly lock the serving path
// pairs with the striped counters.
#include <gtest/gtest.h>

#include <atomic>
#include <latch>
#include <thread>
#include <vector>

#include "json/json.h"
#include "util/metrics.h"

namespace dfx::metrics {
namespace {

TEST(Counter, AddsAndReads) {
  Counter c;
  EXPECT_EQ(c.value(), 0);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42);
}

TEST(Counter, ConcurrentAddsAllLand) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kAdds = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kAdds; ++i) c.add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::int64_t>(kThreads) * kAdds);
}

TEST(Counter, EightThreadsOfAHundredThousandAddsSumExactly) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kAdds = 100000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kAdds; ++i) c.add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), std::int64_t{kThreads} * kAdds);
}

/// Two fields a writer keeps equal; a reader that sees them differ saw a
/// write in progress.
struct LockstepPair {
  ReadMostlyMutex mu;
  std::int64_t a DFX_GUARDED_BY(mu) = 0;
  std::int64_t b DFX_GUARDED_BY(mu) = 0;
};

TEST(ReadMostlyMutex, ReadersNeverSeeAWriteInProgress) {
  LockstepPair pair;
  constexpr int kReaders = 4;
  constexpr std::int64_t kWrites = 20000;
  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};
  std::latch readers_running(kReaders);
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      bool counted = false;
      while (!stop.load(std::memory_order_acquire)) {
        {
          const ReaderLock lock(pair.mu);
          if (pair.a != pair.b) torn.fetch_add(1, std::memory_order_relaxed);
        }
        if (!counted) {
          readers_running.count_down();
          counted = true;
        }
      }
    });
  }
  readers_running.wait();
  for (std::int64_t i = 1; i <= kWrites; ++i) {
    const WriterLock lock(pair.mu);
    pair.a = i;
    std::this_thread::yield();  // widen the window a broken lock would show
    pair.b = i;
  }
  stop.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();
  EXPECT_EQ(torn.load(), 0);
  const ReaderLock lock(pair.mu);
  EXPECT_EQ(pair.a, kWrites);
  EXPECT_EQ(pair.b, kWrites);
}

TEST(Registry, SameNameSameObject) {
  Registry registry;
  Counter& a = registry.counter("x");
  Counter& b = registry.counter("x");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(registry.counter("x").value(), 3);
  EXPECT_NE(&registry.counter("y"), &a);
}

TEST(Registry, SnapshotIsStableAndComplete) {
  Registry registry;
  registry.counter("b.count").add(2);
  registry.counter("a.count").add(1);
  const json::Value snap = registry.snapshot();
  ASSERT_TRUE(snap.is_object());
  const json::Value* counters = snap.find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->get_int("a.count", -1), 1);
  EXPECT_EQ(counters->get_int("b.count", -1), 2);
  // Counters are the only metric kind.
  EXPECT_EQ(snap.as_object().size(), 1u);
  // Serialization is deterministic (std::map ordering).
  EXPECT_EQ(json::serialize(snap), json::serialize(registry.snapshot()));
}

}  // namespace
}  // namespace dfx::metrics
