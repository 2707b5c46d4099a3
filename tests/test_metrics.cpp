// Metrics-layer tests: counter semantics under concurrency and the
// registry's name lookup and snapshot.
#include <gtest/gtest.h>

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
