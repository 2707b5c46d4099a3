// Process-wide observability: named event counters with JSON export
// through src/json.
//
// Pipeline stages (corpus generation, probe/grok analysis, DFixer
// iterations, ZReplicator replication) and the serving path count their
// events into the global registry; the bench harness snapshots it into
// each `BENCH_<name>.json`. Timing is not done here: `BenchRun::stage`
// times the bench binaries' stages and perfbench's traced spans time the
// end-to-end workloads.
//
// Thread-safety: all types here are safe for concurrent use. `Counter`
// keeps one atomic stripe per thread slot (`dfx::thread_slot()`), each on
// its own cache line: `add()` writes only the calling thread's stripe, so
// threads counting the same event share no written line, and `value()`
// sums the stripes (exact once the adding threads are done). `Registry`
// guards its name map with a Mutex and hands out references that stay
// valid for the registry's lifetime. Guarded fields carry DFX_GUARDED_BY,
// so a clang `-Wthread-safety` build rejects any lock-free access path at
// compile time. Hot paths should look a metric up once and cache the
// reference:
//
//   static auto& groks = metrics::Registry::global().counter("analyze.groks");
//   groks.add(1);
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "json/json.h"
#include "util/thread_annotations.h"

namespace dfx::metrics {

/// Monotonically increasing event count, striped per thread.
class Counter {
 public:
  void add(std::int64_t delta = 1) {
    stripes_[thread_slot()].value.fetch_add(delta, std::memory_order_relaxed);
  }
  std::int64_t value() const {
    std::int64_t total = 0;
    for (const Stripe& stripe : stripes_) {
      total += stripe.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  struct alignas(64) Stripe {
    std::atomic<std::int64_t> value{0};
  };
  std::array<Stripe, kThreadSlots> stripes_;
};

/// Name → counter registry. Counters are created on first lookup and live
/// as long as the registry; lookups of the same name return the same
/// object from any thread.
class Registry {
 public:
  Registry() = default;

  Counter& counter(std::string_view name) DFX_EXCLUDES(mu_);

  /// {"counters":{...}} with keys in lexicographic order (std::map), so
  /// serialized snapshots are byte-stable across runs.
  json::Value snapshot() const DFX_EXCLUDES(mu_);

  /// The process-wide registry the pipeline stages record into.
  static Registry& global();

 private:
  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      DFX_GUARDED_BY(mu_);
};

}  // namespace dfx::metrics
