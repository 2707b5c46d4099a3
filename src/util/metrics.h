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
// Thread-safety: all types here are safe for concurrent use. `Counter` is
// a single atomic; `Registry` guards its name map with a Mutex and hands
// out references that stay valid for the registry's lifetime. Guarded
// fields carry DFX_GUARDED_BY, so a clang `-Wthread-safety` build rejects
// any lock-free access path at compile time. Hot paths should look a
// metric up once and cache the reference:
//
//   static auto& groks = metrics::Registry::global().counter("analyze.groks");
//   groks.add(1);
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "json/json.h"
#include "util/thread_annotations.h"

namespace dfx::metrics {

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
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
