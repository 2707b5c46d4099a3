// Shared pieces of the end-to-end benchmark: options, the result report,
// exact statistics and the closed-loop thread runner.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "trace.h"

namespace perfbench {

/// Client threads of every multi-thread pass. Fixed rather than taken from
/// the machine, so that two commits are always compared at the same load.
constexpr unsigned kThreads = 4;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Sets the op counts of the timed passes (not a deadline: counts are
  /// fixed so that they repeat exactly from run to run).
  int seconds = 10;
  bool trace = false;
  /// Where the traced run writes its spans (Chrome trace-event JSON).
  std::string trace_out;
};

/// The run's verdict, its op accounting and its metrics.
class Report {
 public:
  /// Record a failed check; the run then reports correct=false.
  void fail(const std::string& why);
  bool correct() const { return failures_.empty(); }

  /// Account one pass: `attempted` ops, `failed` of which failed.
  void pass(const std::string& name, std::int64_t attempted,
            std::int64_t failed);

  /// Set a metric listed in BENCHMARK.json (its unit comes from there).
  void metric(const std::string& name, double value);
  bool has_metric(const std::string& name) const {
    return metrics_.count(name) != 0;
  }

  /// Human-readable pass table and failures, then the one-line JSON result
  /// (always the last line of standard output).
  void print() const;

 private:
  struct Pass {
    std::string name;
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
  };
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::vector<std::string> failures_;
  std::vector<Pass> passes_;
  std::map<std::string, Metric> metrics_;
};

void run_replay(const Options& options, Report& report);
void run_serve_hot(const Options& options, Report& report);
void run_serve_miss(const Options& options, Report& report);

// ---- statistics ------------------------------------------------------------

double median(std::vector<double> values);

/// Exact nearest-rank percentile (p in (0, 1]) of unsorted samples.
double percentile(std::vector<double> values, double p);

/// Peak resident set size of this process, in MB.
double peak_rss_mb();

double seconds_between(std::int64_t begin_ns, std::int64_t end_ns);

/// CPU time used so far by the calling thread, in ns. One-thread passes
/// are timed with it: unlike the steady clock it stops while the
/// hypervisor runs someone else on this vCPU (steal time, 10-25% on the
/// development VM whenever all its vCPUs are busy), and a lone client
/// thread calling the library in-process has nothing else to wait for.
/// Multi-thread passes keep wall time, since time spent waiting for locks
/// must count there.
std::int64_t thread_cpu_ns();

/// Pin the calling thread to the `index`-th CPU this process may run on
/// (wrapping around). Timed client threads are pinned so that the
/// scheduler moving them between CPUs does not add to the noise.
void pin_to_cpu(unsigned index);

/// Run body(thread_index) on `threads` threads released together, thread
/// t pinned to CPU first_cpu + t; returns the wall time from release until
/// the last one finished, in seconds. Exceptions escaping a body are
/// rethrown after every thread has joined.
template <typename Body>
double run_threads(unsigned threads, Body&& body, unsigned first_cpu = 0) {
  std::atomic<unsigned> ready{0};
  std::atomic<bool> go{false};
  std::atomic<bool> cancelled{false};
  std::atomic<std::int64_t> last_end{0};
  std::mutex error_mu;
  std::exception_ptr error;
  std::vector<std::thread> workers;
  workers.reserve(threads);
  const auto release_and_join = [&] {
    go.store(true, std::memory_order_release);
    for (auto& worker : workers) worker.join();
  };
  try {
    for (unsigned t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        pin_to_cpu(first_cpu + t);
        ready.fetch_add(1);
        while (!go.load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
        if (cancelled.load()) return;
        try {
          body(t);
        } catch (...) {
          std::lock_guard<std::mutex> lock(error_mu);
          if (!error) error = std::current_exception();
        }
        const std::int64_t end = trace::now_ns();
        std::int64_t seen = last_end.load();
        while (end > seen && !last_end.compare_exchange_weak(seen, end)) {
        }
      });
    }
  } catch (...) {
    // A thread could not be started: let the started ones exit unrun.
    cancelled.store(true);
    release_and_join();
    throw;
  }
  while (ready.load() != threads) std::this_thread::yield();
  const std::int64_t begin = trace::now_ns();
  release_and_join();
  if (error) std::rethrow_exception(error);
  return static_cast<double>(last_end.load() - begin) / 1e9;
}

/// Run body() on one client thread pinned to CPU `cpu` and wait for it.
template <typename Body>
void on_client_thread(unsigned cpu, Body&& body) {
  run_threads(
      1, [&](unsigned) { body(); }, cpu);
}

/// Times the builds of a workload's inputs (setup_s). Each build runs on
/// a client thread pinned to CPU 0; a workload may build again between its
/// timed rounds, so that the median samples the whole run like the other
/// timings do.
class SetupTimer {
 public:
  template <typename Build>
  auto time(Build&& build) -> decltype(build()) {
    decltype(build()) result{};
    on_client_thread(0, [&] {
      const std::int64_t t0 = trace::now_ns();
      result = build();
      seconds_.push_back(seconds_between(t0, trace::now_ns()));
    });
    return result;
  }
  double median_s() const { return median(seconds_); }

 private:
  std::vector<double> seconds_;
};

/// FNV-1a step over one 64-bit value (result digests).
inline std::uint64_t fold(std::uint64_t hash, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xFF;
    hash *= 0x100000001B3ULL;
  }
  return hash;
}
constexpr std::uint64_t kFoldSeed = 0xCBF29CE484222325ULL;

}  // namespace perfbench
