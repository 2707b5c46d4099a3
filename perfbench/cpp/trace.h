// Span tracer for the traced benchmark run.
//
// A span is one call the benchmark makes into a library module: its name,
// start and end (steady clock, ns), the span that was open around it on
// the same thread (its parent) and the op id of the workload operation it
// belongs to. Spans go to per-thread in-memory buffers, so recording takes
// no lock; they are summarized and written out once the run is over.
//
// Self time is a span's duration minus the part of it that its child spans
// cover, so nested layers are not counted twice.
//
// Thread-safety: Scope and set_op may be used from any thread while
// tracing is on. enable(), summarize(), clear() and write_chrome_json()
// must only run while no other thread records (i.e. after joining them).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>

namespace perfbench::trace {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Turn recording on or off for every thread (off by default).
void enable(bool on);
bool enabled();

/// Tag the spans this thread records from now on with `op`.
void set_op(std::uint64_t op);

/// Records one span from construction to destruction. `name` must be a
/// string literal (only the pointer is kept). A no-op while tracing is off.
class Scope {
 public:
  explicit Scope(const char* name);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  std::int64_t slot_ = -1;
};

struct Stat {
  std::int64_t count = 0;
  double inclusive_ns = 0.0;
  double self_ns = 0.0;

  double mean_inclusive_ns() const {
    return count == 0 ? 0.0 : inclusive_ns / static_cast<double>(count);
  }
  double mean_self_ns() const {
    return count == 0 ? 0.0 : self_ns / static_cast<double>(count);
  }
};

/// Totals per span name over every recorded span.
std::map<std::string, Stat> summarize();

/// Spans dropped at the per-thread buffer cap.
std::int64_t dropped();

/// Forget every recorded span.
void clear();

/// Write up to `max_spans` spans as Chrome trace-event JSON ("X" events,
/// microsecond timestamps; id, parent and op in args). Returns false when
/// the file cannot be written.
bool write_chrome_json(const std::string& path, std::size_t max_spans);

}  // namespace perfbench::trace
