// Fixture: hot-path-cost. DFX_HOT_PATH functions must not transitively
// allocate, acquire a writer mutex, or throw. Findings land at the
// DEFINITION line, one per (function, effect kind). Each flagged function
// has a guarded twin — a DFX_COLD(reason) callee, an allow comment, or an
// effect-free body — that stays quiet.
#include <vector>

namespace fixture {

std::vector<int> table;

// Allocating helper: callers inherit the effect transitively.
void record(int v) { table.push_back(v); }

// Two hops deep, so the witness chain has to compose.
void record_twice(int v) {
  record(v);
  record(v + 1);
}

DFX_HOT_PATH
void hot_transitive_alloc(int v) {  // finding: may allocate (via record_twice)
  record_twice(v);
}

DFX_HOT_PATH
void hot_direct_alloc(std::vector<int>& out, int v) {  // finding: may allocate
  out.push_back(v);
}

DFX_HOT_PATH
int hot_throws(int v) {  // finding: may throw
  if (v < 0) throw v;
  return v;
}

struct HotServer {
  Mutex write_mu_;
  DFX_HOT_PATH
  void hot_writer_lock();
  DFX_HOT_PATH
  void hot_clean(int v);
};

void HotServer::hot_writer_lock() {  // finding: may acquire a writer mutex
  MutexLock lock(write_mu_);
  table[0] = 1;
}

// Effect-free hot body: arithmetic and array reads cost nothing.
void HotServer::hot_clean(int v) {  // ok
  table[0] = v * 2;
}

// Both sides of a ReadMostlyMutex are acquisitions; only the write side
// excludes readers, so only it is a writer lock, whatever the lock's name.
struct HotTable {
  mutable ReadMostlyMutex mu_;
  DFX_HOT_PATH
  void hot_write_side(int v);
  DFX_HOT_PATH
  int hot_read_side() const;
};

void HotTable::hot_write_side(int v) {  // finding: may acquire a writer mutex
  WriterLock lock(mu_);
  table[0] = v;
}

int HotTable::hot_read_side() const {  // ok: the read side is not a writer
  ReaderLock lock(mu_);
  return table[0];
}

// DFX_COLD(reason) on the callee stops effect propagation: the slow branch
// is audited, the hot caller stays clean.
DFX_COLD("refill is the audited slow branch; steady state never reaches it")
void cold_refill(int v) { table.push_back(v); }

DFX_HOT_PATH
void hot_with_cold_callee(int v) {  // ok: the cold callee is opaque
  cold_refill(v);
}

// A reasoned allow comment waives one function, at its definition line.
DFX_HOT_PATH
// dfx-lint: allow(hot-path-cost): the output buffer is the product here
void hot_allowed(std::vector<int>& out, int v) {  // ok: suppressed
  out.push_back(v);
}

// DFX_COLD with no reason string is itself a violation.
DFX_COLD()
void cold_without_reason(int v) {  // finding: missing reason
  table.push_back(v);
}

}  // namespace fixture
