// Bottom-up function summaries over the call graph (callgraph.h), feeding
// dfixer_lint's three interprocedural rules:
//
//  * hot-path-cost — DFX_HOT_PATH functions must not transitively allocate,
//    acquire a writer mutex, or throw. One finding per (function, effect
//    kind) at the DEFINITION line, so one reasoned
//    `// dfx-lint: allow(hot-path-cost): ...` waives a function rather than
//    chasing witness lines. DFX_COLD(reason) on a callee stops effect
//    propagation out of it; a DFX_COLD with no reason string is itself a
//    violation.
//
//  * interprocedural-taint-flow — per-function taint summaries (does a
//    parameter reach a sink? does a parameter taint the return value? does
//    the return value originate from wire data?) computed by differential
//    taint runs, then composed into each caller's TaintConfig. A finding is
//    reported only when the enriched config flags something the
//    annotation-only config does not — the intraprocedural rule keeps its
//    own findings.
//
//  * static-lock-cycle — MutexLock acquisition order observed statically:
//    in-body nesting edges plus held-locks × callee-transitive-locks edges
//    at every call site, cycle-checked. tests/test_callgraph.cpp pins the
//    edge set; TSan checks the orders the test suite actually executes.
//
// Effects of unresolved externals are modeled by a curated allowlist
// (allocating/throwing std:: members); unknown externals are assumed
// effect-free but stay visible in --callgraph-dump. The model and its
// escape hatches are documented in docs/STATIC_ANALYSIS.md
// ("Interprocedural analysis").
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "dfixer_lint/callgraph.h"
#include "dfixer_lint/dataflow.h"
#include "dfixer_lint/lint_core.h"
#include "dfixer_lint/symbols.h"

namespace dfx::lint {

struct FnSummary {
  bool hot = false;                  // DFX_HOT_PATH on some declaration
  bool cold = false;                 // DFX_COLD(...) on some declaration
  bool cold_missing_reason = false;  // DFX_COLD without a string literal

  // Transitive effects, each with a human-readable witness chain.
  bool allocates = false;
  std::string alloc_witness;
  bool throws = false;
  std::string throw_witness;
  bool locks = false;          // acquires any dfx::Mutex, transitively
  bool locks_writer = false;   // ... one whose id names a writer mutex
  std::string lock_witness;

  // Taint transfer. `params` are the declared parameter names in order;
  // the two bit-vectors are parallel to it.
  std::vector<std::string> params;
  std::vector<bool> param_to_sink;    // param reaches a sink in the body
  std::vector<bool> param_to_return;  // param taints the return value
  bool returns_taint = false;         // return value is wire-derived

  // Lock ids this function may acquire, including through callees.
  std::set<std::string> locks_held_any;
  // Lock ids acquired directly in this body, in source order.
  std::vector<std::string> own_locks;
};

/// One edge of the static lock-order graph: `from` was held when `to` was
/// acquired (directly, or transitively through the call at file:line).
struct LockEdge {
  std::string from;
  std::string to;
  std::string file;
  std::size_t line = 0;
  bool via_call = false;

  bool operator<(const LockEdge& o) const {
    return from != o.from ? from < o.from : to < o.to;
  }
};

struct ProgramAnalysis {
  CallGraph graph;
  std::vector<FnSummary> summaries;  // parallel to graph.nodes()
  std::vector<LockEdge> lock_edges;  // deduplicated by (from, to)
  // Cycles in the lock-order graph, each rotated to start at its smallest
  // lock id: [a, b, c] means a -> b -> c -> a.
  std::vector<std::vector<std::string>> lock_cycles;
  // Annotation-only taint config (DFX_TAINTED / DFX_TAINT_PASSTHROUGH from
  // every indexed file) — the reference the interprocedural rule diffs
  // against.
  TaintConfig base_taint;
};

/// `base_taint` enriched with the summaries of everything the node calls:
/// taint-returning callees become sources, parameter-passthrough callees
/// become passthroughs, and parameter-to-sink callees populate sink_params.
TaintConfig enriched_taint_config(const ProgramAnalysis& pa,
                                  std::size_t node_index);

/// Build the call graph over `files`, compute every summary bottom-up in
/// SCC order, and derive the static lock-order graph. `symbols` (optional)
/// contributes taint/hot/cold annotations harvested from files outside this
/// set; annotations in `files` themselves are always picked up.
ProgramAnalysis analyze_program(std::vector<const FileAnalysis*> files,
                                const SymbolIndex* symbols);

/// Run the three interprocedural rules and return their violations
/// (suppressible per line like every other rule).
std::vector<Violation> lint_interprocedural(const ProgramAnalysis& pa);

}  // namespace dfx::lint
