// Tests for dfixer_lint's interprocedural layer (callgraph.h, summaries.h):
// call-site resolution against the definition set, bottom-up SCC summary
// composition, candidate-consensus propagation for ambiguous names, the
// three interprocedural rules against their fixtures, and the edge set of
// the static lock-order graph.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "dfixer_lint/callgraph.h"
#include "dfixer_lint/lint_core.h"
#include "dfixer_lint/summaries.h"

namespace {

using dfx::lint::CallGraph;
using dfx::lint::CgCall;
using dfx::lint::CgNode;
using dfx::lint::FileAnalysis;
using dfx::lint::FnSummary;
using dfx::lint::LockEdge;
using dfx::lint::ProgramAnalysis;
using dfx::lint::Violation;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open fixture " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string fixture_path(const std::string& name) {
  return std::string(DFX_LINT_FIXTURES) + "/" + name;
}

/// Holds the FileAnalysis objects alive for the lifetime of the analysis —
/// CallGraph keeps raw pointers into them.
struct Program {
  std::vector<std::unique_ptr<FileAnalysis>> files;
  ProgramAnalysis pa;
};

Program analyze(const std::vector<std::pair<std::string, std::string>>& srcs) {
  Program p;
  std::vector<const FileAnalysis*> ptrs;
  for (const auto& [path, content] : srcs) {
    p.files.push_back(std::make_unique<FileAnalysis>(
        dfx::lint::analyze_file(path, content)));
    ptrs.push_back(
        p.files.back().get());  // dfx-lint: allow(unchecked-front-back): just pushed
  }
  p.pa = dfx::lint::analyze_program(std::move(ptrs), nullptr);
  return p;
}

Program analyze_fixture(const std::string& name) {
  const std::string path = fixture_path(name);
  return analyze({{path, read_file(path)}});
}

const CgNode* node_named(const ProgramAnalysis& pa, const std::string& name) {
  for (const CgNode& n : pa.graph.nodes()) {
    if (n.name == name) return &n;
  }
  return nullptr;
}

const FnSummary* summary_of(const ProgramAnalysis& pa,
                            const std::string& name) {
  const auto ids = pa.graph.find(name);
  return ids.empty() ? nullptr : &pa.summaries[ids.front()];
}

/// The callee names `caller` resolves to at least one definition of.
std::vector<std::string> resolved_callees(const ProgramAnalysis& pa,
                                          const std::string& caller) {
  std::vector<std::string> out;
  const CgNode* n = node_named(pa, caller);
  if (n == nullptr) return out;
  for (const CgCall& c : n->calls) {
    if (!c.callees.empty()) out.push_back(c.name);
  }
  return out;
}

bool has(const std::vector<Violation>& vs, const std::string& rule,
         std::size_t line) {
  return std::any_of(vs.begin(), vs.end(), [&](const Violation& v) {
    return v.rule == rule && v.line == line;
  });
}

std::size_t count_rule(const std::vector<Violation>& vs,
                       const std::string& rule) {
  return static_cast<std::size_t>(
      std::count_if(vs.begin(), vs.end(),
                    [&](const Violation& v) { return v.rule == rule; }));
}

// ---------------------------------------------------------------------------
// Call-site resolution.

TEST(CallGraph, ResolvesCallShapesFromTheTokenStream) {
  struct Case {
    const char* label;
    const char* src;
    const char* caller;
    const char* callee;        // expected resolved callee ("" = none)
    const char* external;      // expected external name ("" = none)
  };
  const Case kCases[] = {
      {"direct call",
       "void helper() {}\n"
       "void caller() { helper(); }\n",
       "caller", "helper", ""},
      {"method call by qualified name",
       "struct S { void method(); };\n"
       "void S::method() {}\n"
       "void caller(S& s) { s.method(); }\n",
       "caller", "method", ""},
      {"recursive call",
       "int fact(int n) { return n < 2 ? 1 : n * fact(n - 1); }\n",
       "fact", "fact", ""},
      {"unresolved external stays external",
       "void caller() { std::abort(); }\n",
       "caller", "", "std::abort"},
      {"qualifier narrows a shared name",
       "struct A { void go(); };\n"
       "struct B { void go(); };\n"
       "void A::go() {}\n"
       "void B::go() {}\n"
       "void caller() { A::go(); }\n",
       "caller", "go", ""},
  };
  for (const Case& c : kCases) {
    const Program p = analyze({{"src/server/case.cpp", c.src}});
    SCOPED_TRACE(c.label);
    if (*c.callee != '\0') {
      const auto callees = resolved_callees(p.pa, c.caller);
      EXPECT_TRUE(std::find(callees.begin(), callees.end(), c.callee) !=
                  callees.end())
          << "expected '" << c.caller << "' to resolve a call to '" << c.callee
          << "'";
    }
    if (*c.external != '\0') {
      const auto ext = p.pa.graph.externals();
      EXPECT_TRUE(std::find(ext.begin(), ext.end(), c.external) != ext.end())
          << "expected external '" << c.external << "'";
    }
  }
}

TEST(CallGraph, QualifierNarrowsTheCandidateSet) {
  const Program p = analyze({{"src/server/narrow.cpp",
                              "struct A { void go(); };\n"
                              "struct B { void go(); };\n"
                              "void A::go() {}\n"
                              "void B::go() {}\n"
                              "void caller() { A::go(); }\n"}});
  const CgNode* caller = node_named(p.pa, "caller");
  ASSERT_NE(caller, nullptr);
  ASSERT_EQ(caller->calls.size(), 1u);
  ASSERT_EQ(caller->calls[0].callees.size(), 1u);
  EXPECT_EQ(p.pa.graph.nodes()[caller->calls[0].callees[0]].qualified(),
            "A::go");
}

TEST(CallGraph, RecursionLandsInOneScc) {
  const Program p = analyze({{"src/server/rec.cpp",
                              "void ping(int n);\n"
                              "void pong(int n) { if (n > 0) ping(n - 1); }\n"
                              "void ping(int n) { if (n > 0) pong(n - 1); }\n"
                              "void lone() {}\n"}});
  const auto sccs = p.pa.graph.sccs();
  bool found_pair = false;
  for (const auto& comp : sccs) {
    if (comp.size() == 2u) found_pair = true;
  }
  EXPECT_TRUE(found_pair) << "ping/pong must share one SCC";
}

TEST(CallGraph, TemplateArgumentListsDoNotBreakCallResolution) {
  const Program p = analyze_fixture("interproc/good_templates.cpp");
  const auto callees = resolved_callees(p.pa, "use_nested");
  EXPECT_TRUE(std::find(callees.begin(), callees.end(), "foo") !=
              callees.end())
      << "foo<Bar<int>>(box) must resolve to foo's definition";
  // The fixture must be clean under both the per-file rules and the
  // interprocedural pass.
  dfx::lint::Options options;
  const std::string path = fixture_path("interproc/good_templates.cpp");
  EXPECT_TRUE(dfx::lint::lint_file(path, read_file(path), options).empty());
  EXPECT_TRUE(dfx::lint::lint_interprocedural(p.pa).empty());
}

// ---------------------------------------------------------------------------
// Summary composition.

TEST(Summaries, EffectsComposeBottomUpWithWitnessChains) {
  const Program p = analyze(
      {{"src/server/fx.cpp",
        "#include <vector>\n"
        "std::vector<int> sink;\n"
        "void leaf(int v) { sink.push_back(v); }\n"
        "void mid(int v) { leaf(v); }\n"
        "void top(int v) { mid(v); }\n"
        "int thrower(int v) { if (v < 0) throw v; return v; }\n"
        "int top_throw(int v) { return thrower(v); }\n"}});
  const FnSummary* top = summary_of(p.pa, "top");
  ASSERT_NE(top, nullptr);
  EXPECT_TRUE(top->allocates);
  EXPECT_NE(top->alloc_witness.find("via mid"), std::string::npos);
  const FnSummary* tt = summary_of(p.pa, "top_throw");
  ASSERT_NE(tt, nullptr);
  EXPECT_TRUE(tt->throws);
  const FnSummary* leaf = summary_of(p.pa, "leaf");
  ASSERT_NE(leaf, nullptr);
  EXPECT_TRUE(leaf->allocates);
  EXPECT_FALSE(leaf->throws);
}

TEST(Summaries, RecursiveSccReachesAFixpoint) {
  const Program p = analyze(
      {{"src/server/recfx.cpp",
        "#include <vector>\n"
        "std::vector<int> sink;\n"
        "void even(int n);\n"
        "void odd(int n) { if (n > 0) even(n - 1); sink.push_back(n); }\n"
        "void even(int n) { if (n > 0) odd(n - 1); }\n"}});
  // `even` allocates only through the cycle; the fixpoint must carry the
  // effect around it.
  const FnSummary* even = summary_of(p.pa, "even");
  ASSERT_NE(even, nullptr);
  EXPECT_TRUE(even->allocates);
}

TEST(Summaries, AmbiguousCallsPropagateOnlyByCandidateConsensus) {
  // Two unrelated definitions share the name `add`: one allocates, one does
  // not. A caller resolving to both must NOT inherit the allocation — but
  // when every candidate allocates (an overload set), it must.
  const Program p = analyze(
      {{"src/server/amb.cpp",
        "#include <vector>\n"
        "std::vector<int> sink;\n"
        "struct Grower { void add(int v); };\n"
        "struct Counter { void add(int v); };\n"
        "void Grower::add(int v) { sink.push_back(v); }\n"
        "void Counter::add(int v) { sink[0] += v; }\n"
        "void split_caller(Grower& g) { g.add(1); }\n"
        "struct Over { void put(int v); void put(long v); };\n"
        "void Over::put(int v) { sink.push_back(v); }\n"
        "void Over::put(long v) { sink.push_back(1); }\n"
        "void agree_caller(Over& o) { o.put(1); }\n"}});
  const FnSummary* split = summary_of(p.pa, "split_caller");
  ASSERT_NE(split, nullptr);
  EXPECT_FALSE(split->allocates)
      << "disagreeing same-name candidates must cancel the effect";
  const FnSummary* agree = summary_of(p.pa, "agree_caller");
  ASSERT_NE(agree, nullptr);
  EXPECT_TRUE(agree->allocates)
      << "an overload set that always allocates must propagate";
}

TEST(Summaries, TaintTransferSummariesComposeAcrossCalls) {
  const Program p = analyze_fixture("server/bad_interproc_taint.cpp");
  const FnSummary* fill = summary_of(p.pa, "fill");
  ASSERT_NE(fill, nullptr);
  ASSERT_EQ(fill->param_to_sink.size(), 2u);
  EXPECT_FALSE(fill->param_to_sink[0]);  // buf never sizes anything
  EXPECT_TRUE(fill->param_to_sink[1]);   // n reaches resize()
  const FnSummary* peek = summary_of(p.pa, "peek_len");
  ASSERT_NE(peek, nullptr);
  EXPECT_TRUE(peek->returns_taint);
}

// ---------------------------------------------------------------------------
// The three interprocedural rules against their fixtures.

TEST(InterprocRules, HotPathCostCatchesSeededFixtureAndSparesTwins) {
  const Program p = analyze_fixture("interproc/bad_hot_path.cpp");
  const auto vs = dfx::lint::lint_interprocedural(p.pa);
  const auto line_of = [&](const char* name) {
    const CgNode* n = node_named(p.pa, name);
    EXPECT_NE(n, nullptr) << name;
    return n == nullptr ? std::size_t{0} : n->line;
  };
  EXPECT_TRUE(has(vs, "hot-path-cost", line_of("hot_transitive_alloc")));
  EXPECT_TRUE(has(vs, "hot-path-cost", line_of("hot_direct_alloc")));
  EXPECT_TRUE(has(vs, "hot-path-cost", line_of("hot_throws")));
  EXPECT_TRUE(has(vs, "hot-path-cost", line_of("hot_writer_lock")));
  EXPECT_TRUE(has(vs, "hot-path-cost", line_of("hot_write_side")));
  EXPECT_TRUE(has(vs, "hot-path-cost", line_of("cold_without_reason")));
  EXPECT_FALSE(has(vs, "hot-path-cost", line_of("hot_clean")));
  EXPECT_FALSE(has(vs, "hot-path-cost", line_of("hot_read_side")));
  EXPECT_FALSE(has(vs, "hot-path-cost", line_of("hot_with_cold_callee")));
  EXPECT_FALSE(has(vs, "hot-path-cost", line_of("hot_allowed")));
  EXPECT_EQ(count_rule(vs, "hot-path-cost"), 6u);
}

TEST(InterprocRules, TaintFlowCatchesCrossCallFlowsAndSparesGuards) {
  const Program p = analyze_fixture("server/bad_interproc_taint.cpp");
  const auto vs = dfx::lint::lint_interprocedural(p.pa);
  // Findings anchor at the call lines inside the two bad callers.
  std::size_t call_arg = 0;
  std::size_t via_return = 0;
  for (const Violation& v : vs) {
    if (v.rule != "interprocedural-taint-flow") continue;
    if (v.message.find("fill()") != std::string::npos) ++call_arg;
    if (v.message.find("helper call") != std::string::npos) ++via_return;
  }
  EXPECT_EQ(call_arg, 1u) << "exactly caller_bad's fill() call";
  EXPECT_EQ(via_return, 1u) << "exactly return_flow_bad's index";
  EXPECT_EQ(count_rule(vs, "interprocedural-taint-flow"), 2u)
      << "the guarded twins must stay quiet";
}

TEST(InterprocRules, StaticLockCycleCatchesBothCycleShapes) {
  const Program p = analyze_fixture("interproc/bad_lock_cycle.cpp");
  const auto vs = dfx::lint::lint_interprocedural(p.pa);
  EXPECT_EQ(p.pa.lock_cycles.size(), 2u)
      << "one in-body inversion, one through a call edge";
  EXPECT_EQ(count_rule(vs, "static-lock-cycle"), 2u);
  // The Consistent twin contributes edges but no cycle: every cycle must
  // name Inverted or ViaCall mutexes only.
  for (const auto& cyc : p.pa.lock_cycles) {
    for (const std::string& id : cyc) {
      EXPECT_TRUE(id.find("Inverted::") == 0 || id.find("ViaCall::") == 0)
          << "unexpected lock id in cycle: " << id;
    }
  }
  // The call-induced edge is present and marked as such.
  bool via_call_edge = false;
  for (const LockEdge& e : p.pa.lock_edges) {
    if (e.from == "ViaCall::front_mu_" && e.to == "ViaCall::back_mu_" &&
        e.via_call) {
      via_call_edge = true;
    }
  }
  EXPECT_TRUE(via_call_edge);
}

// A plain nesting chain: the static graph records every held->acquired
// pair, the transitive one included, and finds no cycle.
TEST(InterprocRules, StaticLockGraphRecordsEveryNestedPair) {
  const Program p = analyze({{"src/server/chain.cpp",
                              "struct Chain {\n"
                              "  Mutex a_mu_;\n"
                              "  Mutex b_mu_;\n"
                              "  Mutex c_mu_;\n"
                              "  void run();\n"
                              "};\n"
                              "void Chain::run() {\n"
                              "  MutexLock a(a_mu_);\n"
                              "  MutexLock b(b_mu_);\n"
                              "  MutexLock c(c_mu_);\n"
                              "}\n"}});
  EXPECT_EQ(p.pa.lock_edges.size(), 2u + 1u)
      << "a->b, b->c, and the transitive a->c nesting edge";
  EXPECT_TRUE(p.pa.lock_cycles.empty());
}

// A MutexLock that adopts a lock taken by try_lock() is an acquisition of
// its first argument, not of the adopt_lock tag after it.
TEST(InterprocRules, StaticLockGraphReadsTheAdoptedMutex) {
  const Program p = analyze({{"src/server/tier.cpp",
                              "struct Tier {\n"
                              "  Mutex outer_mu_;\n"
                              "  Mutex inner_mu_;\n"
                              "  void forward();\n"
                              "  void backward();\n"
                              "};\n"
                              "void Tier::forward() {\n"
                              "  MutexLock o(outer_mu_);\n"
                              "  MutexLock i(inner_mu_);\n"
                              "}\n"
                              "void Tier::backward() {\n"
                              "  if (!inner_mu_.try_lock()) return;\n"
                              "  MutexLock i(inner_mu_, std::adopt_lock);\n"
                              "  MutexLock o(outer_mu_);\n"
                              "}\n"}});
  bool adopted_edge = false;
  for (const LockEdge& e : p.pa.lock_edges) {
    EXPECT_EQ(e.from.find("adopt_lock"), std::string::npos) << e.from;
    EXPECT_EQ(e.to.find("adopt_lock"), std::string::npos) << e.to;
    if (e.from == "Tier::inner_mu_" && e.to == "Tier::outer_mu_") {
      adopted_edge = true;
    }
  }
  EXPECT_TRUE(adopted_edge) << "the adopted lock is held like any other";
  EXPECT_EQ(p.pa.lock_cycles.size(), 1u);
}

// Both sides of a ReadMostlyMutex are acquisitions of one lock id: a read
// side held around a Mutex in one method and the write side taken inside
// that Mutex in another close a cycle.
TEST(InterprocRules, StaticLockGraphSeesBothSidesOfAReadMostlyMutex) {
  const Program p = analyze({{"src/server/table.cpp",
                              "struct Table {\n"
                              "  ReadMostlyMutex rows_mu_;\n"
                              "  Mutex index_mu_;\n"
                              "  void read();\n"
                              "  void write();\n"
                              "};\n"
                              "void Table::read() {\n"
                              "  ReaderLock r(rows_mu_);\n"
                              "  MutexLock i(index_mu_);\n"
                              "}\n"
                              "void Table::write() {\n"
                              "  MutexLock i(index_mu_);\n"
                              "  WriterLock w(rows_mu_);\n"
                              "}\n"}});
  bool read_edge = false;
  bool write_edge = false;
  for (const LockEdge& e : p.pa.lock_edges) {
    if (e.from == "Table::rows_mu_" && e.to == "Table::index_mu_") {
      read_edge = true;
    }
    if (e.from == "Table::index_mu_" && e.to == "Table::rows_mu_") {
      write_edge = true;
    }
  }
  EXPECT_TRUE(read_edge) << "the read side is an acquisition";
  EXPECT_TRUE(write_edge) << "the write side is an acquisition";
  EXPECT_EQ(p.pa.lock_cycles.size(), 1u);
}

}  // namespace
