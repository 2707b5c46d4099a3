// Tests for tools/dfixer_lint: each rule against a known-bad fixture, the
// suppression marker, comment/string immunity, and the repo-wide run that
// the ctest target relies on. The lexer/symbol-index/ratchet internals are
// covered separately in test_lint_engine.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "dfixer_lint/lint_core.h"

namespace {

using dfx::lint::Options;
using dfx::lint::SymbolIndex;
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

/// Symbol index over the symbols/ fixtures — the in-process stand-in for
/// the src/ sweep the real binary performs before linting.
const SymbolIndex& fixture_index() {
  static const SymbolIndex index = [] {
    SymbolIndex idx;
    for (const char* name : {"symbols/status_decls.h", "symbols/cross_a.h",
                             "symbols/cross_b.cpp", "symbols/taint_decls.h"}) {
      const std::string content = read_file(fixture_path(name));
      const auto tokens = dfx::lint::lex(content);
      idx.index_source(name, tokens);
    }
    return idx;
  }();
  return index;
}

Options fixture_options() {
  Options options;
  options.symbols = &fixture_index();
  return options;
}

std::vector<Violation> lint_fixture(const std::string& name) {
  const std::string path = fixture_path(name);
  return dfx::lint::lint_file(path, read_file(path), fixture_options());
}

bool has(const std::vector<Violation>& vs, const std::string& rule,
         std::size_t line) {
  return std::any_of(vs.begin(), vs.end(), [&](const Violation& v) {
    return v.rule == rule && v.line == line;
  });
}

TEST(Lint, FlagsBannedConstructsAtTheRightLines) {
  const auto vs = lint_fixture("bad_banned.cpp");
  EXPECT_TRUE(has(vs, "banned-atoi", 7));
  EXPECT_TRUE(has(vs, "banned-sprintf", 11));
  EXPECT_TRUE(has(vs, "banned-raw-new", 15));
  // Occurrences inside the trailing comment and string must not fire:
  // exactly one violation of each class in the file.
  EXPECT_EQ(vs.size(), 3u);
}

TEST(Lint, FlagsUncheckedFrontBackButNotGuardedOrSuppressed) {
  const auto vs = lint_fixture("bad_front_back.cpp");
  EXPECT_TRUE(has(vs, "unchecked-front-back", 12));
  // A guard that closed before the use does not vouch for it, even though
  // it sits within the flat lookback window's reach of an enclosing brace.
  EXPECT_TRUE(has(vs, "unchecked-front-back", 67));
  // `return v.back(\n);` spans two lines — the per-line scanner missed it,
  // the token stream must not.
  EXPECT_TRUE(has(vs, "unchecked-front-back", 77));
  EXPECT_EQ(vs.size(), 3u)
      << "guarded (nearby, enclosing-if, or same-statement) and "
         "dfx-lint-annotated uses must not be flagged";
}

TEST(Lint, EnclosingIfGuardBeyondLookbackWindowIsRecognized) {
  // Line 51 sits 9 lines below its `if (!v.empty())` — past the flat
  // 6-line window that used to be the only check. The brace-walk must
  // see the enclosing guard and stay quiet.
  const auto vs = lint_fixture("bad_front_back.cpp");
  EXPECT_FALSE(has(vs, "unchecked-front-back", 51));
}

TEST(Lint, FlagsUncontractedMemcpyAndResizeInDnscorePaths) {
  // The taint pack's .resize/memcpy sinks: a DFX_TAINTED length needs a
  // dominating DFX_CHECK before it sizes or copies anything.
  const auto vs = lint_fixture("dnscore/bad_length.cpp");
  EXPECT_TRUE(has(vs, "unchecked-taint-flow", 13));  // .resize
  EXPECT_TRUE(has(vs, "unchecked-taint-flow", 14));  // memcpy
  EXPECT_EQ(vs.size(), 2u) << "DFX_CHECK-guarded copies must not be flagged";
}

TEST(Lint, LengthRuleIsScopedToDnscoreAndCryptoPaths) {
  // The same content fires under crypto/ too, and nowhere outside the
  // wire-handling layers.
  const std::string content = read_file(fixture_path("dnscore/bad_length.cpp"));
  EXPECT_EQ(dfx::lint::lint_file("src/crypto/bad_length.cpp", content,
                                 fixture_options())
                .size(),
            2u);
  const auto vs =
      dfx::lint::lint_file("elsewhere/bad_length.cpp", content,
                           fixture_options());
  EXPECT_TRUE(vs.empty());
}

TEST(Lint, FlagsMissingNodiscardOnStatusReturningDeclarations) {
  const auto vs = lint_fixture("bad_nodiscard.h");
  EXPECT_TRUE(has(vs, "missing-nodiscard", 11));  // std::optional parse_level
  EXPECT_TRUE(has(vs, "missing-nodiscard", 13));  // bool validate_record
  EXPECT_TRUE(has(vs, "missing-nodiscard", 15));  // std::variant decode_flags
  // Must-use is the symbol index's rule: an optional return needs the
  // attribute whatever the function is called.
  EXPECT_TRUE(has(vs, "missing-nodiscard", 23));  // std::optional cached_level
  // [[nodiscard]] behind a leading annotation macro still counts.
  EXPECT_FALSE(has(vs, "missing-nodiscard", 26));  // DFX_HOT_PATH hot_level
  EXPECT_EQ(vs.size(), 4u)
      << "annotated and non-status declarations must not be flagged";
}

TEST(Lint, FlagsDiscardedErrorReturnsButNotConsumedOnes) {
  // Bare discarded calls (fixture lines 8-12) are the compiler's to reject;
  // negative_compile.unused_result_must_fail pins that. The lint keeps the
  // dead store, which gcc's -Wunused-variable misses for class types.
  const auto vs = lint_fixture("bad_discarded.cpp");
  EXPECT_TRUE(has(vs, "discarded-error-return", 29));  // stored, never read
  EXPECT_EQ(vs.size(), 1u)
      << "bare calls, stores that are read, reassigned-then-read, "
         "[[maybe_unused]] or suppressed must not be flagged";
}

TEST(Lint, FlagsUnguardedNarrowingCastsOnWireLayers) {
  const auto vs = lint_fixture("dnscore/bad_narrowing.cpp");
  EXPECT_TRUE(has(vs, "unguarded-narrowing-cast", 11));  // v.size()
  EXPECT_TRUE(has(vs, "unguarded-narrowing-cast", 15));  // arithmetic
  EXPECT_TRUE(has(vs, "unguarded-narrowing-cast", 50));  // namespace scope
  EXPECT_EQ(vs.size(), 3u)
      << ">>8, &0xFF, bare-value, widening, DFX_DCHECK-guarded and "
         "suppressed casts must not be flagged";
}

TEST(Lint, NarrowingRuleIsScopedToWireLayerPaths) {
  const std::string content =
      read_file(fixture_path("dnscore/bad_narrowing.cpp"));
  const auto vs = dfx::lint::lint_file("elsewhere/bad_narrowing.cpp", content,
                                       fixture_options());
  EXPECT_TRUE(vs.empty());
}

TEST(Lint, TaintPackFlagsUncheckedWireFlowsButNotGuardedTwins) {
  const auto vs = lint_fixture("dataflow/bad_taint.cpp");
  EXPECT_TRUE(has(vs, "unchecked-taint-flow", 15));   // unchecked index
  EXPECT_TRUE(has(vs, "unchecked-taint-flow", 30));   // guard on one branch
  EXPECT_TRUE(has(vs, "unchecked-taint-flow", 35));   // guard after the use
  EXPECT_TRUE(has(vs, "unchecked-taint-flow", 43));   // loop-carried re-taint
  EXPECT_TRUE(has(vs, "unchecked-taint-flow", 61));   // .resize length
  EXPECT_TRUE(has(vs, "unchecked-taint-flow", 73));   // memcpy length
  EXPECT_TRUE(has(vs, "unchecked-taint-flow", 78));   // loop trip count
  EXPECT_TRUE(has(vs, "unchecked-taint-flow", 93));   // DFX_TAINTED parameter
  EXPECT_TRUE(has(vs, "unchecked-taint-flow", 98));   // pass-through call
  EXPECT_TRUE(has(vs, "unchecked-taint-flow", 102));  // DFX_TAINTED field
  EXPECT_TRUE(has(vs, "unchecked-taint-flow", 106));  // in-file source decl
  EXPECT_EQ(vs.size(), 11u)
      << "DFX_CHECK/bound-test/early-return/std::min/DFX_BOUNDED_LOOP "
         "twins, unannotated calls and suppressed uses must stay quiet";
}

TEST(Lint, TaintPackIsScopedToWireHandlingPaths) {
  const std::string content =
      read_file(fixture_path("dataflow/bad_taint.cpp"));
  const auto vs = dfx::lint::lint_file("elsewhere/bad_taint.cpp", content,
                                       fixture_options());
  EXPECT_TRUE(vs.empty());
}

TEST(Lint, DataflowPinsMultiPathGuardsTheLineWindowMissed) {
  const auto vs = lint_fixture("dnscore/bad_multipath.cpp");
  EXPECT_TRUE(has(vs, "unguarded-narrowing-cast", 18));  // branch-only guard
  EXPECT_TRUE(has(vs, "unguarded-narrowing-cast", 24));  // same-line, after
  EXPECT_TRUE(has(vs, "unchecked-taint-flow", 48));      // loop-carried
  EXPECT_EQ(vs.size(), 3u)
      << "both-branch and early-return guards dominate and must stay quiet";
}

TEST(Lint, FlagsViewsReturnedIntoLocals) {
  const auto vs = lint_fixture("bad_view_temp.cpp");
  EXPECT_TRUE(has(vs, "view-into-temporary", 10));  // return local string
  EXPECT_TRUE(has(vs, "view-into-temporary", 15));  // return local substr
  EXPECT_EQ(vs.size(), 2u)
      << "params, statics, owning returns and suppressed views must not "
         "be flagged";
}

TEST(Lint, FlagsArenaViewsReturnedFromLocals) {
  // A string_view minted by a local WireArena dies with the frame exactly
  // like a view of a local std::string (dnscore/arena.h lifetime rules).
  const auto vs = lint_fixture("dnscore/bad_arena_view.cpp");
  EXPECT_TRUE(has(vs, "view-into-temporary", 15));  // return local arena.copy
  EXPECT_EQ(vs.size(), 1u)
      << "caller-owned arenas and suppressed returns must not be flagged";
}

TEST(Lint, FlagsConcurrencyRulePackButNotWrappersOrSuppressed) {
  const auto vs = lint_fixture("bad_concurrency.cpp");
  EXPECT_TRUE(has(vs, "raw-std-mutex", 14));  // file-scope std::mutex
  EXPECT_TRUE(has(vs, "raw-std-mutex", 16));  // std::mutex parameter
  EXPECT_TRUE(has(vs, "raw-std-mutex", 17));  // std::lock_guard
  // `std::\n mutex` spans lines — the per-line scanner missed it.
  EXPECT_TRUE(has(vs, "raw-std-mutex", 55));
  EXPECT_TRUE(has(vs, "unguarded-mutable-field", 29));
  EXPECT_TRUE(has(vs, "lock-across-wait", 37));
  EXPECT_EQ(vs.size(), 6u)
      << "annotated fields, waits on the held mutex, and dfx-lint-"
         "annotated lines must not be flagged";
}

TEST(Lint, RawMutexRuleIsExemptUnderUtil) {
  // The wrappers themselves live in util/ and legitimately hold raw
  // primitives.
  const std::string content = read_file(fixture_path("bad_concurrency.cpp"));
  const auto vs = dfx::lint::lint_file("src/util/fixture.cpp", content,
                                       fixture_options());
  for (const auto& v : vs) EXPECT_NE(v.rule, "raw-std-mutex");
  // The other concurrency rules still apply under util/.
  EXPECT_TRUE(has(vs, "unguarded-mutable-field", 29));
  EXPECT_TRUE(has(vs, "lock-across-wait", 37));
}

TEST(Lint, FlagsLayeringViolationsFromTheIncludeGraph) {
  const auto vs = lint_fixture("dnscore/bad_layering.cpp");
  EXPECT_TRUE(has(vs, "layering-violation", 6));  // dnscore -> measure
  EXPECT_TRUE(has(vs, "layering-violation", 7));  // dnscore -> dfixer
  EXPECT_EQ(vs.size(), 2u)
      << "same-module, lower-layer, and dfx-lint-annotated includes "
         "must not be flagged";
}

TEST(Lint, ServerLayerSitsBetweenAuthserverAndAnalyzer) {
  const auto vs = lint_fixture("server/bad_layering.cpp");
  EXPECT_TRUE(has(vs, "layering-violation", 5));  // server -> analyzer
  EXPECT_EQ(vs.size(), 1u)
      << "authserver and same-module includes are legal from server";
}

TEST(Lint, AuthserverPathIsNotSwallowedByTheServerModule) {
  // "authserver/" contains the substring "server/"; the layer table's
  // first-match order must still classify the file as authserver.
  const auto vs = lint_fixture("authserver/bad_layering.cpp");
  EXPECT_TRUE(has(vs, "layering-violation", 6));  // authserver -> server
  EXPECT_EQ(vs.size(), 1u);
}

TEST(Lint, ZonelintLayerSitsBesideDfixerAboveAnalyzer) {
  const auto vs = lint_fixture("zonelint/bad_layering.cpp");
  EXPECT_TRUE(has(vs, "layering-violation", 6));  // zonelint -> dfixer
  EXPECT_TRUE(has(vs, "layering-violation", 7));  // zonelint -> zreplicator
  EXPECT_EQ(vs.size(), 2u)
      << "analyzer and same-module includes are legal from zonelint";
}

TEST(Lint, LowerLayersMustNotIncludeZonelint) {
  // The other direction of the ratchet: analyzer (7) reaching up into
  // zonelint (8) is a violation even though the reverse is legal.
  const std::string content = "#include \"zonelint/zonelint.h\"\n";
  const auto vs = dfx::lint::lint_file("src/analyzer/fixture.cpp", content,
                                       fixture_options());
  EXPECT_TRUE(has(vs, "layering-violation", 1));
}

TEST(Lint, LayeringRuleExemptsFilesOutsideSrcModules) {
  // tools/tests/bench/examples sit above every layer; the same includes
  // are legal there.
  const std::string content =
      read_file(fixture_path("dnscore/bad_layering.cpp"));
  const auto vs = dfx::lint::lint_file("tools/some_tool/main.cpp", content,
                                       fixture_options());
  EXPECT_TRUE(vs.empty());
}

TEST(Lint, CleanFileProducesNoViolations) {
  EXPECT_TRUE(lint_fixture("good_clean.cpp").empty());
}

TEST(Lint, ExoticNumericLiteralsDoNotConfuseAnyRule) {
  EXPECT_TRUE(lint_fixture("good_literals.cpp").empty());
}

TEST(Lint, ViolationsCarrySeverityAndExcerpt) {
  const auto vs = lint_fixture("bad_discarded.cpp");
  ASSERT_FALSE(vs.empty());
  for (const auto& v : vs) {
    EXPECT_EQ(v.severity, dfx::lint::severity_of(v.rule));
    EXPECT_FALSE(v.excerpt.empty());
  }
  EXPECT_NE(vs.front().excerpt.find("parse_record"), std::string::npos)
      << "excerpt should quote the offending line";
}

TEST(Lint, CoversAtLeastThirteenDistinctViolationClasses) {
  std::set<std::string> rules;
  for (const char* name :
       {"bad_banned.cpp", "bad_front_back.cpp", "dnscore/bad_length.cpp",
        "bad_nodiscard.h", "bad_concurrency.cpp", "dnscore/bad_layering.cpp",
        "bad_discarded.cpp", "dnscore/bad_narrowing.cpp", "bad_view_temp.cpp",
        "dataflow/bad_taint.cpp", "dnscore/bad_multipath.cpp"}) {
    for (const auto& v : lint_fixture(name)) rules.insert(v.rule);
  }
  EXPECT_GE(rules.size(), 13u) << "fixtures must exercise >=13 rule classes";
}

TEST(Lint, StripperErasesCommentsAndStringsButKeepsLineStructure) {
  const std::string src =
      "int a; // atoi here\n"
      "const char* s = \"sprintf\";\n"
      "/* new int\n"
      "   spans lines */ int b;\n";
  const std::string out = dfx::lint::strip_comments_and_strings(src);
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'),
            std::count(src.begin(), src.end(), '\n'));
  EXPECT_EQ(out.find("atoi"), std::string::npos);
  EXPECT_EQ(out.find("sprintf"), std::string::npos);
  EXPECT_EQ(out.find("new int"), std::string::npos);
  EXPECT_NE(out.find("int a;"), std::string::npos);
  EXPECT_NE(out.find("int b;"), std::string::npos);
}

// The ctest wiring runs the binary over the repo against the committed
// ratchet baseline; mirror that here so a regression shows up with context
// instead of a bare non-zero exit.
TEST(Lint, RepoSourcesMatchTheRatchetBaseline) {
  const std::string cmd = std::string(DFX_LINT_BIN) + " --root " +
                          DFX_REPO_ROOT + " --baseline " + DFX_REPO_ROOT +
                          "/tools/dfixer_lint/baseline.json > /dev/null";
  const int status = std::system(cmd.c_str());
  EXPECT_EQ(status, 0) << "dfixer_lint ratchet mismatch; run\n  " << cmd;
}

// --root with no explicit files must sweep bench/, examples/, tests/ and
// tools/ alongside src/ — and keep skipping the on-purpose-bad fixtures.
TEST(Lint, ExpandedRootCoversBenchExamplesTestsAndTools) {
  namespace fs = std::filesystem;
  const fs::path root = fs::path(testing::TempDir()) / "dfx_lint_root";
  for (const char* dir : {"src", "tools", "bench", "examples", "tests"}) {
    fs::create_directories(root / dir);
    std::ofstream(root / dir / "bad.cpp")
        << "int f(const char* s) { return atoi(s); }\n";
  }
  fs::create_directories(root / "tests" / "lint_fixtures");
  std::ofstream(root / "tests" / "lint_fixtures" / "worse.cpp")
      << "int g(const char* s) { return atoi(s); }\n";

  const fs::path out_path = root / "out.txt";
  const std::string cmd = std::string(DFX_LINT_BIN) + " --root " +
                          root.string() + " > " + out_path.string();
  const int status = std::system(cmd.c_str());
  ASSERT_NE(status, -1);
  EXPECT_NE(status, 0) << "planted violations must fail the run";

  const std::string out = read_file(out_path.string());
  for (const char* dir : {"src", "tools", "bench", "examples", "tests"}) {
    EXPECT_NE(out.find((fs::path(dir) / "bad.cpp").string()),
              std::string::npos)
        << dir << "/ must be part of the default root sweep";
  }
  EXPECT_EQ(out.find("worse.cpp"), std::string::npos)
      << "tests/lint_fixtures must stay excluded from the sweep";
}

TEST(Lint, TemplateAngleFixtureStaysCleanUnderEveryRule) {
  // Satellite pin for the lexer's template-closer split: nested
  // template-argument lists must not derail brace/angle tracking into
  // phantom findings (interprocedural coverage lives in test_callgraph).
  EXPECT_TRUE(lint_fixture("interproc/good_templates.cpp").empty());
}

TEST(Lint, BinaryRunsInterproceduralRulesOnExplicitFiles) {
  // Each seeded fixture must fail the run with its rule named in the
  // report.
  const struct {
    const char* fixture;
    const char* rule;
  } kCases[] = {
      {"interproc/bad_hot_path.cpp", "hot-path-cost"},
      {"server/bad_interproc_taint.cpp", "interprocedural-taint-flow"},
      {"interproc/bad_lock_cycle.cpp", "static-lock-cycle"},
  };
  namespace fs = std::filesystem;
  for (const auto& c : kCases) {
    const fs::path out_path =
        fs::temp_directory_path() / "dfx_lint_interproc_out.txt";
    const std::string cmd = std::string(DFX_LINT_BIN) + " --root " +
                            DFX_REPO_ROOT + " " + fixture_path(c.fixture) +
                            " > " + out_path.string();
    const int status = std::system(cmd.c_str());
    ASSERT_NE(status, -1);
    EXPECT_NE(status, 0) << c.fixture << " must fail the run";
    EXPECT_NE(read_file(out_path.string()).find(c.rule), std::string::npos)
        << c.fixture << " must report " << c.rule;
    fs::remove(out_path);
  }
}

TEST(Lint, BinaryExitsNonzeroOnFixtureViolations) {
  const std::string cmd = std::string(DFX_LINT_BIN) + " --root " +
                          DFX_REPO_ROOT + " " +
                          fixture_path("bad_banned.cpp") + " > /dev/null";
  const int status = std::system(cmd.c_str());
  ASSERT_NE(status, -1);
  EXPECT_NE(status, 0);
}

}  // namespace
