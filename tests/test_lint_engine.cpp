// Tests for the analysis engine underneath dfixer_lint's rules: the C++
// lexer, the cross-TU symbol index, and the JSON finding ratchet — both
// in-process and through the binary (add a finding → the ratchet fails;
// leave a fixed entry behind → the ratchet fails the other way).
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "dfixer_lint/lexer.h"
#include "dfixer_lint/lint_core.h"
#include "dfixer_lint/ratchet.h"
#include "dfixer_lint/symbols.h"

namespace {

namespace fs = std::filesystem;

using dfx::lint::FunctionDecl;
using dfx::lint::ReturnClass;
using dfx::lint::SymbolIndex;
using dfx::lint::Tok;
using dfx::lint::Token;
using dfx::lint::Violation;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::vector<std::string> token_texts(const std::vector<Token>& toks) {
  std::vector<std::string> out;
  out.reserve(toks.size());
  for (const auto& t : toks) out.emplace_back(t.text);
  return out;
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

TEST(Lexer, ScopeSeparatorAndCompoundPunctuatorsAreSingleTokens) {
  const auto toks = dfx::lint::lex("a::b <<= c >>= d ... e->*f");
  EXPECT_EQ(token_texts(toks),
            (std::vector<std::string>{"a", "::", "b", "<<=", "c", ">>=", "d",
                                      "...", "e", "->*", "f"}));
}

TEST(Lexer, TemplateClosersSplitButShiftOperatorsSurvive) {
  // `foo<Bar<T>>(x)` must lex its `>>` as two template closers so angle
  // depth balances at the call paren ...
  const auto toks = dfx::lint::lex("foo<Bar<T>>(x);");
  EXPECT_EQ(token_texts(toks),
            (std::vector<std::string>{"foo", "<", "Bar", "<", "T", ">", ">",
                                      "(", "x", ")", ";"}));
  // ... while a genuine right-shift (no `ident <` opener shape) stays one
  // token, as does `>>=`.
  const auto shift = dfx::lint::lex("a = b >> 2; a >>= c;");
  EXPECT_EQ(token_texts(shift),
            (std::vector<std::string>{"a", "=", "b", ">>", "2", ";", "a",
                                      ">>=", "c", ";"}));
}

TEST(Lexer, TracksLineNumbersAcrossCommentsAndLiterals) {
  const auto toks = dfx::lint::lex(
      "int a; // trailing comment\n"
      "/* block\n"
      "   spanning */ int b;\n"
      "const char* s = \"multi\\nline-ish\";\n"
      "int c;\n");
  ASSERT_GE(toks.size(), 3u);
  std::uint32_t line_a = 0, line_b = 0, line_c = 0, line_s = 0;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].text == "a") line_a = toks[i].line;
    if (toks[i].text == "b") line_b = toks[i].line;
    if (toks[i].text == "c") line_c = toks[i].line;
    if (toks[i].kind == Tok::kString) line_s = toks[i].line;
  }
  EXPECT_EQ(line_a, 1u);
  EXPECT_EQ(line_b, 3u);
  EXPECT_EQ(line_s, 4u);
  EXPECT_EQ(line_c, 5u);
}

TEST(Lexer, CommentsAndStringContentsNeverBecomeTokens) {
  const auto toks = dfx::lint::lex(
      "// atoi in comment\n"
      "const char* s = \"atoi in string\";\n"
      "char q = 'a';\n");
  for (const auto& t : toks) {
    EXPECT_NE(t.text, "atoi");
    if (t.kind == Tok::kString || t.kind == Tok::kChar) {
      EXPECT_TRUE(t.text.empty());
    }
  }
}

TEST(Lexer, RawStringsCollapseAndKeepLineCounting) {
  const auto toks = dfx::lint::lex(
      "auto s = R\"delim(line one\n"
      "std::mutex not_a_token\n"
      ")delim\";\n"
      "int after;\n");
  std::size_t strings = 0;
  for (const auto& t : toks) {
    if (t.kind == Tok::kString) ++strings;
    EXPECT_NE(t.text, "mutex");
    if (t.text == "after") {
      EXPECT_EQ(t.line, 4u);
    }
  }
  EXPECT_EQ(strings, 1u);
}

TEST(Lexer, PreprocessorDirectivesAreDroppedIncludingContinuations) {
  const auto toks = dfx::lint::lex(
      "#include <vector>\n"
      "#define WIDE(x) \\\n"
      "  ((x) * 2)\n"
      "int live;\n");
  const auto texts = token_texts(toks);
  EXPECT_EQ(texts, (std::vector<std::string>{"int", "live", ";"}));
  EXPECT_EQ(toks[0].line, 4u);
}

TEST(Lexer, PpNumbersLexAsOneToken) {
  const auto toks = dfx::lint::lex("x = 0x1Fu + 1'000 + 1e-3 + 0x1p-3;");
  std::vector<std::string> numbers;
  for (const auto& t : toks) {
    if (t.kind == Tok::kNumber) numbers.emplace_back(t.text);
  }
  EXPECT_EQ(numbers,
            (std::vector<std::string>{"0x1Fu", "1'000", "1e-3", "0x1p-3"}));
}

TEST(Lexer, DigitSeparatorsAndHexFloatsAreSingleTokens) {
  const auto toks =
      dfx::lint::lex("n = 1'000'000 + 0xFF'00 + 0x1.8p3 + 0b1010'0101;");
  std::vector<std::string> numbers;
  for (const auto& t : toks) {
    if (t.kind == Tok::kNumber) numbers.emplace_back(t.text);
  }
  EXPECT_EQ(numbers, (std::vector<std::string>{"1'000'000", "0xFF'00",
                                               "0x1.8p3", "0b1010'0101"}));
}

TEST(Lexer, QuoteAfterNumberStillOpensCharLiterals) {
  // `{1,'a'}`: the quote follows a digit-adjacent comma, not a digit run —
  // it must open a character literal, not continue `1` as a separator.
  const auto toks = dfx::lint::lex("int x[] = {1,'a'}; wchar_t w = L'b';");
  std::size_t chars = 0;
  for (const auto& t : toks) {
    if (t.kind == Tok::kChar) ++chars;
    if (t.kind == Tok::kNumber) {
      EXPECT_EQ(t.text, "1");
    }
  }
  EXPECT_EQ(chars, 2u);
}

TEST(Lexer, StrippingPreservesDigitSeparators) {
  // strip_comments_and_strings must not mistake the separator quotes for
  // an (unterminated) character literal and blank the rest of the line.
  const std::string stripped = dfx::lint::strip_comments_and_strings(
      "std::size_t cap = 1'000'000;  // comment\n"
      "char c = 'x';\n");
  EXPECT_NE(stripped.find("1'000'000"), std::string::npos);
  EXPECT_EQ(stripped.find("comment"), std::string::npos);
  EXPECT_EQ(stripped.find('x'), std::string::npos);
}

// ---------------------------------------------------------------------------
// Symbol index
// ---------------------------------------------------------------------------

std::string fixture_path(const std::string& name) {
  return std::string(DFX_LINT_FIXTURES) + "/" + name;
}

const SymbolIndex& fixture_index() {
  static const SymbolIndex index = [] {
    SymbolIndex idx;
    for (const char* name : {"symbols/status_decls.h", "symbols/cross_a.h",
                             "symbols/cross_b.cpp"}) {
      const std::string content = read_file(fixture_path(name));
      const auto tokens = dfx::lint::lex(content);
      idx.index_source(name, tokens);
    }
    return idx;
  }();
  return index;
}

ReturnClass class_of(const SymbolIndex& idx, const std::string& name) {
  const auto decls = idx.find_functions(name);
  EXPECT_EQ(decls.size(), 1u) << name;
  return decls.empty() ? ReturnClass::kOther : decls.front()->cls;
}

TEST(SymbolIndex, ClassifiesReturnTypesFromDeclarations) {
  const auto& idx = fixture_index();
  EXPECT_EQ(class_of(idx, "apply_fix"), ReturnClass::kErrorCode);
  EXPECT_EQ(class_of(idx, "parse_record"), ReturnClass::kBoolStatus);
  EXPECT_EQ(class_of(idx, "decode_blob"), ReturnClass::kOptional);
  EXPECT_EQ(class_of(idx, "plain_sum"), ReturnClass::kOther);
  EXPECT_EQ(class_of(idx, "log_note"), ReturnClass::kVoid);
  EXPECT_EQ(class_of(idx, "looks_ready"), ReturnClass::kBool);
  // The outermost type decides: containers of, and pointers or references
  // to, a status are not statuses.
  for (const char* name :
       {"code_set", "table3_codes", "rank_plan", "find_code"}) {
    EXPECT_EQ(class_of(idx, name), ReturnClass::kOther) << name;
    EXPECT_FALSE(idx.must_use(name)) << name;
  }
  EXPECT_EQ(class_of(idx, "decode_list"), ReturnClass::kOptional);
  EXPECT_EQ(class_of(idx, "qualified_fix"), ReturnClass::kErrorCode);
  // Access labels and trailing thread annotations do not hide a member.
  EXPECT_EQ(class_of(idx, "first_member"), ReturnClass::kOptional);
  EXPECT_EQ(class_of(idx, "locked"), ReturnClass::kOptional);
  EXPECT_EQ(class_of(idx, "nested_member"), ReturnClass::kOptional);
}

TEST(SymbolIndex, NodiscardAttributeMakesAnyReturnMustUse) {
  const auto& idx = fixture_index();
  const auto decls = idx.find_functions("tagged_token");
  ASSERT_EQ(decls.size(), 1u);
  EXPECT_TRUE(decls.front()->nodiscard);
  EXPECT_TRUE(idx.must_use("tagged_token"));
  // A leading annotation macro (`DFX_HOT_PATH [[nodiscard]] ...`, as in
  // util/codec.h) must not swallow the attribute into the return type.
  const auto hot = idx.find_functions("hot_decode");
  ASSERT_EQ(hot.size(), 1u);
  EXPECT_TRUE(hot.front()->nodiscard);
  EXPECT_EQ(hot.front()->return_type, "std :: optional < int >");
}

TEST(SymbolIndex, MustUseCoversStatusShapesAndNothingElse) {
  const auto& idx = fixture_index();
  EXPECT_TRUE(idx.must_use("apply_fix"));
  EXPECT_TRUE(idx.must_use("parse_record"));
  EXPECT_TRUE(idx.must_use("decode_blob"));
  EXPECT_FALSE(idx.must_use("plain_sum"));
  EXPECT_FALSE(idx.must_use("log_note"));
  EXPECT_FALSE(idx.must_use("looks_ready"));
  EXPECT_FALSE(idx.must_use("never_declared_anywhere"));
}

TEST(SymbolIndex, OutOfLineDefinitionJoinsTheForwardDeclaration) {
  // cross_a.h declares refresh_cache; cross_b.cpp defines it out of line
  // with a qualified name. Both land under the unqualified name.
  const auto& idx = fixture_index();
  const auto decls = idx.find_functions("refresh_cache");
  ASSERT_EQ(decls.size(), 2u);
  for (const auto* d : decls) EXPECT_EQ(d->cls, ReturnClass::kErrorCode);
  EXPECT_TRUE(idx.must_use("refresh_cache"));
}

TEST(SymbolIndex, NestedNamespacesAndForwardClassDeclsAreHandled) {
  const auto& idx = fixture_index();
  EXPECT_EQ(idx.find_functions("validate_entry").size(), 1u);
  // `class Cache;` must not be indexed as a function.
  EXPECT_TRUE(idx.find_functions("Cache").empty());
}

TEST(SymbolIndex, ConflictingDeclarationsDisableMustUse) {
  // A name declared once as ErrorCode and once as void (a collision the
  // unqualified index cannot tell apart) must go quiet, not wrong.
  SymbolIndex idx;
  const std::string src =
      "ErrorCode shared_name(int a);\n"
      "void shared_name(double b);\n";
  const auto tokens = dfx::lint::lex(src);
  idx.index_source("conflict.h", tokens);
  ASSERT_EQ(idx.find_functions("shared_name").size(), 2u);
  EXPECT_FALSE(idx.must_use("shared_name"));
}

TEST(SymbolIndex, LocalVariableInitializersDoNotPoisonTheIndex) {
  // `std::string s(3, 'x');` parses declaration-shaped, but a function body
  // holds statements, not declarations: nothing in it is indexed, while a
  // declaration after the body closes is.
  SymbolIndex idx;
  const std::string src =
      "void f(const std::set<ErrorCode>& codes) {\n"
      "  std::string s(3, 'x');\n"
      "  int t(0);\n"
      "  std::vector<ErrorCode> out(codes.begin(), codes.end());\n"
      "  std::optional<int> o(3);\n"
      "}\n"
      "ErrorCode after_body(int v);\n";
  idx.index_source("locals.cpp", dfx::lint::lex(src));
  EXPECT_FALSE(idx.must_use("s"));
  EXPECT_FALSE(idx.must_use("t"));
  for (const char* local : {"s", "t", "out", "o"}) {
    EXPECT_TRUE(idx.find_functions(local).empty()) << local;
  }
  EXPECT_TRUE(idx.must_use("after_body"));
}

// ---------------------------------------------------------------------------
// Ratchet: JSON round-trip and diff semantics
// ---------------------------------------------------------------------------

Violation make_violation(const std::string& file, std::size_t line,
                         const std::string& rule) {
  Violation v;
  v.file = file;
  v.line = line;
  v.rule = rule;
  v.message = "msg";
  v.severity = dfx::lint::severity_of(rule);
  v.excerpt = "excerpt();";
  return v;
}

TEST(Ratchet, FindingsSurviveAJsonRoundTrip) {
  const std::vector<Violation> findings = {
      make_violation("src/a.cpp", 10, "banned-atoi"),
      make_violation("src/b.cpp", 20, "raw-std-mutex"),
  };
  const std::string json = dfx::lint::findings_to_json(findings);
  std::string error;
  const auto parsed = dfx::lint::findings_from_json(json, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  ASSERT_EQ(parsed->size(), 2u);
  EXPECT_EQ((*parsed)[0], findings[0]);
  EXPECT_EQ((*parsed)[1], findings[1]);
  EXPECT_EQ((*parsed)[0].severity, "error");
  EXPECT_EQ((*parsed)[1].severity, "warning");
  EXPECT_EQ((*parsed)[0].excerpt, "excerpt();");
}

TEST(Ratchet, RejectsMalformedAndWrongSchemaDocuments) {
  std::string error;
  EXPECT_FALSE(dfx::lint::findings_from_json("{nope", &error).has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(
      dfx::lint::findings_from_json("{\"schema_version\":2,\"findings\":[]}")
          .has_value());
  EXPECT_FALSE(dfx::lint::findings_from_json("{\"schema_version\":1}")
                   .has_value());
  EXPECT_FALSE(
      dfx::lint::findings_from_json(
          "{\"schema_version\":1,\"findings\":[{\"rule\":\"\",\"file\":\"f\","
          "\"line\":1}]}")
          .has_value());
}

TEST(Ratchet, DiffReportsFreshAndStaleInBothDirections) {
  const auto a = make_violation("src/a.cpp", 1, "banned-atoi");
  const auto b = make_violation("src/b.cpp", 2, "banned-sprintf");
  const auto c = make_violation("src/c.cpp", 3, "banned-raw-new");
  const auto diff = dfx::lint::ratchet_diff({a, b}, {b, c});
  ASSERT_EQ(diff.fresh.size(), 1u);
  EXPECT_EQ(diff.fresh.front(), a);
  ASSERT_EQ(diff.stale.size(), 1u);
  EXPECT_EQ(diff.stale.front(), c);
  EXPECT_FALSE(diff.clean());
  EXPECT_TRUE(dfx::lint::ratchet_diff({a, b}, {a, b}).clean());
}

// ---------------------------------------------------------------------------
// Ratchet: end-to-end through the binary
// ---------------------------------------------------------------------------

class RatchetBinaryTest : public testing::Test {
 protected:
  void SetUp() override {
    // One directory per test case: ctest runs each TEST_F as its own
    // process, and a shared path would race under `ctest -j`.
    root_ = fs::path(testing::TempDir()) /
            (std::string("dfx_ratchet_") +
             testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(root_);
    fs::create_directories(root_ / "src");
    std::ofstream(root_ / "src" / "clean.cpp")
        << "int add(int a, int b) { return a + b; }\n";
    baseline_ = (root_ / "baseline.json").string();
    std::ofstream(baseline_)
        << "{\"schema_version\":1,\"tool\":\"dfixer_lint\",\"findings\":[]}\n";
  }

  int run(const std::string& extra = "") const {
    const std::string cmd = std::string(DFX_LINT_BIN) + " --root " +
                            root_.string() + " --baseline " + baseline_ +
                            extra + " > /dev/null 2>&1";
    const int status = std::system(cmd.c_str());
    EXPECT_NE(status, -1);
    return status;
  }

  fs::path root_;
  std::string baseline_;
};

TEST_F(RatchetBinaryTest, CleanTreeMatchesEmptyBaseline) {
  EXPECT_EQ(run(), 0);
}

TEST_F(RatchetBinaryTest, NewFindingFailsThenUpdateBaselineAcceptsIt) {
  std::ofstream(root_ / "src" / "probe.cpp")
      << "int f(const char* s) { return atoi(s); }\n";
  EXPECT_NE(run(), 0) << "a finding absent from the baseline must fail";
  EXPECT_EQ(run(" --update-baseline"), 0);
  EXPECT_EQ(run(), 0) << "after --update-baseline the same tree is clean";
  const std::string baseline = read_file(baseline_);
  EXPECT_NE(baseline.find("banned-atoi"), std::string::npos);
  EXPECT_NE(baseline.find("src/probe.cpp"), std::string::npos);
}

TEST_F(RatchetBinaryTest, StaleBaselineEntryFailsUntilRemoved) {
  std::ofstream(baseline_)
      << "{\"schema_version\":1,\"tool\":\"dfixer_lint\",\"findings\":["
      << "{\"rule\":\"banned-atoi\",\"file\":\"src/gone.cpp\",\"line\":3,"
      << "\"severity\":\"error\",\"excerpt\":\"atoi(s)\"}]}\n";
  EXPECT_NE(run(), 0) << "an already-fixed baseline entry must fail (the "
                         "ratchet only tightens)";
  std::ofstream(baseline_)
      << "{\"schema_version\":1,\"tool\":\"dfixer_lint\",\"findings\":[]}\n";
  EXPECT_EQ(run(), 0);
}

TEST_F(RatchetBinaryTest, MalformedBaselineIsAUsageError) {
  std::ofstream(baseline_) << "{ not json at all\n";
  const int status = run();
  EXPECT_NE(status, 0);
}

TEST_F(RatchetBinaryTest, JsonOutputParsesAndListsTheFindings) {
  std::ofstream(root_ / "src" / "probe.cpp")
      << "int f(const char* s) { return atoi(s); }\n";
  const fs::path out_path = root_ / "findings.json";
  const std::string cmd = std::string(DFX_LINT_BIN) + " --root " +
                          root_.string() + " --json > " + out_path.string() +
                          " 2>/dev/null";
  (void)std::system(cmd.c_str());
  std::string error;
  const auto parsed =
      dfx::lint::findings_from_json(read_file(out_path.string()), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  ASSERT_EQ(parsed->size(), 1u);
  EXPECT_EQ(parsed->front().rule, "banned-atoi");
  EXPECT_EQ(parsed->front().file, "src/probe.cpp");
  EXPECT_EQ(parsed->front().severity, "error");
  EXPECT_NE(parsed->front().excerpt.find("atoi"), std::string::npos);
}

}  // namespace
