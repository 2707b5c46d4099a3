// Rule engine for dfixer_lint, the repo's project-specific invariant
// checker. Since the token-engine rework, each file is read and lexed ONCE
// into a FileAnalysis shared by every rule pack; token-based rules walk the
// token stream (so statements spanning lines are seen whole), and the
// legacy line rules run over the comment/string-stripped lines. A line can
// opt out of one rule with a trailing
//   // dfx-lint: allow(<rule-id>): reason
// comment. The rule catalogue is documented in docs/STATIC_ANALYSIS.md.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "dfixer_lint/lexer.h"
#include "dfixer_lint/symbols.h"

namespace dfx::lint {

struct Violation {
  std::string file;
  std::size_t line = 0;  // 1-based
  std::string rule;      // kebab-case rule id
  std::string message;
  std::string severity;  // "error" | "warning" (see severity_of)
  std::string excerpt;   // trimmed source line the finding points at

  // Identity is (file, line, rule) — the ratchet key; message/excerpt are
  // presentation and may be reworded without invalidating baselines.
  bool operator==(const Violation& o) const {
    return file == o.file && line == o.line && rule == o.rule;
  }
};

struct Options {
  /// Cross-TU symbol index over src/ (see symbols.h). Null disables the
  /// rule that needs it: discarded-error-return's dead-store check, which
  /// asks whether a callee declared in another file is must-use.
  /// missing-nodiscard reads only the linted file's own declarations.
  const SymbolIndex* symbols = nullptr;
};

/// Everything the rule packs need from one file, computed exactly once.
/// `content` sits behind a stable pointer because `tokens` holds
/// string_views into it — moving a FileAnalysis must not invalidate them.
struct FileAnalysis {
  std::string path;
  std::unique_ptr<const std::string> content;  // original source, stable
  std::vector<std::string> lines;        // comments/strings blanked, split
  std::vector<std::string> raw_lines;    // original, split at '\n'
  std::vector<Token> tokens;             // views into *content
};

/// Read `content` once into the shared per-file representation.
FileAnalysis analyze_file(std::string path, std::string content);

/// Replace comment bodies and string/character literal contents with spaces,
/// preserving the line structure so rule hits keep their line numbers.
std::string strip_comments_and_strings(std::string_view src);

/// Severity class of a rule id ("error" for contract/memory-safety rules,
/// "warning" for style-adjacent ones). Unknown rules report "error".
const char* severity_of(std::string_view rule);

/// Files dfixer_lint sweeps under `root`: *.h/*.hpp/*.cpp beneath
/// src/, tools/, bench/, examples/ and tests/ — minus lint_fixtures (they
/// violate the rules on purpose). Sorted for deterministic reports.
std::vector<std::string> collect_lintable_files(const std::string& root);

/// Does `fa` carry a `// dfx-lint: allow(<rule>)` marker on `line_index`
/// (0-based) or the line directly above? Exposed for the interprocedural
/// pass (summaries.h), which reports findings outside the per-file Linter
/// but must honor the same suppression syntax.
bool line_suppressed(const FileAnalysis& fa, std::size_t line_index,
                     std::string_view rule);

/// Run every rule over one pre-analyzed file.
std::vector<Violation> lint_file(const FileAnalysis& fa,
                                 const Options& options);

/// Convenience overload: analyze + lint in one call (tests, single files).
std::vector<Violation> lint_file(const std::string& path,
                                 std::string_view content,
                                 const Options& options);

}  // namespace dfx::lint
