// dfixer_lint: scan the repo's own sources for project-specific invariants.
//
//   dfixer_lint --root <repo_root>          lint src/, tools/, bench/,
//                                           examples/ and tests/ under root
//                                           (tests/lint_fixtures excluded —
//                                           fixtures violate on purpose)
//   dfixer_lint [--root <repo_root>] FILES  lint exactly FILES
//
// Flags:
//   --json                 print findings as ratchet-schema JSON on stdout
//   --baseline FILE        diff findings against FILE (the ratchet): fresh
//                          findings AND stale baseline entries both fail
//   --update-baseline      rewrite the baseline file with current findings
//   --callgraph-dump       print the resolved call graph (with the external
//                          inventory) and exit
//
// Unknown dash-prefixed arguments are an error (exit 2), not file names —
// a typo'd flag must not be silently linted as a path.
//
// Exit code 0: clean (or ratchet matches). 1: violations / ratchet diff.
// 2: usage or I/O error (including a malformed baseline).
//
// Every file is read and lexed exactly once into a FileAnalysis shared by
// all rule packs; the cross-TU symbol index is built from src/ before any
// rule runs, so discarded-error-return's dead-store check sees must-use
// declarations from other translation units. Bare discarded calls are the
// compiler's job (-Werror=unused-result on the [[nodiscard]] declarations
// that missing-nodiscard enforces). The interprocedural pass always runs,
// over the src/ analyses (product code only — test scaffolding such as the
// TSan lock-order probe inverts lock orders on purpose) plus any explicitly
// listed files, so fixture runs exercise the same program analysis a full
// sweep does.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "dfixer_lint/lint_core.h"
#include "dfixer_lint/ratchet.h"
#include "dfixer_lint/summaries.h"

namespace fs = std::filesystem;

namespace {

bool read_file(const fs::path& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

/// Report paths relative to the root so findings (and the committed
/// baseline) are stable across checkouts.
std::string display_path(const std::string& file, const fs::path& root) {
  std::error_code ec;
  const fs::path rel = fs::proximate(file, root, ec);
  if (ec || rel.empty()) return file;
  const std::string s = rel.generic_string();
  return s.starts_with("..") ? file : s;
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  std::string baseline_path;
  bool emit_json = false;
  bool update_baseline = false;
  bool dump_callgraph = false;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root") {
      if (i + 1 >= argc) {
        std::cerr << "dfixer_lint: --root needs an argument\n";
        return 2;
      }
      root = argv[++i];
    } else if (arg == "--baseline") {
      if (i + 1 >= argc) {
        std::cerr << "dfixer_lint: --baseline needs an argument\n";
        return 2;
      }
      baseline_path = argv[++i];
    } else if (arg == "--json") {
      emit_json = true;
    } else if (arg == "--update-baseline") {
      update_baseline = true;
    } else if (arg == "--callgraph-dump") {
      dump_callgraph = true;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: dfixer_lint [--root DIR] [--json] "
                   "[--baseline FILE] [--update-baseline] "
                   "[--callgraph-dump] [files...]\n";
      return 0;
    } else if (arg.starts_with("-")) {
      std::cerr << "dfixer_lint: unknown flag " << arg
                << " (see --help)\n";
      return 2;
    } else {
      files.push_back(arg);
    }
  }
  if (update_baseline && baseline_path.empty()) {
    std::cerr << "dfixer_lint: --update-baseline needs --baseline FILE\n";
    return 2;
  }
  const bool explicit_files = !files.empty();

  if (files.empty()) {
    files = dfx::lint::collect_lintable_files(root);
    if (files.empty()) {
      std::cerr << "dfixer_lint: nothing to lint under " << root << "\n";
      return 2;
    }
  }
  std::sort(files.begin(), files.end());

  // Read + lex every requested file exactly once; the analyses are shared
  // by the symbol-index pass and every rule pack.
  std::vector<dfx::lint::FileAnalysis> analyses;
  analyses.reserve(files.size());
  for (const auto& file : files) {
    std::string content;
    if (!read_file(file, content)) {
      std::cerr << "dfixer_lint: cannot read " << file << "\n";
      return 2;
    }
    analyses.push_back(
        dfx::lint::analyze_file(display_path(file, root), std::move(content)));
  }

  // Cross-TU symbol index over all of src/ — even when linting an explicit
  // file list, so single-file runs resolve the same symbols a full sweep
  // does. Files already analyzed above are reused, not re-lexed; src files
  // read only for the index are kept (extra_src) because the
  // interprocedural pass needs their token streams too.
  dfx::lint::SymbolIndex index;
  std::vector<dfx::lint::FileAnalysis> extra_src;
  {
    std::vector<std::string> src_files;
    for (const auto& fa : analyses) {
      if (fa.path.find("src/") != std::string::npos) {
        index.index_source(fa.path, fa.tokens);
        src_files.push_back(fa.path);
      }
    }
    for (const auto& file : dfx::lint::collect_lintable_files(root)) {
      if (file.find("src/") == std::string::npos) continue;
      const std::string shown = display_path(file, root);
      if (std::find(src_files.begin(), src_files.end(), shown) !=
          src_files.end()) {
        continue;
      }
      std::string content;
      if (!read_file(file, content)) continue;
      dfx::lint::FileAnalysis fa = dfx::lint::analyze_file(shown, std::move(content));
      index.index_source(fa.path, fa.tokens);
      extra_src.push_back(std::move(fa));
    }
  }

  dfx::lint::Options options;
  options.symbols = &index;

  // Interprocedural pass: call graph + summaries over the product code
  // (src/ analyses) plus any explicitly listed files, then the three
  // whole-program rules.
  std::vector<const dfx::lint::FileAnalysis*> program;
  for (const auto& fa : analyses) {
    if (explicit_files || fa.path.find("src/") != std::string::npos) {
      program.push_back(&fa);
    }
  }
  for (const auto& fa : extra_src) program.push_back(&fa);
  const dfx::lint::ProgramAnalysis pa =
      dfx::lint::analyze_program(std::move(program), &index);
  if (dump_callgraph) {
    std::cout << pa.graph.dump();
    return 0;
  }
  std::vector<dfx::lint::Violation> findings =
      dfx::lint::lint_interprocedural(pa);

  for (const auto& fa : analyses) {
    auto violations = dfx::lint::lint_file(fa, options);
    findings.insert(findings.end(),
                    std::make_move_iterator(violations.begin()),
                    std::make_move_iterator(violations.end()));
  }
  std::sort(findings.begin(), findings.end(),
            [](const dfx::lint::Violation& a, const dfx::lint::Violation& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });

  if (update_baseline) {
    std::ofstream out(baseline_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      std::cerr << "dfixer_lint: cannot write " << baseline_path << "\n";
      return 2;
    }
    out << dfx::lint::findings_to_json(findings);
    std::cerr << "dfixer_lint: baseline updated (" << findings.size()
              << " finding(s)) — review before committing\n";
    return 0;
  }

  if (emit_json) {
    std::cout << dfx::lint::findings_to_json(findings);
  } else {
    for (const auto& v : findings) {
      std::cout << v.file << ":" << v.line << ": [" << v.rule << "] "
                << v.message << "\n";
    }
  }
  auto& diag = emit_json ? std::cerr : std::cout;

  if (!baseline_path.empty()) {
    std::string text;
    if (!read_file(baseline_path, text)) {
      std::cerr << "dfixer_lint: cannot read baseline " << baseline_path
                << "\n";
      return 2;
    }
    std::string error;
    const auto baseline = dfx::lint::findings_from_json(text, &error);
    if (!baseline) {
      std::cerr << "dfixer_lint: malformed baseline " << baseline_path << ": "
                << error << "\n";
      return 2;
    }
    const auto diff = dfx::lint::ratchet_diff(findings, *baseline);
    for (const auto& v : diff.fresh) {
      diag << "dfixer_lint: new finding: " << v.file << ":" << v.line << " ["
           << v.rule << "] " << v.message << "\n";
    }
    for (const auto& v : diff.stale) {
      diag << "dfixer_lint: stale baseline entry (fixed? remove it): "
           << v.file << ":" << v.line << " [" << v.rule << "]\n";
    }
    if (!diff.clean()) {
      diag << "dfixer_lint: ratchet mismatch — " << diff.fresh.size()
           << " new, " << diff.stale.size() << " stale (baseline "
           << baseline_path << ")\n";
      return 1;
    }
    diag << "dfixer_lint: ratchet clean (" << findings.size()
         << " baselined finding(s), " << files.size() << " files)\n";
    return 0;
  }

  if (!findings.empty()) {
    diag << "dfixer_lint: " << findings.size() << " violation(s) in "
         << files.size() << " file(s)\n";
    return 1;
  }
  diag << "dfixer_lint: clean (" << files.size() << " files)\n";
  return 0;
}
