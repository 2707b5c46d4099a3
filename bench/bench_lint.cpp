// Benchmark: full-repo static analysis wall time for dfixer_lint.
//
// Measures the token-based engine end to end — discover files, read+lex
// each one once, build the cross-TU symbol index, run every rule over the
// shared token streams. The interprocedural stage times the layer on top —
// call graph, bottom-up summaries, the three cross-call rules — and
// asserts it stays within 2x of the per-file lint it extends (set
// DFX_LINT_NO_ASSERT=1 to skip on pathologically noisy machines).
//
// Emits BENCH_lint.json via the bench_common schema; the committed record
// lives in bench/records/.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "dfixer_lint/lint_core.h"
#include "dfixer_lint/summaries.h"
#include "dfixer_lint/symbols.h"

#ifndef DFX_REPO_ROOT
#define DFX_REPO_ROOT "."
#endif

namespace {

[[nodiscard]] std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return std::nullopt;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = dfx::bench::parse_args(argc, argv);
  dfx::bench::BenchRun run("lint", args);

  std::string root = DFX_REPO_ROOT;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--lint-root" && i + 1 < argc) {
      root = argv[i + 1];
    }
  }

  const auto files = run.stage("discover", [&] {
    return dfx::lint::collect_lintable_files(root);
  });
  if (files.empty()) {
    std::fprintf(stderr, "bench_lint: no lintable files under %s\n",
                 root.c_str());
    return 1;
  }

  // Every file is read and lexed exactly once; all rule packs share the
  // resulting token streams. Read + index + rules together are one full
  // per-file lint, the denominator of the interprocedural gate below.
  const auto lint_begin = std::chrono::steady_clock::now();
  const auto analyses = run.stage("read_and_lex", [&] {
    std::vector<dfx::lint::FileAnalysis> out;
    out.reserve(files.size());
    for (const auto& path : files) {
      if (auto content = read_file(path)) {
        out.push_back(dfx::lint::analyze_file(path, std::move(*content)));
      }
    }
    return out;
  });

  const auto index = run.stage("index_symbols", [&] {
    dfx::lint::SymbolIndex idx;
    for (const auto& fa : analyses) {
      if (fa.path.find("src/") != std::string::npos) {
        idx.index_source(fa.path, fa.tokens);
      }
    }
    return idx;
  });

  dfx::lint::Options options;
  options.symbols = &index;

  const auto findings = run.stage("rules", [&] {
    std::vector<dfx::lint::Violation> all;
    for (const auto& fa : analyses) {
      auto file_findings = dfx::lint::lint_file(fa, options);
      all.insert(all.end(), file_findings.begin(), file_findings.end());
    }
    return all;
  });

  const double lint_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    lint_begin)
          .count();

  // Marginal cost of the interprocedural layer: build the call graph,
  // compute every summary (including the differential taint runs) and run
  // the three cross-call rules over the src/ set — the exact work
  // `dfixer_lint --root .` adds on top of the per-file lint. It reuses the
  // analyses and the index built above.
  double interproc_seconds = 0.0;
  run.stage("interprocedural", [&] {
    std::vector<const dfx::lint::FileAnalysis*> ptrs;
    for (const auto& fa : analyses) {
      if (fa.path.find("src/") != std::string::npos) ptrs.push_back(&fa);
    }
    const auto begin = std::chrono::steady_clock::now();
    const auto pa = dfx::lint::analyze_program(std::move(ptrs), &index);
    const auto interproc_findings = dfx::lint::lint_interprocedural(pa);
    interproc_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - begin)
            .count();
    dfx::metrics::Registry::global()
        .counter("lint.bench.callgraph_nodes")
        .add(static_cast<std::int64_t>(pa.graph.nodes().size()));
    dfx::metrics::Registry::global()
        .counter("lint.bench.lock_edges")
        .add(static_cast<std::int64_t>(pa.lock_edges.size()));
    dfx::metrics::Registry::global()
        .counter("lint.bench.interproc_findings")
        .add(static_cast<std::int64_t>(interproc_findings.size()));
  });

  auto& registry = dfx::metrics::Registry::global();
  registry.counter("lint.files").add(static_cast<std::int64_t>(files.size()));
  registry.counter("lint.findings.total")
      .add(static_cast<std::int64_t>(findings.size()));
  for (const auto& v : findings) {
    registry.counter("lint.findings." + v.rule).add(1);
  }
  registry.counter("lint.symbols.functions")
      .add(static_cast<std::int64_t>(index.functions().size()));

  std::string rendered;
  for (const auto& v : findings) {
    rendered += v.file + ":" + std::to_string(v.line) + " " + v.rule + "\n";
  }
  run.checksum_text("findings", rendered);
  run.set_items(static_cast<std::int64_t>(files.size()));

  std::printf("bench_lint: %zu files, %zu findings, %zu functions indexed\n",
              files.size(), findings.size(), index.functions().size());
  std::printf("bench_lint: interprocedural pass %.3fs vs per-file lint "
              "%.3fs (ratio %.2f, limit 2.00)\n",
              interproc_seconds, lint_seconds,
              lint_seconds > 0.0 ? interproc_seconds / lint_seconds : 0.0);

  if (std::getenv("DFX_LINT_NO_ASSERT") == nullptr &&
      interproc_seconds > 2.0 * lint_seconds) {
    std::fprintf(stderr,
                 "bench_lint: FAIL: interprocedural pass (%.3fs) exceeds 2x "
                 "the per-file lint (%.3fs)\n",
                 interproc_seconds, lint_seconds);
    return 1;
  }

  return run.finish();
}
