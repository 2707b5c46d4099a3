// Regenerates Table 7: the distribution of DFixer instructions per
// remediation iteration over the S2 subset.
#include <cstdio>
#include <map>

#include "bench_common.h"
#include "dfixer/autofix.h"
#include "util/strings.h"
#include "zreplicator/replicate.h"
#include "zreplicator/spec_corpus.h"

int main(int argc, char** argv) {
  const auto args = dfx::bench::parse_args(argc, argv);
  dfx::bench::BenchRun run("table7_instructions", args);
  dfx::zreplicator::SpecCorpusOptions options;
  options.count = args.count;
  options.seed = args.seed;
  const auto specs = run.stage(
      "specs", [&] { return dfx::zreplicator::generate_eval_specs(options); });

  constexpr int kMaxIterations = 8;
  std::map<dfx::zone::InstructionKind, std::array<std::int64_t, kMaxIterations>>
      counts;
  std::array<std::int64_t, kMaxIterations> totals{};
  int max_seen = 0;
  run.stage("pipeline", [&] {
    // Table 7 covers the S2 subset; its j-th spec runs on seed
    // args.seed + j + 1. Specs run in parallel, and the fold below walks
    // their fix iterations in spec order.
    std::vector<const dfx::zreplicator::EvalSpec*> s2;
    for (const auto& eval : specs) {
      if (!eval.s1) s2.push_back(&eval);
    }
    // One log per fix iteration, none when replication failed.
    const auto logs = dfx::parallel_map(
        dfx::ThreadPool::global(), s2.size(), 1,
        [&](std::size_t j) -> std::vector<dfx::dfixer::IterationLog> {
          const auto replication =
              dfx::zreplicator::replicate(s2[j]->spec, args.seed + j + 1);
          if (!replication.complete) return {};
          return dfx::dfixer::auto_fix(*replication.sandbox).iterations;
        });
    for (const auto& iterations : logs) {
      for (const auto& iteration : iterations) {
        const int idx = iteration.iteration - 1;
        if (idx < 0 || idx >= kMaxIterations) continue;
        max_seen = std::max(max_seen, iteration.iteration);
        for (const auto& instruction : iteration.plan.instructions) {
          counts[instruction.kind][static_cast<std::size_t>(idx)] += 1;
          totals[static_cast<std::size_t>(idx)] += 1;
        }
      }
    }
  });

  std::printf("Table 7 — DFixer instructions per iteration (S2 subset; "
              "paper iteration-1 shares in brackets)\n");
  std::printf("%s\n", std::string(96, '-').c_str());
  const std::map<dfx::zone::InstructionKind, double> paper_iter1 = {
      {dfx::zone::InstructionKind::kSignZone, 0.4167},
      {dfx::zone::InstructionKind::kRemoveIncorrectDs, 0.3087},
      {dfx::zone::InstructionKind::kUploadDs, 0.0939},
      {dfx::zone::InstructionKind::kGenerateKsk, 0.0878},
      {dfx::zone::InstructionKind::kSyncAuthServers, 0.0761},
      {dfx::zone::InstructionKind::kGenerateZsk, 0.0100},
      {dfx::zone::InstructionKind::kReduceTtl, 0.0063},
      {dfx::zone::InstructionKind::kRemoveRevokedKey, 0.0005},
  };
  for (const auto& [kind, per_iter] : counts) {
    std::printf("  %-42s", dfx::zone::instruction_kind_name(kind).c_str());
    for (int i = 0; i < std::max(max_seen, 4); ++i) {
      const auto idx = static_cast<std::size_t>(i);
      const double share =
          totals[idx] == 0 ? 0.0
                           : static_cast<double>(per_iter[idx]) /
                                 static_cast<double>(totals[idx]);
      std::printf("  %7s (%5.1f%%)", dfx::fmt_thousands(per_iter[idx]).c_str(),
                  share * 100);
    }
    const auto paper = paper_iter1.find(kind);
    if (paper != paper_iter1.end()) {
      std::printf("   [paper iter1: %5.2f%%]", paper->second * 100);
    }
    std::printf("\n");
  }
  std::printf("  max iterations observed: %d (paper: never more than 4)\n",
              max_seen);
  run.set_items(static_cast<std::int64_t>(specs.size()));
  char results[96];
  std::snprintf(results, sizeof results,
                "kinds=%zu total_iter1=%lld max_seen=%d", counts.size(),
                static_cast<long long>(totals[0]), max_seen);
  run.checksum_text("results", results);
  return run.finish();
}
