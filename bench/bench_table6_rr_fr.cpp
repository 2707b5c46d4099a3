// Regenerates Table 6: ZReplicator Replication Rate and DFixer Fix Rate on
// the S1 (NZIC-only) and S2 subsets, running the full replicate → grok →
// fix → re-grok pipeline for every sampled snapshot spec.
#include <cstdio>

#include "bench_common.h"
#include "dfixer/autofix.h"
#include "util/strings.h"
#include "zreplicator/replicate.h"
#include "zreplicator/spec_corpus.h"

namespace {

struct SubsetStats {
  std::int64_t snapshots = 0;
  std::int64_t ge_nonempty = 0;     // GE != ∅
  std::int64_t replicated = 0;      // IE ⊆ GE
  std::int64_t fixed = 0;           // replicated && AE == ∅
  std::int64_t partial = 0;         // failure with GE ⊂ IE, GE != ∅
  std::int64_t nothing = 0;         // failure with GE == ∅

  double rr() const {
    return snapshots == 0 ? 0.0
                          : static_cast<double>(replicated) /
                                static_cast<double>(snapshots);
  }
  double fr() const {
    return replicated == 0 ? 0.0
                           : static_cast<double>(fixed) /
                                 static_cast<double>(replicated);
  }
};

/// What one spec's replicate → fix run contributes to the table.
struct SpecOutcome {
  bool generated = false;  // GE != ∅
  bool complete = false;   // IE ⊆ GE
  bool fixed = false;      // complete && AE == ∅
};

void print_row(const char* label, const SubsetStats& s, double paper_rr,
               double paper_fr) {
  std::printf(
      "  %-16s %9s   RR %6.2f%% (paper %6.2f%%)   FR %7.3f%% (paper "
      "%7.3f%%)\n",
      label, dfx::fmt_thousands(s.snapshots).c_str(), s.rr() * 100,
      paper_rr * 100, s.fr() * 100, paper_fr * 100);
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = dfx::bench::parse_args(argc, argv);
  dfx::bench::BenchRun run("table6_rr_fr", args);
  dfx::zreplicator::SpecCorpusOptions options;
  options.count = args.count;
  options.seed = args.seed;
  const auto specs = run.stage(
      "specs", [&] { return dfx::zreplicator::generate_eval_specs(options); });

  SubsetStats s1;
  SubsetStats s2;
  std::set<std::string> combinations;
  run.stage("pipeline", [&] {
    // Specs run in parallel, spec i on seed args.seed + i + 1; the stats
    // fold below walks the outcomes in spec order.
    const auto outcomes = dfx::parallel_map(
        dfx::ThreadPool::global(), specs.size(), 1, [&](std::size_t i) {
          const auto replication =
              dfx::zreplicator::replicate(specs[i].spec, args.seed + i + 1);
          SpecOutcome outcome;
          outcome.generated = !replication.generated.empty();
          outcome.complete = replication.complete;
          outcome.fixed = replication.complete &&
                          dfx::dfixer::auto_fix(*replication.sandbox).success;
          return outcome;
        });
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const auto& eval = specs[i];
      const SpecOutcome& outcome = outcomes[i];
      auto& stats = eval.s1 ? s1 : s2;
      stats.snapshots += 1;
      combinations.insert(
          dfx::zreplicator::combination_key(eval.spec.intended_errors));
      if (outcome.generated) stats.ge_nonempty += 1;
      if (!outcome.complete) {
        if (outcome.generated) {
          stats.partial += 1;
        } else {
          stats.nothing += 1;
        }
        continue;
      }
      stats.replicated += 1;
      if (outcome.fixed) stats.fixed += 1;
    }
  });

  std::printf("Table 6 — ZReplicator / DFixer performance (pipeline sample "
              "n=%zu, %zu unique error combinations)\n",
              specs.size(), combinations.size());
  std::printf("%s\n", std::string(86, '-').c_str());
  print_row("NZIC only (S1)", s1, 0.9881, 1.0);
  print_row("Remaining (S2)", s2, 0.7871, 0.9999);
  SubsetStats total;
  total.snapshots = s1.snapshots + s2.snapshots;
  total.replicated = s1.replicated + s2.replicated;
  total.fixed = s1.fixed + s2.fixed;
  print_row("Total", total, 0.9011, 0.9999);

  const std::int64_t failures = s2.partial + s2.nothing;
  if (failures > 0) {
    std::printf(
        "  S2 failure split: partial (GE subset of IE) %.2f%% (paper "
        "67.18%%), nothing %.2f%% (paper 32.82%%)\n",
        100.0 * static_cast<double>(s2.partial) /
            static_cast<double>(failures),
        100.0 * static_cast<double>(s2.nothing) /
            static_cast<double>(failures));
  }
  run.set_items(static_cast<std::int64_t>(specs.size()));
  char results[160];
  std::snprintf(results, sizeof results,
                "s1=%lld/%lld/%lld s2=%lld/%lld/%lld partial=%lld "
                "nothing=%lld",
                static_cast<long long>(s1.snapshots),
                static_cast<long long>(s1.replicated),
                static_cast<long long>(s1.fixed),
                static_cast<long long>(s2.snapshots),
                static_cast<long long>(s2.replicated),
                static_cast<long long>(s2.fixed),
                static_cast<long long>(s2.partial),
                static_cast<long long>(s2.nothing));
  run.checksum_text("results", results);
  return run.finish();
}
