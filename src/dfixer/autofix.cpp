#include "dfixer/autofix.h"

#include "util/metrics.h"

namespace dfx::dfixer {

FixReport auto_fix(CommandHost& host, int max_iterations) {
  return auto_fix_with(host, &resolve, max_iterations);
}

FixReport auto_fix_with(CommandHost& host, ResolverFn resolver,
                        int max_iterations) {
  static auto& iter_count =
      metrics::Registry::global().counter("dfixer.iterations");
  static auto& run_count = metrics::Registry::global().counter("dfixer.runs");
  run_count.add(1);
  FixReport report;
  analyzer::Snapshot snapshot = host.analyze();
  for (int iter = 1; iter <= max_iterations; ++iter) {
    if (snapshot.errors.empty()) break;
    iter_count.add(1);
    RemediationPlan plan = resolver(snapshot);
    if (plan.empty()) {
      // Errors remain but none are in the target zone's remit.
      report.blocked_on_ancestor = true;
      break;
    }
    IterationLog log;
    log.iteration = iter;
    log.errors_before = snapshot.errors;
    log.plan = plan;
    for (const auto& command : plan.commands()) {
      if (!host.apply(command)) {
        log.all_commands_applied = false;
        break;
      }
    }
    const bool applied = log.all_commands_applied;
    report.iterations.push_back(std::move(log));
    if (!applied) break;
    snapshot = host.analyze();
  }
  report.final_snapshot = snapshot;
  report.success = snapshot.errors.empty();
  return report;
}

std::string suggest(CommandHost& host) {
  const analyzer::Snapshot snapshot = host.analyze();
  if (snapshot.errors.empty()) {
    return "No DNSSEC errors detected; nothing to fix.\n";
  }
  const RemediationPlan plan = resolve(snapshot);
  if (plan.empty()) {
    return "Errors detected, but none are fixable from the target zone "
           "(check the ancestor zones).\n";
  }
  return plan.render();
}

}  // namespace dfx::dfixer
