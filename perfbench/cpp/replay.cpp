// Workload "replay": the paper's Table 6/7 evaluation. For each spec of
// zreplicator::generate_eval_specs(seed): replicate() the snapshot in a
// sandbox and, when replication is complete, let dfixer::auto_fix() repair
// it (replicate -> probe -> grok -> DResolver -> apply -> re-grok).
//
// Untraced run:
//   setup   generate_eval_specs, once up front and again before every
//           round; the median is setup_s.
//   gate    the first specs at 1 and at kThreads threads: equal results.
//   rounds  kRounds slices of equal spec counts, each run on one thread
//           (a quarter on each CPU in turn) and then on kThreads threads
//           sharing a work queue. ops_per_s
//           and ops_per_s_mt are specs over the pass's total time; the
//           latency percentiles are exact over every one-thread spec. Both
//           passes must agree spec for spec.
//   RR/FR over all specs must be within the paper's Table 6 tolerance.
//
// Traced run: the same pipeline with spans around every call into
// zreplicator, analyzer and dfixer (a CommandHost wrapper stands between
// auto_fix and the sandbox), plus a crypto calibration at the key mix the
// replay produced, and the RR/FR shape check on a second seed.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <exception>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "analyzer/grok.h"
#include "analyzer/probe.h"
#include "bench.h"
#include "crypto/algorithm.h"
#include "dfixer/autofix.h"
#include "trace.h"
#include "util/rng.h"
#include "zreplicator/replicate.h"
#include "zreplicator/spec_corpus.h"

namespace perfbench {
namespace {

using dfx::zreplicator::EvalSpec;

constexpr int kSpecsPerSecond = 50;   // untraced run: specs per --seconds
constexpr int kTracedPerSecond = 20;  // traced run: specs per --seconds
constexpr int kRounds = 5;
constexpr int kSetupRepsPerRound = 3;
constexpr std::size_t kGateSpecs = 24;
// Table 6 totals (paper): replication rate and fix rate.
constexpr double kPaperRr = 0.9011;
constexpr double kPaperFr = 0.9999;

struct SpecResult {
  bool complete = false;
  bool fixed = false;
  bool blocked = false;
  bool failed = false;  // exception, or replicated but neither fixed nor
                        // blocked on an ancestor
  std::int64_t iterations = 0;
  std::int64_t commands = 0;
  std::uint64_t digest = kFoldSeed;
  // Traced run only.
  std::int64_t keys = 0;
  std::int64_t rrsigs = 0;
  std::int64_t snapshots = 0;
  std::int64_t snapshot_errors = 0;
  std::vector<std::pair<dfx::crypto::DnssecAlgorithm, std::size_t>> key_mix;
};

std::uint64_t fold_text(std::uint64_t hash, const std::string& text) {
  for (const char c : text) hash = fold(hash, static_cast<std::uint8_t>(c));
  return hash;
}

std::uint64_t spec_seed(std::uint64_t seed, std::size_t index) {
  return seed * 1'000'003ULL + index + 1;
}

/// Stands between auto_fix and the sandbox to time each call into the
/// layers below. analyze() is Sandbox::analyze() split into its two
/// steps; the results digest proves the traced path fixes identically.
class TracingHost : public dfx::dfixer::CommandHost {
 public:
  explicit TracingHost(dfx::zreplicator::Sandbox& sandbox)
      : sandbox_(sandbox) {}

  bool apply(const dfx::zone::BindCommand& command) override {
    using dfx::zone::CommandKind;
    const char* name = command.kind == CommandKind::kDnssecKeygen
                           ? "zreplicator.apply.keygen"
                       : command.kind == CommandKind::kDnssecSignzone
                           ? "zreplicator.apply.signzone"
                           : "zreplicator.apply.other";
    trace::Scope span(name);
    return sandbox_.apply(command);
  }

  dfx::analyzer::Snapshot analyze() override {
    dfx::analyzer::ProbeData data;
    {
      trace::Scope span("analyzer.probe");
      data = dfx::analyzer::probe(sandbox_.farm(), sandbox_.chain(),
                                  sandbox_.child_apex(),
                                  sandbox_.clock().now());
    }
    dfx::analyzer::Snapshot snapshot;
    {
      trace::Scope span("analyzer.grok");
      snapshot = dfx::analyzer::grok(data);
    }
    snapshots += 1;
    snapshot_errors += static_cast<std::int64_t>(snapshot.errors.size());
    return snapshot;
  }

  std::int64_t snapshots = 0;
  std::int64_t snapshot_errors = 0;

 private:
  dfx::zreplicator::Sandbox& sandbox_;
};

dfx::dfixer::RemediationPlan traced_resolve(
    const dfx::analyzer::Snapshot& snapshot) {
  trace::Scope span("dfixer.resolve");
  return dfx::dfixer::resolve(snapshot);
}

void count_zone_work(const dfx::zreplicator::Sandbox& sandbox,
                     SpecResult& result) {
  for (const auto& apex : sandbox.chain()) {
    const auto* managed = sandbox.find_managed(apex);
    if (managed == nullptr) continue;
    for (const auto& key : managed->keys.keys()) {
      result.keys += 1;
      result.key_mix.emplace_back(key.algorithm(), key.nominal_bits());
    }
    managed->signed_zone.for_each_rrset([&](const dfx::dns::RRset& rrset) {
      if (rrset.type() == dfx::dns::RRType::kRRSIG) {
        result.rrsigs += static_cast<std::int64_t>(rrset.size());
      }
    });
  }
}

SpecResult run_spec(const EvalSpec& eval, std::uint64_t seed, bool traced) {
  SpecResult r;
  try {
    trace::Scope op_span("replay.spec");
    dfx::zreplicator::ReplicationResult replication;
    {
      trace::Scope span("zreplicator.replicate");
      replication = dfx::zreplicator::replicate(eval.spec, seed);
    }
    r.complete = replication.complete;
    r.digest = fold(r.digest, r.complete ? 1 : 0);
    for (const auto code : replication.generated) {
      r.digest = fold(r.digest, static_cast<std::uint64_t>(code));
    }
    if (r.complete) {
      dfx::dfixer::FixReport report;
      if (traced) {
        TracingHost host(*replication.sandbox);
        {
          trace::Scope span("dfixer.auto_fix");
          report = dfx::dfixer::auto_fix_with(host, &traced_resolve);
        }
        r.snapshots = host.snapshots;
        r.snapshot_errors = host.snapshot_errors;
      } else {
        report = dfx::dfixer::auto_fix(*replication.sandbox);
      }
      r.fixed = report.success;
      r.blocked = report.blocked_on_ancestor;
      r.failed = !r.fixed && !r.blocked;
      r.iterations = static_cast<std::int64_t>(report.iterations.size());
      r.digest = fold(r.digest, (r.fixed ? 1 : 0) | (r.blocked ? 2 : 0));
      for (const auto& iteration : report.iterations) {
        r.digest = fold_text(r.digest, iteration.plan.root_cause);
        for (const auto& command : iteration.plan.commands()) {
          r.commands += 1;
          r.digest = fold_text(
              fold(r.digest, static_cast<std::uint64_t>(command.kind)),
              command.render());
        }
      }
      for (const auto& error : report.final_snapshot.errors) {
        r.digest = fold(r.digest, static_cast<std::uint64_t>(error.code));
      }
    }
    if (traced && replication.sandbox) {
      count_zone_work(*replication.sandbox, r);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: replay spec failed: %s\n", e.what());
    r.failed = true;
  }
  return r;
}

/// The results of the rounds one pass is made of.
struct Pass {
  explicit Pass(std::size_t count) : results(count) {}
  std::vector<SpecResult> results;
  std::vector<double> latencies_us;  // one-thread passes only
  double seconds = 0.0;       // one thread: its CPU time; several: wall time
  double wall_seconds = 0.0;
};

/// Run specs[first, last) as one round on `threads` threads sharing a work
/// queue (pinned from CPU `cpu` on), into `pass`.
void run_round(const std::vector<EvalSpec>& specs, std::size_t first,
               std::size_t last, std::uint64_t seed, unsigned threads,
               unsigned cpu, bool traced, Pass& pass) {
  std::atomic<std::size_t> next{first};
  std::int64_t cpu_ns = 0;
  const double wall = run_threads(
      threads,
      [&](unsigned) {
        const std::int64_t cpu_begin = thread_cpu_ns();
        for (std::size_t i = next++; i < last; i = next++) {
          trace::set_op(i + 1);
          const std::int64_t t0 = threads == 1 ? thread_cpu_ns() : 0;
          pass.results[i] = run_spec(specs[i], spec_seed(seed, i), traced);
          if (threads == 1) {
            pass.latencies_us.push_back(
                static_cast<double>(thread_cpu_ns() - t0) / 1e3);
          }
        }
        if (threads == 1) cpu_ns = thread_cpu_ns() - cpu_begin;
      },
      cpu);
  pass.seconds += threads == 1 ? static_cast<double>(cpu_ns) / 1e9 : wall;
  pass.wall_seconds += wall;
}

/// Bounds of round `round` of `rounds` equal rounds over `count` specs.
std::pair<std::size_t, std::size_t> round_range(std::size_t count, int rounds,
                                                int round) {
  const std::size_t per_round = count / static_cast<std::size_t>(rounds);
  const std::size_t first = per_round * static_cast<std::size_t>(round);
  return {first, round + 1 == rounds ? count : first + per_round};
}

std::int64_t count_failed(const std::vector<SpecResult>& results) {
  return std::count_if(results.begin(), results.end(),
                       [](const SpecResult& r) { return r.failed; });
}

/// Compare two passes over the same specs, spec by spec.
void check_same(const std::vector<SpecResult>& a,
                const std::vector<SpecResult>& b, const char* what,
                Report& report) {
  for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    if (a[i].digest != b[i].digest) {
      report.fail(std::string(what) + ": results differ at spec " +
                  std::to_string(i));
      return;
    }
  }
}

struct Rates {
  double rr = 0.0;
  double fr = 0.0;
};

/// Table 6 RR/FR over `results`, checked against the paper's totals with a
/// tolerance of 2 points plus four binomial standard errors.
Rates check_rates(const std::vector<SpecResult>& results, const char* what,
                  Report& report) {
  std::int64_t replicated = 0;
  std::int64_t fixed = 0;
  for (const SpecResult& r : results) {
    replicated += r.complete ? 1 : 0;
    fixed += r.fixed ? 1 : 0;
  }
  const double n = static_cast<double>(results.size());
  Rates rates;
  rates.rr = n == 0 ? 0.0 : static_cast<double>(replicated) / n;
  rates.fr = replicated == 0 ? 0.0
                             : static_cast<double>(fixed) /
                                   static_cast<double>(replicated);
  const double rr_tol = 0.02 + 4.0 * std::sqrt(kPaperRr * (1 - kPaperRr) / n);
  const double fr_tol = 0.01;
  std::printf("%s: RR %.4f (paper %.4f +/- %.4f)  FR %.4f (paper %.4f, "
              "-%.2f)\n",
              what, rates.rr, kPaperRr, rr_tol, rates.fr, kPaperFr, fr_tol);
  if (std::fabs(rates.rr - kPaperRr) > rr_tol) {
    report.fail(std::string(what) + ": replication rate " +
                std::to_string(rates.rr) + " outside Table 6 tolerance");
  }
  if (rates.fr < kPaperFr - fr_tol) {
    report.fail(std::string(what) + ": fix rate " + std::to_string(rates.fr) +
                " outside Table 6 tolerance");
  }
  return rates;
}

bool same_specs(const std::vector<EvalSpec>& a,
                const std::vector<EvalSpec>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].s1 != b[i].s1 ||
        a[i].spec.intended_errors != b[i].spec.intended_errors) {
      return false;
    }
  }
  return true;
}

std::vector<EvalSpec> make_specs(std::uint64_t seed, std::size_t count) {
  dfx::zreplicator::SpecCorpusOptions options;
  options.count = count;
  options.seed = seed;
  return dfx::zreplicator::generate_eval_specs(options);
}

/// Mean cost in microseconds of generate_key / sign_message /
/// verify_message, weighted by how often each (algorithm, bits) pair
/// occurred in the replay's key stores.
void calibrate_crypto(
    const std::map<std::pair<dfx::crypto::DnssecAlgorithm, std::size_t>,
                   std::int64_t>& mix,
    std::uint64_t seed, Report& report) {
  constexpr int kKeygenReps = 3;
  constexpr int kSignReps = 20;
  dfx::Rng rng(seed ^ 0x5EED'C0DEULL);
  std::vector<std::uint8_t> message(128);
  for (std::size_t i = 0; i < message.size(); ++i) {
    message[i] = static_cast<std::uint8_t>(i * 31 + 7);
  }
  double keygen = 0.0, sign = 0.0, verify = 0.0, weight = 0.0;
  for (const auto& [key, count] : mix) {
    const auto [algorithm, bits] = key;
    double keygen_ns = 0.0, sign_ns = 0.0, verify_ns = 0.0;
    dfx::crypto::KeyPair pair;
    for (int i = 0; i < kKeygenReps; ++i) {
      const std::int64_t t0 = trace::now_ns();
      pair = dfx::crypto::generate_key(rng, algorithm, bits);
      keygen_ns += static_cast<double>(trace::now_ns() - t0);
    }
    dfx::Bytes signature;
    for (int i = 0; i < kSignReps; ++i) {
      const std::int64_t t0 = trace::now_ns();
      signature = dfx::crypto::sign_message(pair, message);
      sign_ns += static_cast<double>(trace::now_ns() - t0);
    }
    for (int i = 0; i < kSignReps; ++i) {
      const std::int64_t t0 = trace::now_ns();
      const bool ok = dfx::crypto::verify_message(
          algorithm, pair.public_key, message, signature);
      verify_ns += static_cast<double>(trace::now_ns() - t0);
      if (!ok) report.fail("crypto calibration: signature did not verify");
    }
    const double w = static_cast<double>(count);
    keygen += w * keygen_ns / kKeygenReps;
    sign += w * sign_ns / kSignReps;
    verify += w * verify_ns / kSignReps;
    weight += w;
  }
  if (weight == 0) return;
  report.metric("crypto.keygen_us", keygen / weight / 1e3);
  report.metric("crypto.sign_us", sign / weight / 1e3);
  report.metric("crypto.verify_us", verify / weight / 1e3);
}

void run_untraced(const Options& options, Report& report) {
  const std::size_t count =
      static_cast<std::size_t>(kSpecsPerSecond) * options.seconds;

  SetupTimer setup;
  const auto build = [&] { return make_specs(options.seed, count); };
  const std::vector<EvalSpec> specs = setup.time(build);
  if (specs.size() != count) {
    report.fail("generate_eval_specs returned " +
                std::to_string(specs.size()) + " specs");
    return;
  }

  // Gate: results do not depend on the thread count.
  const std::size_t gate = std::min(kGateSpecs, count);
  Pass gate_1t(gate), gate_mt(gate);
  run_round(specs, 0, gate, options.seed, 1, 0, false, gate_1t);
  run_round(specs, 0, gate, options.seed, kThreads, 0, false, gate_mt);
  report.pass("replay/gate-1t", static_cast<std::int64_t>(gate),
              count_failed(gate_1t.results));
  report.pass("replay/gate-mt", static_cast<std::int64_t>(gate),
              count_failed(gate_mt.results));
  check_same(gate_1t.results, gate_mt.results, "gate 1t vs mt", report);
  if (!report.correct()) return;

  // One- and multi-thread rounds alternate, so that both passes sample the
  // whole run. Each round's one-thread share is split over the CPUs in
  // turn, so that it runs on every CPU for the same number of specs, as
  // the multi-thread pass does.
  Pass one(count), many(count);
  for (int r = 0; r < kRounds; ++r) {
    for (int rep = 0; rep < kSetupRepsPerRound; ++rep) {
      if (!same_specs(setup.time(build), specs)) {
        report.fail("generate_eval_specs is not deterministic");
      }
    }
    const auto [first, last] = round_range(count, kRounds, r);
    for (unsigned cpu = 0; cpu < kThreads; ++cpu) {
      const auto [sub_first, sub_last] =
          round_range(last - first, static_cast<int>(kThreads),
                      static_cast<int>(cpu));
      run_round(specs, first + sub_first, first + sub_last, options.seed, 1,
                cpu, false, one);
    }
    run_round(specs, first, last, options.seed, kThreads, 0, false, many);
  }
  report.pass("replay/1t", static_cast<std::int64_t>(count),
              count_failed(one.results));
  report.pass("replay/mt", static_cast<std::int64_t>(count),
              count_failed(many.results));
  check_same(one.results, many.results, "1t vs mt", report);
  check_same(gate_1t.results, one.results, "gate vs 1t", report);
  check_rates(one.results, "replay", report);

  std::uint64_t digest = kFoldSeed;
  for (const SpecResult& r : one.results) digest = fold(digest, r.digest);
  std::printf("replay: %zu specs, results digest %016llx\n", count,
              static_cast<unsigned long long>(digest));

  // The rounds hold different specs, so their rates differ by content as
  // well as by noise: the rates are pooled over all rounds.
  report.metric("setup_s", setup.median_s());
  report.metric("ops_per_s", static_cast<double>(count) / one.seconds);
  report.metric("ops_per_s_mt", static_cast<double>(count) / many.seconds);
  report.metric("latency_p50_us", percentile(one.latencies_us, 0.50));
  report.metric("latency_p99_us", percentile(one.latencies_us, 0.99));
}

void run_traced(const Options& options, Report& report) {
  const std::size_t count =
      static_cast<std::size_t>(kTracedPerSecond) * options.seconds;
  const std::vector<EvalSpec> specs = make_specs(options.seed, count);

  Pass plain(count), traced(count);
  for (int r = 0; r < kRounds; ++r) {
    const auto [first, last] = round_range(count, kRounds, r);
    run_round(specs, first, last, options.seed, 1, 0, false, plain);
    trace::enable(true);
    run_round(specs, first, last, options.seed, 1, 0, true, traced);
    trace::enable(false);
  }
  report.pass("replay/1t", static_cast<std::int64_t>(count),
              count_failed(plain.results));
  report.pass("replay/1t-traced", static_cast<std::int64_t>(count),
              count_failed(traced.results));
  check_same(plain.results, traced.results, "untraced vs traced", report);
  const Rates rates = check_rates(traced.results, "replay", report);
  report.metric("zreplicator.replication_rate", rates.rr);
  report.metric("dfixer.fix_rate", rates.fr);

  const auto spans = trace::summarize();
  const auto mean_incl = [&](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.mean_inclusive_ns();
  };
  const auto total_incl = [&](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.inclusive_ns;
  };
  report.metric("zreplicator.replicate_ms",
                mean_incl("zreplicator.replicate") / 1e6);
  report.metric("zreplicator.apply_us.keygen",
                mean_incl("zreplicator.apply.keygen") / 1e3);
  report.metric("zreplicator.apply_us.signzone",
                mean_incl("zreplicator.apply.signzone") / 1e3);
  report.metric("zreplicator.apply_us.other",
                mean_incl("zreplicator.apply.other") / 1e3);
  report.metric("analyzer.probe_us", mean_incl("analyzer.probe") / 1e3);
  report.metric("analyzer.grok_us", mean_incl("analyzer.grok") / 1e3);
  report.metric("dfixer.resolve_us", mean_incl("dfixer.resolve") / 1e3);
  if (const auto it = spans.find("dfixer.auto_fix"); it != spans.end()) {
    report.metric("dfixer.autofix_self_us", it->second.mean_self_ns() / 1e3);
  }
  // The blocking steps of one spec are replicate and auto_fix; together
  // they should cover the whole single-thread wall time.
  report.metric("trace.coverage", (total_incl("zreplicator.replicate") +
                                   total_incl("dfixer.auto_fix")) /
                                      (traced.wall_seconds * 1e9));
  report.metric("trace.overhead", 1.0 - plain.seconds / traced.seconds);

  std::int64_t fixes = 0, iterations = 0, commands = 0, keys = 0,
               rrsigs = 0, sandboxes = 0, snapshots = 0, errors = 0,
               analyzed_specs = 0;
  std::map<std::pair<dfx::crypto::DnssecAlgorithm, std::size_t>, std::int64_t>
      mix;
  for (const SpecResult& r : traced.results) {
    if (r.fixed) {
      fixes += 1;
      iterations += r.iterations;
      commands += r.commands;
    }
    if (r.keys > 0) {
      sandboxes += 1;
      keys += r.keys;
      rrsigs += r.rrsigs;
    }
    if (r.snapshots > 0) {
      analyzed_specs += 1;
      snapshots += r.snapshots;
      errors += r.snapshot_errors;
    }
    for (const auto& key : r.key_mix) mix[key] += 1;
  }
  const auto ratio = [](std::int64_t a, std::int64_t b) {
    return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
  };
  report.metric("dfixer.iterations_per_fix", ratio(iterations, fixes));
  report.metric("dfixer.commands_per_fix", ratio(commands, fixes));
  report.metric("zone.keys_per_spec", ratio(keys, sandboxes));
  report.metric("zone.rrsigs_per_spec", ratio(rrsigs, sandboxes));
  report.metric("analyzer.errors_per_snapshot", ratio(errors, snapshots));
  report.metric("analyzer.analyses_per_spec",
                ratio(snapshots, analyzed_specs));

  if (!options.trace_out.empty() &&
      !trace::write_chrome_json(options.trace_out, 50'000)) {
    report.fail("cannot write " + options.trace_out);
  }
  trace::clear();

  calibrate_crypto(mix, options.seed, report);

  // Shape check on a second seed: RR/FR stay within tolerance.
  const std::size_t second_count = count / 2;
  const std::uint64_t second_seed = options.seed + 1;
  const std::vector<EvalSpec> second = make_specs(second_seed, second_count);
  Pass shape(second_count);
  run_round(second, 0, second_count, second_seed, kThreads, 0, false, shape);
  report.pass("replay/seed+1-mt", static_cast<std::int64_t>(second_count),
              count_failed(shape.results));
  check_rates(shape.results, "replay seed+1", report);
}

}  // namespace

void run_replay(const Options& options, Report& report) {
  if (options.trace) {
    run_traced(options, report);
  } else {
    run_untraced(options, report);
  }
}

}  // namespace perfbench
