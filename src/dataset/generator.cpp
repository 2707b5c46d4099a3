#include "dataset/generator.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <span>

#include "util/metrics.h"
#include "util/parallel.h"

namespace dfx::dataset {
namespace {

using analyzer::ErrorCode;
using analyzer::SnapshotStatus;

constexpr int kBins = 100;

/// Critical vs non-critical split of the Table 3 mix, as sampling weights.
struct ErrorMix {
  std::vector<ErrorCode> critical_codes;
  std::vector<double> critical_weights;
  std::vector<ErrorCode> noncritical_codes;
  std::vector<double> noncritical_weights;
};

ErrorMix build_error_mix() {
  ErrorMix mix;
  for (const auto& row : table3_calibration()) {
    if (analyzer::is_critical(row.code)) {
      mix.critical_codes.push_back(row.code);
      mix.critical_weights.push_back(row.snapshot_share);
    } else {
      mix.noncritical_codes.push_back(row.code);
      mix.noncritical_weights.push_back(row.snapshot_share);
    }
  }
  return mix;
}

/// Per-status error-set sampler. Error sets are sampled per *episode*
/// (state run), so a domain carries the same errors across consecutive
/// snapshots — which is what separates the paper's domain counts from its
/// snapshot counts in Table 3.
std::set<ErrorCode> sample_errors(Rng& rng, SnapshotStatus status,
                                  const ErrorMix& mix) {
  std::set<ErrorCode> out;
  switch (status) {
    case SnapshotStatus::kSignedBogus: {
      const int n = 2 + static_cast<int>(rng.uniform(3));  // 2..4 causes
      for (int i = 0; i < n; ++i) {
        out.insert(mix.critical_codes[rng.weighted_pick(
            mix.critical_weights)]);
      }
      // Cascades: a bogus zone frequently also violates advisory rules.
      if (rng.chance(0.35)) {
        out.insert(mix.noncritical_codes[rng.weighted_pick(
            mix.noncritical_weights)]);
      }
      break;
    }
    case SnapshotStatus::kSignedValidMisconfig: {
      out.insert(
          mix.noncritical_codes[rng.weighted_pick(mix.noncritical_weights)]);
      if (rng.chance(0.12)) {
        out.insert(mix.noncritical_codes[rng.weighted_pick(
            mix.noncritical_weights)]);
      }
      break;
    }
    default:
      break;
  }
  return out;
}

/// Median holding time (hours) before a from→to transition, per Table 4.
double transition_median_hours(SnapshotStatus from, SnapshotStatus to) {
  for (const auto& cell : table4_calibration()) {
    if (cell.from == from && cell.to == to) return cell.median_hours;
  }
  return 24.0;
}

/// Sample the next state of a CD domain from Table 4's row for `from`.
SnapshotStatus sample_next_state(Rng& rng, SnapshotStatus from) {
  std::vector<SnapshotStatus> states;
  std::vector<double> weights;
  for (const auto& cell : table4_calibration()) {
    if (cell.from == from) {
      states.push_back(cell.to);
      weights.push_back(static_cast<double>(cell.count));
    }
  }
  if (states.empty()) return from;
  return states[rng.weighted_pick(weights)];
}

/// Fix-time medians from Figure 4: how long an error-carrying episode
/// lingers before the operator resolves it.
double fix_median_hours(const std::set<ErrorCode>& errors) {
  double best = 12.0;
  for (const auto& row : fig4_calibration()) {
    if (errors.contains(row.code)) best = std::max(best, row.median_hours);
  }
  return best;
}

struct DomainPlan {
  bool changing = false;
  int snapshot_count = 1;
  double gap_median_hours = 12.0;
  SnapshotStatus stable_status = SnapshotStatus::kInsecure;
  SnapshotStatus first_status = SnapshotStatus::kSignedBogus;
  /// CD trajectories are steered to end here (Figure 2's flows).
  std::optional<SnapshotStatus> final_status;
  bool force_clean = false;  // Fig. 1: popular domains run clean setups
};

/// Stable (SD) status mix. Two regimes: single-snapshot domains carry the
/// bulk of the sticky svm population (NZIC), while multi-snapshot SD
/// domains are mostly healthy or plainly unsigned — that split is what
/// separates Table 3's domain shares from Table 5's CD-centric counts.
SnapshotStatus sample_stable_status(Rng& rng, bool single) {
  const double weights_single[] = {
      0.245,  // sv
      0.170,  // svm
      0.090,  // sb
      0.450,  // is
      0.025,  // lm
      0.020,  // ic
  };
  // Sticky misconfigurations (NZIC above all) concentrate on domains that
  // are scanned again and again — that is what pushes Table 3's NZIC
  // snapshot share (28.8%) far above its domain share (19.7%).
  const double weights_multi[] = {
      0.330,  // sv
      0.400,  // svm
      0.050,  // sb
      0.180,  // is
      0.025,  // lm
      0.015,  // ic
  };
  const auto& weights = single ? weights_single : weights_multi;
  const std::size_t pick =
      rng.weighted_pick(std::span<const double>(weights, 6));
  switch (pick) {
    case 0: return SnapshotStatus::kSignedValid;
    case 1: return SnapshotStatus::kSignedValidMisconfig;
    case 2: return SnapshotStatus::kSignedBogus;
    case 3: return SnapshotStatus::kInsecure;
    case 4: return SnapshotStatus::kLame;
    default: return SnapshotStatus::kIncomplete;
  }
}

/// Where a CD trajectory should end, given where it started (Figure 2).
SnapshotStatus sample_cd_final_status(Rng& rng, SnapshotStatus first,
                                      const FirstLastCalibration& fig2) {
  switch (first) {
    case SnapshotStatus::kSignedBogus: {
      // 67% recover to sv/svm; the rest stay bogus or drop DNSSEC.
      const double weights[] = {fig2.sb_to_valid * 0.55,
                                fig2.sb_to_valid * 0.45, 0.165, 0.165};
      switch (rng.weighted_pick(weights)) {
        case 0: return SnapshotStatus::kSignedValid;
        case 1: return SnapshotStatus::kSignedValidMisconfig;
        case 2: return SnapshotStatus::kSignedBogus;
        default: return SnapshotStatus::kInsecure;
      }
    }
    case SnapshotStatus::kInsecure: {
      // 62% enable DNSSEC by their final snapshot.
      const double weights[] = {fig2.is_to_signed * 0.50,
                                fig2.is_to_signed * 0.22,
                                fig2.is_to_signed * 0.28,
                                1.0 - fig2.is_to_signed};
      switch (rng.weighted_pick(weights)) {
        case 0: return SnapshotStatus::kSignedValid;
        case 1: return SnapshotStatus::kSignedValidMisconfig;
        case 2: return SnapshotStatus::kSignedBogus;
        default: return SnapshotStatus::kInsecure;
      }
    }
    default: {
      // Valid first: 9.4% end insecure, 8.4% end bogus. Tolerated
      // misconfigurations are sticky (Table 5: 61.9% of svm never cleared),
      // so svm-first domains mostly end svm.
      const double rest = 1.0 - fig2.valid_to_is - fig2.valid_to_sb;
      const double sv_share =
          first == SnapshotStatus::kSignedValidMisconfig ? 0.28 : 0.60;
      const double weights[] = {rest * sv_share, rest * (1.0 - sv_share),
                                fig2.valid_to_sb, fig2.valid_to_is};
      switch (rng.weighted_pick(weights)) {
        case 0: return SnapshotStatus::kSignedValid;
        case 1: return SnapshotStatus::kSignedValidMisconfig;
        case 2: return SnapshotStatus::kSignedBogus;
        default: return SnapshotStatus::kInsecure;
      }
    }
  }
}

/// How often the *next* user-triggered rescan observes a transitioned
/// state, and how the rescan cadence stretches, per state: broken zones are
/// rescanned furiously, tolerated misconfigurations sit for months.
double transition_probability(SnapshotStatus state) {
  switch (state) {
    case SnapshotStatus::kSignedBogus: return 0.55;
    case SnapshotStatus::kSignedValidMisconfig: return 0.30;
    case SnapshotStatus::kInsecure: return 0.35;
    default: return 0.50;
  }
}

double gap_multiplier(SnapshotStatus state) {
  switch (state) {
    case SnapshotStatus::kSignedBogus: return 2.0;
    case SnapshotStatus::kSignedValidMisconfig: return 40.0;
    case SnapshotStatus::kInsecure: return 4.0;
    default: return 2.0;
  }
}

/// First observed state of a CD domain (Figure 2's left column).
SnapshotStatus sample_cd_first_status(Rng& rng,
                                      const FirstLastCalibration& fig2) {
  const double total = static_cast<double>(fig2.sb_first + fig2.is_first +
                                           fig2.valid_first);
  const double weights[] = {
      static_cast<double>(fig2.sb_first) / total,
      static_cast<double>(fig2.is_first) / total,
      static_cast<double>(fig2.valid_first) / total * 0.55,  // sv
      static_cast<double>(fig2.valid_first) / total * 0.45,  // svm
  };
  switch (rng.weighted_pick(weights)) {
    case 0: return SnapshotStatus::kSignedBogus;
    case 1: return SnapshotStatus::kInsecure;
    case 2: return SnapshotStatus::kSignedValid;
    default: return SnapshotStatus::kSignedValidMisconfig;
  }
}

bool is_signed_status(SnapshotStatus s) {
  return s == SnapshotStatus::kSignedValid ||
         s == SnapshotStatus::kSignedValidMisconfig ||
         s == SnapshotStatus::kSignedBogus;
}

/// Roll the Table-2 cause marker for a negative (valid→sb/is) transition.
void roll_negative_cause(Rng& rng, const Calibration& cal, bool to_bogus,
                         std::uint32_t& ns_id, std::uint32_t& key_id,
                         std::uint32_t& alg_id) {
  const auto& t2 = cal.table2;
  const double p_ns = to_bogus ? t2.sv_sb_ns_update : t2.sv_is_ns_update;
  const double p_key = to_bogus ? t2.sv_sb_key_rollover : t2.sv_is_key_rollover;
  const double p_alg =
      to_bogus ? t2.sv_sb_algo_rollover : t2.sv_is_algo_rollover;
  const double weights[] = {p_ns, p_key, p_alg,
                            std::max(0.0, 1.0 - p_ns - p_key - p_alg)};
  switch (rng.weighted_pick(weights)) {
    case 0: ++ns_id; break;
    case 1: ++key_id; break;
    case 2: ++alg_id; ++key_id; break;  // algo rollovers replace keys
    default: break;
  }
}

/// Generate the timeline of one changing (CD) domain. The trajectory is a
/// semi-Markov walk over Table 4's transition structure, steered to end in
/// `plan.final_status` (Figure 2's first→last flows).
void generate_cd_timeline(Rng& rng, const GeneratorOptions& options,
                          const ErrorMix& mix, const Calibration& cal,
                          DomainTimeline& domain, const DomainPlan& plan) {
  std::uint32_t ns_id = 1;
  std::uint32_t key_id = 1;
  std::uint32_t alg_id = 1;
  SnapshotStatus state = plan.first_status;
  std::set<ErrorCode> errors = sample_errors(rng, state, mix);
  UnixTime t = options.start +
               static_cast<UnixTime>(rng.uniform01() *
                                     static_cast<double>(options.end -
                                                         options.start) *
                                     0.5);
  int remaining = plan.snapshot_count;
  while (remaining > 0) {
    domain.snapshots.push_back({t, state, errors, ns_id, key_id, alg_id});
    --remaining;
    if (remaining == 0) break;

    const bool last_pair = remaining == 1 && plan.final_status.has_value();
    SnapshotStatus next = state;
    if (last_pair) {
      next = *plan.final_status;  // steer the ending (Figure 2)
    } else if (rng.chance(transition_probability(state))) {
      next = sample_next_state(rng, state);
    }
    if (next == state) {
      // Same episode, user re-scanned: cadence depends on how broken the
      // zone is (frantic for sb, leisurely for tolerated svm), stretched by
      // how long this episode's errors typically linger (Figure 4).
      double episode_median = plan.gap_median_hours * gap_multiplier(state);
      if (!errors.empty()) {
        episode_median =
            std::max(episode_median, fix_median_hours(errors) * 0.6);
      }
      t += static_cast<UnixTime>(rng.lognormal(episode_median, 0.6) * kHour);
      continue;
    }
    // Holding time before the transition lands (Table 4 medians).
    const double median = transition_median_hours(state, next);
    t += static_cast<UnixTime>(rng.lognormal(median, 0.8) * kHour);
    const bool negative = (state == SnapshotStatus::kSignedValid ||
                           state == SnapshotStatus::kSignedValidMisconfig) &&
                          (next == SnapshotStatus::kSignedBogus ||
                           next == SnapshotStatus::kInsecure);
    if (negative) {
      roll_negative_cause(rng, cal, next == SnapshotStatus::kSignedBogus,
                          ns_id, key_id, alg_id);
    } else if (rng.chance(0.05)) {
      ++key_id;  // background benign rollover noise
    }
    state = next;
    errors = sample_errors(rng, state, mix);
  }
  // A CD plan must actually change; if the walk degenerated into a stable
  // run (possible when first == final and no transition fired), force the
  // final snapshot into a different state.
  if (domain.snapshots.size() >= 2) {
    const bool changed = std::any_of(
        domain.snapshots.begin() + 1, domain.snapshots.end(),
        [&](const SnapshotRow& s) {
          return s.status != domain.snapshots.front().status ||
                 s.errors != domain.snapshots.front().errors;
        });
    if (!changed) {
      // Flip a *middle* snapshot so the steered ending (Figure 2) and the
      // first-state distribution both survive.
      const SnapshotStatus first =  // dfx-lint: allow(unchecked-front-back): size() >= 2 branch
          domain.snapshots.front().status;
      if (domain.snapshots.size() >= 3) {
        auto& mid = domain.snapshots[domain.snapshots.size() / 2];
        SnapshotStatus forced = sample_next_state(rng, first);
        int guard = 0;
        while (forced == first && ++guard < 8) {
          forced = sample_next_state(rng, forced);
        }
        mid.status = forced;
        mid.errors = sample_errors(rng, forced, mix);
      } else {
        // Two snapshots: end in the benign neighbour state.
        auto& last = domain.snapshots.back();  // dfx-lint: allow(unchecked-front-back): size() >= 2 branch
        last.status = first == SnapshotStatus::kSignedValid
                          ? SnapshotStatus::kSignedValidMisconfig
                          : SnapshotStatus::kSignedValid;
        last.errors = sample_errors(rng, last.status, mix);
      }
    }
  }
}

void generate_sd_timeline(Rng& rng, const GeneratorOptions& options,
                          const ErrorMix& mix, DomainTimeline& domain,
                          const DomainPlan& plan) {
  const std::set<ErrorCode> errors =
      sample_errors(rng, plan.stable_status, mix);
  UnixTime t = options.start +
               static_cast<UnixTime>(rng.uniform01() *
                                     static_cast<double>(options.end -
                                                         options.start) *
                                     0.7);
  for (int i = 0; i < plan.snapshot_count && t < options.end; ++i) {
    domain.snapshots.push_back({t, plan.stable_status, errors, 1, 1, 1});
    t += static_cast<UnixTime>(rng.lognormal(plan.gap_median_hours, 1.0) *
                               kHour);
  }
}

/// Number of snapshots for a multi-snapshot domain: heavy-tailed with the
/// paper's mean of ~6 snapshots per multi-snapshot SLD+ domain.
int sample_multi_count(Rng& rng) {
  const double v = rng.lognormal(3.4, 1.0);
  return std::clamp(static_cast<int>(2.0 + v), 2, 400);
}

}  // namespace

Corpus generate_corpus(const GeneratorOptions& options) {
  const auto& cal = default_calibration();
  const ErrorMix mix = build_error_mix();
  Corpus corpus;
  corpus.scale = options.scale;
  corpus.universe_size =
      static_cast<std::uint64_t>(1000000.0 * options.scale);
  const std::uint64_t bin_size = std::max<std::uint64_t>(
      1, corpus.universe_size / kBins);

  // ---- SLD+ domains -------------------------------------------------------
  // Sharded per-domain: domain i draws every sample from its own
  // Rng::for_shard(seed, "dataset.sld", i) stream, so the corpus is a pure
  // function of the seed — bit-identical at any thread count.
  const auto sld_total = static_cast<std::int64_t>(
      static_cast<double>(cal.table1.sld_domains) * options.scale);
  const auto sld_multi = static_cast<std::int64_t>(
      static_cast<double>(cal.table1.sld_multi_snapshot) * options.scale);

  // Per-bin dataset presence targets (Figure 1): how many of this corpus's
  // domains carry a rank in each bin.
  std::vector<std::int64_t> ranked_quota(kBins);
  std::int64_t ranked_total = 0;
  for (int b = 0; b < kBins; ++b) {
    ranked_quota[static_cast<std::size_t>(b)] = static_cast<std::int64_t>(
        fig1_present_share(b) * static_cast<double>(bin_size));
    ranked_total += ranked_quota[static_cast<std::size_t>(b)];
  }

  // Rank plan (serial pre-pass, RNG-free): fill bins in order until the
  // quotas are exhausted. Ranked domains are spread across the population
  // (a prefix would correlate rank with the multi-snapshot quota below).
  struct RankPlan {
    std::uint32_t rank = 0;
    int bin = 0;
  };
  std::vector<std::optional<RankPlan>> rank_plan(
      static_cast<std::size_t>(sld_total));
  {
    int next_bin = 0;
    std::int64_t issued_in_bin = 0;
    const std::int64_t rank_stride =
        ranked_total > 0 ? std::max<std::int64_t>(1, sld_total / ranked_total)
                         : sld_total + 1;
    for (std::int64_t i = 0; i < sld_total; ++i) {
      if (i % rank_stride != 0 || next_bin >= kBins) continue;
      while (next_bin < kBins &&
             issued_in_bin >= ranked_quota[static_cast<std::size_t>(
                                  next_bin)]) {
        ++next_bin;
        issued_in_bin = 0;
      }
      if (next_bin >= kBins) continue;
      rank_plan[static_cast<std::size_t>(i)] = RankPlan{
          static_cast<std::uint32_t>(
              static_cast<std::uint64_t>(next_bin) * bin_size +
              static_cast<std::uint64_t>(issued_in_bin) + 1),
          next_bin};
      ++issued_in_bin;
    }
  }

  const auto tld_total = static_cast<std::int64_t>(
      static_cast<double>(cal.table1.tld_domains) * options.scale);
  const auto tld_multi = static_cast<std::int64_t>(
      static_cast<double>(cal.table1.tld_multi_snapshot) * options.scale);
  const double tld_avg_snapshots =
      static_cast<double>(cal.table1.tld_snapshots) /
      static_cast<double>(cal.table1.tld_domains);

  corpus.domains.resize(
      static_cast<std::size_t>(sld_total + tld_total) + 1);

  ThreadPool& pool = ThreadPool::global();
  const double multi_share =
      static_cast<double>(sld_multi) /
      static_cast<double>(std::max<std::int64_t>(1, sld_total));
  parallel_for(
      pool, static_cast<std::size_t>(sld_total), kDefaultGrain,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          Rng rng = Rng::for_shard(options.seed, "dataset.sld", i);
          DomainTimeline& domain = corpus.domains[i];
          domain.name = "sld-" + std::to_string(i) + ".example.";
          domain.level = DomainLevel::kSld;

          DomainPlan plan;
          if (rank_plan[i]) {
            domain.tranco_rank = rank_plan[i]->rank;
            // Popular signed domains are mostly run cleanly (Fig. 1, top):
            // force a valid stable setup unless the bin's misconfigured
            // share says otherwise.
            plan.force_clean = !rng.chance(
                dataset::fig1_misconfigured_share(rank_plan[i]->bin));
          }

          const bool multi = rng.chance(multi_share);
          plan.snapshot_count = multi ? sample_multi_count(rng) : 1;
          plan.gap_median_hours =
              rng.lognormal(12.0, 1.1);  // Fig. 5: 65% < 1 day
          // Slight oversampling compensates for walks that degenerate plus
          // the forced-clean popular domains excluded above.
          plan.changing = multi && !plan.force_clean &&
                          rng.chance(cal.table1.sld_cd_share * 1.13);
          if (plan.changing) {
            plan.first_status = sample_cd_first_status(rng, cal.fig2);
            plan.final_status =
                sample_cd_final_status(rng, plan.first_status, cal.fig2);
            generate_cd_timeline(rng, options, mix, cal, domain, plan);
          } else {
            plan.stable_status = plan.force_clean && domain.tranco_rank
                                     ? (rng.chance(0.55)
                                            ? SnapshotStatus::kSignedValid
                                            : SnapshotStatus::kInsecure)
                                     : sample_stable_status(rng, !multi);
            generate_sd_timeline(rng, options, mix, domain, plan);
          }
          domain.ever_signed = std::any_of(
              domain.snapshots.begin(), domain.snapshots.end(),
              [](const SnapshotRow& s) { return is_signed_status(s.status); });
        }
      });

  // Figure 1's universe: back out the per-bin ever-signed universe so the
  // measured signed-presence curve matches the calibration target.
  corpus.universe_signed_per_bin.assign(kBins, 0);
  std::vector<std::int64_t> signed_in_dataset(kBins, 0);
  for (const auto& d : corpus.domains) {
    if (d.tranco_rank && d.ever_signed) {
      const auto b = std::min<std::uint64_t>(
          (*d.tranco_rank - 1) / bin_size, kBins - 1);
      ++signed_in_dataset[static_cast<std::size_t>(b)];
    }
  }
  for (int b = 0; b < kBins; ++b) {
    const double share = fig1_signed_share(b);
    corpus.universe_signed_per_bin[static_cast<std::size_t>(b)] =
        static_cast<std::uint64_t>(
            static_cast<double>(signed_in_dataset[static_cast<std::size_t>(
                b)]) /
            std::max(share, 0.01));
  }

  // ---- TLD and root domains (Table 1's upper rows) ------------------------
  parallel_for(
      pool, static_cast<std::size_t>(tld_total), kDefaultGrain,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          Rng rng = Rng::for_shard(options.seed, "dataset.tld", i);
          DomainTimeline& domain =
              corpus.domains[static_cast<std::size_t>(sld_total) + i];
          domain.name = "tld-" + std::to_string(i) + ".";
          domain.level = DomainLevel::kTld;
          DomainPlan plan;
          const bool multi =
              static_cast<std::int64_t>(i) < tld_multi;
          plan.snapshot_count =
              multi ? std::max(2, static_cast<int>(rng.lognormal(
                                      tld_avg_snapshots, 1.2)))
                    : 1;
          plan.gap_median_hours = rng.lognormal(30.0, 1.0);
          plan.changing = multi && rng.chance(cal.table1.tld_cd_share);
          if (plan.changing) {
            plan.first_status = sample_cd_first_status(rng, cal.fig2);
            plan.final_status =
                sample_cd_final_status(rng, plan.first_status, cal.fig2);
            generate_cd_timeline(rng, options, mix, cal, domain, plan);
          } else {
            // TLDs are overwhelmingly signed and valid.
            plan.stable_status = rng.chance(0.9)
                                     ? SnapshotStatus::kSignedValid
                                     : SnapshotStatus::kSignedValidMisconfig;
            generate_sd_timeline(rng, options, mix, domain, plan);
          }
          domain.ever_signed = true;
        }
      });

  // The root: one domain, many snapshots, always valid.
  {
    DomainTimeline& root =
        corpus.domains[static_cast<std::size_t>(sld_total + tld_total)];
    root.name = ".";
    root.level = DomainLevel::kRoot;
    root.ever_signed = true;
    const auto count = static_cast<std::int64_t>(
        static_cast<double>(cal.table1.root_snapshots) * options.scale);
    UnixTime t = options.start;
    const UnixTime step =
        count > 1 ? (options.end - options.start) / count : kDay;
    for (std::int64_t i = 0; i < count; ++i) {
      root.snapshots.push_back(
          {t, SnapshotStatus::kSignedValid, {}, 1, 1, 1});
      t += step;
    }
  }

  auto& registry = metrics::Registry::global();
  registry.counter("generate.domains")
      .add(static_cast<std::int64_t>(corpus.domains.size()));
  registry.counter("generate.snapshots").add(corpus.total_snapshots());
  return corpus;
}

}  // namespace dfx::dataset
