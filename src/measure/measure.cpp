#include "measure/measure.h"

#include <algorithm>
#include <cmath>

#include "util/parallel.h"

namespace dfx::measure {
namespace {

using dataset::DomainTimeline;
using dataset::SnapshotRow;

bool is_dnssec_state(SnapshotStatus s) {
  return s == SnapshotStatus::kSignedValid ||
         s == SnapshotStatus::kSignedValidMisconfig ||
         s == SnapshotStatus::kSignedBogus || s == SnapshotStatus::kInsecure;
}

bool is_valid_state(SnapshotStatus s) {
  return s == SnapshotStatus::kSignedValid ||
         s == SnapshotStatus::kSignedValidMisconfig;
}

bool is_signed_state(SnapshotStatus s) {
  return is_valid_state(s) || s == SnapshotStatus::kSignedBogus;
}

// Every analysis below is a per-domain fold executed as a chunked
// parallel_reduce: chunk accumulators are built in ascending domain order
// and merged in ascending chunk order, so each result is bit-identical to
// a serial pass at any thread count (see util/parallel.h).

/// Fold `body(acc, domain)` over every domain of the corpus.
template <typename Acc, typename Body, typename Merge>
Acc reduce_domains(const Corpus& corpus, Body&& body, Merge&& merge) {
  return parallel_reduce<Acc>(
      ThreadPool::global(), corpus.domains.size(), kDefaultGrain,
      [&](Acc& acc, std::size_t i) { body(acc, corpus.domains[i]); },
      merge);
}

void merge_level(LevelStats& into, const LevelStats& from) {
  into.snapshots += from.snapshots;
  into.domains += from.domains;
  into.multi_snapshot += from.multi_snapshot;
  into.changing += from.changing;
  into.stable += from.stable;
}

/// Append-merge: `from`'s values follow `into`'s, preserving domain order.
void append(std::vector<double>& into, std::vector<double>&& from) {
  into.insert(into.end(), from.begin(), from.end());
}

}  // namespace

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double idx = p * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

Table1 compute_table1(const Corpus& corpus) {
  return reduce_domains<Table1>(
      corpus,
      [](Table1& acc, const DomainTimeline& d) {
        LevelStats* stats = nullptr;
        switch (d.level) {
          case DomainLevel::kRoot: stats = &acc.root; break;
          case DomainLevel::kTld: stats = &acc.tld; break;
          case DomainLevel::kSld: stats = &acc.sld; break;
        }
        stats->snapshots += static_cast<std::int64_t>(d.snapshots.size());
        stats->domains += 1;
        if (d.multi_snapshot()) {
          stats->multi_snapshot += 1;
          if (d.is_changing()) {
            stats->changing += 1;
          } else {
            stats->stable += 1;
          }
        }
      },
      [](Table1& a, Table1&& b) {
        merge_level(a.root, b.root);
        merge_level(a.tld, b.tld);
        merge_level(a.sld, b.sld);
      });
}

std::vector<Fig1Bin> compute_fig1(const Corpus& corpus) {
  constexpr int kBins = 100;
  const std::uint64_t bin_size =
      std::max<std::uint64_t>(1, corpus.universe_size / kBins);
  struct Acc {
    std::vector<std::int64_t> present = std::vector<std::int64_t>(kBins, 0);
    std::vector<std::int64_t> present_signed =
        std::vector<std::int64_t>(kBins, 0);
    std::vector<std::int64_t> misconfigured =
        std::vector<std::int64_t>(kBins, 0);
  };
  const Acc acc = reduce_domains<Acc>(
      corpus,
      [bin_size](Acc& a, const DomainTimeline& d) {
        if (!d.tranco_rank) return;
        const auto b = static_cast<int>(std::min<std::uint64_t>(
            (*d.tranco_rank - 1) / bin_size, kBins - 1));
        a.present[static_cast<std::size_t>(b)] += 1;
        if (d.ever_signed) {
          a.present_signed[static_cast<std::size_t>(b)] += 1;
          const bool ever_misconfigured = std::any_of(
              d.snapshots.begin(), d.snapshots.end(),
              [](const SnapshotRow& s) {
                return !s.errors.empty() ||
                       s.status == SnapshotStatus::kSignedBogus;
              });
          if (ever_misconfigured) {
            a.misconfigured[static_cast<std::size_t>(b)] += 1;
          }
        }
      },
      [](Acc& a, Acc&& b) {
        for (int i = 0; i < kBins; ++i) {
          const auto k = static_cast<std::size_t>(i);
          a.present[k] += b.present[k];
          a.present_signed[k] += b.present_signed[k];
          a.misconfigured[k] += b.misconfigured[k];
        }
      });
  std::vector<Fig1Bin> out;
  out.reserve(kBins);
  for (int b = 0; b < kBins; ++b) {
    Fig1Bin bin;
    bin.bin = b;
    bin.present_share =
        static_cast<double>(acc.present[static_cast<std::size_t>(b)]) /
        static_cast<double>(bin_size);
    const auto universe_signed =
        b < static_cast<int>(corpus.universe_signed_per_bin.size())
            ? corpus.universe_signed_per_bin[static_cast<std::size_t>(b)]
            : 0;
    bin.signed_share =
        universe_signed == 0
            ? 0.0
            : static_cast<double>(
                  acc.present_signed[static_cast<std::size_t>(b)]) /
                  static_cast<double>(universe_signed);
    bin.misconfigured_share =
        acc.present_signed[static_cast<std::size_t>(b)] == 0
            ? 0.0
            : static_cast<double>(
                  acc.misconfigured[static_cast<std::size_t>(b)]) /
                  static_cast<double>(
                      acc.present_signed[static_cast<std::size_t>(b)]);
    out.push_back(bin);
  }
  return out;
}

Fig2Flows compute_fig2(const Corpus& corpus) {
  return reduce_domains<Fig2Flows>(
      corpus,
      [](Fig2Flows& acc, const DomainTimeline& d) {
        if (d.level != DomainLevel::kSld || !d.is_changing()) return;
        // is_changing() implies at least two snapshots.
        const SnapshotStatus first =  // dfx-lint: allow(unchecked-front-back): is_changing() => non-empty
            d.snapshots.front().status;
        const SnapshotStatus last =  // dfx-lint: allow(unchecked-front-back): is_changing() => non-empty
            d.snapshots.back().status;
        if (!is_dnssec_state(first) || !is_dnssec_state(last)) return;
        acc.counts[first][last] += 1;
        if (first == SnapshotStatus::kSignedBogus) {
          acc.sb_first += 1;
          if (is_valid_state(last)) acc.sb_recovered += 1;
        } else if (first == SnapshotStatus::kInsecure) {
          acc.is_first += 1;
          if (is_signed_state(last)) acc.is_signed_later += 1;
        } else if (is_valid_state(first)) {
          acc.valid_first += 1;
          if (last == SnapshotStatus::kInsecure) acc.valid_to_is += 1;
          if (last == SnapshotStatus::kSignedBogus) acc.valid_to_sb += 1;
        }
      },
      [](Fig2Flows& a, Fig2Flows&& b) {
        for (const auto& [first, row] : b.counts) {
          for (const auto& [last, n] : row) a.counts[first][last] += n;
        }
        a.sb_first += b.sb_first;
        a.sb_recovered += b.sb_recovered;
        a.is_first += b.is_first;
        a.is_signed_later += b.is_signed_later;
        a.valid_first += b.valid_first;
        a.valid_to_is += b.valid_to_is;
        a.valid_to_sb += b.valid_to_sb;
      });
}

Table2 compute_table2(const Corpus& corpus) {
  return reduce_domains<Table2>(
      corpus,
      [](Table2& acc, const DomainTimeline& d) {
        if (d.level != DomainLevel::kSld) return;
        for (std::size_t i = 1; i < d.snapshots.size(); ++i) {
          const auto& prev = d.snapshots[i - 1];
          const auto& cur = d.snapshots[i];
          if (!is_valid_state(prev.status)) continue;
          const bool to_sb = cur.status == SnapshotStatus::kSignedBogus;
          const bool to_is = cur.status == SnapshotStatus::kInsecure;
          if (!to_sb && !to_is) continue;
          const bool ns_change = cur.ns_id != prev.ns_id;
          const bool alg_change = cur.algorithm_id != prev.algorithm_id;
          const bool key_change = cur.key_id != prev.key_id && !alg_change;
          if (to_sb) {
            acc.sv_sb_total += 1;
            if (ns_change) acc.sv_sb_ns += 1;
            if (key_change) acc.sv_sb_key += 1;
            if (alg_change) acc.sv_sb_algo += 1;
          } else {
            acc.sv_is_total += 1;
            if (ns_change) acc.sv_is_ns += 1;
            if (key_change) acc.sv_is_key += 1;
            if (alg_change) acc.sv_is_algo += 1;
          }
        }
      },
      [](Table2& a, Table2&& b) {
        a.sv_sb_total += b.sv_sb_total;
        a.sv_sb_ns += b.sv_sb_ns;
        a.sv_sb_key += b.sv_sb_key;
        a.sv_sb_algo += b.sv_sb_algo;
        a.sv_is_total += b.sv_is_total;
        a.sv_is_ns += b.sv_is_ns;
        a.sv_is_key += b.sv_is_key;
        a.sv_is_algo += b.sv_is_algo;
      });
}

Table3 compute_table3(const Corpus& corpus) {
  struct Acc {
    std::map<ErrorCode, std::int64_t> snapshot_counts;
    std::map<ErrorCode, std::int64_t> domain_counts;
    std::int64_t total_snapshots = 0;
    std::int64_t total_domains = 0;
    std::int64_t any_error_snapshots = 0;
    std::int64_t any_error_domains = 0;
  };
  const Acc acc = reduce_domains<Acc>(
      corpus,
      [](Acc& a, const DomainTimeline& d) {
        if (d.level != DomainLevel::kSld) return;
        a.total_domains += 1;
        std::set<ErrorCode> domain_codes;
        bool domain_any = false;
        for (const auto& s : d.snapshots) {
          a.total_snapshots += 1;
          if (!s.errors.empty()) a.any_error_snapshots += 1;
          for (const auto code : s.errors) {
            a.snapshot_counts[code] += 1;
            domain_codes.insert(code);
            domain_any = true;
          }
        }
        for (const auto code : domain_codes) a.domain_counts[code] += 1;
        if (domain_any) a.any_error_domains += 1;
      },
      [](Acc& a, Acc&& b) {
        for (const auto& [code, n] : b.snapshot_counts) {
          a.snapshot_counts[code] += n;
        }
        for (const auto& [code, n] : b.domain_counts) {
          a.domain_counts[code] += n;
        }
        a.total_snapshots += b.total_snapshots;
        a.total_domains += b.total_domains;
        a.any_error_snapshots += b.any_error_snapshots;
        a.any_error_domains += b.any_error_domains;
      });
  Table3 out;
  out.total_snapshots = acc.total_snapshots;
  out.total_domains = acc.total_domains;
  out.any_error_snapshots = acc.any_error_snapshots;
  out.any_error_domains = acc.any_error_domains;
  for (const auto code : analyzer::table3_codes()) {
    Table3Row row;
    row.code = code;
    if (const auto it = acc.snapshot_counts.find(code);
        it != acc.snapshot_counts.end()) {
      row.snapshots = it->second;
    }
    if (const auto it = acc.domain_counts.find(code);
        it != acc.domain_counts.end()) {
      row.domains = it->second;
    }
    out.rows.push_back(row);
  }
  return out;
}

std::vector<Fig3Category> compute_fig3(const Table3& table3) {
  // Folds the (tiny) Table 3 row set — no per-domain pass, stays serial.
  std::map<analyzer::ErrorCategory, std::int64_t> by_category;
  for (const auto& row : table3.rows) {
    by_category[analyzer::category_of(row.code)] += row.snapshots;
  }
  std::vector<Fig3Category> out;
  for (const auto& [category, count] : by_category) {
    Fig3Category c;
    c.category = category;
    c.snapshot_share = table3.total_snapshots == 0
                           ? 0.0
                           : static_cast<double>(count) /
                                 static_cast<double>(table3.total_snapshots);
    out.push_back(c);
  }
  return out;
}

Table4 compute_table4(const Corpus& corpus) {
  using Durations =
      std::map<SnapshotStatus, std::map<SnapshotStatus, std::vector<double>>>;
  Durations durations = reduce_domains<Durations>(
      corpus,
      [](Durations& acc, const DomainTimeline& d) {
        if (d.level != DomainLevel::kSld || !d.is_changing()) return;
        for (std::size_t i = 1; i < d.snapshots.size(); ++i) {
          const auto& prev = d.snapshots[i - 1];
          const auto& cur = d.snapshots[i];
          if (prev.status == cur.status) continue;
          if (!is_dnssec_state(prev.status) || !is_dnssec_state(cur.status)) {
            continue;
          }
          acc[prev.status][cur.status].push_back(
              static_cast<double>(cur.time - prev.time) / kHour);
        }
      },
      [](Durations& a, Durations&& b) {
        for (auto& [from, row] : b) {
          for (auto& [to, values] : row) {
            append(a[from][to], std::move(values));
          }
        }
      });
  Table4 out;
  for (auto& [from, row] : durations) {
    for (auto& [to, values] : row) {
      Table4Cell cell;
      cell.count = static_cast<std::int64_t>(values.size());
      cell.median_hours = median(values);
      out[from][to] = cell;
    }
  }
  return out;
}

RoundTripStats compute_roundtrip(const Corpus& corpus) {
  struct Acc {
    std::vector<double> down;
    std::vector<double> up;
    std::int64_t domains = 0;
  };
  Acc acc = reduce_domains<Acc>(
      corpus,
      [](Acc& a, const DomainTimeline& d) {
        if (d.level != DomainLevel::kSld) return;
        // Find sv→sb followed by sb→sv/svm.
        std::optional<std::size_t> down_at;
        for (std::size_t i = 1; i < d.snapshots.size(); ++i) {
          const auto& prev = d.snapshots[i - 1];
          const auto& cur = d.snapshots[i];
          if (is_valid_state(prev.status) &&
              cur.status == SnapshotStatus::kSignedBogus && !down_at) {
            down_at = i;
            a.down.push_back(static_cast<double>(cur.time - prev.time) /
                             kHour);
          } else if (down_at && cur.status != SnapshotStatus::kSignedBogus &&
                     is_valid_state(cur.status)) {
            a.up.push_back(
                static_cast<double>(cur.time - d.snapshots[i - 1].time) /
                kHour);
            a.domains += 1;
            break;
          }
        }
      },
      [](Acc& a, Acc&& b) {
        append(a.down, std::move(b.down));
        append(a.up, std::move(b.up));
        a.domains += b.domains;
      });
  RoundTripStats out;
  out.domains = acc.domains;
  out.down_median_hours = median(std::move(acc.down));
  out.up_median_hours = median(std::move(acc.up));
  return out;
}

std::vector<Fig4Row> compute_fig4(const Corpus& corpus) {
  // t1: first snapshot where the error is present (critical when the
  // snapshot is sb); t2: first subsequent snapshot that is sv and free of
  // the error.
  using Durations = std::map<ErrorCode, std::vector<double>>;
  Durations durations = reduce_domains<Durations>(
      corpus,
      [](Durations& acc, const DomainTimeline& d) {
        if (d.level != DomainLevel::kSld) return;
        std::map<ErrorCode, UnixTime> first_seen;
        for (const auto& s : d.snapshots) {
          for (const auto code : s.errors) {
            first_seen.try_emplace(code, s.time);
          }
          if (s.status == SnapshotStatus::kSignedValid) {
            for (auto it = first_seen.begin(); it != first_seen.end();) {
              if (!s.errors.contains(it->first)) {
                acc[it->first].push_back(
                    static_cast<double>(s.time - it->second) / kHour);
                it = first_seen.erase(it);
              } else {
                ++it;
              }
            }
          }
        }
      },
      [](Durations& a, Durations&& b) {
        for (auto& [code, values] : b) append(a[code], std::move(values));
      });
  std::vector<Fig4Row> out;
  for (const auto& cal : dataset::fig4_calibration()) {
    Fig4Row row;
    row.code = cal.code;
    row.marker = analyzer::paper_marker(cal.code).value_or(0);
    row.critical = analyzer::is_critical(cal.code);
    auto it = durations.find(cal.code);
    if (it != durations.end()) {
      row.fixes = static_cast<std::int64_t>(it->second.size());
      row.median_hours = median(it->second);
      row.p80_hours = percentile(it->second, 0.8);
    }
    out.push_back(row);
  }
  return out;
}

DeployTime compute_deploy_time(const Corpus& corpus) {
  std::vector<double> durations = reduce_domains<std::vector<double>>(
      corpus,
      [](std::vector<double>& acc, const DomainTimeline& d) {
        if (d.level != DomainLevel::kSld) return;
        std::optional<UnixTime> insecure_at;
        for (const auto& s : d.snapshots) {
          if (s.status == SnapshotStatus::kInsecure && !insecure_at) {
            insecure_at = s.time;
          } else if (insecure_at && is_signed_state(s.status)) {
            acc.push_back(static_cast<double>(s.time - *insecure_at) /
                          kHour);
            break;
          }
        }
      },
      [](std::vector<double>& a, std::vector<double>&& b) {
        append(a, std::move(b));
      });
  DeployTime out;
  out.domains = static_cast<std::int64_t>(durations.size());
  out.median_hours = median(std::move(durations));
  return out;
}

Fig5 compute_fig5(const Corpus& corpus) {
  std::vector<double> medians_days = reduce_domains<std::vector<double>>(
      corpus,
      [](std::vector<double>& acc, const DomainTimeline& d) {
        if (d.level != DomainLevel::kSld || d.snapshots.size() < 2) return;
        std::vector<double> gaps;
        for (std::size_t i = 1; i < d.snapshots.size(); ++i) {
          gaps.push_back(static_cast<double>(d.snapshots[i].time -
                                             d.snapshots[i - 1].time) /
                         kDay);
        }
        acc.push_back(median(std::move(gaps)));
      },
      [](std::vector<double>& a, std::vector<double>&& b) {
        append(a, std::move(b));
      });
  Fig5 out;
  std::sort(medians_days.begin(), medians_days.end());
  const double n = static_cast<double>(medians_days.size());
  for (double day : {0.25, 0.5, 1.0, 2.0, 4.0, 7.0, 14.0, 30.0, 90.0,
                     365.0}) {
    const auto it = std::upper_bound(medians_days.begin(),
                                     medians_days.end(), day);
    out.cdf_days.push_back(day);
    out.cdf_share.push_back(
        n == 0 ? 0.0
               : static_cast<double>(it - medians_days.begin()) / n);
  }
  const auto one_day = std::upper_bound(medians_days.begin(),
                                        medians_days.end(), 1.0);
  out.under_one_day =
      n == 0 ? 0.0
             : static_cast<double>(one_day - medians_days.begin()) / n;
  return out;
}

std::vector<Table5Row> compute_table5(const Corpus& corpus) {
  using Rows = std::map<SnapshotStatus, Table5Row>;
  Rows rows = reduce_domains<Rows>(
      corpus,
      [](Rows& acc, const DomainTimeline& d) {
        // Resolution behaviour is only observable where something changed:
        // Table 5's totals are consistent with the CD subset, not all 319K
        // domains (e.g. svm-ever 9,052 while NZIC alone touches 62,870).
        if (d.level != DomainLevel::kSld || !d.is_changing()) return;
        const SnapshotStatus last =  // dfx-lint: allow(unchecked-front-back): is_changing() => non-empty
            d.snapshots.back().status;
        for (const auto status : {SnapshotStatus::kSignedBogus,
                                  SnapshotStatus::kSignedValidMisconfig,
                                  SnapshotStatus::kInsecure}) {
          const bool ever = std::any_of(
              d.snapshots.begin(), d.snapshots.end(),
              [&](const SnapshotRow& s) { return s.status == status; });
          if (!ever) continue;
          auto& row = acc[status];
          row.status = status;
          row.domains_with_state += 1;
          // "Not resolved" — the domain *remained in that status* per its
          // latest snapshot (§3.6: 18% of once-sb domains stayed sb; 36.5%
          // of once-insecure domains never re-enabled signing).
          if (last == status) row.not_resolved += 1;
        }
      },
      [](Rows& a, Rows&& b) {
        for (const auto& [status, row] : b) {
          auto& into = a[status];
          into.status = status;
          into.domains_with_state += row.domains_with_state;
          into.not_resolved += row.not_resolved;
        }
      });
  // Statuses never observed still get a zero row, as before.
  for (const auto status :
       {SnapshotStatus::kSignedBogus, SnapshotStatus::kSignedValidMisconfig,
        SnapshotStatus::kInsecure}) {
    rows[status].status = status;
  }
  std::vector<Table5Row> out;
  for (const auto& [status, row] : rows) out.push_back(row);
  std::sort(out.begin(), out.end(), [](const Table5Row& a, const Table5Row& b) {
    return static_cast<int>(a.status) < static_cast<int>(b.status);
  });
  return out;
}

}  // namespace dfx::measure
