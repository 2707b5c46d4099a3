// Benchmark: zonelint's static analysis and the ZoneStore admission check.
//
// The admission contract (zonelint/admission.h) is that the policy — one
// read of the apex plus the signature bound the zone keeps, with the
// one-walk cost scan only where that bound cannot settle the verdict — is
// cheap enough to run on every ZoneStore upsert.
//
// Two measurements of that overhead:
//
//  1. Direct (asserted): the admission policy is timed in isolation over
//     the fleet and divided by the plain upsert time. This is exactly the
//     work the policy adds per upsert, and both numerator and denominator
//     are min-of-reps, so the <5% assertion is stable even on noisy
//     shared machines (set DFX_ZONELINT_NO_ASSERT=1 to waive anyway).
//  2. End-to-end (reported): paired upsert passes with and without the
//     policy, alternating which config runs first, median of the per-rep
//     ratios. Differencing two whole-pass timings extracts a ~4% signal
//     from runs that can drift 3-4x on shared hardware, so this number is
//     recorded for the journal but never gates.
//
// Both timed fleets are benign on purpose: a rejected upsert skips the
// map copy and publish and would flatter the admission path.
//
// The full `lint_zone` pass (denial walks, probe answers, fix synthesis)
// is timed separately for the record; it is the CI-time path, not the
// serving path.
//
// Emits BENCH_zonelint.json via the bench_common schema; the committed
// record lives in bench/records/.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "server/zonestore.h"
#include "util/rng.h"
#include "zone/key.h"
#include "zone/signer.h"
#include "zone/zone.h"
#include "zonelint/admission.h"
#include "zonelint/zonelint.h"

namespace {

/// One benign signed zone with `hosts` terminal names, NSEC3 on odd
/// indices so both denial modes are in the timed mix.
dfx::zone::Zone make_signed_zone(dfx::Rng& rng, std::size_t index,
                                 std::size_t hosts, dfx::UnixTime now) {
  using namespace dfx;
  const dns::Name apex =
      dns::Name::of("zone" + std::to_string(index) + ".bench.example.");
  zone::Zone z(apex);
  dns::SoaRdata soa;
  soa.mname = apex.child("ns1");
  soa.rname = apex.child("hostmaster");
  soa.serial = 2026010100;
  soa.refresh = 7200;
  soa.retry = 3600;
  soa.expire = 1209600;
  soa.minimum = 3600;
  z.add(apex, dns::RRType::kSOA, 3600, soa);
  z.add(apex, dns::RRType::kNS, 3600, dns::NsRdata{apex.child("ns1")});
  z.add(apex, dns::RRType::kNS, 3600, dns::NsRdata{apex.child("ns2")});
  z.add(apex.child("ns1"), dns::RRType::kA, 3600,
        dns::ARdata{{192, 0, 2, 53}});
  z.add(apex.child("ns2"), dns::RRType::kA, 3600,
        dns::ARdata{{192, 0, 2, 54}});
  for (std::size_t h = 0; h < hosts; ++h) {
    z.add(apex.child("host" + std::to_string(h)), dns::RRType::kA, 3600,
          dns::ARdata{{10, 0, static_cast<std::uint8_t>(h >> 8),
                       static_cast<std::uint8_t>(h & 0xFF)}});
  }
  zone::KeyStore keys(apex);
  keys.generate(rng, zone::KeyRole::kKsk,
                crypto::DnssecAlgorithm::kEcdsaP256Sha256, now);
  keys.generate(rng, zone::KeyRole::kZsk,
                crypto::DnssecAlgorithm::kEcdsaP256Sha256, now);
  zone::SigningConfig config;
  config.denial =
      index % 2 == 1 ? zone::DenialMode::kNsec3 : zone::DenialMode::kNsec;
  return zone::sign_zone(z, keys, config, now);
}

/// One timed upsert pass of the whole fleet into a fresh store.
double upsert_pass(const std::vector<dfx::zone::Zone>& zones,
                   bool with_policy) {
  dfx::server::ZoneStore store;
  if (with_policy) {
    store.set_admission_policy(dfx::zonelint::make_admission_policy());
  }
  const auto begin = std::chrono::steady_clock::now();
  for (const auto& zone : zones) {
    if (!store.upsert(zone)) {
      std::fprintf(stderr, "bench_zonelint: benign zone rejected\n");
      std::exit(1);
    }
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       begin)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = dfx::bench::parse_args(argc, argv);
  dfx::bench::BenchRun run("zonelint", args);
  constexpr dfx::UnixTime kNow = 1754000000;
  const bool debug = std::getenv("DFX_ZONELINT_DEBUG") != nullptr;

  // ~64 zones at the default --count 1500; floor keeps the ratio
  // measurable at tiny scales.
  const std::size_t zone_count = std::max<std::size_t>(16, args.count / 24);
  const std::size_t hosts_per_zone = 24;

  auto zones = run.stage("build_zones", [&] {
    dfx::Rng rng(args.seed);
    std::vector<dfx::zone::Zone> out;
    out.reserve(zone_count);
    for (std::size_t i = 0; i < zone_count; ++i) {
      out.push_back(make_signed_zone(rng, i, hosts_per_zone, kNow));
    }
    return out;
  });
  run.set_items(static_cast<std::int64_t>(zones.size()));

  // Direct measurement: the policy callable in isolation vs the plain
  // upsert it piggybacks on. min-of-reps on both sides.
  constexpr int kScanReps = 15;
  double policy_seconds = 1e300;
  double plain_seconds = 1e300;
  run.stage("admission_scan", [&] {
    const auto policy = dfx::zonelint::make_admission_policy();
    std::size_t sink = 0;
    for (const auto& zone : zones) sink += policy(zone).reason.size();
    for (int rep = 0; rep < kScanReps; ++rep) {
      const auto begin = std::chrono::steady_clock::now();
      for (const auto& zone : zones) sink += policy(zone).reason.size();
      policy_seconds = std::min(
          policy_seconds, std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - begin)
                              .count());
    }
    if (sink != 0) {
      std::fprintf(stderr, "bench_zonelint: benign zone drew a verdict\n");
      std::exit(1);
    }
    upsert_pass(zones, /*with_policy=*/false);
    for (int rep = 0; rep < kScanReps; ++rep) {
      plain_seconds =
          std::min(plain_seconds, upsert_pass(zones, /*with_policy=*/false));
    }
  });
  const double direct_overhead =
      plain_seconds > 0.0 ? policy_seconds / plain_seconds : 0.0;

  // End-to-end cross-check: paired passes, alternating order, median of
  // the per-rep ratios. Reported only — see the header comment.
  constexpr int kPairReps = 9;
  double admitted_seconds = 1e300;
  std::vector<double> ratios;
  upsert_pass(zones, /*with_policy=*/true);
  run.stage("upsert_paired", [&] {
    for (int rep = 0; rep < kPairReps; ++rep) {
      const bool plain_first = rep % 2 == 0;
      double p, a;
      if (plain_first) {
        p = upsert_pass(zones, /*with_policy=*/false);
        a = upsert_pass(zones, /*with_policy=*/true);
      } else {
        a = upsert_pass(zones, /*with_policy=*/true);
        p = upsert_pass(zones, /*with_policy=*/false);
      }
      if (debug) {
        std::printf("rep %d (%s first): plain %.4fs admitted %.4fs\n", rep,
                    plain_first ? "plain" : "admitted", p, a);
      }
      admitted_seconds = std::min(admitted_seconds, a);
      if (p > 0.0) ratios.push_back(a / p);
    }
    std::sort(ratios.begin(), ratios.end());
  });
  const double paired_overhead =
      ratios.empty() ? 0.0 : ratios[ratios.size() / 2] - 1.0;

  // The CI-time path: full lint (denial walks, probe answers, fixes).
  std::size_t total_findings = 0;
  run.stage("lint_full", [&] {
    dfx::zonelint::LintOptions options;
    options.now = kNow;
    for (const auto& zone : zones) {
      const auto report = dfx::zonelint::lint_zone(zone, {}, options);
      total_findings += report.findings.size();
    }
  });

  auto& registry = dfx::metrics::Registry::global();
  registry.counter("zonelint.bench.zones")
      .add(static_cast<std::int64_t>(zones.size()));
  registry.counter("zonelint.bench.benign_findings")
      .add(static_cast<std::int64_t>(total_findings));
  registry.counter("zonelint.bench.admission_overhead_bp")
      .add(static_cast<std::int64_t>(direct_overhead * 10000.0));
  registry.counter("zonelint.bench.paired_overhead_bp")
      .add(static_cast<std::int64_t>(paired_overhead * 10000.0));

  std::printf(
      "bench_zonelint: %zu zones, plain upsert min %.4fs (%.2f us/zone), "
      "policy scan min %.4fs (direct overhead %.2f%%, paired median "
      "%.2f%%), admitted min %.4fs, lint findings %zu\n",
      zones.size(), plain_seconds,
      plain_seconds * 1e6 / static_cast<double>(zones.size()),
      policy_seconds, direct_overhead * 100.0, paired_overhead * 100.0,
      admitted_seconds, total_findings);
  run.checksum_text("findings", std::to_string(total_findings));

  if (total_findings != 0) {
    std::fprintf(stderr,
                 "bench_zonelint: benign fleet must lint clean (%zu)\n",
                 total_findings);
    return 1;
  }
  const bool skip_assert = std::getenv("DFX_ZONELINT_NO_ASSERT") != nullptr;
  if (!skip_assert && direct_overhead > 0.05) {
    std::fprintf(stderr,
                 "bench_zonelint: admission overhead %.2f%% exceeds the 5%% "
                 "budget (set DFX_ZONELINT_NO_ASSERT=1 to waive)\n",
                 direct_overhead * 100.0);
    return 1;
  }
  return run.finish();
}
