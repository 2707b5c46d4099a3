// The perfbench binary: runs one workload per process.
//
//   perfbench --workload replay|serve-hot|serve-miss --seed N --seconds S
//             [--trace 0|1] [--trace-out FILE]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the traced
// variant and prints the per-layer metrics instead. The last line of
// standard output is the JSON result. Exit status 0 means the run
// completed (its "correct" field says whether every check passed); 2 is a
// usage error.
#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <exception>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "trace.h"

namespace perfbench {

void Report::fail(const std::string& why) {
  std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
  failures_.push_back(why);
}

void Report::pass(const std::string& name, std::int64_t attempted,
                  std::int64_t failed) {
  passes_.push_back({name, attempted, failed});
  if (failed != 0) {
    fail(name + ": " + std::to_string(failed) + " of " +
         std::to_string(attempted) + " ops failed");
  }
}

void Report::print() const {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  for (const Pass& p : passes_) {
    std::printf("pass %-22s attempted %9" PRId64 "  succeeded %9" PRId64
                "  failed %" PRId64 "\n",
                p.name.c_str(), p.attempted, p.attempted - p.failed,
                p.failed);
    attempted += p.attempted;
    failed += p.failed;
  }
  for (const auto& why : failures_) std::printf("FAILED %s\n", why.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %" PRId64
              ", \"failed\": %" PRId64 ", \"metrics\": {",
              correct() ? "true" : "false", attempted, failed);
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    const double value = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), value, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter keeps the high-water mark
  // of the process image that exec'd this one (e.g. a Python launcher).
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, status) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(status);
  return kib / 1024.0;
}

void pin_to_cpu(unsigned index) {
  // Read once, before any thread has pinned itself (a new thread inherits
  // its creator's mask, and only the main thread creates client threads).
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return out;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) out.push_back(cpu);
    }
    return out;
  }();
  if (cpus.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[index % cpus.size()], &one);
  pthread_setaffinity_np(pthread_self(), sizeof one, &one);
}

double seconds_between(std::int64_t begin_ns, std::int64_t end_ns) {
  return static_cast<double>(end_ns - begin_ns) / 1e9;
}

std::int64_t thread_cpu_ns() {
  timespec now{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
  return static_cast<std::int64_t>(now.tv_sec) * 1'000'000'000 + now.tv_nsec;
}

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match "end_to_end" and "per_layer" in BENCHMARK.json (run.py checks).
constexpr MetricSpec kEndToEnd[] = {
    {"ops_per_s", "1/s"},       {"ops_per_s_mt", "1/s"},
    {"latency_p50_us", "us"},   {"latency_p99_us", "us"},
    {"setup_s", "s"},           {"peak_rss_mb", "MB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"zreplicator.replicate_ms", "ms"},
    {"zreplicator.apply_us.keygen", "us"},
    {"zreplicator.apply_us.signzone", "us"},
    {"zreplicator.apply_us.other", "us"},
    {"analyzer.probe_us", "us"},
    {"analyzer.grok_us", "us"},
    {"dfixer.resolve_us", "us"},
    {"dfixer.autofix_self_us", "us"},
    {"crypto.keygen_us", "us"},
    {"crypto.sign_us", "us"},
    {"crypto.verify_us", "us"},
    {"dfixer.iterations_per_fix", "count"},
    {"dfixer.commands_per_fix", "count"},
    {"zone.keys_per_spec", "count"},
    {"zone.rrsigs_per_spec", "count"},
    {"analyzer.errors_per_snapshot", "count"},
    {"analyzer.analyses_per_spec", "count"},
    {"zreplicator.replication_rate", "ratio"},
    {"dfixer.fix_rate", "ratio"},
    {"server.serve_ns", "ns"},
    {"server.cache.lookup_ns", "ns"},
    {"server.frontend_self_ns", "ns"},
    {"server.mt_scaling", "ratio"},
    {"server.cache.hit_ratio", "ratio"},
    {"server.cache.synth_share", "ratio"},
    {"server.cache.inserts_per_query", "count"},
    {"server.store.find_us", "us"},
    {"authserver.answer_us.nsec_nx", "us"},
    {"authserver.answer_us.nsec3_nx", "us"},
    {"authserver.answer_us.positive", "us"},
    {"authserver.answer_us.nodata", "us"},
    {"server.cache.synthesize_us", "us"},
    {"server.store.upsert_ms", "ms"},
    {"zonelint.admission_ms", "ms"},
    {"trace.overhead", "ratio"},
    {"trace.coverage", "ratio"},
};

const char* unit_of(const std::string& name) {
  for (const MetricSpec& m : kEndToEnd) {
    if (name == m.name) return m.unit;
  }
  for (const MetricSpec& m : kPerLayer) {
    if (name == m.name) return m.unit;
  }
  return nullptr;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "replay|serve-hot|serve-miss --seed N --seconds S "
               "[--trace 0|1] [--trace-out FILE]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0') usage("--seed takes an integer");
      have_seed = true;
    } else if (flag == "--seconds") {
      const long seconds = std::strtol(value, &end, 10);
      if (end == value || *end != '\0' || seconds < 1 || seconds > 60) {
        usage("--seconds takes an integer from 1 to 60");
      }
      options.seconds = static_cast<int>(seconds);
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        usage("--trace takes 0 or 1");
      }
      options.trace = value[0] == '1';
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed) usage("--seed is required");
  return options;
}

}  // namespace

void Report::metric(const std::string& name, double value) {
  const char* unit = unit_of(name);
  if (unit == nullptr) throw std::logic_error("unlisted metric " + name);
  metrics_[name] = {value, unit};
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options options = parse(argc, argv);
  Report report;
  try {
    if (options.workload == "replay") {
      run_replay(options, report);
    } else if (options.workload == "serve-hot") {
      run_serve_hot(options, report);
    } else if (options.workload == "serve-miss") {
      run_serve_miss(options, report);
    } else {
      usage("unknown workload");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  if (options.trace) {
    for (const MetricSpec& m : kPerLayer) {
      // A layer the workload does not call into did no work on it.
      if (!report.has_metric(m.name)) report.metric(m.name, 0.0);
    }
    if (trace::dropped() > 0) {
      report.fail("span buffers overflowed (" +
                  std::to_string(trace::dropped()) + " spans dropped)");
    }
  } else {
    report.metric("peak_rss_mb", peak_rss_mb());
    for (const MetricSpec& m : kEndToEnd) {
      if (report.has_metric(m.name)) continue;
      // A run stops timing at its first failed gate.
      if (report.correct()) {
        std::fprintf(stderr, "perfbench: workload did not report %s\n",
                     m.name);
        return 1;
      }
      report.metric(m.name, 0.0);
    }
  }
  report.print();
  return 0;
}
