// Shared harness for the per-table/figure bench binaries: CLI parsing,
// corpus construction, and machine-readable result emission. Every binary
// accepts:
//   --scale <f>    corpus scale relative to the paper (default 0.1)
//   --seed <n>     RNG seed (default 20240925)
//   --count <n>    evaluation-pipeline sample count (table 6/7 benches)
//   --threads <n>  worker threads for the parallel stages (default: auto)
//   --json-dir <d> directory for BENCH_<name>.json (default ".")
//   --no-json      skip the JSON emission
//
// Alongside its human-readable report, each binary writes
// `BENCH_<name>.json` (schema documented in docs/BENCHMARKS.md): wall time,
// throughput, thread count, per-stage timings, FNV-1a checksums of the
// rendered output, and a snapshot of the global metrics registry. The
// checksums let cross-PR tooling assert that a perf change did not change
// results.
//
// Thread-safety: a BenchRun is owned and driven by main() on one thread;
// the stages it times may fan out internally via util/parallel.h.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "dataset/corpus.h"
#include "dataset/generator.h"
#include "json/json.h"
#include "util/metrics.h"
#include "util/parallel.h"

namespace dfx::bench {

struct Args {
  double scale = 0.1;
  std::uint64_t seed = 20240925;
  std::size_t count = 1500;
  unsigned threads = 0;  // 0 = resolve from DFX_THREADS / hardware
  std::string json_dir = ".";
  bool emit_json = true;
};

inline Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (std::strcmp(argv[i], "--scale") == 0) {
      args.scale = std::strtod(next(), nullptr);
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      args.seed = std::strtoull(next(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--count") == 0) {
      args.count = std::strtoull(next(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      args.threads =
          static_cast<unsigned>(std::strtoul(next(), nullptr, 10));
    } else if (std::strcmp(argv[i], "--json-dir") == 0) {
      args.json_dir = next();
    } else if (std::strcmp(argv[i], "--no-json") == 0) {
      args.emit_json = false;
    } else if (std::strcmp(argv[i], "--help") == 0) {
      std::printf(
          "usage: %s [--scale f] [--seed n] [--count n] [--threads n] "
          "[--json-dir d] [--no-json]\n",
          argv[0]);
      std::exit(0);
    }
  }
  return args;
}

inline dataset::Corpus make_corpus(const Args& args) {
  dataset::GeneratorOptions options;
  options.scale = args.scale;
  options.seed = args.seed;
  return dataset::generate_corpus(options);
}

/// FNV-1a 64-bit over a byte string; the checksum primitive for rendered
/// reports (stable across platforms, cheap, good enough for equality).
inline std::uint64_t fnv1a64(std::string_view s) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

/// One benchmark execution: times the whole run and each named stage,
/// collects checksums, and emits `BENCH_<name>.json` on finish().
class BenchRun {
 public:
  BenchRun(std::string name, const Args& args)
      : name_(std::move(name)),
        args_(args),
        start_(std::chrono::steady_clock::now()) {
    // A process is one run: the global registry starts empty, so the
    // snapshot in the JSON covers exactly this execution.
    if (args_.threads != 0) {
      ThreadPool::set_global_thread_count(args_.threads);
    }
  }

  /// Run `fn`, record its wall time as stage `stage_name`, return its
  /// result.
  template <typename Fn>
  auto stage(std::string_view stage_name, Fn&& fn) {
    const auto begin = std::chrono::steady_clock::now();
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      record_stage(stage_name, begin);
    } else {
      auto result = fn();
      record_stage(stage_name, begin);
      return result;
    }
  }

  /// Items processed, for the throughput figure (domains, specs, ...).
  void set_items(std::int64_t items) { items_ = items; }

  void checksum(std::string_view key, std::uint64_t value) {
    checksums_.emplace_back(std::string(key), value);
  }
  void checksum_text(std::string_view key, std::string_view text) {
    checksum(key, fnv1a64(text));
  }

  /// Write BENCH_<name>.json (unless --no-json). Returns the process exit
  /// code so main() can end with `return run.finish();`.
  int finish() {
    if (!args_.emit_json) return 0;
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start_)
                            .count();
    json::Object root;
    root["bench"] = json::Value(name_);
    root["schema_version"] = json::Value(static_cast<std::int64_t>(1));
    json::Object cli;
    cli["scale"] = json::Value(args_.scale);
    cli["seed"] = json::Value(static_cast<std::int64_t>(args_.seed));
    cli["count"] = json::Value(static_cast<std::int64_t>(args_.count));
    cli["threads"] = json::Value(
        static_cast<std::int64_t>(ThreadPool::resolved_global_thread_count()));
    root["args"] = json::Value(std::move(cli));
    root["wall_seconds"] = json::Value(wall);
    root["items"] = json::Value(items_);
    root["items_per_second"] =
        json::Value(wall > 0.0 ? static_cast<double>(items_) / wall : 0.0);
    root["hardware_concurrency"] = json::Value(
        static_cast<std::int64_t>(std::thread::hardware_concurrency()));
    json::Array stages;
    for (const auto& [stage_name, seconds] : stages_) {
      json::Object s;
      s["name"] = json::Value(stage_name);
      s["seconds"] = json::Value(seconds);
      stages.push_back(json::Value(std::move(s)));
    }
    root["stages"] = json::Value(std::move(stages));
    json::Object sums;
    for (const auto& [key, value] : checksums_) {
      // Hex string: JSON ints are signed 64-bit, checksums are not.
      char buf[32];
      std::snprintf(buf, sizeof buf, "%016llx",
                    static_cast<unsigned long long>(value));
      sums[key] = json::Value(std::string(buf));
    }
    root["checksums"] = json::Value(std::move(sums));
    root["metrics"] = metrics::Registry::global().snapshot();
    const std::string path = args_.json_dir + "/BENCH_" + name_ + ".json";
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
      return 1;
    }
    out << json::serialize_pretty(json::Value(std::move(root))) << "\n";
    return out.good() ? 0 : 1;
  }

 private:
  void record_stage(std::string_view stage_name,
                    std::chrono::steady_clock::time_point begin) {
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - begin)
                               .count();
    stages_.emplace_back(std::string(stage_name), seconds);
  }

  std::string name_;
  Args args_;
  std::chrono::steady_clock::time_point start_;
  std::vector<std::pair<std::string, double>> stages_;
  std::vector<std::pair<std::string, std::uint64_t>> checksums_;
  std::int64_t items_ = 0;
};

}  // namespace dfx::bench
