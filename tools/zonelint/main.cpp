// zonelint CLI: static trust-chain analysis over zone master files.
//
//   zonelint --root <dir>                lint every *.zone under <dir>
//   zonelint [--root <dir>] FILES        lint exactly FILES
//   zonelint --json ...                  print findings as ratchet JSON
//   --baseline FILE        diff findings against FILE (the ratchet): fresh
//                          findings fail, stale baseline entries fail
//   --update-baseline      rewrite the baseline file with current findings
//   --now UNIXTIME         enable the signature-window rules at this time
//                          (decimal digits; anything else exits 2)
//
// The origin of each zone is derived from the file name: `par.a.com.zone`
// is parsed with $ORIGIN par.a.com. When a `dsset-par.a.com.` file (the DS
// set BIND's dnssec-signzone writes) sits beside the zone file, its DS
// records for the origin are the parent's DS set and the DS linkage rules
// run against them. Findings map onto the dfixer_lint
// ratchet schema (rule = error-code name, severity from the analyzer's
// criticality table) so CI diffs both tools' baselines with the same logic.
#include <algorithm>
#include <charconv>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "analyzer/errorcode.h"
#include "dfixer_lint/ratchet.h"
#include "dnscore/masterfile.h"
#include "zonelint/zonelint.h"

namespace fs = std::filesystem;
using dfx::analyzer::ErrorCode;

namespace {

struct Args {
  fs::path root = fs::current_path();
  std::vector<fs::path> files;
  std::string baseline;
  bool update_baseline = false;
  bool as_json = false;
  dfx::UnixTime now = 0;
};

/// A --now value: decimal digits only (no sign, no trailing characters)
/// within UnixTime's range; nullopt otherwise.
[[nodiscard]] std::optional<dfx::UnixTime> parse_unix_time(
    std::string_view text) {
  if (text.empty() || text.front() < '0' || text.front() > '9') {
    return std::nullopt;
  }
  dfx::UnixTime value = 0;
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc() || stop != end) return std::nullopt;
  return value;
}

std::string relative_to(const fs::path& path, const fs::path& root) {
  std::error_code ec;
  const fs::path rel = fs::relative(path, root, ec);
  if (ec || rel.empty()) return path.generic_string();
  return rel.generic_string();
}

/// `par.a.com.zone` → origin `par.a.com.`; unparsable stems fall back to
/// the root origin (relative names then fail loudly in the parser).
dfx::dns::Name origin_from_filename(const fs::path& path) {
  std::string stem = path.stem().string();
  auto parsed = dfx::dns::Name::parse(stem);
  return parsed.value_or(dfx::dns::Name::root());
}

/// Parse the master file at `path` with `origin`. On a parse error, adds
/// an `unparsable-zone-file` finding and returns nullopt.
[[nodiscard]] std::optional<std::vector<dfx::dns::ResourceRecord>>
read_records(
    const fs::path& path, const fs::path& root, const dfx::dns::Name& origin,
    std::vector<dfx::lint::Violation>& out, bool& io_ok) {
  std::ifstream in(path);
  io_ok = static_cast<bool>(in);
  if (!io_ok) {
    std::cerr << "zonelint: cannot read " << path << "\n";
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  auto parsed = dfx::dns::parse_master_file(buffer.str(), origin);
  if (const auto* err = std::get_if<dfx::dns::MasterFileError>(&parsed)) {
    dfx::lint::Violation v;
    v.file = relative_to(path, root);
    v.line = err->line == 0 ? 1 : err->line;
    v.rule = "unparsable-zone-file";
    v.severity = "error";
    v.excerpt = err->message;
    out.push_back(std::move(v));
    return std::nullopt;
  }
  return std::get<std::vector<dfx::dns::ResourceRecord>>(std::move(parsed));
}

bool lint_file(const fs::path& path, const fs::path& root, dfx::UnixTime now,
               std::vector<dfx::lint::Violation>& out) {
  const dfx::dns::Name origin = origin_from_filename(path);
  bool io_ok = false;
  const auto records = read_records(path, root, origin, out, io_ok);
  if (!records) return io_ok;
  dfx::zone::Zone zone(origin);
  for (const auto& rr : *records) zone.add(rr);

  std::vector<dfx::dns::DsRdata> parent_ds;
  const fs::path dsset = path.parent_path() / ("dsset-" + origin.to_string());
  if (fs::is_regular_file(dsset)) {
    const auto ds_records = read_records(dsset, root, origin, out, io_ok);
    if (!ds_records) return io_ok;
    for (const auto& rr : *ds_records) {
      const auto* ds = std::get_if<dfx::dns::DsRdata>(&rr.rdata);
      if (ds != nullptr && rr.owner == origin) parent_ds.push_back(*ds);
    }
  }
  dfx::zonelint::LintOptions options;
  options.now = now;
  const dfx::zonelint::Report report =
      dfx::zonelint::lint_zone(zone, parent_ds, options);
  const std::string file = relative_to(path, root);
  const auto push = [&](const dfx::zonelint::Finding& f, bool companion) {
    dfx::lint::Violation v;
    v.file = file;
    v.line = 1;  // master files carry no per-finding anchor; key on rule
    v.rule = dfx::analyzer::error_code_name(f.code);
    v.severity = companion || !dfx::analyzer::is_critical(f.code)
                     ? "warning"
                     : "error";
    v.excerpt = f.detail;
    out.push_back(std::move(v));
  };
  for (const auto& f : report.findings) push(f, false);
  for (const auto& f : report.companions) push(f, true);
  return true;
}

std::string read_file(const std::string& path, bool& ok) {
  std::ifstream in(path);
  ok = static_cast<bool>(in);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root") {
      if (++i >= argc) {
        std::cerr << "zonelint: --root needs an argument\n";
        return 2;
      }
      args.root = argv[i];
    } else if (arg == "--baseline") {
      if (++i >= argc) {
        std::cerr << "zonelint: --baseline needs an argument\n";
        return 2;
      }
      args.baseline = argv[i];
    } else if (arg == "--update-baseline") {
      args.update_baseline = true;
    } else if (arg == "--json") {
      args.as_json = true;
    } else if (arg == "--now") {
      if (++i >= argc) {
        std::cerr << "zonelint: --now needs an argument\n";
        return 2;
      }
      const auto now = parse_unix_time(argv[i]);
      if (!now.has_value()) {
        std::cerr << "zonelint: --now needs a UNIXTIME of decimal digits "
                     "within range, got '"
                  << argv[i] << "'\n";
        return 2;
      }
      args.now = *now;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: zonelint [--root DIR] [--json] [--now UNIXTIME] "
                   "[--baseline FILE] [--update-baseline] [FILES...]\n";
      return 0;
    } else {
      args.files.emplace_back(arg);
    }
  }
  if (args.update_baseline && args.baseline.empty()) {
    std::cerr << "zonelint: --update-baseline needs --baseline FILE\n";
    return 2;
  }

  if (args.files.empty()) {
    std::error_code ec;
    for (fs::recursive_directory_iterator it(args.root, ec), end;
         !ec && it != end; it.increment(ec)) {
      if (it->is_regular_file() && it->path().extension() == ".zone") {
        args.files.push_back(it->path());
      }
    }
    std::sort(args.files.begin(), args.files.end());
  }

  std::vector<dfx::lint::Violation> findings;
  for (const auto& file : args.files) {
    if (!lint_file(file, args.root, args.now, findings)) return 2;
  }

  if (args.as_json) {
    std::cout << dfx::lint::findings_to_json(findings, "zonelint");
  }

  if (args.baseline.empty()) {
    for (const auto& v : findings) {
      if (!args.as_json) {
        std::cout << v.file << ":" << v.line << ": " << v.severity << " ["
                  << v.rule << "] " << v.excerpt << "\n";
      }
    }
    return findings.empty() ? 0 : 1;
  }

  if (args.update_baseline) {
    std::ofstream out(args.baseline);
    if (!out) {
      std::cerr << "zonelint: cannot write " << args.baseline << "\n";
      return 2;
    }
    out << dfx::lint::findings_to_json(findings, "zonelint");
    std::cout << "zonelint: baseline updated (" << findings.size()
              << " findings)\n";
    return 0;
  }

  bool ok = false;
  const std::string text = read_file(args.baseline, ok);
  if (!ok) {
    std::cerr << "zonelint: cannot read baseline " << args.baseline << "\n";
    return 2;
  }
  std::string error;
  auto baseline = dfx::lint::findings_from_json(text, &error);
  if (!baseline.has_value()) {
    std::cerr << "zonelint: bad baseline: " << error << "\n";
    return 2;
  }
  const auto diff = dfx::lint::ratchet_diff(findings, *baseline);
  for (const auto& v : diff.fresh) {
    std::cout << "fresh: " << v.file << ":" << v.line << " [" << v.rule
              << "] " << v.excerpt << "\n";
  }
  for (const auto& v : diff.stale) {
    std::cout << "stale: " << v.file << ":" << v.line << " [" << v.rule
              << "] (baseline entry no longer found — prune it)\n";
  }
  if (!diff.clean()) {
    std::cout << "zonelint: ratchet violated (" << diff.fresh.size()
              << " fresh, " << diff.stale.size() << " stale)\n";
    return 1;
  }
  std::cout << "zonelint: clean against baseline (" << findings.size()
            << " findings)\n";
  return 0;
}
