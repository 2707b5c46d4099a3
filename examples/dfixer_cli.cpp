// dfixer_cli — the paper's released tool shape: feed it a diagnostic
// snapshot (the JSON this library's grok emits), get back the root-cause
// analysis and the remediation plan, in the vocabulary of your
// authoritative server.
//
//   dfixer_cli <snapshot.json> [--server bind|nsd|powerdns|knot]
//   dfixer_cli --demo          # runs on a built-in broken-zone snapshot
//
// Suggest-only by design: auto-apply needs shell access to the zone's
// server, which the evaluation harness (ZReplicator sandbox) provides.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "dfixer/dresolver.h"
#include "dfixer/translate.h"
#include "json/json.h"
#include "zreplicator/replicate.h"

using namespace dfx;

namespace {

[[nodiscard]] std::optional<analyzer::Snapshot> demo_snapshot() {
  // A zone whose only KSK is revoked while the parent DS still points at
  // it — the paper's Figure 8 scenario, replicated in the sandbox.
  zreplicator::SnapshotSpec spec;
  analyzer::KeyMeta ksk;
  ksk.flags = 0x0101;
  ksk.algorithm = 8;
  analyzer::KeyMeta zsk;
  zsk.flags = 0x0100;
  zsk.algorithm = 8;
  spec.meta.keys = {ksk, zsk};
  spec.meta.uses_nsec3 = true;
  spec.intended_errors = {analyzer::ErrorCode::kRevokedKey};
  auto replication = zreplicator::replicate(spec, 8888);
  if (!replication.complete) return std::nullopt;
  return replication.sandbox->analyze();
}

}  // namespace

int main(int argc, char** argv) {
  dfixer::ServerFlavor flavor = dfixer::ServerFlavor::kBind;
  std::string path;
  bool demo = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--demo") == 0) {
      demo = true;
    } else if (std::strcmp(argv[i], "--server") == 0 && i + 1 < argc) {
      const std::string name = argv[++i];
      if (name == "bind") {
        flavor = dfixer::ServerFlavor::kBind;
      } else if (name == "nsd") {
        flavor = dfixer::ServerFlavor::kNsd;
      } else if (name == "powerdns") {
        flavor = dfixer::ServerFlavor::kPowerDns;
      } else if (name == "knot") {
        flavor = dfixer::ServerFlavor::kKnot;
      } else {
        std::fprintf(stderr, "unknown server flavour '%s'\n", name.c_str());
        return 2;
      }
    } else {
      path = argv[i];
    }
  }

  std::optional<analyzer::Snapshot> snapshot;
  if (demo) {
    snapshot = demo_snapshot();
  } else if (!path.empty()) {
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", path.c_str());
      return 2;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    const auto parsed = json::parse(buffer.str());
    if (const auto* err = std::get_if<json::ParseError>(&parsed)) {
      std::fprintf(stderr, "%s: JSON error at offset %zu: %s\n",
                   path.c_str(), err->offset, err->message.c_str());
      return 2;
    }
    snapshot = analyzer::snapshot_from_json(std::get<json::Value>(parsed));
    if (!snapshot) {
      std::fprintf(stderr, "%s: not a valid snapshot document\n",
                   path.c_str());
      return 2;
    }
  } else {
    std::fprintf(stderr,
                 "usage: %s <snapshot.json> [--server "
                 "bind|nsd|powerdns|knot]\n       %s --demo\n",
                 argv[0], argv[0]);
    return 2;
  }

  std::printf("query zone : %s\n", snapshot->query_zone.to_string().c_str());
  std::printf("status     : %s\n",
              analyzer::status_name(snapshot->status).c_str());
  if (!snapshot->errors.empty()) {
    std::printf("errors     :\n");
    for (const auto& e : snapshot->errors) {
      std::printf("  - %-34s %s\n",
                  analyzer::error_code_name(e.code).c_str(),
                  e.detail.c_str());
    }
  }
  const auto plan = dfixer::resolve(*snapshot);
  if (plan.empty()) {
    std::printf("\nNo action needed from this zone's operator.\n");
    return 0;
  }
  std::printf("\n%s\n", dfixer::translate_plan(plan, flavor).c_str());
  return 0;
}
