// The finding ratchet: dfixer_lint serializes its findings to JSON and CI
// compares them against the committed baseline (tools/dfixer_lint/
// baseline.json). The diff runs in both directions — a finding absent from
// the baseline ("fresh") fails the build, and a baseline entry with no
// matching finding ("stale") also fails, so the baseline can only shrink.
// docs/STATIC_ANALYSIS.md § "The finding ratchet" has the workflow.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "dfixer_lint/lint_core.h"

namespace dfx::lint {

/// Serialize findings to the ratchet JSON schema:
///   { "schema_version": 1, "tool": "<tool>",
///     "findings": [{"rule","file","line","severity","excerpt"}, ...] }
/// `tool` names the producer; zonelint shares the schema (and this code)
/// with dfixer_lint, so its baseline diffs the same way in CI.
std::string findings_to_json(const std::vector<Violation>& findings,
                             std::string_view tool = "dfixer_lint");

/// Parse a ratchet JSON document. Returns nullopt (and sets *error when
/// non-null) on malformed JSON or a schema mismatch.
[[nodiscard]] std::optional<std::vector<Violation>> findings_from_json(
    std::string_view text, std::string* error = nullptr);

struct RatchetDiff {
  std::vector<Violation> fresh;  // in current, not in baseline → regression
  std::vector<Violation> stale;  // in baseline, not in current → fixed; prune
  bool clean() const { return fresh.empty() && stale.empty(); }
};

/// Two-direction diff keyed on (file, rule, line).
RatchetDiff ratchet_diff(const std::vector<Violation>& current,
                         const std::vector<Violation>& baseline);

}  // namespace dfx::lint
