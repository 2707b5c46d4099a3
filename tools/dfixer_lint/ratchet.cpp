#include "dfixer_lint/ratchet.h"

#include <algorithm>
#include <set>
#include <tuple>

#include "json/json.h"

namespace dfx::lint {
namespace {

using Key = std::tuple<std::string, std::string, std::size_t>;

Key key_of(const Violation& v) { return {v.file, v.rule, v.line}; }

}  // namespace

std::string findings_to_json(const std::vector<Violation>& findings,
                             std::string_view tool) {
  json::Array arr;
  arr.reserve(findings.size());
  for (const Violation& v : findings) {
    json::Object entry;
    entry["rule"] = v.rule;
    entry["file"] = v.file;
    entry["line"] = static_cast<std::int64_t>(v.line);
    entry["severity"] = v.severity.empty() ? std::string(severity_of(v.rule))
                                           : v.severity;
    entry["excerpt"] = v.excerpt;
    arr.emplace_back(std::move(entry));
  }
  json::Object doc;
  doc["schema_version"] = std::int64_t{1};
  doc["tool"] = std::string(tool);
  doc["findings"] = std::move(arr);
  return json::serialize_pretty(json::Value(std::move(doc))) + "\n";
}

[[nodiscard]] std::optional<std::vector<Violation>> findings_from_json(
    std::string_view text, std::string* error) {
  const auto set_error = [&](std::string msg) {
    if (error != nullptr) *error = std::move(msg);
  };
  auto parsed = json::parse(text);
  if (const auto* pe = std::get_if<json::ParseError>(&parsed)) {
    set_error("JSON parse error at offset " + std::to_string(pe->offset) +
              ": " + pe->message);
    return std::nullopt;
  }
  const json::Value& doc = std::get<json::Value>(parsed);
  if (!doc.is_object()) {
    set_error("ratchet document must be a JSON object");
    return std::nullopt;
  }
  if (doc.get_int("schema_version", -1) != 1) {
    set_error("unsupported or missing schema_version (want 1)");
    return std::nullopt;
  }
  const json::Value* findings = doc.find("findings");
  if (findings == nullptr || !findings->is_array()) {
    set_error("missing 'findings' array");
    return std::nullopt;
  }
  std::vector<Violation> out;
  out.reserve(findings->as_array().size());
  for (const json::Value& entry : findings->as_array()) {
    if (!entry.is_object()) {
      set_error("finding entries must be objects");
      return std::nullopt;
    }
    Violation v;
    v.rule = entry.get_string("rule", "");
    v.file = entry.get_string("file", "");
    v.line = static_cast<std::size_t>(entry.get_int("line", 0));
    v.severity = entry.get_string("severity", "");
    v.excerpt = entry.get_string("excerpt", "");
    if (v.rule.empty() || v.file.empty() || v.line == 0) {
      set_error("finding entry needs non-empty rule/file and a 1-based line");
      return std::nullopt;
    }
    out.push_back(std::move(v));
  }
  return out;
}

RatchetDiff ratchet_diff(const std::vector<Violation>& current,
                         const std::vector<Violation>& baseline) {
  std::set<Key> current_keys;
  std::set<Key> baseline_keys;
  for (const auto& v : current) current_keys.insert(key_of(v));
  for (const auto& v : baseline) baseline_keys.insert(key_of(v));
  RatchetDiff diff;
  for (const auto& v : current) {
    if (!baseline_keys.contains(key_of(v))) diff.fresh.push_back(v);
  }
  for (const auto& v : baseline) {
    if (!current_keys.contains(key_of(v))) diff.stale.push_back(v);
  }
  const auto by_key = [](const Violation& a, const Violation& b) {
    return key_of(a) < key_of(b);
  };
  std::sort(diff.fresh.begin(), diff.fresh.end(), by_key);
  std::sort(diff.stale.begin(), diff.stale.end(), by_key);
  return diff;
}

}  // namespace dfx::lint
