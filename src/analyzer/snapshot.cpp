#include "analyzer/snapshot.h"

#include <algorithm>

namespace dfx::analyzer {
namespace {

json::Value error_to_json(const ErrorInstance& e) {
  json::Object obj;
  obj["code"] = json::Value(static_cast<std::int64_t>(e.code));
  obj["name"] = json::Value(error_code_name(e.code));
  obj["zone"] = json::Value(e.zone.to_string());
  obj["detail"] = json::Value(e.detail);
  return json::Value(std::move(obj));
}

[[nodiscard]] std::optional<ErrorInstance> error_from_json(
    const json::Value& v) {
  if (!v.is_object()) return std::nullopt;
  ErrorInstance e;
  e.code = static_cast<ErrorCode>(v.get_int("code", 0));
  auto zone = dns::Name::parse(v.get_string("zone", "."));
  if (!zone) return std::nullopt;
  e.zone = *zone;
  e.detail = v.get_string("detail", "");
  return e;
}

}  // namespace

std::string status_name(SnapshotStatus status) {
  switch (status) {
    case SnapshotStatus::kSignedValid:
      return "sv";
    case SnapshotStatus::kSignedValidMisconfig:
      return "svm";
    case SnapshotStatus::kSignedBogus:
      return "sb";
    case SnapshotStatus::kInsecure:
      return "is";
    case SnapshotStatus::kLame:
      return "lm";
    case SnapshotStatus::kIncomplete:
      return "ic";
  }
  return "?";
}

[[nodiscard]] std::optional<SnapshotStatus> status_from_name(
    std::string_view name) {
  if (name == "sv") return SnapshotStatus::kSignedValid;
  if (name == "svm") return SnapshotStatus::kSignedValidMisconfig;
  if (name == "sb") return SnapshotStatus::kSignedBogus;
  if (name == "is") return SnapshotStatus::kInsecure;
  if (name == "lm") return SnapshotStatus::kLame;
  if (name == "ic") return SnapshotStatus::kIncomplete;
  return std::nullopt;
}

std::vector<ErrorInstance> Snapshot::target_zone_errors() const {
  std::vector<ErrorInstance> out;
  for (const auto& e : errors) {
    if (e.zone == query_zone) out.push_back(e);
  }
  return out;
}

bool Snapshot::has_error(ErrorCode code) const {
  return std::any_of(errors.begin(), errors.end(),
                     [&](const ErrorInstance& e) { return e.code == code; });
}

bool Snapshot::has_companion(ErrorCode code) const {
  return std::any_of(
      companions.begin(), companions.end(),
      [&](const ErrorInstance& e) { return e.code == code; });
}

json::Value snapshot_to_json(const Snapshot& snapshot) {
  json::Object obj;
  obj["query_domain"] = json::Value(snapshot.query_domain.to_string());
  obj["query_zone"] = json::Value(snapshot.query_zone.to_string());
  obj["time"] = json::Value(snapshot.time);
  obj["status"] = json::Value(status_name(snapshot.status));

  json::Array errors;
  for (const auto& e : snapshot.errors) errors.push_back(error_to_json(e));
  obj["errors"] = json::Value(std::move(errors));

  json::Array companions;
  for (const auto& e : snapshot.companions) {
    companions.push_back(error_to_json(e));
  }
  obj["companions"] = json::Value(std::move(companions));

  json::Object meta;
  meta["apex"] = json::Value(snapshot.target_meta.apex.to_string());
  meta["server_count"] =
      json::Value(static_cast<std::int64_t>(snapshot.target_meta.server_count));
  json::Array keys;
  for (const auto& k : snapshot.target_meta.keys) {
    json::Object key;
    key["flags"] = json::Value(static_cast<std::int64_t>(k.flags));
    key["algorithm"] = json::Value(static_cast<std::int64_t>(k.algorithm));
    key["key_tag"] = json::Value(static_cast<std::int64_t>(k.key_tag));
    key["key_bits"] = json::Value(static_cast<std::int64_t>(k.key_bits));
    key["length_plausible"] = json::Value(k.length_plausible);
    keys.push_back(json::Value(std::move(key)));
  }
  meta["keys"] = json::Value(std::move(keys));
  json::Array ds_records;
  for (const auto& d : snapshot.target_meta.ds_records) {
    json::Object ds;
    ds["key_tag"] = json::Value(static_cast<std::int64_t>(d.key_tag));
    ds["algorithm"] = json::Value(static_cast<std::int64_t>(d.algorithm));
    ds["digest_type"] = json::Value(static_cast<std::int64_t>(d.digest_type));
    ds["digest"] = json::Value(d.digest_hex);
    ds["matches_dnskey"] = json::Value(d.matches_dnskey);
    ds["valid"] = json::Value(d.valid);
    ds_records.push_back(json::Value(std::move(ds)));
  }
  meta["ds_records"] = json::Value(std::move(ds_records));
  meta["uses_nsec3"] = json::Value(snapshot.target_meta.uses_nsec3);
  meta["nsec3_iterations"] = json::Value(
      static_cast<std::int64_t>(snapshot.target_meta.nsec3_iterations));
  meta["nsec3_salt"] = json::Value(snapshot.target_meta.nsec3_salt_hex);
  meta["nsec3_opt_out"] = json::Value(snapshot.target_meta.nsec3_opt_out);
  meta["max_ttl"] =
      json::Value(static_cast<std::int64_t>(snapshot.target_meta.max_ttl));
  meta["has_wildcard"] = json::Value(snapshot.target_meta.has_wildcard);
  obj["target_meta"] = json::Value(std::move(meta));
  return json::Value(std::move(obj));
}

[[nodiscard]] std::optional<Snapshot> snapshot_from_json(
    const json::Value& value) {
  if (!value.is_object()) return std::nullopt;
  Snapshot out;
  auto qd = dns::Name::parse(value.get_string("query_domain", ""));
  auto qz = dns::Name::parse(value.get_string("query_zone", ""));
  if (!qd || !qz) return std::nullopt;
  out.query_domain = *qd;
  out.query_zone = *qz;
  out.time = value.get_int("time", 0);
  auto status = status_from_name(value.get_string("status", ""));
  if (!status) return std::nullopt;
  out.status = *status;

  const auto read_errors = [&](const char* key,
                               std::vector<ErrorInstance>& dst) {
    const auto* arr = value.find(key);
    if (arr == nullptr || !arr->is_array()) return;
    for (const auto& item : arr->as_array()) {
      auto e = error_from_json(item);
      if (e) dst.push_back(*std::move(e));
    }
  };
  read_errors("errors", out.errors);
  read_errors("companions", out.companions);

  const auto* meta = value.find("target_meta");
  if (meta != nullptr && meta->is_object()) {
    auto apex = dns::Name::parse(meta->get_string("apex", "."));
    if (apex) out.target_meta.apex = *apex;
    out.target_meta.server_count =
        static_cast<int>(meta->get_int("server_count", 2));
    if (const auto* keys = meta->find("keys");
        keys != nullptr && keys->is_array()) {
      for (const auto& item : keys->as_array()) {
        KeyMeta k;
        k.flags = static_cast<std::uint16_t>(item.get_int("flags", 0x0100));
        k.algorithm = static_cast<std::uint8_t>(item.get_int("algorithm", 8));
        k.key_tag = static_cast<std::uint16_t>(item.get_int("key_tag", 0));
        k.key_bits =
            static_cast<std::size_t>(item.get_int("key_bits", 0));
        k.length_plausible = item.get_bool("length_plausible", true);
        out.target_meta.keys.push_back(k);
      }
    }
    if (const auto* ds_arr = meta->find("ds_records");
        ds_arr != nullptr && ds_arr->is_array()) {
      for (const auto& item : ds_arr->as_array()) {
        DsMeta d;
        d.key_tag = static_cast<std::uint16_t>(item.get_int("key_tag", 0));
        d.algorithm = static_cast<std::uint8_t>(item.get_int("algorithm", 8));
        d.digest_type =
            static_cast<std::uint8_t>(item.get_int("digest_type", 2));
        d.digest_hex = item.get_string("digest", "");
        d.matches_dnskey = item.get_bool("matches_dnskey", false);
        d.valid = item.get_bool("valid", false);
        out.target_meta.ds_records.push_back(d);
      }
    }
    out.target_meta.uses_nsec3 = meta->get_bool("uses_nsec3", false);
    out.target_meta.nsec3_iterations =
        static_cast<std::uint16_t>(meta->get_int("nsec3_iterations", 0));
    out.target_meta.nsec3_salt_hex = meta->get_string("nsec3_salt", "");
    out.target_meta.nsec3_opt_out = meta->get_bool("nsec3_opt_out", false);
    out.target_meta.max_ttl =
        static_cast<std::uint32_t>(meta->get_int("max_ttl", 3600));
    out.target_meta.has_wildcard = meta->get_bool("has_wildcard", false);
  }
  return out;
}

}  // namespace dfx::analyzer
