#include "dataset/corpus.h"

#include <bit>

namespace dfx::dataset {

bool DomainTimeline::is_changing() const {
  if (snapshots.size() < 2) return false;
  for (std::size_t i = 1; i < snapshots.size(); ++i) {
    if (snapshots[i].status != snapshots[0].status ||
        snapshots[i].errors != snapshots[0].errors) {
      return true;
    }
  }
  return false;
}

std::int64_t Corpus::total_snapshots() const {
  std::int64_t total = 0;
  for (const auto& d : domains) {
    total += static_cast<std::int64_t>(d.snapshots.size());
  }
  return total;
}

namespace {

struct Fnv1a64 {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  void byte(std::uint8_t b) {
    h ^= b;
    h *= 0x100000001B3ULL;
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void str(const std::string& s) {
    u64(s.size());
    for (const char c : s) byte(static_cast<std::uint8_t>(c));
  }
};

}  // namespace

std::uint64_t corpus_digest(const Corpus& corpus) {
  Fnv1a64 fnv;
  fnv.u64(corpus.universe_size);
  fnv.u64(corpus.universe_signed_per_bin.size());
  for (const auto b : corpus.universe_signed_per_bin) fnv.u64(b);
  // `scale` is a double; hash its bit pattern so any difference counts.
  fnv.u64(std::bit_cast<std::uint64_t>(corpus.scale));
  fnv.u64(corpus.domains.size());
  for (const auto& d : corpus.domains) {
    fnv.str(d.name);
    fnv.byte(static_cast<std::uint8_t>(d.level));
    fnv.byte(d.tranco_rank ? 1 : 0);
    if (d.tranco_rank) fnv.u64(*d.tranco_rank);
    fnv.byte(d.ever_signed ? 1 : 0);
    fnv.u64(d.snapshots.size());
    for (const auto& s : d.snapshots) {
      fnv.u64(static_cast<std::uint64_t>(s.time));
      fnv.byte(static_cast<std::uint8_t>(s.status));
      fnv.u64(s.errors.size());
      for (const auto code : s.errors) {
        fnv.u64(static_cast<std::uint64_t>(code));
      }
      fnv.u64(s.ns_id);
      fnv.u64(s.key_id);
      fnv.u64(s.algorithm_id);
    }
  }
  return fnv.h;
}

json::Value corpus_to_json(const Corpus& corpus) {
  json::Object root;
  root["universe_size"] =
      json::Value(static_cast<std::int64_t>(corpus.universe_size));
  root["scale"] = json::Value(corpus.scale);
  json::Array bins;
  for (const auto b : corpus.universe_signed_per_bin) {
    bins.push_back(json::Value(static_cast<std::int64_t>(b)));
  }
  root["universe_signed_per_bin"] = json::Value(std::move(bins));
  json::Array domains;
  for (const auto& d : corpus.domains) {
    json::Object obj;
    obj["name"] = json::Value(d.name);
    obj["level"] = json::Value(static_cast<std::int64_t>(d.level));
    if (d.tranco_rank) {
      obj["rank"] = json::Value(static_cast<std::int64_t>(*d.tranco_rank));
    }
    obj["ever_signed"] = json::Value(d.ever_signed);
    json::Array snapshots;
    for (const auto& s : d.snapshots) {
      json::Object row;
      row["t"] = json::Value(s.time);
      row["status"] = json::Value(analyzer::status_name(s.status));
      json::Array errors;
      for (const auto code : s.errors) {
        errors.push_back(json::Value(static_cast<std::int64_t>(code)));
      }
      row["errors"] = json::Value(std::move(errors));
      row["ns"] = json::Value(static_cast<std::int64_t>(s.ns_id));
      row["key"] = json::Value(static_cast<std::int64_t>(s.key_id));
      row["alg"] = json::Value(static_cast<std::int64_t>(s.algorithm_id));
      snapshots.push_back(json::Value(std::move(row)));
    }
    obj["snapshots"] = json::Value(std::move(snapshots));
    domains.push_back(json::Value(std::move(obj)));
  }
  root["domains"] = json::Value(std::move(domains));
  return json::Value(std::move(root));
}

[[nodiscard]] std::optional<Corpus> corpus_from_json(const json::Value& value) {
  if (!value.is_object()) return std::nullopt;
  Corpus corpus;
  corpus.universe_size =
      static_cast<std::uint64_t>(value.get_int("universe_size", 1000000));
  corpus.scale = value.get_double("scale", 1.0);
  if (const auto* bins = value.find("universe_signed_per_bin");
      bins != nullptr && bins->is_array()) {
    for (const auto& b : bins->as_array()) {
      corpus.universe_signed_per_bin.push_back(
          static_cast<std::uint64_t>(b.as_int()));
    }
  }
  const auto* domains = value.find("domains");
  if (domains == nullptr || !domains->is_array()) return std::nullopt;
  for (const auto& item : domains->as_array()) {
    DomainTimeline d;
    d.name = item.get_string("name", "");
    d.level = static_cast<DomainLevel>(item.get_int("level", 2));
    if (const auto* rank = item.find("rank"); rank != nullptr) {
      d.tranco_rank = static_cast<std::uint32_t>(rank->as_int());
    }
    d.ever_signed = item.get_bool("ever_signed", false);
    if (const auto* snapshots = item.find("snapshots");
        snapshots != nullptr && snapshots->is_array()) {
      for (const auto& row : snapshots->as_array()) {
        SnapshotRow s;
        s.time = row.get_int("t", 0);
        const auto status = analyzer::status_from_name(
            row.get_string("status", "is"));
        if (!status) return std::nullopt;
        s.status = *status;
        if (const auto* errors = row.find("errors");
            errors != nullptr && errors->is_array()) {
          for (const auto& e : errors->as_array()) {
            s.errors.insert(static_cast<analyzer::ErrorCode>(e.as_int()));
          }
        }
        s.ns_id = static_cast<std::uint32_t>(row.get_int("ns", 0));
        s.key_id = static_cast<std::uint32_t>(row.get_int("key", 0));
        s.algorithm_id = static_cast<std::uint32_t>(row.get_int("alg", 0));
        d.snapshots.push_back(std::move(s));
      }
    }
    corpus.domains.push_back(std::move(d));
  }
  return corpus;
}

}  // namespace dfx::dataset
