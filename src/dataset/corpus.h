// The corpus model: per-domain snapshot timelines in the schema the
// measurement analyses consume. This is the in-memory equivalent of the
// paper's 1.1M DNSViz JSON files.
//
// Thread-safety: plain value types with no internal synchronisation. A
// built corpus is read concurrently by the per-domain measurement shards
// (measure/measure.cpp), which is safe because they only take const access;
// mutation requires external exclusion. corpus_digest is a pure function.
#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "analyzer/errorcode.h"
#include "analyzer/snapshot.h"
#include "json/json.h"
#include "util/simclock.h"

namespace dfx::dataset {

enum class DomainLevel : std::uint8_t { kRoot, kTld, kSld };

/// One diagnostic snapshot (the corpus keeps the analysis-relevant fields;
/// full Snapshot JSON is produced on demand by the analyzer pipeline).
struct SnapshotRow {
  UnixTime time = 0;
  analyzer::SnapshotStatus status = analyzer::SnapshotStatus::kInsecure;
  std::set<analyzer::ErrorCode> errors;
  /// Configuration identities at snapshot time; a change between
  /// consecutive snapshots marks an NS update / key rollover / algorithm
  /// rollover (the paper's Table 2 causal analysis).
  std::uint32_t ns_id = 0;
  std::uint32_t key_id = 0;
  std::uint32_t algorithm_id = 0;
};

struct DomainTimeline {
  std::string name;
  DomainLevel level = DomainLevel::kSld;
  /// Rank in the (scaled) Tranco universe; nullopt = unranked.
  std::optional<std::uint32_t> tranco_rank;
  bool ever_signed = false;
  std::vector<SnapshotRow> snapshots;  // time-ascending

  bool multi_snapshot() const { return snapshots.size() >= 2; }
  /// Changing Domain: at least two snapshots differing in status or errors.
  bool is_changing() const;
};

struct Corpus {
  std::vector<DomainTimeline> domains;
  /// Size of the scaled Tranco universe backing Figure 1's bins.
  std::uint64_t universe_size = 1000000;
  /// Ever-signed domains per universe bin (for Figure 1's blue line).
  std::vector<std::uint64_t> universe_signed_per_bin;
  double scale = 1.0;

  std::int64_t total_snapshots() const;
};

/// JSON round-trip (one document per corpus; domains as an array).
json::Value corpus_to_json(const Corpus& corpus);
[[nodiscard]] std::optional<Corpus> corpus_from_json(const json::Value& value);

/// FNV-1a 64-bit digest over every field of every domain, in domain order.
/// Two corpora digest equal iff they are field-for-field identical — the
/// determinism regression tests and bench_parallel_scaling use this to
/// assert that parallel generation is bit-identical to serial.
[[nodiscard]] std::uint64_t corpus_digest(const Corpus& corpus);

}  // namespace dfx::dataset
