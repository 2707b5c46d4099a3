// Sharded, read-mostly zone store for the wire-level serving engine.
//
// Each hosted zone version is compiled once, at upsert, into an immutable
// HostedZone: the zone plus its authserver::DenialIndex. Shard snapshots
// map apexes to shared pointers to these, so publishing a shard copies
// pointers, never zones: a zone that did not change is the same object in
// the writer's master map and in every snapshot that includes it. The
// query path looks an apex up in a shard's snapshot under that shard's
// ReadMostlyMutex read side, which writes only the reading thread's slot,
// and copies the snapshot pointer for the zone it finds; a writer builds
// the new snapshot outside the lock and swaps the pointer under the write
// side. Writers are serialized behind `writer_mu_`, so readers
// either see the old snapshot or the new one, never a half-built zone.
//
// Thread-safety: `find`/`query`/`generation` are safe from any number of
// threads concurrently with one writer. `upsert`/`remove`/`subscribe`
// serialize on `writer_mu_` (annotated; TSan and the static-lock-cycle
// lint rule audit the acquisition order: `writer_mu_`, then a shard's
// write side). Swap listeners run on the writer thread with `writer_mu_`
// held — they must not call back into the store's writer API.
//
// Invalidation contract: every committed write bumps `generation()` and
// then notifies subscribers (the AnswerCache hooks its epoch bump here).
// A reader that captured a ZoneView before the swap may still answer from
// the old version — the view's shared_ptr keeps its snapshot, and so the
// old HostedZone, alive — which is equivalent to the query having arrived
// just before the reload.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "authserver/authserver.h"
#include "dnscore/name.h"
#include "dnscore/rr.h"
#include "util/check.hpp"
#include "util/thread_annotations.h"
#include "zone/zone.h"

namespace dfx::server {

/// Compiled once per upsert and immutable afterwards; the master map and
/// every snapshot share it.
using authserver::HostedZone;

/// One shard's hosted zones by apex. Snapshots are built by writers,
/// published by a pointer swap under the shard's write side, and never
/// mutated after publication.
struct ShardSnapshot {
  std::map<dns::Name, std::shared_ptr<const HostedZone>, dns::Name::Less>
      zones;
};

/// Outcome of an admission check run against a zone before it is hosted.
/// kFlag admits the zone but counts it as suspicious (operator telemetry);
/// kReject refuses to host it at all.
struct AdmissionVerdict {
  enum class Action { kAdmit, kFlag, kReject };
  Action action = Action::kAdmit;
  std::string reason;
};

/// Policy consulted by `upsert` under the writer lock. Policies must be
/// pure functions of the zone: they run with `writer_mu_` held and must
/// not call back into the store. The zonelint admission check
/// (zonelint/admission.h) is the canonical implementation.
using AdmissionPolicy = std::function<AdmissionVerdict(const zone::Zone&)>;

class ZoneStore {
 public:
  /// Shard count: a power of two so the hash → shard map is a mask. 16
  /// shards keep each published pointer map small without bloating the
  /// walk cost.
  static constexpr std::size_t kShards = 16;

  ZoneStore();

  // ---- Query path (read side only) ----

  /// A zone resolved for one query. `snapshot` keeps the shard, and so
  /// the HostedZone, alive for as long as the caller holds the view;
  /// `zone`, `denial` and `apex` point into that HostedZone (no per-query
  /// copy) and share its lifetime.
  struct ZoneView {
    std::shared_ptr<const ShardSnapshot> snapshot;
    const zone::Zone* zone = nullptr;
    const authserver::DenialIndex* denial = nullptr;
    const dns::Name* apex = nullptr;
  };

  /// Deepest hosted zone whose apex is an ancestor of `qname`, with the
  /// parent-side override for apex DS queries (a DS question at a hosted
  /// apex is served by the enclosing zone when that zone is hosted too).
  /// nullopt when no hosted zone covers `qname` (the caller REFUSEs).
  DFX_HOT_PATH
  [[nodiscard]] std::optional<ZoneView> find(const dns::Name& qname,
                                             dns::RRType qtype) const;

  /// Full authoritative answer: find() + authserver::answer on that zone
  /// and its denial index.
  DFX_HOT_PATH
  [[nodiscard]] std::optional<std::pair<dns::Name, authserver::QueryResult>>
  query(const dns::Name& qname, dns::RRType qtype) const;

  /// Monotonic commit counter; bumped by every successful upsert/remove
  /// *after* the snapshot swap is visible.
  std::uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

  // ---- Writer path (serialized) ----

  /// Install or replace one zone and publish a new snapshot of its shard.
  /// The zone is compiled into a HostedZone after admission. Returns false
  /// (and publishes nothing) when the admission policy rejects the zone;
  /// flagged zones are admitted but counted.
  bool upsert(zone::Zone zone) DFX_EXCLUDES(writer_mu_);

  /// Install the policy consulted on every subsequent upsert. A default
  /// (empty) policy admits everything. Replacing the policy does not
  /// re-examine already-hosted zones.
  void set_admission_policy(AdmissionPolicy policy)
      DFX_EXCLUDES(writer_mu_);

  /// Lifetime admission telemetry (upserts flagged / rejected by the
  /// policy since construction).
  std::uint64_t flagged_count() const {
    return flagged_.load(std::memory_order_relaxed);
  }
  std::uint64_t rejected_count() const {
    return rejected_.load(std::memory_order_relaxed);
  }

  /// Drop a zone; false (and no swap) if the apex was not hosted.
  bool remove(const dns::Name& apex) DFX_EXCLUDES(writer_mu_);

  /// Called after every committed swap with the new generation, on the
  /// writer thread, with `writer_mu_` held.
  using SwapListener = std::function<void(std::uint64_t generation)>;
  void subscribe(SwapListener listener) DFX_EXCLUDES(writer_mu_);

  std::size_t zone_count() const DFX_EXCLUDES(writer_mu_);

 private:
  static std::size_t shard_of(const dns::NameView& apex);

  /// Publish a new snapshot of `shard` sharing `master_`'s HostedZones.
  void publish_shard(std::size_t shard) DFX_REQUIRES(writer_mu_);
  void commit() DFX_REQUIRES(writer_mu_);

  /// One shard's published snapshot. Never null. Cache-line aligned so
  /// neighbouring shards' reader slots never share a line.
  struct alignas(64) Shard {
    mutable ReadMostlyMutex mu;
    std::shared_ptr<const ShardSnapshot> snapshot DFX_GUARDED_BY(mu);
  };
  std::array<Shard, kShards> shards_;

  std::atomic<std::uint64_t> generation_{0};
  std::atomic<std::uint64_t> flagged_{0};
  std::atomic<std::uint64_t> rejected_{0};

  mutable Mutex writer_mu_;
  AdmissionPolicy admission_ DFX_GUARDED_BY(writer_mu_);
  /// Writer-side map of every hosted zone the snapshots are built from.
  std::map<dns::Name, std::shared_ptr<const HostedZone>, dns::Name::Less>
      master_ DFX_GUARDED_BY(writer_mu_);
  std::vector<SwapListener> listeners_ DFX_GUARDED_BY(writer_mu_);
};

}  // namespace dfx::server
