// Read-mostly zone store for the wire-level serving engine.
//
// Each hosted zone version is compiled once, at upsert, into an immutable
// HostedZone: the zone plus its authserver::DenialIndex. The index holds
// its owner names by value, so one index serves every version with the
// same denial chain: upsert hands the version hosted at the apex to the
// new one, which shares its index when the two zones' chain stamps match
// (zone::Zone::same_chain; an incremental re-sign touches no NSEC, NSEC3
// or NSEC3PARAM RRset) and builds one otherwise. The store publishes one
// map of apexes to shared pointers to these (authserver::HostedZones), so
// publishing copies pointers, never zones: a zone that did not change is
// the same object in every published map that includes it. The query
// path picks the answering zone with authserver::find_hosted — the rule
// AuthServer uses — under the ReadMostlyMutex read side, which writes only
// the reading thread's slot, and copies the pointer of the zone it finds.
// A writer copies the published map, edits the copy and swaps the pointer
// under the write side, so readers see the old map or the new one, never
// a half-built zone. There is no other master map: the published one is the truth.
//
// Thread-safety: `find`/`query`/`generation`/`zone_count` are safe from
// any number of threads concurrently with one writer. `upsert`/`remove`/
// `subscribe` serialize on `writer_mu_` (annotated; TSan and the
// static-lock-cycle lint rule audit the acquisition order: `writer_mu_`,
// then the write side of `mu_`). Swap listeners run on the writer thread
// with `writer_mu_` held — they must not call back into the store's
// writer API.
//
// Invalidation contract: every committed write bumps `generation()` and
// then notifies subscribers (the AnswerCache hooks its epoch bump here).
// A reader that took a HostedZone pointer before the swap may still
// answer from the old version — the pointer keeps it alive — which is
// equivalent to the query having arrived just before the reload.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
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

/// Compiled once per upsert and immutable afterwards; every published
/// map that holds it shares it.
using authserver::HostedZone;
using authserver::HostedZones;

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
  ZoneStore();

  // ---- Query path (read side only) ----

  /// The hosted zone that answers (qname, qtype), by
  /// authserver::find_hosted's rule: the deepest hosted apex at or above
  /// `qname`, except that a DS question at a hosted apex goes to the
  /// deepest hosted proper ancestor when one exists. Null when no hosted
  /// zone covers `qname` (the caller REFUSEs). The pointer keeps that
  /// version alive for as long as the caller holds it.
  DFX_HOT_PATH
  [[nodiscard]] std::shared_ptr<const HostedZone> find(
      const dns::Name& qname, dns::RRType qtype) const;

  /// Full authoritative answer: find() + authserver::answer on that
  /// version, which the answer pins.
  DFX_HOT_PATH
  [[nodiscard]] std::optional<std::pair<dns::Name, authserver::QueryResult>>
  query(const dns::Name& qname, dns::RRType qtype) const;

  /// Monotonic commit counter; bumped by every successful upsert/remove
  /// *after* the map swap is visible.
  std::uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

  // ---- Writer path (serialized) ----

  /// Install or replace one zone and publish a new map. The zone is
  /// compiled into a HostedZone after admission, sharing the DenialIndex
  /// of the version it replaces when the chain is unchanged. Returns false
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

  std::size_t zone_count() const;

 private:
  /// The published map (never null).
  std::shared_ptr<const HostedZones> published() const;
  /// Swap `next` in as the published map, bump the generation and
  /// notify the listeners.
  void publish(std::shared_ptr<const HostedZones> next)
      DFX_REQUIRES(writer_mu_);

  mutable ReadMostlyMutex mu_;
  std::shared_ptr<const HostedZones> zones_ DFX_GUARDED_BY(mu_);

  std::atomic<std::uint64_t> generation_{0};
  std::atomic<std::uint64_t> flagged_{0};
  std::atomic<std::uint64_t> rejected_{0};

  mutable Mutex writer_mu_;
  AdmissionPolicy admission_ DFX_GUARDED_BY(writer_mu_);
  std::vector<SwapListener> listeners_ DFX_GUARDED_BY(writer_mu_);
};

}  // namespace dfx::server
