#include "server/zonestore.h"

#include <utility>

#include "util/check.hpp"

namespace dfx::server {

ZoneStore::ZoneStore() {
  // Publish an empty snapshot into every shard so the query path never
  // sees a null pointer.
  const auto empty = std::make_shared<const ShardSnapshot>();
  for (Shard& shard : shards_) {
    const WriterLock lock(shard.mu);
    shard.snapshot = empty;
  }
}

std::size_t ZoneStore::shard_of(const dns::NameView& apex) {
  static_assert((kShards & (kShards - 1)) == 0, "kShards must be 2^k");
  return dns::NameHash{}(apex) & (kShards - 1);
}

[[nodiscard]] std::optional<ZoneStore::ZoneView> ZoneStore::find(
    const dns::Name& qname, dns::RRType qtype) const {
  // Walk the ancestor chain deepest-first over suffix views of qname, so
  // no candidate is copied. Each candidate costs one map lookup in its
  // shard's snapshot, under the shard's read side; only the hit copies the
  // snapshot pointer. A name has at most 127 labels, so the walk is
  // strictly bounded.
  const auto shard_probe =
      [&](const dns::NameView& apex) -> std::optional<ZoneView> {
    const Shard& shard = shards_[shard_of(apex)];
    const ReaderLock lock(shard.mu);
    const auto it = shard.snapshot->zones.find(apex);
    if (it == shard.snapshot->zones.end()) return std::nullopt;
    // The view aliases the snapshot's HostedZone — the shared_ptr in the
    // view keeps it alive, so nothing is copied per query.
    const HostedZone& hosted = *it->second;
    return ZoneView{shard.snapshot, &hosted.zone, &hosted.denial,
                    &hosted.zone.apex()};
  };

  dns::NameView candidate = qname;
  std::optional<ZoneView> best;
  DFX_BOUNDED_LOOP(guard, 128);
  while (true) {
    guard.tick();
    if (auto view = shard_probe(candidate)) {
      best = std::move(view);
      break;
    }
    if (candidate.is_root()) break;
    candidate = candidate.parent();
  }
  if (!best) return std::nullopt;
  // Apex DS questions belong to the parent side of the cut: fall through
  // to the next enclosing hosted zone when one exists (authserver's
  // best_zone_for applies the same rule).
  if (qtype == dns::RRType::kDS && *best->apex == qname &&
      !qname.is_root()) {
    dns::NameView parent = dns::NameView(qname).parent();
    DFX_BOUNDED_LOOP(parent_guard, 128);
    while (true) {
      parent_guard.tick();
      if (auto view = shard_probe(parent)) return view;
      if (parent.is_root()) break;
      parent = parent.parent();
    }
  }
  return best;
}

[[nodiscard]] std::optional<std::pair<dns::Name, authserver::QueryResult>>
ZoneStore::query(const dns::Name& qname, dns::RRType qtype) const {
  auto view = find(qname, qtype);
  if (!view) return std::nullopt;
  return std::make_pair(*view->apex,
                        authserver::answer(*view->zone, *view->denial,
                                           qname, qtype));
}

void ZoneStore::publish_shard(std::size_t shard) {
  auto next = std::make_shared<ShardSnapshot>();
  for (const auto& [apex, hosted] : master_) {
    if (shard_of(apex) == shard) next->zones.emplace(apex, hosted);
  }
  std::shared_ptr<const ShardSnapshot> published(std::move(next));
  Shard& target = shards_[shard];
  {
    const WriterLock lock(target.mu);
    target.snapshot.swap(published);
  }
  // `published` now holds the old snapshot; it is released here, outside
  // the write side, once no view still shares it.
}

void ZoneStore::commit() {
  const std::uint64_t generation =
      generation_.fetch_add(1, std::memory_order_acq_rel) + 1;
  for (const auto& listener : listeners_) listener(generation);
}

bool ZoneStore::upsert(zone::Zone zone) {
  const MutexLock lock(writer_mu_);
  if (admission_) {
    const AdmissionVerdict verdict = admission_(zone);
    if (verdict.action == AdmissionVerdict::Action::kReject) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    if (verdict.action == AdmissionVerdict::Action::kFlag) {
      flagged_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  auto hosted = std::make_shared<const HostedZone>(std::move(zone));
  const dns::Name& apex = hosted->zone.apex();
  const std::size_t shard = shard_of(apex);
  master_.insert_or_assign(apex, std::move(hosted));
  publish_shard(shard);
  commit();
  return true;
}

void ZoneStore::set_admission_policy(AdmissionPolicy policy) {
  const MutexLock lock(writer_mu_);
  admission_ = std::move(policy);
}

bool ZoneStore::remove(const dns::Name& apex) {
  const MutexLock lock(writer_mu_);
  if (master_.erase(apex) == 0) return false;
  publish_shard(shard_of(apex));
  commit();
  return true;
}

void ZoneStore::subscribe(SwapListener listener) {
  const MutexLock lock(writer_mu_);
  listeners_.push_back(std::move(listener));
}

std::size_t ZoneStore::zone_count() const {
  const MutexLock lock(writer_mu_);
  return master_.size();
}

}  // namespace dfx::server
