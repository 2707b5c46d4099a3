#include "server/zonestore.h"

#include <utility>

#include "util/check.hpp"

namespace dfx::server {

ZoneStore::ZoneStore() : zones_(std::make_shared<const HostedZones>()) {}

[[nodiscard]] std::shared_ptr<const HostedZone> ZoneStore::find(
    const dns::Name& qname, dns::RRType qtype) const {
  // One read side for the whole ancestor walk; only the hit's pointer is
  // copied.
  const ReaderLock lock(mu_);
  const auto it = authserver::find_hosted(*zones_, qname, qtype);
  return it == zones_->end() ? nullptr : it->second;
}

[[nodiscard]] std::optional<std::pair<dns::Name, authserver::QueryResult>>
ZoneStore::query(const dns::Name& qname, dns::RRType qtype) const {
  auto hosted = find(qname, qtype);
  if (!hosted) return std::nullopt;
  dns::Name apex = hosted->zone.apex();
  return std::make_pair(std::move(apex),
                        authserver::answer(std::move(hosted), qname, qtype));
}

std::shared_ptr<const HostedZones> ZoneStore::published() const {
  const ReaderLock lock(mu_);
  return zones_;
}

void ZoneStore::publish(std::shared_ptr<const HostedZones> next) {
  {
    const WriterLock lock(mu_);
    zones_.swap(next);
  }
  // `next` now holds the old map; it is released here, outside the write
  // side, once no reader still shares it.
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
  // The version hosted at this apex lends its DenialIndex when the chain
  // is unchanged (an incremental re-sign); writers are serialized, so it
  // is still the hosted one when the new map is published.
  const auto current = published();
  const auto it = current->find(zone.apex());
  auto hosted = std::make_shared<const HostedZone>(
      std::move(zone), 0, it == current->end() ? nullptr : it->second.get());
  auto next = std::make_shared<HostedZones>(*current);
  const dns::Name& apex = hosted->zone.apex();
  next->insert_or_assign(apex, std::move(hosted));
  publish(std::move(next));
  return true;
}

void ZoneStore::set_admission_policy(AdmissionPolicy policy) {
  const MutexLock lock(writer_mu_);
  admission_ = std::move(policy);
}

bool ZoneStore::remove(const dns::Name& apex) {
  const MutexLock lock(writer_mu_);
  auto next = std::make_shared<HostedZones>(*published());
  if (next->erase(apex) == 0) return false;
  publish(std::move(next));
  return true;
}

void ZoneStore::subscribe(SwapListener listener) {
  const MutexLock lock(writer_mu_);
  listeners_.push_back(std::move(listener));
}

std::size_t ZoneStore::zone_count() const { return published()->size(); }

}  // namespace dfx::server
