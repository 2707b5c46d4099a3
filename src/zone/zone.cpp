#include "zone/zone.h"

#include "util/check.hpp"

namespace dfx::zone {

Zone::Zone(const Zone& other)
    : apex_(other.apex_), records_(other.records_), shared_(true) {
  other.shared_.store(true, std::memory_order_relaxed);
}

Zone& Zone::operator=(const Zone& other) {
  if (this == &other) return *this;
  apex_ = other.apex_;
  records_ = other.records_;
  shared_.store(true, std::memory_order_relaxed);
  other.shared_.store(true, std::memory_order_relaxed);
  return *this;
}

Zone::Zone(Zone&& other) noexcept
    : apex_(std::move(other.apex_)),
      records_(std::move(other.records_)),
      shared_(other.shared_.exchange(false, std::memory_order_relaxed)) {}

Zone& Zone::operator=(Zone&& other) noexcept {
  if (this == &other) return *this;
  apex_ = std::move(other.apex_);
  records_ = std::move(other.records_);
  shared_.store(other.shared_.exchange(false, std::memory_order_relaxed),
                std::memory_order_relaxed);
  return *this;
}

const Zone::Records& Zone::no_records() {
  static const Records kNone;
  return kNone;
}

Zone::Records& Zone::writable_records() {
  if (records_ == nullptr) {
    records_ = std::make_shared<Records>();
  } else if (shared_.load(std::memory_order_relaxed)) {
    records_ = std::make_shared<Records>(*records_);
  }
  shared_.store(false, std::memory_order_relaxed);
  return *records_;
}

void Zone::add(const dns::ResourceRecord& record) {
  add(record.owner, record.type, record.ttl, record.rdata);
}

void Zone::add(const dns::Name& owner, dns::RRType type, std::uint32_t ttl,
               dns::Rdata rdata) {
  // Zone contents originate in untrusted masterfiles/wire transfers; assert
  // the RFC 1035 name bound at the mutation boundary so an oversized owner
  // cannot enter the store.
  DFX_DCHECK(owner.wire_length() <= 255);
  auto& by_type = writable_records()[owner];
  auto it = by_type.find(type);
  if (it == by_type.end()) {
    dns::RRset rrset(owner, type, ttl);
    rrset.add(std::move(rdata));
    by_type.emplace(type, std::move(rrset));
  } else {
    it->second.add(std::move(rdata));
  }
}

void Zone::put(dns::RRset rrset) {
  auto& by_type = writable_records()[rrset.owner()];
  by_type.insert_or_assign(rrset.type(), std::move(rrset));
}

bool Zone::remove(const dns::Name& owner, dns::RRType type) {
  if (find(owner, type) == nullptr) return false;
  auto& records = writable_records();
  const auto it = records.find(owner);
  it->second.erase(type);
  if (it->second.empty()) records.erase(it);
  return true;
}

bool Zone::remove_rdata(const dns::Name& owner, dns::RRType type,
                        const dns::Rdata& rdata) {
  if (find(owner, type) == nullptr) return false;
  auto& records = writable_records();
  const auto it = records.find(owner);
  const auto tit = it->second.find(type);
  const bool removed = tit->second.remove(rdata);
  if (tit->second.empty()) it->second.erase(tit);
  if (it->second.empty()) records.erase(it);
  return removed;
}

void Zone::remove_name(const dns::Name& owner) {
  if (!name_exists(owner)) return;
  writable_records().erase(owner);
}

const dns::RRset* Zone::find(const dns::Name& owner, dns::RRType type) const {
  const auto& records = this->records();
  const auto it = records.find(owner);
  if (it == records.end()) return nullptr;
  const auto tit = it->second.find(type);
  return tit == it->second.end() ? nullptr : &tit->second;
}

dns::RRset* Zone::find_mutable(const dns::Name& owner, dns::RRType type) {
  if (find(owner, type) == nullptr) return nullptr;
  return &writable_records().find(owner)->second.find(type)->second;
}

std::vector<const dns::RRset*> Zone::at(const dns::Name& owner) const {
  std::vector<const dns::RRset*> out;
  const auto& records = this->records();
  const auto it = records.find(owner);
  if (it == records.end()) return out;
  out.reserve(it->second.size());
  for (const auto& [type, rrset] : it->second) out.push_back(&rrset);
  return out;
}

bool Zone::name_exists(const dns::Name& name) const {
  return records().count(name) != 0;
}

bool Zone::name_or_descendant_exists(const dns::Name& name) const {
  // Canonical order puts descendants of `name` immediately after it.
  const auto& records = this->records();
  auto it = records.lower_bound(name);
  return it != records.end() && it->first.is_subdomain_of(name);
}

std::vector<dns::Name> Zone::owner_names() const {
  std::vector<dns::Name> out;
  out.reserve(records().size());
  for (const auto& [name, _] : records()) out.push_back(name);
  return out;
}

std::vector<const dns::RRset*> Zone::all_rrsets() const {
  std::vector<const dns::RRset*> out;
  for (const auto& [name, by_type] : records()) {
    for (const auto& [type, rrset] : by_type) out.push_back(&rrset);
  }
  return out;
}

bool Zone::is_delegation(const dns::Name& name) const {
  if (name == apex_) return false;
  return find(name, dns::RRType::kNS) != nullptr;
}

[[nodiscard]] std::optional<dns::Name> Zone::covering_delegation(
    const dns::Name& name) const {
  dns::Name cur = name;
  while (cur != apex_ && cur.label_count() > apex_.label_count()) {
    if (is_delegation(cur)) return cur;
    cur = cur.parent();
  }
  return std::nullopt;
}

std::vector<dns::ResourceRecord> Zone::to_records() const {
  std::vector<dns::ResourceRecord> out;
  // Apex SOA first (zone-file convention), then everything else canonical.
  if (const auto* soa_set = find(apex_, dns::RRType::kSOA)) {
    const auto recs = soa_set->to_records();
    out.insert(out.end(), recs.begin(), recs.end());
  }
  for (const auto* rrset : all_rrsets()) {
    if (rrset->owner() == apex_ && rrset->type() == dns::RRType::kSOA) {
      continue;
    }
    const auto recs = rrset->to_records();
    out.insert(out.end(), recs.begin(), recs.end());
  }
  return out;
}

const dns::SoaRdata* Zone::soa() const {
  const auto* rrset = find(apex_, dns::RRType::kSOA);
  if (rrset == nullptr || rrset->empty()) return nullptr;
  return std::get_if<dns::SoaRdata>(&rrset->rdatas().front());
}

void Zone::bump_serial() {
  auto* rrset = find(apex_, dns::RRType::kSOA);
  if (rrset == nullptr || rrset->empty()) return;
  auto rdatas = rrset->rdatas();
  auto soa = std::get<dns::SoaRdata>(rdatas.front());
  soa.serial += 1;
  dns::RRset updated(apex_, dns::RRType::kSOA, rrset->ttl());
  updated.add(soa);
  put(std::move(updated));
}

}  // namespace dfx::zone
