#include "zone/zone.h"

#include <algorithm>

#include "util/check.hpp"

namespace dfx::zone {

Zone::Zone(const Zone& other)
    : apex_(other.apex_), version_(other.version_), shared_(true) {
  other.shared_.store(true, std::memory_order_relaxed);
}

Zone& Zone::operator=(const Zone& other) {
  if (this == &other) return *this;
  apex_ = other.apex_;
  version_ = other.version_;
  shared_.store(true, std::memory_order_relaxed);
  other.shared_.store(true, std::memory_order_relaxed);
  return *this;
}

Zone::Zone(Zone&& other) noexcept
    : apex_(std::move(other.apex_)),
      version_(std::move(other.version_)),
      shared_(other.shared_.exchange(false, std::memory_order_relaxed)) {}

Zone& Zone::operator=(Zone&& other) noexcept {
  if (this == &other) return *this;
  apex_ = std::move(other.apex_);
  version_ = std::move(other.version_);
  shared_.store(other.shared_.exchange(false, std::memory_order_relaxed),
                std::memory_order_relaxed);
  return *this;
}

const Zone::Records& Zone::no_records() {
  static const Records kNone;
  return kNone;
}

void Zone::Tally::add(std::uint32_t value) {
  const auto it = std::lower_bound(
      counts_.begin(), counts_.end(), value,
      [](const auto& entry, std::uint32_t v) { return entry.first < v; });
  if (it != counts_.end() && it->first == value) {
    ++it->second;
  } else {
    counts_.insert(it, {value, 1});
  }
  ++total_;
}

void Zone::Tally::remove(std::uint32_t value) {
  const auto it = std::lower_bound(
      counts_.begin(), counts_.end(), value,
      [](const auto& entry, std::uint32_t v) { return entry.first < v; });
  DFX_CHECK(it != counts_.end() && it->first == value,
            "signature bound removes a value it never counted");
  if (--it->second == 0) counts_.erase(it);
  --total_;
}

std::uint64_t Zone::next_chain_stamp() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

void Zone::Version::touch(dns::RRType type) {
  if (type == dns::RRType::kNSEC || type == dns::RRType::kNSEC3 ||
      type == dns::RRType::kNSEC3PARAM) {
    chain_stamp = next_chain_stamp();
  }
}

void Zone::Version::count(const dns::RRset& rrset) {
  touch(rrset.type());
  nsec_rrsets += rrset.type() == dns::RRType::kNSEC ? 1 : 0;
  nsec3_rrsets += rrset.type() == dns::RRType::kNSEC3 ? 1 : 0;
  if (!bound_known) return;  // find_mutable's writes went uncounted
  if (rrset.type() == dns::RRType::kRRSIG) {
    rrsig_set_sizes.add(static_cast<std::uint32_t>(rrset.size()));
  } else if (rrset.type() == dns::RRType::kNSEC3) {
    for (const auto& rdata : rrset.rdatas()) {
      if (const auto* n = std::get_if<dns::Nsec3Rdata>(&rdata)) {
        nsec3_iterations.add(n->iterations);
      }
    }
  }
}

void Zone::Version::uncount(const dns::RRset& rrset) {
  touch(rrset.type());
  nsec_rrsets -= rrset.type() == dns::RRType::kNSEC ? 1 : 0;
  nsec3_rrsets -= rrset.type() == dns::RRType::kNSEC3 ? 1 : 0;
  if (!bound_known) return;
  if (rrset.type() == dns::RRType::kRRSIG) {
    rrsig_set_sizes.remove(static_cast<std::uint32_t>(rrset.size()));
  } else if (rrset.type() == dns::RRType::kNSEC3) {
    for (const auto& rdata : rrset.rdatas()) {
      if (const auto* n = std::get_if<dns::Nsec3Rdata>(&rdata)) {
        nsec3_iterations.remove(n->iterations);
      }
    }
  }
}

Zone::Version& Zone::writable() {
  if (version_ == nullptr) {
    version_ = std::make_shared<Version>();
  } else if (shared_.load(std::memory_order_relaxed)) {
    version_ = std::make_shared<Version>(*version_);
  }
  shared_.store(false, std::memory_order_relaxed);
  return *version_;
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
  Version& version = writable();
  auto& by_type = version.records[owner];
  auto it = by_type.find(type);
  if (it == by_type.end()) {
    dns::RRset rrset(owner, type, ttl);
    rrset.add(std::move(rdata));
    it = by_type.emplace(type, std::move(rrset)).first;
  } else {
    version.uncount(it->second);
    it->second.add(std::move(rdata));
  }
  version.count(it->second);
}

void Zone::put(dns::RRset rrset) {
  Version& version = writable();
  auto& by_type = version.records[rrset.owner()];
  const dns::RRType type = rrset.type();
  auto it = by_type.find(type);
  if (it == by_type.end()) {
    it = by_type.emplace(type, std::move(rrset)).first;
  } else {
    version.uncount(it->second);
    it->second = std::move(rrset);
  }
  version.count(it->second);
}

bool Zone::remove(const dns::Name& owner, dns::RRType type) {
  if (find(owner, type) == nullptr) return false;
  Version& version = writable();
  const auto it = version.records.find(owner);
  const auto tit = it->second.find(type);
  version.uncount(tit->second);
  it->second.erase(tit);
  if (it->second.empty()) version.records.erase(it);
  return true;
}

bool Zone::remove_rdata(const dns::Name& owner, dns::RRType type,
                        const dns::Rdata& rdata) {
  if (find(owner, type) == nullptr) return false;
  Version& version = writable();
  const auto it = version.records.find(owner);
  const auto tit = it->second.find(type);
  version.uncount(tit->second);
  const bool removed = tit->second.remove(rdata);
  if (tit->second.empty()) {
    it->second.erase(tit);
  } else {
    version.count(tit->second);
  }
  if (it->second.empty()) version.records.erase(it);
  return removed;
}

void Zone::remove_name(const dns::Name& owner) {
  if (!name_exists(owner)) return;
  Version& version = writable();
  const auto it = version.records.find(owner);
  for (const auto& [type, rrset] : it->second) version.uncount(rrset);
  version.records.erase(it);
}

Zone::Records::const_iterator Zone::locate(const dns::NameView& owner) const {
  const auto& records = this->records();
  // The apex leads the canonical order unless out-of-zone names sort
  // before it: a lookup tries the first owner before it searches (the
  // admission policy, every SOA lookup and most closest enclosers ask for
  // the apex; for other names the length test settles it).
  if (!records.empty() && records.begin()->first == owner) {
    return records.begin();
  }
  return records.find(owner);
}

const dns::RRset* Zone::find(const dns::NameView& owner, dns::RRType type) const {
  const RRsets* rrsets = rrsets_at(owner);
  if (rrsets == nullptr) return nullptr;
  const auto it = rrsets->find(type);
  return it == rrsets->end() ? nullptr : &it->second;
}

dns::RRset* Zone::find_mutable(const dns::Name& owner, dns::RRType type) {
  if (find(owner, type) == nullptr) return nullptr;
  Version& version = writable();
  if (type == dns::RRType::kRRSIG || type == dns::RRType::kNSEC3) {
    version.bound_known = false;
  }
  version.touch(type);
  return &version.records.find(owner)->second.find(type)->second;
}

[[nodiscard]] std::optional<Zone::SignatureBound> Zone::signature_bound()
    const {
  if (version_ == nullptr) return SignatureBound{};
  if (!version_->bound_known) return std::nullopt;
  return SignatureBound{
      .rrsig_sets = version_->rrsig_set_sizes.total(),
      .largest_rrsig_set = version_->rrsig_set_sizes.max(),
      .max_nsec3_iterations =
          static_cast<std::uint16_t>(version_->nsec3_iterations.max())};
}

std::vector<const dns::RRset*> Zone::at(const dns::NameView& owner) const {
  std::vector<const dns::RRset*> out;
  for_each_at(owner, [&](const dns::RRset& rrset) { out.push_back(&rrset); });
  return out;
}

bool Zone::name_exists(const dns::NameView& name) const {
  return rrsets_at(name) != nullptr;
}

bool Zone::name_or_descendant_exists(const dns::NameView& name) const {
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

bool Zone::is_delegation(const dns::NameView& name) const {
  if (name == apex_) return false;
  return find(name, dns::RRType::kNS) != nullptr;
}

[[nodiscard]] std::optional<dns::Name> Zone::covering_delegation(
    const dns::NameView& name) const {
  for (dns::NameView cur = name;
       cur != apex_ && cur.label_count() > apex_.label_count();
       cur = cur.parent()) {
    if (is_delegation(cur)) return dns::Name(cur);
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
