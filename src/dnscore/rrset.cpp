#include "dnscore/rrset.h"

#include <algorithm>

namespace dfx::dns {

std::string ResourceRecord::to_text() const {
  return owner.to_string() + " " + std::to_string(ttl) + " IN " +
         rrtype_to_string(type) + " " + rdata_to_text(rdata);
}

void RRset::add(Rdata rdata) {
  const Bytes wire = rdata_to_wire(rdata);
  for (const auto& existing : rdatas_) {
    if (rdata_to_wire(existing) == wire) return;
  }
  rdatas_.push_back(std::move(rdata));
}

bool RRset::remove(const Rdata& rdata) {
  const Bytes wire = rdata_to_wire(rdata);
  for (auto it = rdatas_.begin(); it != rdatas_.end(); ++it) {
    if (rdata_to_wire(*it) == wire) {
      rdatas_.erase(it);
      return true;
    }
  }
  return false;
}

std::vector<Bytes> RRset::canonical_rdata_wires() const {
  std::vector<Bytes> wires;
  wires.reserve(rdatas_.size());
  for (const auto& r : rdatas_) wires.push_back(rdata_to_wire(r));
  std::sort(wires.begin(), wires.end());
  return wires;
}

std::vector<ResourceRecord> RRset::to_records() const {
  std::vector<ResourceRecord> out;
  out.reserve(rdatas_.size());
  for (const auto& r : rdatas_) {
    out.push_back(ResourceRecord{owner_, type_, RRClass::kIN, ttl_, r});
  }
  return out;
}

bool RRset::operator==(const RRset& other) const {
  return owner_ == other.owner_ && type_ == other.type_ &&
         ttl_ == other.ttl_ &&
         canonical_rdata_wires() == other.canonical_rdata_wires();
}

}  // namespace dfx::dns
