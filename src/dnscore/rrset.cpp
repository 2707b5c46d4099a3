#include "dnscore/rrset.h"

#include <algorithm>

namespace dfx::dns {

std::string RecordRef::to_text() const {
  return owner.to_string() + " " + std::to_string(ttl) + " IN " +
         rrtype_to_string(type) + " " + rdata_to_text(rdata);
}

std::string ResourceRecord::to_text() const {
  return RecordRef(*this).to_text();
}

namespace {

/// rdata_to_wire(member) == candidate_wire, where `candidate_wire` is the
/// wire form of `candidate`. Two rdatas of one alternative compare field by
/// field the way their wire forms do: `Name::operator==` already folds case,
/// and an RRSIG carries its times mod 2^32. Only a mixed set encodes.
bool same_wire(const Rdata& member, const Rdata& candidate,
               const Bytes& candidate_wire) {
  if (member.index() != candidate.index()) {
    return rdata_to_wire(member) == candidate_wire;
  }
  if (const auto* a = std::get_if<RrsigRdata>(&member)) {
    const auto& b = std::get<RrsigRdata>(candidate);
    return a->type_covered == b.type_covered && a->algorithm == b.algorithm &&
           a->labels == b.labels && a->original_ttl == b.original_ttl &&
           static_cast<std::uint32_t>(a->expiration) ==
               static_cast<std::uint32_t>(b.expiration) &&
           static_cast<std::uint32_t>(a->inception) ==
               static_cast<std::uint32_t>(b.inception) &&
           a->key_tag == b.key_tag && a->signer == b.signer &&
           a->signature == b.signature;
  }
  return member == candidate;
}

}  // namespace

void RRset::add(Rdata rdata) {
  const Bytes wire = rdata_to_wire(rdata);
  for (const auto& existing : rdatas_) {
    if (same_wire(existing, rdata, wire)) return;
  }
  rdatas_.push_back(std::move(rdata));
}

bool RRset::remove(const Rdata& rdata) {
  const Bytes wire = rdata_to_wire(rdata);
  for (auto it = rdatas_.begin(); it != rdatas_.end(); ++it) {
    if (same_wire(*it, rdata, wire)) {
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
