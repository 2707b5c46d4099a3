// RRsets: the unit DNSSEC signs. An RRset is all records sharing
// (owner, class, type); its RRSIGs cover the whole set.
#pragma once

#include <cstdint>
#include <vector>

#include "dnscore/name.h"
#include "dnscore/rdata.h"
#include "dnscore/rr.h"

namespace dfx::dns {

/// One resource record (used at message boundaries and in zone files).
struct ResourceRecord {
  Name owner;
  RRType type = RRType::kA;
  RRClass rrclass = RRClass::kIN;
  std::uint32_t ttl = 3600;
  Rdata rdata;

  std::string to_text() const;
};

/// One record read in place: the owner, type, class and TTL it is served
/// with, and a reference to its RDATA wherever that lives (an owned
/// ResourceRecord, or an RRset inside a zone). The encoder and every
/// reader of a served answer take records in this form, so an answer
/// can hand out records it does not own. Valid while what it refers to
/// lives.
struct RecordRef {
  RecordRef(const Name& owner_name, RRType record_type, RRClass record_class,
            std::uint32_t record_ttl, const Rdata& record_rdata)
      : owner(owner_name),
        type(record_type),
        rrclass(record_class),
        ttl(record_ttl),
        rdata(record_rdata) {}
  // NOLINTNEXTLINE(google-explicit-constructor): every record is one.
  RecordRef(const ResourceRecord& rr)
      : RecordRef(rr.owner, rr.type, rr.rrclass, rr.ttl, rr.rdata) {}

  const Name& owner;
  RRType type;
  RRClass rrclass;
  std::uint32_t ttl;
  const Rdata& rdata;

  /// An owned copy.
  ResourceRecord to_record() const {
    return ResourceRecord{owner, type, rrclass, ttl, rdata};
  }
  /// Presentation form, as ResourceRecord::to_text.
  std::string to_text() const;
};

/// All records of one (owner, type) with a shared TTL.
class RRset {
 public:
  RRset() = default;
  RRset(Name owner, RRType type, std::uint32_t ttl)
      : owner_(std::move(owner)), type_(type), ttl_(ttl) {}

  const Name& owner() const { return owner_; }
  RRType type() const { return type_; }
  std::uint32_t ttl() const { return ttl_; }
  void set_ttl(std::uint32_t ttl) { ttl_ = ttl; }

  const std::vector<Rdata>& rdatas() const { return rdatas_; }
  bool empty() const { return rdatas_.empty(); }
  std::size_t size() const { return rdatas_.size(); }

  /// Add a record; duplicates (identical wire form) are dropped, matching
  /// nameserver behaviour.
  void add(Rdata rdata);

  /// Remove the record whose canonical wire form matches; returns true if
  /// something was removed.
  bool remove(const Rdata& rdata);

  /// Rdatas sorted by canonical wire form (RFC 4034 §6.3).
  std::vector<Bytes> canonical_rdata_wires() const;

  std::vector<ResourceRecord> to_records() const;

  bool operator==(const RRset& other) const;

 private:
  Name owner_;
  RRType type_ = RRType::kA;
  std::uint32_t ttl_ = 3600;
  std::vector<Rdata> rdatas_;
};

}  // namespace dfx::dns
