// Zone data model: all RRsets of one zone, in canonical name order.
#pragma once

#include <map>
#include <optional>
#include <vector>

#include "dnscore/name.h"
#include "dnscore/rrset.h"

namespace dfx::zone {

/// One zone's records, keyed by (owner, type). Owners are kept in canonical
/// DNSSEC order, which the NSEC chain builder and the negative-answer logic
/// both rely on.
class Zone {
 public:
  explicit Zone(dns::Name apex) : apex_(std::move(apex)) {}

  const dns::Name& apex() const { return apex_; }

  bool empty() const { return records_.empty(); }

  /// Add one record (merged into its RRset; the RRset TTL is the TTL of the
  /// first record added).
  void add(const dns::ResourceRecord& record);
  void add(const dns::Name& owner, dns::RRType type, std::uint32_t ttl,
           dns::Rdata rdata);

  /// Replace or insert a whole RRset.
  void put(dns::RRset rrset);

  /// Remove an RRset; true if present.
  bool remove(const dns::Name& owner, dns::RRType type);

  /// Remove a single rdata from an RRset (dropping the RRset when empty).
  bool remove_rdata(const dns::Name& owner, dns::RRType type,
                    const dns::Rdata& rdata);

  /// Remove every record at an owner name.
  void remove_name(const dns::Name& owner);

  const dns::RRset* find(const dns::Name& owner, dns::RRType type) const;
  dns::RRset* find(const dns::Name& owner, dns::RRType type);

  /// All RRsets at one owner.
  std::vector<const dns::RRset*> at(const dns::Name& owner) const;

  /// Does any record exist at or below `name`?
  bool name_exists(const dns::Name& name) const;
  bool name_or_descendant_exists(const dns::Name& name) const;

  /// Owner names in canonical order.
  std::vector<dns::Name> owner_names() const;

  /// Visit every RRset in canonical owner order without materializing the
  /// pointer vector all_rrsets() builds — for hot paths that walk the zone
  /// once (e.g. the zonelint admission scan on every ZoneStore upsert).
  template <typename Fn>
  void for_each_rrset(Fn&& fn) const {
    for (const auto& [name, by_type] : records_) {
      for (const auto& [type, rrset] : by_type) fn(rrset);
    }
  }

  /// All RRsets in canonical owner order.
  std::vector<const dns::RRset*> all_rrsets() const;

  /// Is `name` a delegation point (has NS but is not the apex)?
  bool is_delegation(const dns::Name& name) const;

  /// The deepest delegation point above-or-at `name`, if any (zone cuts
  /// hide everything below them).
  [[nodiscard]] std::optional<dns::Name> covering_delegation(
      const dns::Name& name) const;

  /// Flatten to records (zone-file order: apex first, then canonical).
  std::vector<dns::ResourceRecord> to_records() const;

  /// SOA convenience accessors.
  const dns::SoaRdata* soa() const;
  void bump_serial();

 private:
  dns::Name apex_;
  std::map<dns::Name, std::map<dns::RRType, dns::RRset>, dns::Name::Less>
      records_;
};

}  // namespace dfx::zone
