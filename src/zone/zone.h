// Zone data model: all RRsets of one zone, in canonical name order.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "dnscore/name.h"
#include "dnscore/rrset.h"

namespace dfx::zone {

/// One zone's records, keyed by (owner, type). Owners are kept in canonical
/// DNSSEC order, which the NSEC chain builder and the negative-answer logic
/// both rely on.
///
/// Copies share their records: copying a Zone costs one reference count and
/// the apex name. The first mutation of a zone that was ever copied (or
/// copied from) clones the record map once; later mutations happen in
/// place. A copy and its original therefore never see each other's
/// changes. A moved-from zone is valid and empty.
///
/// Pointer rule: a `const RRset*` from find(), at() or all_rrsets() stays
/// valid while some Zone still holds the version it was taken from. A
/// mutation of a shared zone moves that zone to a fresh version, so a
/// pointer kept across it is safe only while another copy keeps the old
/// version alive; otherwise copy what you need before mutating.
class Zone {
 public:
  explicit Zone(dns::Name apex) : apex_(std::move(apex)) {}
  Zone(const Zone& other);
  Zone& operator=(const Zone& other);
  Zone(Zone&& other) noexcept;
  Zone& operator=(Zone&& other) noexcept;

  const dns::Name& apex() const { return apex_; }

  bool empty() const { return records().empty(); }

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
  /// Mutable lookup: a write, so it clones shared records first.
  dns::RRset* find_mutable(const dns::Name& owner, dns::RRType type);

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
    for (const auto& [name, by_type] : records()) {
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
  using Records =
      std::map<dns::Name, std::map<dns::RRType, dns::RRset>, dns::Name::Less>;

  /// The records for reading; an empty map when none were ever added.
  const Records& records() const {
    return records_ != nullptr ? *records_ : no_records();
  }
  static const Records& no_records();
  /// The records for writing: cloned first when they may be shared. The
  /// removers and find_mutable look up first, so a miss never clones.
  Records& writable_records();

  dns::Name apex_;
  std::shared_ptr<Records> records_;
  /// Set on both sides by a copy, cleared only by a clone. A zone whose
  /// flag is clear is the sole owner of `records_` and may write in place.
  /// (`use_count() == 1` would not do: it is a relaxed load, so it does not
  /// order another thread's last read of the shared map before our write.)
  mutable std::atomic<bool> shared_{false};
};

}  // namespace dfx::zone
