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
///
/// Signature bound: each version also counts the sizes of its RRSIG
/// RRsets and the iteration counts of its NSEC3 rdatas, so that
/// signature_bound() answers without a walk (zonelint's admission policy
/// reads it on every ZoneStore upsert). Every mutator keeps the counts,
/// removals included; a clone copies them and a copy shares them.
/// find_mutable() cannot see what its caller writes: handing out an RRSIG
/// or NSEC3 RRset makes the bound unknown for the rest of that version.
///
/// Chain stamp: each version also carries a stamp drawn from one
/// process-wide counter, which stands for its denial chain (its NSEC,
/// NSEC3 and NSEC3PARAM RRsets). A new version draws one, and so does
/// every write that adds, changes or removes a chain RRset (find_mutable()
/// handing one out included); a copy shares the stamp and a clone copies
/// it. So two zones for which same_chain() holds have the same chain, and
/// whatever is derived from the chain alone (the serving layer's denial
/// index) may be shared between them.
class Zone {
 public:
  /// What signature_bound() reports.
  struct SignatureBound {
    /// RRSIG RRsets in the zone, and the most rdatas any one of them holds.
    std::size_t rrsig_sets = 0;
    std::size_t largest_rrsig_set = 0;
    /// The highest iteration count of any NSEC3 rdata (0 with none).
    std::uint16_t max_nsec3_iterations = 0;
  };

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

  /// The RRsets at one owner, by type.
  using RRsets = std::map<dns::RRType, dns::RRset>;

  const dns::RRset* find(const dns::NameView& owner, dns::RRType type) const;
  /// All RRsets at `owner`, or nullptr when no record has that owner: one
  /// search of the owner map for several type lookups.
  const RRsets* rrsets_at(const dns::NameView& owner) const {
    const auto it = locate(owner);
    return it == records().end() ? nullptr : &it->second;
  }
  /// Mutable lookup: a write, so it clones shared records first. The
  /// caller must keep the RRset's owner and type. An RRSIG or NSEC3 RRset
  /// handed out here makes signature_bound() unknown.
  dns::RRset* find_mutable(const dns::Name& owner, dns::RRType type);

  /// The zone's signature bound, kept up to date by every write; nullopt
  /// once find_mutable() handed out an RRSIG or NSEC3 RRset of this
  /// version (then only a walk over the zone knows).
  [[nodiscard]] std::optional<SignatureBound> signature_bound() const;

  /// The version's chain stamp; 0 for a zone that never held a record (an
  /// empty or moved-from zone).
  std::uint64_t chain_stamp() const {
    return version_ != nullptr ? version_->chain_stamp : 0;
  }
  /// The NSEC and the NSEC3 RRsets in the zone, kept by every write, so
  /// that an index over the chain can be sized without a walk.
  std::size_t nsec_rrsets() const {
    return version_ != nullptr ? version_->nsec_rrsets : 0;
  }
  std::size_t nsec3_rrsets() const {
    return version_ != nullptr ? version_->nsec3_rrsets : 0;
  }
  /// Same apex and the same non-zero chain stamp: the two zones' NSEC,
  /// NSEC3 and NSEC3PARAM RRsets are identical.
  bool same_chain(const Zone& other) const {
    return chain_stamp() != 0 && chain_stamp() == other.chain_stamp() &&
           apex_ == other.apex_;
  }

  /// All RRsets at one owner.
  std::vector<const dns::RRset*> at(const dns::NameView& owner) const;

  /// Visit the RRsets at one owner without building at()'s vector (the
  /// admission policy reads the apex this way on every upsert).
  template <typename Fn>
  void for_each_at(const dns::NameView& owner, Fn&& fn) const {
    const RRsets* rrsets = rrsets_at(owner);
    if (rrsets == nullptr) return;
    for (const auto& [type, rrset] : *rrsets) fn(rrset);
  }

  /// Does any record exist at or below `name`?
  bool name_exists(const dns::NameView& name) const;
  bool name_or_descendant_exists(const dns::NameView& name) const;

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
  bool is_delegation(const dns::NameView& name) const;

  /// The deepest delegation point above-or-at `name`, if any (zone cuts
  /// hide everything below them).
  [[nodiscard]] std::optional<dns::Name> covering_delegation(
      const dns::NameView& name) const;

  /// Flatten to records (zone-file order: apex first, then canonical).
  std::vector<dns::ResourceRecord> to_records() const;

  /// SOA convenience accessors.
  const dns::SoaRdata* soa() const;
  void bump_serial();

 private:
  using Records = std::map<dns::Name, RRsets, dns::Name::Less>;

  /// How often each value occurs, sorted by value, so that a removal can
  /// lower the maximum without a rescan. A zone holds few distinct RRSIG
  /// set sizes and iteration counts, so this stays a handful of pairs.
  class Tally {
   public:
    void add(std::uint32_t value);
    void remove(std::uint32_t value);
    std::uint32_t max() const {
      return counts_.empty() ? 0 : counts_.back().first;
    }
    std::size_t total() const { return total_; }

   private:
    std::vector<std::pair<std::uint32_t, std::size_t>> counts_;
    std::size_t total_ = 0;
  };

  /// One version of the zone: its records, their signature bound, their
  /// chain stamp and the size of their chain.
  struct Version {
    Records records;
    Tally rrsig_set_sizes;
    Tally nsec3_iterations;
    bool bound_known = true;
    std::uint64_t chain_stamp = next_chain_stamp();
    std::size_t nsec_rrsets = 0;
    std::size_t nsec3_rrsets = 0;

    /// Count `rrset` into the bound and the chain size, or take it out
    /// again; only RRSIG, NSEC and NSEC3 RRsets count. Either one draws a
    /// fresh chain stamp when `rrset` is a chain RRset.
    void count(const dns::RRset& rrset);
    void uncount(const dns::RRset& rrset);
    /// Draw a fresh chain stamp when `type` is a chain type.
    void touch(dns::RRType type);
  };
  static std::uint64_t next_chain_stamp();

  /// The records for reading; an empty map when none were ever added.
  const Records& records() const {
    return version_ != nullptr ? version_->records : no_records();
  }
  static const Records& no_records();
  /// The owner's entry in records(), or its end.
  Records::const_iterator locate(const dns::NameView& owner) const;
  /// The version for writing: cloned first when it may be shared. The
  /// removers and find_mutable look up first, so a miss never clones.
  Version& writable();

  dns::Name apex_;
  std::shared_ptr<Version> version_;
  /// Set on both sides by a copy, cleared only by a clone. A zone whose
  /// flag is clear is the sole owner of `version_` and may write in place.
  /// (`use_count() == 1` would not do: it is a relaxed load, so it does not
  /// order another thread's last read of the shared map before our write.)
  mutable std::atomic<bool> shared_{false};
};

}  // namespace dfx::zone
