// Answer cache for the wire-level serving engine: a sharded packet tier
// keyed on (qname, qtype, DO) plus an RFC 8198-style aggressive negative
// tier that synthesizes NXDOMAIN/NODATA answers from previously served
// NSEC/NSEC3 proofs without touching the zone.
//
// The packet tier stores the encoded response *body* (everything after the
// question section, before any OPT record); the frontend re-assembles the
// header, question echo, EDNS OPT and truncation per query, so one cached
// body serves every ID, spelling (0x20 case), and buffer size.
//
// The aggressive tier harvests SOA/NSEC/NSEC3 proof blocks from answers
// computed the slow way and replays the authserver's *exact* proof
// selection over the harvested subset. A harvest copies no record: the
// blocks are views of the answer's zone version, which the harvested zone
// state pins, and a synthesized answer is views of the same version. Synthesis refuses whenever it
// cannot prove it would pick the same records the zone walk would — every
// refusal just falls back to the slow path — so cached and uncached
// answers stay bit-identical (the bench digest-asserts this).
//
// Invalidation: the cache carries a monotonically increasing epoch.
// `invalidate_all()` (hooked to ZoneStore map swaps) bumps it;
// entries and harvested proofs are stamped with the epoch their producer
// captured *before* reading the store, and are ignored once it goes
// stale. Between a map swap and its listener running, a freshly
// inserted entry may briefly serve the pre-swap answer — equivalent to the
// query having arrived just before the reload.
//
// Thread-safety: all public methods are safe from any thread. The packet
// tier is sharded, one ReadMostlyMutex per cache-line-aligned shard:
// `lookup` takes the read side, which writes only the calling thread's
// reader slot, and a hit keeps it for as long as the returned `Hit`
// lives, so the resident body is read in place and no reference count is
// touched; `insert` and `size` take the write side, which waits for every
// reader of the shard to leave. A `Hit` must therefore be dropped before
// the same thread inserts (or looks up again) — holding it across either
// deadlocks against the next writer. The negative tier keeps its harvest
// under one Mutex that no thread ever waits for: `synthesize` and
// `observe` take it with try_lock, and when another thread holds it,
// synthesis refuses (the frontend answers from the zone, as for every
// refusal) and the harvest is dropped. Each such skip counts in
// `server.cache.neg_busy`. A lone thread never finds the lock taken, so
// its answers and counters do not depend on this. TSan and the
// static-lock-cycle lint rule audit both tiers.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "authserver/authserver.h"
#include "dnscore/name.h"
#include "dnscore/rdata.h"
#include "dnscore/rr.h"
#include "util/bytes.h"
#include "util/check.hpp"
#include "util/metrics.h"
#include "util/thread_annotations.h"

namespace dfx::server {

/// An encoded response minus everything per-query: the three record
/// sections as wire bytes (compression offsets assume the standard
/// 12-byte header + question prefix), their counts, and the header bits
/// the frontend must reproduce.
struct AnswerBody {
  dns::RCode rcode = dns::RCode::kNoError;
  bool aa = false;
  std::uint16_t ancount = 0;
  std::uint16_t nscount = 0;
  std::uint16_t arcount = 0;
  Bytes bytes;

  bool operator==(const AnswerBody&) const = default;
};

class AnswerCache {
 public:
  static constexpr std::size_t kShards = 32;

  /// `max_entries_per_shard` bounds the packet tier; on overflow an
  /// arbitrary resident entry is evicted (O(1) pseudo-random victim).
  explicit AnswerCache(std::size_t max_entries_per_shard = 4096);

  // ---- Epoch / invalidation ----

  std::uint64_t epoch() const {
    return epoch_.load(std::memory_order_acquire);
  }

  /// Drop everything (lazily): bumps the epoch so every resident entry
  /// and harvested proof becomes unreadable. Hook this to
  /// ZoneStore::subscribe.
  void invalidate_all() { epoch_.fetch_add(1, std::memory_order_acq_rel); }

  // ---- Packet tier ----

  /// Cache key: canonical (lower-cased) qname wire form, big-endian
  /// QTYPE, one DO byte. The frontend builds the identical byte string
  /// inline (on the stack) while scanning the question, so the hit path
  /// never has to construct a Name — or heap-allocate the key.
  static std::string key_of(const dns::Name& qname, dns::RRType qtype,
                            bool do_bit);

  /// The outcome of a packet-tier lookup. A hit holds its shard's read
  /// side, so the resident body it points to cannot be replaced or
  /// evicted until the Hit is dropped; a miss holds nothing. Tests as a
  /// bool; `*hit` is the body.
  class Hit {
   public:
    Hit(const Hit&) = delete;
    Hit& operator=(const Hit&) = delete;

    explicit operator bool() const { return body_ != nullptr; }
    const AnswerBody& operator*() const {
      DFX_DCHECK(body_ != nullptr);
      return *body_;
    }

   private:
    friend class AnswerCache;
    Hit() = default;
    Hit(ReaderLock lock, const AnswerBody& body)
        : lock_(std::move(lock)), body_(&body) {}

    std::optional<ReaderLock> lock_;
    const AnswerBody* body_ = nullptr;
  };

  /// The resident body for `key`, read in place under the shard's read
  /// side (no body copy, no reference count). The caller must drop the
  /// Hit before it calls insert(), size() or lookup() on this cache.
  DFX_HOT_PATH
  Hit lookup(std::string_view key) const;

  /// Insert an entry computed under `epoch` (captured before the producer
  /// read the zone store). Dropped when the epoch has moved on. The owned
  /// key string is built here, off the hit path.
  DFX_COLD("cache fill runs on the miss path only")
  void insert(std::string_view key, AnswerBody body, std::uint64_t epoch);

  // ---- Aggressive negative tier (RFC 8198) ----

  /// Harvest the SOA and NSEC/NSEC3 proof blocks from a slow-path answer
  /// for a query under `apex`: views into the version `result` pins (a
  /// result with no pin harvests nothing). A harvest from another version
  /// than the zone's earlier harvests replaces them. Harvests nothing when
  /// another thread holds the negative tier.
  DFX_COLD("proof harvesting follows a slow-path zone walk")
  void observe(const dns::Name& apex, const authserver::QueryResult& result,
               std::uint64_t epoch) DFX_EXCLUDES(neg_mu_);

  /// Try to synthesize the answer for (qname, qtype) under `apex` from
  /// harvested proofs. Returns an answer *identical* to what the zone walk
  /// would produce, or nullopt when that cannot be guaranteed or another
  /// thread holds the negative tier.
  DFX_COLD("aggressive synthesis only runs after a packet-tier miss")
  [[nodiscard]] std::optional<authserver::QueryResult> synthesize(
      const dns::Name& apex, const dns::Name& qname, dns::RRType qtype,
      std::uint64_t epoch) const DFX_EXCLUDES(neg_mu_);

  /// Resident packet-tier entries whose epoch is current (counts stale
  /// residue too until overwritten; test/diagnostic use).
  std::size_t size() const;

 private:
  struct Entry {
    std::uint64_t epoch = 0;
    AnswerBody body;
  };

  /// Transparent hash so the frontend's stack-built key (a string_view)
  /// probes the map without constructing a std::string first.
  struct KeyHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view key) const noexcept {
      return std::hash<std::string_view>{}(key);
    }
  };

  /// Cache-line aligned, so one shard's reader slots and map header never
  /// share a line with its neighbour's.
  struct alignas(64) Shard {
    mutable ReadMostlyMutex mu;
    std::unordered_map<std::string, Entry, KeyHash, std::equal_to<>> map
        DFX_GUARDED_BY(mu);
  };

  /// One harvested proof block: the authority-section records exactly as
  /// the authserver emits them for this owner (the RRset, then the RRSIGs
  /// covering its type), as views into the harvested zone version.
  struct ProofBlock {
    const dns::RRset* records = nullptr;
    const dns::RRset* sigs = nullptr;  // null: no RRSIG covers the type
  };

  struct NsecEntry {
    const dns::NsecRdata* rdata = nullptr;
    ProofBlock block;
  };

  struct Nsec3Entry {
    const dns::Nsec3Rdata* rdata = nullptr;
    ProofBlock block;
  };

  /// Harvested negative state of one zone: views into one hosted version,
  /// which `pin` keeps alive until the next harvest for the zone replaces
  /// it (so a stale NegZone holds at most one old version).
  struct NegZone {
    std::uint64_t epoch = 0;
    std::shared_ptr<const authserver::HostedZone> pin;
    bool have_soa = false;
    ProofBlock soa;
    std::map<dns::Name, NsecEntry, dns::Name::Less> nsec;
    std::map<Bytes, Nsec3Entry> nsec3;  // keyed by decoded owner hash
    /// NSEC3 hash parameters shared by every harvested record; a mismatch
    /// (or an undecodable owner label) poisons the zone — synthesis stops
    /// until the next reload resets it.
    bool have_nsec3_params = false;
    std::uint16_t nsec3_iterations = 0;
    Bytes nsec3_salt;
    bool nsec3_poisoned = false;
  };

  /// The harvested NSEC whose interval provably covers `name` in the full
  /// chain (nullopt when no harvested record qualifies). Fills `owner`
  /// when non-null.
  const NsecEntry* nsec_cover(const NegZone& neg, const dns::Name& name,
                              dns::Name* owner) const DFX_REQUIRES(neg_mu_);
  /// Same by hash interval; additionally refuses opt-out records.
  const Nsec3Entry* nsec3_cover(const NegZone& neg, const Bytes& hash) const
      DFX_REQUIRES(neg_mu_);

  [[nodiscard]] std::optional<authserver::QueryResult> synthesize_nsec(
      const NegZone& neg, const dns::Name& apex, const dns::Name& qname,
      dns::RRType qtype) const DFX_REQUIRES(neg_mu_);
  [[nodiscard]] std::optional<authserver::QueryResult> synthesize_nsec3(
      const NegZone& neg, const dns::Name& apex, const dns::Name& qname,
      dns::RRType qtype) const DFX_REQUIRES(neg_mu_);

  const std::size_t max_entries_per_shard_;
  std::atomic<std::uint64_t> epoch_{0};
  std::array<Shard, kShards> shards_;

  mutable Mutex neg_mu_;
  std::map<dns::Name, NegZone, dns::Name::Less> neg_zones_
      DFX_GUARDED_BY(neg_mu_);

  // Metric handles resolved once (global-registry references stay valid
  // for the registry's lifetime).
  metrics::Counter& hits_;
  metrics::Counter& misses_;
  metrics::Counter& inserts_;
  metrics::Counter& evictions_;
  metrics::Counter& synth_hits_;
  metrics::Counter& synth_misses_;
  metrics::Counter& neg_busy_;
};

}  // namespace dfx::server
