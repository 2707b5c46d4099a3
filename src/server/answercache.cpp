#include "server/answercache.h"

#include <functional>
#include <iterator>
#include <mutex>
#include <string_view>
#include <utility>
#include <variant>

#include "util/check.hpp"
#include "util/codec.h"
#include "zone/nsec3.h"

namespace dfx::server {
namespace {

/// Assemble a purely negative QueryResult the way answer_nodata /
/// answer_nxdomain do: authoritative, empty answer and additional
/// sections, SOA block first in the authority section. It pins the
/// harvested version its views point into.
authserver::QueryResult negative_result(
    dns::RCode rcode, std::shared_ptr<const authserver::HostedZone> pin) {
  authserver::QueryResult result;
  result.authoritative = true;
  result.rcode = rcode;
  result.pin = std::move(pin);
  return result;
}

/// Serves a harvested block the way add_rrset_with_sigs emits it.
template <typename Block>
void append_block(authserver::Section& section, const Block& block) {
  section.add_rrset(*block.records);
  if (block.sigs != nullptr) {
    section.add_sigs(*block.sigs, block.records->type(),
                     block.records->owner());
  }
}

/// Shared NODATA-vs-refuse decision for an NSEC/NSEC3 record matching
/// qname. Returns true when the slow path would answer something other
/// than NODATA-from-this-match (positive, CNAME, referral) and the caller
/// must refuse.
bool match_needs_slow_path(const std::set<dns::RRType>& types,
                           const dns::Name& qname, const dns::Name& apex,
                           dns::RRType qtype) {
  if (types.count(qtype) != 0) return true;  // positive answer
  if (types.count(dns::RRType::kCNAME) != 0 &&
      qtype != dns::RRType::kCNAME) {
    return true;  // CNAME answers every other qtype
  }
  // A delegation owner answers with a referral for everything except DS
  // (and a present DS is the positive case above); DS NODATA at the cut
  // is served from the match like any other NODATA.
  if (types.count(dns::RRType::kNS) != 0 && qname != apex &&
      qtype != dns::RRType::kDS) {
    return true;
  }
  return false;
}

}  // namespace

AnswerCache::AnswerCache(std::size_t max_entries_per_shard)
    : max_entries_per_shard_(max_entries_per_shard),
      hits_(metrics::Registry::global().counter("server.cache.hits")),
      misses_(metrics::Registry::global().counter("server.cache.misses")),
      inserts_(metrics::Registry::global().counter("server.cache.inserts")),
      evictions_(
          metrics::Registry::global().counter("server.cache.evictions")),
      synth_hits_(
          metrics::Registry::global().counter("server.cache.synth_hits")),
      synth_misses_(
          metrics::Registry::global().counter("server.cache.synth_misses")),
      neg_busy_(metrics::Registry::global().counter("server.cache.neg_busy")) {
  DFX_CHECK(max_entries_per_shard_ > 0);
}

std::string AnswerCache::key_of(const dns::Name& qname, dns::RRType qtype,
                                bool do_bit) {
  const Bytes wire = qname.to_canonical_wire();
  std::string key(wire.begin(), wire.end());
  const auto type = static_cast<std::uint16_t>(qtype);
  key.push_back(static_cast<char>(type >> 8));
  key.push_back(static_cast<char>(type & 0xFF));
  key.push_back(do_bit ? '\1' : '\0');
  return key;
}

namespace {
std::size_t shard_index(std::string_view key) {
  static_assert((AnswerCache::kShards & (AnswerCache::kShards - 1)) == 0,
                "kShards must be a power of two");
  return std::hash<std::string_view>{}(key) & (AnswerCache::kShards - 1);
}
}  // namespace

AnswerCache::Hit AnswerCache::lookup(std::string_view key) const {
  const std::uint64_t now = epoch();
  const Shard& shard = shards_[shard_index(key)];
  ReaderLock lock(shard.mu);
  const auto it = shard.map.find(key);
  if (it == shard.map.end() || it->second.epoch != now) {
    misses_.add();
    return Hit{};  // `lock` releases the read side here
  }
  hits_.add();
  return Hit{std::move(lock), it->second.body};
}

void AnswerCache::insert(std::string_view key, AnswerBody body,
                         std::uint64_t epoch) {
  // A producer that read the store before a swap must not poison the cache
  // with pre-swap data stamped fresh.
  if (epoch != this->epoch()) return;
  Shard& shard = shards_[shard_index(key)];
  const WriterLock lock(shard.mu);
  const auto it = shard.map.find(key);
  if (it != shard.map.end()) {
    it->second = Entry{epoch, std::move(body)};
  } else {
    if (shard.map.size() >= max_entries_per_shard_) {
      // O(1) pseudo-random victim: whatever the bucket order puts first.
      shard.map.erase(shard.map.begin());
      evictions_.add();
    }
    shard.map.emplace(std::string(key), Entry{epoch, std::move(body)});
  }
  inserts_.add();
}

std::size_t AnswerCache::size() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    const WriterLock lock(shard.mu);
    total += shard.map.size();
  }
  return total;
}

void AnswerCache::observe(const dns::Name& apex,
                          const authserver::QueryResult& result,
                          std::uint64_t epoch) {
  if (!result.reachable) return;
  if (epoch != this->epoch()) return;

  // A result that pins no version has nothing a harvest may point into.
  if (result.pin == nullptr) return;

  // Cut the authority section into the blocks add_rrset_with_sigs emits:
  // a view of one RRset, then the view of the RRSIGs covering its type at
  // the same owner. An NSEC3 owner's hash is decoded here too, outside
  // the lock.
  struct Cut {
    ProofBlock block;
    std::optional<Bytes> nsec3_hash;
  };
  std::vector<Cut> blocks;
  const auto& parts = result.authorities.parts();
  for (std::size_t i = 0; i < parts.size(); ++i) {
    const auto& part = parts[i];
    if (part.rrset == nullptr || part.sigs) continue;
    const dns::RRType type = part.rrset->type();
    if (type != dns::RRType::kSOA && type != dns::RRType::kNSEC &&
        type != dns::RRType::kNSEC3) {
      continue;
    }
    // An owned part after it is its RRSIGs copied under a second spelling
    // (Section's fallback): not a view a harvest may keep.
    if (i + 1 < parts.size() && parts[i + 1].rrset == nullptr) continue;
    ProofBlock block{part.rrset, nullptr};
    if (i + 1 < parts.size() && parts[i + 1].sigs &&
        parts[i + 1].covered == type &&
        parts[i + 1].rrset->owner() == part.rrset->owner()) {
      block.sigs = parts[++i].rrset;
    }
    blocks.push_back(
        {block, type == dns::RRType::kNSEC3
                    ? base32hex_decode(part.rrset->owner().leftmost_label())
                    : std::nullopt});
  }
  if (blocks.empty()) return;

  // Declared before the lock, so a replaced harvest (and the version it
  // may be the last to pin) is released after the lock is.
  NegZone replaced;
  if (!neg_mu_.try_lock()) {
    neg_busy_.add();
    return;
  }
  const MutexLock lock(neg_mu_, std::adopt_lock);
  NegZone& neg = neg_zones_[apex];
  if (neg.epoch > epoch) return;  // a newer harvest already reset the zone
  if (neg.epoch < epoch || neg.pin != result.pin) {
    replaced = std::exchange(neg, NegZone{});
    neg.epoch = epoch;
    neg.pin = result.pin;
  }
  for (Cut& cut : blocks) {
    const ProofBlock& block = cut.block;
    const dns::Name& owner = block.records->owner();
    if (!owner.is_subdomain_of(apex)) continue;
    // dfx-lint: allow(unchecked-front-back): Section adds no empty view
    const dns::Rdata& first = block.records->rdatas().front();
    switch (block.records->type()) {
      case dns::RRType::kSOA:
        if (owner == apex && !neg.have_soa) {
          neg.soa = block;
          neg.have_soa = true;
        }
        break;
      case dns::RRType::kNSEC: {
        const auto* rdata = std::get_if<dns::NsecRdata>(&first);
        if (rdata == nullptr) break;
        neg.nsec.insert_or_assign(owner, NsecEntry{rdata, block});
        break;
      }
      case dns::RRType::kNSEC3: {
        const auto* rdata = std::get_if<dns::Nsec3Rdata>(&first);
        if (rdata == nullptr) break;
        auto& hash = cut.nsec3_hash;
        // An undecodable owner or a parameter mismatch means the
        // authserver's emission (undecodable-records-first, one hash
        // order) cannot be reproduced from a harvest — stop synthesizing
        // for this zone until the next reload.
        if (!hash || rdata->hash_algorithm != 1) {
          neg.nsec3_poisoned = true;
          break;
        }
        if (!neg.have_nsec3_params) {
          neg.have_nsec3_params = true;
          neg.nsec3_iterations = rdata->iterations;
          neg.nsec3_salt = rdata->salt;
        } else if (rdata->iterations != neg.nsec3_iterations ||
                   rdata->salt != neg.nsec3_salt) {
          neg.nsec3_poisoned = true;
          break;
        }
        neg.nsec3.insert_or_assign(*std::move(hash),
                                   Nsec3Entry{rdata, block});
        break;
      }
      default:
        break;
    }
  }
}

[[nodiscard]] std::optional<authserver::QueryResult> AnswerCache::synthesize(
    const dns::Name& apex, const dns::Name& qname, dns::RRType qtype,
    std::uint64_t epoch) const {
  // Another thread holds the harvest: refuse rather than wait, so the
  // miss goes to the zone walk at once.
  if (!neg_mu_.try_lock()) {
    neg_busy_.add();
    return std::nullopt;
  }
  const MutexLock lock(neg_mu_, std::adopt_lock);
  std::optional<authserver::QueryResult> out;
  const auto it = neg_zones_.find(apex);
  if (it != neg_zones_.end() && it->second.epoch == epoch &&
      it->second.have_soa && !it->second.nsec3_poisoned) {
    const NegZone& neg = it->second;
    // The authserver picks the denial flavor from NSEC3PARAM at the apex;
    // a signed zone carries exactly one chain, so whichever kind we have
    // harvested is the kind the zone uses.
    if (!neg.nsec3.empty()) {
      out = synthesize_nsec3(neg, apex, qname, qtype);
    } else if (!neg.nsec.empty()) {
      out = synthesize_nsec(neg, apex, qname, qtype);
    }
  }
  if (out) {
    synth_hits_.add();
  } else {
    synth_misses_.add();
  }
  return out;
}

const AnswerCache::NsecEntry* AnswerCache::nsec_cover(const NegZone& neg,
                                                      const dns::Name& name,
                                                      dns::Name* owner) const {
  if (neg.nsec.empty()) return nullptr;
  auto it = neg.nsec.upper_bound(name);
  const auto cand =
      (it == neg.nsec.begin()) ? std::prev(neg.nsec.end()) : std::prev(it);
  // The covering check is what makes synthesis sound: it proves the
  // harvested candidate is the *full chain's* predecessor of `name`, not
  // just the predecessor among the records we happen to hold.
  if (!authserver::nsec_covers(cand->first, cand->second.rdata->next, name)) {
    return nullptr;
  }
  if (owner != nullptr) *owner = cand->first;
  return &cand->second;
}

[[nodiscard]] std::optional<authserver::QueryResult>
AnswerCache::synthesize_nsec(const NegZone& neg, const dns::Name& apex,
                             const dns::Name& qname, dns::RRType qtype) const {
  // Exact match: the NSEC at qname decides NODATA vs slow path.
  const auto match = neg.nsec.find(qname);
  if (match != neg.nsec.end()) {
    if (match_needs_slow_path(match->second.rdata->types, qname, apex, qtype)) {
      return std::nullopt;
    }
    auto result = negative_result(dns::RCode::kNoError, neg.pin);
    append_block(result.authorities, neg.soa);
    append_block(result.authorities, match->second.block);
    return result;
  }

  dns::Name cover_owner;
  const NsecEntry* cover = nsec_cover(neg, qname, &cover_owner);
  if (cover == nullptr) return std::nullopt;
  // qname under a delegation owner: the slow path answers with a referral
  // from the cut, which we do not cache at this tier.
  if (cover->rdata->types.count(dns::RRType::kNS) != 0 &&
      cover_owner != apex && qname.is_subdomain_of(cover_owner)) {
    return std::nullopt;
  }
  // Empty non-terminal: the next owner lies beneath qname, so qname has
  // descendants and the slow path answers NODATA from the same cover.
  if (cover->rdata->next.is_subdomain_of(qname)) {
    auto result = negative_result(dns::RCode::kNoError, neg.pin);
    append_block(result.authorities, neg.soa);
    append_block(result.authorities, cover->block);
    return result;
  }

  // NXDOMAIN — but only if no wildcard would synthesize an answer. The
  // closest encloser is derivable from the covering interval: the deepest
  // existing ancestor of qname must enclose one of the two adjacent
  // existing names.
  const dns::Name ce_owner = qname.common_ancestor(cover_owner);
  const dns::Name ce_next = qname.common_ancestor(cover->rdata->next);
  const dns::Name& closest =
      ce_owner.label_count() >= ce_next.label_count() ? ce_owner : ce_next;
  const dns::Name source = closest.child("*");
  const auto source_match = neg.nsec.find(source);
  if (source_match != neg.nsec.end()) {
    // The wildcard exists; it answers qtype only if the type is present
    // (the authserver does no wildcard CNAME chasing).
    if (source_match->second.rdata->types.count(qtype) != 0) {
      return std::nullopt;
    }
  } else if (nsec_cover(neg, source, nullptr) == nullptr) {
    return std::nullopt;  // cannot prove the wildcard away
  }
  // Emission mirrors add_nsec_proofs(nxdomain=true): the cover of qname,
  // then the predecessor of the *apex* wildcard (the match when that name
  // exists, its cover otherwise) — even when that repeats the same record.
  const dns::Name apex_wildcard = apex.child("*");
  const ProofBlock* wildcard_block = nullptr;
  const auto apexw_match = neg.nsec.find(apex_wildcard);
  if (apexw_match != neg.nsec.end()) {
    wildcard_block = &apexw_match->second.block;
  } else if (const NsecEntry* c = nsec_cover(neg, apex_wildcard, nullptr)) {
    wildcard_block = &c->block;
  } else {
    return std::nullopt;
  }
  auto result = negative_result(dns::RCode::kNXDomain, neg.pin);
  append_block(result.authorities, neg.soa);
  append_block(result.authorities, cover->block);
  append_block(result.authorities, *wildcard_block);
  return result;
}

const AnswerCache::Nsec3Entry* AnswerCache::nsec3_cover(
    const NegZone& neg, const Bytes& hash) const {
  if (neg.nsec3.empty()) return nullptr;
  auto it = neg.nsec3.upper_bound(hash);
  const auto cand =
      (it == neg.nsec3.begin()) ? std::prev(neg.nsec3.end()) : std::prev(it);
  if (!authserver::nsec3_hash_covers(cand->first,
                                     cand->second.rdata->next_hashed, hash)) {
    return nullptr;
  }
  // Opt-out intervals may skip insecure delegations, so covering a hash
  // proves nothing about the tree shape beneath it.
  if (cand->second.rdata->opt_out()) return nullptr;
  return &cand->second;
}

[[nodiscard]] std::optional<authserver::QueryResult>
AnswerCache::synthesize_nsec3(const NegZone& neg, const dns::Name& apex,
                              const dns::Name& qname, dns::RRType qtype) const {
  const auto hash = [&neg](const dns::NameView& name) {
    return zone::nsec3_hash(name, neg.nsec3_salt, neg.nsec3_iterations);
  };
  const auto match = neg.nsec3.find(hash(qname));
  if (match != neg.nsec3.end()) {
    if (match_needs_slow_path(match->second.rdata->types, qname, apex, qtype)) {
      return std::nullopt;
    }
    auto result = negative_result(dns::RCode::kNoError, neg.pin);
    append_block(result.authorities, neg.soa);
    append_block(result.authorities, match->second.block);
    return result;
  }
  if (qname == apex) return std::nullopt;  // apex must match; harvest gap

  // Closest-encloser walk over harvested matches. Finding a match proves
  // that ancestor exists (every name and empty non-terminal is hashed);
  // the *verified* cover of the next-closer name below it proves no deeper
  // ancestor exists, so the pair pins the slow path's encloser exactly.
  dns::NameView closest = dns::NameView(qname).parent();
  const Nsec3Entry* encloser = nullptr;
  DFX_BOUNDED_LOOP(guard, 128);
  while (true) {
    guard.tick();  // parent() strictly shrinks the label count
    const auto it = neg.nsec3.find(hash(closest));
    if (it != neg.nsec3.end()) {
      encloser = &it->second;
      break;
    }
    if (closest == apex) return std::nullopt;
    closest = closest.parent();
  }
  // A delegation encloser means everything beneath it is referral
  // territory, not NXDOMAIN.
  if (encloser->rdata->types.count(dns::RRType::kNS) != 0 && closest != apex) {
    return std::nullopt;
  }
  const dns::NameView next_closer =
      dns::NameView(qname).suffix(closest.label_count() + 1);
  const Nsec3Entry* nc_cover = nsec3_cover(neg, hash(next_closer));
  if (nc_cover == nullptr) return std::nullopt;

  const dns::Name source = closest.child("*");
  const Bytes source_hash = hash(source);
  // emit_cover uses owner_hash <= h, so an existing wildcard is proven by
  // (and emitted as) its own matching record.
  const Nsec3Entry* wildcard = nullptr;
  const auto source_match = neg.nsec3.find(source_hash);
  if (source_match != neg.nsec3.end()) {
    if (source_match->second.rdata->types.count(qtype) != 0) {
      return std::nullopt;  // wildcard answers this qtype
    }
    wildcard = &source_match->second;
  } else {
    wildcard = nsec3_cover(neg, source_hash);
    if (wildcard == nullptr) return std::nullopt;
  }
  auto result = negative_result(dns::RCode::kNXDomain, neg.pin);
  append_block(result.authorities, neg.soa);
  append_block(result.authorities, encloser->block);
  append_block(result.authorities, nc_cover->block);
  append_block(result.authorities, wildcard->block);
  return result;
}

}  // namespace dfx::server
