#include "zreplicator/injector.h"

#include <algorithm>

#include "analyzer/probe.h"
#include "util/codec.h"
#include "zone/nsec3.h"
#include "zone/signer.h"

namespace dfx::zreplicator {
namespace {

using analyzer::ErrorCode;

/// Remove the RRSIGs covering `type` at `owner` from a signed zone copy.
void strip_sigs(zone::Zone& z, const dns::Name& owner, dns::RRType type) {
  auto* sigs = z.find(owner, dns::RRType::kRRSIG);
  if (sigs == nullptr) return;
  std::vector<dns::Rdata> doomed;
  for (const auto& rdata : sigs->rdatas()) {
    const auto* sig = std::get_if<dns::RrsigRdata>(&rdata);
    if (sig != nullptr && sig->type_covered == type) doomed.push_back(rdata);
  }
  for (const auto& rdata : doomed) {
    z.remove_rdata(owner, dns::RRType::kRRSIG, rdata);
  }
}

/// Re-sign one RRset in a signed zone copy using the zone's active keys
/// (KSKs for DNSKEY, ZSKs otherwise), with a fresh valid window.
void resign_rrset(Sandbox& sb, zone::Zone& z, const dns::Name& owner,
                  dns::RRType type) {
  auto& mz = sb.managed(z.apex());
  const auto* found = z.find(owner, type);
  if (found == nullptr) return;
  // A copy: the writes below may move `z` off the version `found` points into.
  const dns::RRset rrset = *found;
  strip_sigs(z, owner, type);
  const UnixTime now = sb.clock().now();
  const auto signers =
      type == dns::RRType::kDNSKEY
          ? mz.keys.active_with_role(now, zone::KeyRole::kKsk)
          : mz.keys.active_with_role(now, zone::KeyRole::kZsk);
  for (const auto* key : signers) {
    const auto sig = zone::make_rrsig(rrset, *key, z.apex(), now - kHour,
                                      now + 30 * kDay);
    z.add(owner, dns::RRType::kRRSIG, rrset.ttl(), sig);
  }
}

/// The child's NSEC3 parameters as signed (for hash computations).
[[nodiscard]] std::optional<dns::Nsec3ParamRdata> nsec3_params(
    const zone::Zone& z) {
  const auto* set = z.find(z.apex(), dns::RRType::kNSEC3PARAM);
  if (set == nullptr || set->empty()) return std::nullopt;
  const auto* p = std::get_if<dns::Nsec3ParamRdata>(&set->rdatas().front());
  if (p == nullptr) return std::nullopt;
  return *p;
}

/// Several injectors only make sense for one of NSEC/NSEC3. The denial
/// mode is decided *before* the zone is built (replicate() derives it from
/// the intended error set); re-signing here would erase earlier record-
/// level injections, so a mismatch is a genuine replication failure.
bool ensure_denial(Sandbox& sb, zone::DenialMode mode) {
  return sb.managed(sb.child_apex()).config.denial == mode;
}

/// Find the NSEC3 RRset (owner + rdata) covering the hash of `name`.
struct Nsec3Ref {
  dns::Name owner;
  dns::Nsec3Rdata rdata;
};
[[nodiscard]] std::optional<Nsec3Ref> find_covering_nsec3(
    const zone::Zone& z, const dns::Name& name) {
  const auto params = nsec3_params(z);
  if (!params) return std::nullopt;
  const Bytes h = zone::nsec3_hash(name, params->salt, params->iterations);
  std::optional<Nsec3Ref> best;
  Bytes best_hash;
  std::optional<Nsec3Ref> last;
  Bytes last_hash;
  for (const auto* rrset : z.all_rrsets()) {
    if (rrset->type() != dns::RRType::kNSEC3 || rrset->empty()) continue;
    const auto* n3 = std::get_if<dns::Nsec3Rdata>(&rrset->rdatas().front());
    if (n3 == nullptr) continue;
    auto decoded = base32hex_decode(rrset->owner().leftmost_label());
    if (!decoded) continue;
    if (!last || *decoded > last_hash) {
      last = Nsec3Ref{rrset->owner(), *n3};
      last_hash = *decoded;
    }
    if (*decoded <= h && (!best || *decoded > best_hash)) {
      best = Nsec3Ref{rrset->owner(), *n3};
      best_hash = *decoded;
    }
  }
  return best ? best : last;
}

[[nodiscard]] std::optional<Nsec3Ref> find_matching_nsec3(
    const zone::Zone& z, const dns::Name& name) {
  const auto params = nsec3_params(z);
  if (!params) return std::nullopt;
  const Bytes h = zone::nsec3_hash(name, params->salt, params->iterations);
  for (const auto* rrset : z.all_rrsets()) {
    if (rrset->type() != dns::RRType::kNSEC3 || rrset->empty()) continue;
    auto decoded = base32hex_decode(rrset->owner().leftmost_label());
    if (decoded && *decoded == h) {
      const auto* n3 =
          std::get_if<dns::Nsec3Rdata>(&rrset->rdatas().front());
      if (n3 != nullptr) return Nsec3Ref{rrset->owner(), *n3};
    }
  }
  return std::nullopt;
}

/// Replace an NSEC3 RRset in place (same owner) and re-sign it.
void replace_nsec3(Sandbox& sb, zone::Zone& z, const dns::Name& owner,
                   const dns::Nsec3Rdata& updated) {
  const auto* old = z.find(owner, dns::RRType::kNSEC3);
  const std::uint32_t ttl = old != nullptr ? old->ttl() : 3600;
  z.remove(owner, dns::RRType::kNSEC3);
  strip_sigs(z, owner, dns::RRType::kNSEC3);
  z.add(owner, dns::RRType::kNSEC3, ttl, updated);
  resign_rrset(sb, z, owner, dns::RRType::kNSEC3);
}

/// The child zone's first KSK / first active key helpers.
const zone::ZoneKey* first_ksk(const zone::KeyStore& keys) {
  for (const auto& key : keys.keys()) {
    if (key.role() == zone::KeyRole::kKsk) return &key;
  }
  return nullptr;
}

// ---- per-code injectors ---------------------------------------------------

bool inject_missing_ksk_for_algorithm(Sandbox& sb) {
  const dns::Name child = sb.child_apex();
  const auto& mz = sb.managed(child);
  std::set<std::uint8_t> used;
  for (const auto& key : mz.keys.keys()) {
    used.insert(static_cast<std::uint8_t>(key.algorithm()));
  }
  std::uint8_t alg = 0;
  for (std::uint8_t candidate : {13, 14, 15, 8, 10, 5}) {
    if (!used.contains(candidate)) {
      alg = candidate;
      break;
    }
  }
  if (alg == 0) return false;  // every algorithm in use: cannot fabricate
  dns::DsRdata ds;
  ds.key_tag = 4242;
  ds.algorithm = alg;
  ds.digest_type = 2;
  ds.digest.assign(32, 0xAB);
  sb.add_parent_ds(child, ds);
  return true;
}

bool inject_invalid_digest(Sandbox& sb) {
  const dns::Name child = sb.child_apex();
  const auto& mz = sb.managed(child);
  const auto* ksk = first_ksk(mz.keys);
  if (ksk == nullptr) return false;
  dns::DsRdata ds = zone::make_ds(*ksk, crypto::DigestType::kSha256);
  ds.digest[0] ^= 0xFF;  // corrupt the hash
  sb.add_parent_ds(child, ds);
  return true;
}

bool inject_inconsistent_dnskey(Sandbox& sb) {
  const dns::Name child = sb.child_apex();
  auto& mz = sb.managed(child);
  // Roll the ZSK but publish the new zone on one server only — the classic
  // partially-propagated rollover.
  Rng rng = sb.rng().fork("inconsistent");
  const auto algorithm = mz.keys.keys().empty()
                             ? crypto::DnssecAlgorithm::kRsaSha256
                             : mz.keys.keys().front().algorithm();
  mz.keys.generate(rng, zone::KeyRole::kZsk, algorithm, sb.clock().now());
  zone::Zone fresh = zone::sign_zone(mz.unsigned_zone, mz.keys, mz.config,
                                     sb.clock().now());
  mz.signed_zone = fresh;
  sb.push_signed_to(Sandbox::kNs1, fresh);  // ns2 keeps the old copy
  return true;
}

bool inject_revoked_key(Sandbox& sb) {
  const dns::Name child = sb.child_apex();
  auto& mz = sb.managed(child);
  auto* ksk = const_cast<zone::ZoneKey*>(first_ksk(mz.keys));
  if (ksk == nullptr) return false;
  // The DS at the parent was generated pre-revocation and stays in place.
  ksk->set_revoked(true);
  sb.resign_and_sync(child);
  return true;
}

bool inject_bad_key_length(Sandbox& sb) {
  const dns::Name child = sb.child_apex();
  auto& mz = sb.managed(child);
  zone::Zone z = mz.signed_zone;
  const auto* dnskeys = z.find(child, dns::RRType::kDNSKEY);
  if (dnskeys == nullptr) return false;
  dns::DnskeyRdata bogus;
  bogus.flags = dns::kDnskeyFlagZone;
  bogus.protocol = 3;
  bogus.algorithm = mz.keys.keys().empty()
                        ? 8
                        : static_cast<std::uint8_t>(
                              mz.keys.keys().front().algorithm());
  bogus.public_key = {0x01, 0x02, 0x03};  // impossible key material
  z.add(child, dns::RRType::kDNSKEY, dnskeys->ttl(), bogus);
  resign_rrset(sb, z, child, dns::RRType::kDNSKEY);
  sb.push_signed(child, std::move(z));
  return true;
}

bool inject_incomplete_algorithm_setup(Sandbox& sb) {
  const dns::Name child = sb.child_apex();
  auto& mz = sb.managed(child);
  // Publish a DNSKEY of a second algorithm without signing anything with it.
  std::set<std::uint8_t> used;
  for (const auto& key : mz.keys.keys()) {
    used.insert(static_cast<std::uint8_t>(key.algorithm()));
  }
  crypto::DnssecAlgorithm extra = crypto::DnssecAlgorithm::kEcdsaP256Sha256;
  bool found = false;
  for (const auto& info : crypto::all_algorithms()) {
    if (info.supported_by_bind &&
        !used.contains(static_cast<std::uint8_t>(info.number))) {
      extra = info.number;
      found = true;
      break;
    }
  }
  if (!found) return false;  // algorithm space exhausted
  Rng rng = sb.rng().fork("incomplete-alg");
  const auto material = crypto::generate_key(rng, extra);
  dns::DnskeyRdata rdata;
  rdata.flags = dns::kDnskeyFlagZone;
  rdata.protocol = 3;
  rdata.algorithm = static_cast<std::uint8_t>(extra);
  rdata.public_key = material.public_key;

  zone::Zone z = mz.signed_zone;
  const auto* dnskeys = z.find(child, dns::RRType::kDNSKEY);
  if (dnskeys == nullptr) return false;
  z.add(child, dns::RRType::kDNSKEY, dnskeys->ttl(), rdata);
  resign_rrset(sb, z, child, dns::RRType::kDNSKEY);
  sb.push_signed(child, std::move(z));
  return true;
}

bool inject_missing_signature(Sandbox& sb) {
  const dns::Name child = sb.child_apex();
  auto& mz = sb.managed(child);
  zone::Zone z = mz.signed_zone;
  // Target the apex A RRset: the signature-tampering injectors own the SOA
  // RRset, so combined scenarios stay distinguishable.
  strip_sigs(z, child, dns::RRType::kA);
  sb.push_signed(child, std::move(z));
  return true;
}

bool inject_window_error(Sandbox& sb, bool expired) {
  const dns::Name child = sb.child_apex();
  auto& mz = sb.managed(child);
  if (expired) {
    // Sign as if 40 days ago with 30-day validity: everything expired.
    mz.config.inception_offset = 40 * kDay;
    mz.config.validity = -10 * kDay;
  } else {
    // Inception two days in the future.
    mz.config.inception_offset = -2 * kDay;
    mz.config.validity = 30 * kDay;
  }
  sb.resign_and_sync(child);
  // Restore the config defaults so a later plain re-sign heals the zone.
  mz.config.inception_offset = kHour;
  mz.config.validity = 30 * kDay;
  return true;
}

/// Tamper with the RRSIGs covering the apex SOA.
bool inject_sig_tamper(Sandbox& sb, ErrorCode code) {
  const dns::Name child = sb.child_apex();
  auto& mz = sb.managed(child);
  zone::Zone z = mz.signed_zone;
  const auto* found = z.find(child, dns::RRType::kSOA);
  if (found == nullptr) return false;
  // A copy: strip_sigs may move `z` off the version `found` points into.
  const dns::RRset soa = *found;
  const auto zsks =
      mz.keys.active_with_role(sb.clock().now(), zone::KeyRole::kZsk);
  if (zsks.empty()) return false;
  const auto* key = zsks.front();
  strip_sigs(z, child, dns::RRType::kSOA);
  const UnixTime now = sb.clock().now();
  dns::RrsigRdata sig;
  switch (code) {
    case ErrorCode::kInvalidSignature:
      sig = zone::make_rrsig(soa, *key, child, now - kHour, now + 30 * kDay);
      sig.signature[sig.signature.size() / 2] ^= 0x55;
      break;
    case ErrorCode::kIncorrectSigner:
      sig = zone::make_rrsig(soa, *key, sb.parent_apex(), now - kHour,
                             now + 30 * kDay);
      break;
    case ErrorCode::kIncorrectSignatureLabels:
      sig = zone::make_rrsig(
          soa, *key, child, now - kHour, now + 30 * kDay,
          static_cast<std::uint8_t>(child.label_count() + 1));
      break;
    case ErrorCode::kBadSignatureLength:
      sig = zone::make_rrsig(soa, *key, child, now - kHour, now + 30 * kDay);
      sig.signature.resize(5);
      break;
    default:
      return false;
  }
  z.add(child, dns::RRType::kRRSIG, soa.ttl(), sig);
  sb.push_signed(child, std::move(z));
  return true;
}

bool inject_original_ttl(Sandbox& sb) {
  const dns::Name child = sb.child_apex();
  auto& mz = sb.managed(child);
  zone::Zone z = mz.signed_zone;
  auto* soa = z.find_mutable(child, dns::RRType::kSOA);
  if (soa == nullptr) return false;
  soa->set_ttl(soa->ttl() + 7200);  // served TTL now exceeds original TTL
  sb.push_signed(child, std::move(z));
  return true;
}

bool inject_ttl_beyond_expiration(Sandbox& sb) {
  const dns::Name child = sb.child_apex();
  auto& mz = sb.managed(child);
  // Long TTLs, short validity: records outlive their signatures in caches.
  zone::Zone updated(child);
  for (const auto* rrset : mz.unsigned_zone.all_rrsets()) {
    dns::RRset copy = *rrset;
    copy.set_ttl(7 * 24 * 3600);
    updated.put(std::move(copy));
  }
  mz.unsigned_zone = std::move(updated);
  mz.config.validity = 2 * kDay;
  sb.resign_and_sync(child);
  mz.config.validity = 30 * kDay;
  return true;
}

bool inject_missing_nonexistence(Sandbox& sb) {
  const dns::Name child = sb.child_apex();
  auto& mz = sb.managed(child);
  zone::Zone z = mz.signed_zone;
  std::vector<std::pair<dns::Name, dns::RRType>> doomed;
  for (const auto* rrset : z.all_rrsets()) {
    if (rrset->type() == dns::RRType::kNSEC ||
        rrset->type() == dns::RRType::kNSEC3) {
      doomed.emplace_back(rrset->owner(), rrset->type());
    }
  }
  if (doomed.empty()) return false;
  for (const auto& [owner, type] : doomed) {
    strip_sigs(z, owner, type);
    z.remove(owner, type);
  }
  sb.push_signed(child, std::move(z));
  return true;
}

bool inject_incorrect_type_bitmap(Sandbox& sb) {
  const dns::Name child = sb.child_apex();
  auto& mz = sb.managed(child);
  zone::Zone z = mz.signed_zone;
  if (mz.config.denial == zone::DenialMode::kNsec) {
    auto* nsec_set = z.find(child, dns::RRType::kNSEC);
    if (nsec_set == nullptr || nsec_set->empty()) return false;
    auto nsec = std::get<dns::NsecRdata>(nsec_set->rdatas().front());
    nsec.types.insert(dns::RRType::kMX);  // lies: MX does not exist
    dns::RRset updated(child, dns::RRType::kNSEC, nsec_set->ttl());
    updated.add(nsec);
    z.put(std::move(updated));
    resign_rrset(sb, z, child, dns::RRType::kNSEC);
  } else {
    const auto match = find_matching_nsec3(z, child);
    if (!match) return false;
    dns::Nsec3Rdata updated = match->rdata;
    updated.types.insert(dns::RRType::kMX);
    replace_nsec3(sb, z, match->owner, updated);
  }
  sb.push_signed(child, std::move(z));
  return true;
}

bool inject_bad_nonexistence(Sandbox& sb) {
  const dns::Name child = sb.child_apex();
  auto& mz = sb.managed(child);
  zone::Zone z = mz.signed_zone;
  if (mz.config.denial == zone::DenialMode::kNsec) {
    // Shrink the covering interval so the probe name is no longer denied.
    const dns::Name probe = analyzer::nx_probe_name(child);
    // The covering NSEC for the probe is the apex record (apex < probe).
    auto* nsec_set = z.find(child, dns::RRType::kNSEC);
    if (nsec_set == nullptr || nsec_set->empty()) return false;
    auto nsec = std::get<dns::NsecRdata>(nsec_set->rdatas().front());
    nsec.next = child.child("aaa");  // interval now ends before the probe
    (void)probe;
    dns::RRset updated(child, dns::RRType::kNSEC, nsec_set->ttl());
    updated.add(nsec);
    z.put(std::move(updated));
    resign_rrset(sb, z, child, dns::RRType::kNSEC);
  } else {
    // Change the salt in every NSEC3 record without re-hashing: the records
    // stay signed and self-consistent but prove nothing about real names.
    std::vector<Nsec3Ref> all;
    for (const auto* rrset : z.all_rrsets()) {
      if (rrset->type() != dns::RRType::kNSEC3 || rrset->empty()) continue;
      const auto* n3 =
          std::get_if<dns::Nsec3Rdata>(&rrset->rdatas().front());
      if (n3 != nullptr) all.push_back({rrset->owner(), *n3});
    }
    if (all.empty()) return false;
    for (auto& ref : all) {
      ref.rdata.salt = {0xDE, 0xAD, 0xBE, 0xEF};
      replace_nsec3(sb, z, ref.owner, ref.rdata);
    }
  }
  sb.push_signed(child, std::move(z));
  return true;
}

bool inject_incorrect_last_nsec(Sandbox& sb) {
  const dns::Name child = sb.child_apex();
  if (!ensure_denial(sb, zone::DenialMode::kNsec)) return false;
  auto& mz = sb.managed(child);
  zone::Zone z = mz.signed_zone;
  // Find the wrap record: the NSEC whose next is the apex.
  for (const auto* rrset : z.all_rrsets()) {
    if (rrset->type() != dns::RRType::kNSEC || rrset->empty()) continue;
    const auto nsec = std::get<dns::NsecRdata>(rrset->rdatas().front());
    if (nsec.next != child || rrset->owner() == child) continue;
    dns::NsecRdata updated = nsec;
    // Should point back to the apex; "aaa" sorts before every real owner,
    // so the record still "covers" the tail of the namespace while its next
    // pointer is provably not the apex.
    updated.next = child.child("aaa");
    const dns::Name owner = rrset->owner();
    dns::RRset replacement(owner, dns::RRType::kNSEC, rrset->ttl());
    replacement.add(updated);
    z.put(std::move(replacement));
    resign_rrset(sb, z, owner, dns::RRType::kNSEC);
    sb.push_signed(child, std::move(z));
    return true;
  }
  return false;
}

bool inject_nzic(Sandbox& sb, std::uint16_t iterations) {
  auto& mz = sb.managed(sb.child_apex());
  mz.config.denial = zone::DenialMode::kNsec3;
  mz.config.nsec3_iterations = iterations == 0 ? 10 : iterations;
  sb.resign_and_sync(sb.child_apex());
  return true;
}

bool inject_inconsistent_ancestor(Sandbox& sb) {
  const dns::Name child = sb.child_apex();
  if (!ensure_denial(sb, zone::DenialMode::kNsec3)) return false;
  auto& mz = sb.managed(child);
  zone::Zone z = mz.signed_zone;
  const auto params = nsec3_params(z);
  if (!params) return false;
  // Replace the whole chain with one synthetic record whose owner hash
  // matches no ancestor of the probe name but whose (wrapping) interval
  // covers it: the response then denies the name while telling an
  // inconsistent story about its closest encloser.
  std::vector<std::pair<dns::Name, std::uint32_t>> doomed;
  std::uint32_t ttl = 3600;
  for (const auto* rrset : z.all_rrsets()) {
    if (rrset->type() == dns::RRType::kNSEC3) {
      doomed.emplace_back(rrset->owner(), rrset->ttl());
      ttl = rrset->ttl();
    }
  }
  if (doomed.empty()) return false;
  for (const auto& [owner, _] : doomed) {
    strip_sigs(z, owner, dns::RRType::kNSEC3);
    z.remove(owner, dns::RRType::kNSEC3);
  }
  Bytes h0 = zone::nsec3_hash(analyzer::nx_probe_name(child), params->salt,
                              params->iterations);
  h0.back() ^= 0x01;  // dfx-lint: allow(unchecked-front-back): digest is never empty  // near the probe's hash, equal to no real name's
  dns::Nsec3Rdata synthetic;
  synthetic.iterations = params->iterations;
  synthetic.salt = params->salt;
  synthetic.next_hashed = h0;  // self-wrap: covers everything but itself
  synthetic.types = {dns::RRType::kA};
  const dns::Name owner = child.child(base32hex_encode(h0));
  z.add(owner, dns::RRType::kNSEC3, ttl, synthetic);
  resign_rrset(sb, z, owner, dns::RRType::kNSEC3);
  sb.push_signed(child, std::move(z));
  return true;
}

bool inject_incorrect_closest_encloser(Sandbox& sb) {
  const dns::Name child = sb.child_apex();
  if (!ensure_denial(sb, zone::DenialMode::kNsec3)) return false;
  auto& mz = sb.managed(child);
  zone::Zone z = mz.signed_zone;
  // Collapse the interval of the record covering the probe's next-closer
  // name so it covers nothing.
  const dns::Name probe = analyzer::nx_probe_name(child);
  const auto cover = find_covering_nsec3(z, probe);
  if (!cover) return false;
  auto decoded = base32hex_decode(cover->owner.leftmost_label());
  if (!decoded) return false;
  dns::Nsec3Rdata updated = cover->rdata;
  updated.next_hashed = *decoded;
  // Increment so the interval is empty-but-wellformed.
  for (std::size_t i = updated.next_hashed.size(); i-- > 0;) {
    if (++updated.next_hashed[i] != 0) break;
  }
  replace_nsec3(sb, z, cover->owner, updated);
  sb.push_signed(child, std::move(z));
  return true;
}

bool inject_invalid_nsec3_hash(Sandbox& sb) {
  const dns::Name child = sb.child_apex();
  if (!ensure_denial(sb, zone::DenialMode::kNsec3)) return false;
  auto& mz = sb.managed(child);
  zone::Zone z = mz.signed_zone;
  const auto cover = find_covering_nsec3(z, analyzer::nx_probe_name(child));
  if (!cover) return false;
  dns::Nsec3Rdata updated = cover->rdata;
  updated.next_hashed.resize(10);  // SHA-1 output must be 20 bytes
  replace_nsec3(sb, z, cover->owner, updated);
  sb.push_signed(child, std::move(z));
  return true;
}

bool inject_invalid_nsec3_owner(Sandbox& sb) {
  const dns::Name child = sb.child_apex();
  if (!ensure_denial(sb, zone::DenialMode::kNsec3)) return false;
  auto& mz = sb.managed(child);
  zone::Zone z = mz.signed_zone;
  const auto cover = find_covering_nsec3(z, analyzer::nx_probe_name(child));
  if (!cover) return false;
  // Add an extra chain record whose owner label is not valid base32hex —
  // the artifact of a broken signer. The intact chain stays in place.
  const dns::Name bad_owner = child.child("not-a-base32hex-label!");
  const auto* old = z.find(cover->owner, dns::RRType::kNSEC3);
  const std::uint32_t ttl = old != nullptr ? old->ttl() : 3600;
  z.add(bad_owner, dns::RRType::kNSEC3, ttl, cover->rdata);
  resign_rrset(sb, z, bad_owner, dns::RRType::kNSEC3);
  sb.push_signed(child, std::move(z));
  return true;
}

bool inject_incorrect_opt_out(Sandbox& sb) {
  const dns::Name child = sb.child_apex();
  if (!ensure_denial(sb, zone::DenialMode::kNsec3)) return false;
  auto& mz = sb.managed(child);
  zone::Zone z = mz.signed_zone;
  // Set opt-out on exactly one record — the one matching the apex, which
  // every negative response includes — so the chain's flags are visibly
  // inconsistent.
  const auto match = find_matching_nsec3(z, child);
  if (!match) return false;
  dns::Nsec3Rdata updated = match->rdata;
  updated.flags |= dns::kNsec3FlagOptOut;
  replace_nsec3(sb, z, match->owner, updated);
  sb.push_signed(child, std::move(z));
  return true;
}

bool inject_unsupported_nsec3_algorithm(Sandbox& sb) {
  const dns::Name child = sb.child_apex();
  if (!ensure_denial(sb, zone::DenialMode::kNsec3)) return false;
  auto& mz = sb.managed(child);
  zone::Zone z = mz.signed_zone;
  std::vector<Nsec3Ref> all;
  for (const auto* rrset : z.all_rrsets()) {
    if (rrset->type() != dns::RRType::kNSEC3 || rrset->empty()) continue;
    const auto* n3 = std::get_if<dns::Nsec3Rdata>(&rrset->rdatas().front());
    if (n3 != nullptr) all.push_back({rrset->owner(), *n3});
  }
  if (all.empty()) return false;
  for (auto& ref : all) {
    ref.rdata.hash_algorithm = 5;  // undefined NSEC3 hash algorithm
    replace_nsec3(sb, z, ref.owner, ref.rdata);
  }
  sb.push_signed(child, std::move(z));
  return true;
}

// ---- KeyTrap-class injectors (CVE-2023-50387/50868) -----------------------

/// Adopt `count` publish-only ZSKs that all share one key tag distinct from
/// every real key's tag. The RFC 4034 App. B tag is a plain 16-bit-word
/// checksum, so the final two bytes of otherwise-valid key material can be
/// brute-forced (<= 65536 tag computations) onto any target value — exactly
/// the forgeability KeyTrap exploits. The crafted keys are published but
/// never activate, so they appear in the DNSKEY RRset without signing.
/// Returns the shared tag, or nullopt on (unlikely) failure.
[[nodiscard]] std::optional<std::uint16_t> adopt_colliding_keys(
    Sandbox& sb, std::size_t count) {
  const dns::Name child = sb.child_apex();
  auto& mz = sb.managed(child);
  const UnixTime now = sb.clock().now();
  Rng rng = sb.rng().fork("keytrap-collide");
  const auto algorithm = mz.keys.keys().empty()
                             ? crypto::DnssecAlgorithm::kEcdsaP256Sha256
                             : mz.keys.keys().front().algorithm();
  std::set<std::uint16_t> taken;
  for (const auto& key : mz.keys.keys()) taken.insert(key.tag());

  std::uint16_t target = 0;
  bool have_target = false;
  std::vector<crypto::KeyPair> crafted;
  for (int attempts = 0; crafted.size() < count && attempts < 64;
       ++attempts) {
    auto material = crypto::generate_key(rng, algorithm);
    if (material.public_key.size() < 2) return std::nullopt;
    dns::DnskeyRdata rdata;
    rdata.flags = dns::kDnskeyFlagZone;
    rdata.protocol = 3;
    rdata.algorithm = static_cast<std::uint8_t>(algorithm);
    rdata.public_key = material.public_key;
    if (!have_target) {
      target = rdata.key_tag();
      if (taken.contains(target)) continue;  // want a fresh, shared tag
      have_target = true;
      crafted.push_back(std::move(material));
      continue;
    }
    bool hit = false;
    const std::size_t n = rdata.public_key.size();
    for (std::uint32_t w = 0; w < 0x10000; ++w) {
      rdata.public_key[n - 2] = static_cast<std::uint8_t>(w >> 8);
      rdata.public_key[n - 1] = static_cast<std::uint8_t>(w & 0xFF);
      if (rdata.key_tag() == target) {
        hit = true;
        break;
      }
    }
    if (!hit) continue;  // carry pattern missed the tag; fresh material
    material.public_key = rdata.public_key;
    crafted.push_back(std::move(material));
  }
  if (crafted.size() < count) return std::nullopt;
  for (auto& material : crafted) {
    auto& key = mz.keys.adopt(
        zone::ZoneKey(child, zone::KeyRole::kZsk, std::move(material), now));
    key.set_activate_time(now + 3650 * kDay);  // published, never signs
  }
  sb.resign_and_sync(child);
  return target;
}

bool inject_colliding_key_tags(Sandbox& sb) {
  return adopt_colliding_keys(sb, 3).has_value();
}

/// The many-keys x many-RRSIGs pairing blowup: every garbage RRSIG names
/// the shared tag, so a pre-KeyTrap validator tries keys x sigs candidate
/// pairings before giving up on the RRset.
bool inject_excessive_sig_validations(Sandbox& sb) {
  const dns::Name child = sb.child_apex();
  const auto tag = adopt_colliding_keys(sb, 14);
  if (!tag) return false;
  auto& mz = sb.managed(child);
  zone::Zone z = mz.signed_zone;
  const auto* soa = z.find(child, dns::RRType::kSOA);
  if (soa == nullptr) return false;
  const UnixTime now = sb.clock().now();
  const auto algorithm = mz.keys.keys().empty()
                             ? crypto::DnssecAlgorithm::kEcdsaP256Sha256
                             : mz.keys.keys().front().algorithm();
  const auto info = crypto::algorithm_info(algorithm);
  const std::size_t sig_len = info && info->rsa_family ? 64 : 16;
  Rng rng = sb.rng().fork("keytrap-sigs");
  for (int i = 0; i < 16; ++i) {
    dns::RrsigRdata sig;
    sig.type_covered = dns::RRType::kSOA;
    sig.algorithm = static_cast<std::uint8_t>(algorithm);
    sig.labels = static_cast<std::uint8_t>(child.label_count());
    sig.original_ttl = soa->ttl();
    sig.expiration = now + 30 * kDay;
    sig.inception = now - kHour;
    sig.key_tag = *tag;
    sig.signer = child;
    sig.signature.resize(sig_len);
    rng.fill(sig.signature);
    z.add(child, dns::RRType::kRRSIG, soa->ttl(), sig);
  }
  sb.push_signed(child, std::move(z));
  return true;
}

/// CVE-2023-50868 shape: NSEC3 iteration counts far beyond the caps of
/// patched validators (and of RFC 9276, which wants zero).
bool inject_excessive_nsec3_iterations(Sandbox& sb) {
  auto& mz = sb.managed(sb.child_apex());
  mz.config.denial = zone::DenialMode::kNsec3;
  if (mz.config.nsec3_iterations <= 150) mz.config.nsec3_iterations = 2500;
  sb.resign_and_sync(sb.child_apex());
  return true;
}

}  // namespace

std::vector<analyzer::ErrorCode> injection_order(
    const std::set<ErrorCode>& codes) {
  // Whole-zone re-signing injections first (they rebuild signed state);
  // record-level tampering afterwards.
  const auto phase = [](ErrorCode code) {
    switch (code) {
      // Whole-zone re-signs first.
      case ErrorCode::kNonzeroIterationCount:
      case ErrorCode::kExpiredSignature:
      case ErrorCode::kNotYetValidSignature:
      case ErrorCode::kTtlBeyondExpiration:
      case ErrorCode::kExcessiveNsec3Iterations:
        return 0;
      // Key-set mutations (these re-sign internally, so they must precede
      // record-level tampering; the pairing injector also tampers records,
      // but only after its own internal re-sign).
      case ErrorCode::kRevokedKey:
      case ErrorCode::kCollidingKeyTags:
      case ErrorCode::kExcessiveSignatureValidations:
        return 1;
      // The one-server push must come last: anything after it would sync
      // both servers and erase the inconsistency.
      case ErrorCode::kInconsistentDnskeyBetweenServers:
        return 3;
      default:
        return 2;
    }
  };
  std::vector<ErrorCode> out(codes.begin(), codes.end());
  std::stable_sort(out.begin(), out.end(), [&](ErrorCode a, ErrorCode b) {
    return phase(a) < phase(b);
  });
  return out;
}

bool inject_error(Sandbox& sb, ErrorCode code) {
  switch (code) {
    case ErrorCode::kMissingKskForAlgorithm:
      return inject_missing_ksk_for_algorithm(sb);
    case ErrorCode::kInvalidDigest:
      return inject_invalid_digest(sb);
    case ErrorCode::kInconsistentDnskeyBetweenServers:
      return inject_inconsistent_dnskey(sb);
    case ErrorCode::kRevokedKey:
      return inject_revoked_key(sb);
    case ErrorCode::kBadKeyLength:
      return inject_bad_key_length(sb);
    case ErrorCode::kIncompleteAlgorithmSetup:
      return inject_incomplete_algorithm_setup(sb);
    case ErrorCode::kMissingSignature:
      return inject_missing_signature(sb);
    case ErrorCode::kExpiredSignature:
      return inject_window_error(sb, /*expired=*/true);
    case ErrorCode::kNotYetValidSignature:
      return inject_window_error(sb, /*expired=*/false);
    case ErrorCode::kInvalidSignature:
    case ErrorCode::kIncorrectSigner:
    case ErrorCode::kIncorrectSignatureLabels:
    case ErrorCode::kBadSignatureLength:
      return inject_sig_tamper(sb, code);
    case ErrorCode::kOriginalTtlExceedsRrsetTtl:
      return inject_original_ttl(sb);
    case ErrorCode::kTtlBeyondExpiration:
      return inject_ttl_beyond_expiration(sb);
    case ErrorCode::kMissingNonexistenceProof:
      return inject_missing_nonexistence(sb);
    case ErrorCode::kIncorrectTypeBitmap:
      return inject_incorrect_type_bitmap(sb);
    case ErrorCode::kBadNonexistenceProof:
      return inject_bad_nonexistence(sb);
    case ErrorCode::kIncorrectLastNsec:
      return inject_incorrect_last_nsec(sb);
    case ErrorCode::kNonzeroIterationCount:
      return inject_nzic(sb, sb.managed(sb.child_apex())
                                 .config.nsec3_iterations);
    case ErrorCode::kInconsistentAncestorForNxdomain:
      return inject_inconsistent_ancestor(sb);
    case ErrorCode::kIncorrectClosestEncloserProof:
      return inject_incorrect_closest_encloser(sb);
    case ErrorCode::kInvalidNsec3Hash:
      return inject_invalid_nsec3_hash(sb);
    case ErrorCode::kInvalidNsec3OwnerName:
      return inject_invalid_nsec3_owner(sb);
    case ErrorCode::kIncorrectOptOutFlag:
      return inject_incorrect_opt_out(sb);
    case ErrorCode::kUnsupportedNsec3Algorithm:
      return inject_unsupported_nsec3_algorithm(sb);
    case ErrorCode::kCollidingKeyTags:
      return inject_colliding_key_tags(sb);
    case ErrorCode::kExcessiveSignatureValidations:
      return inject_excessive_sig_validations(sb);
    case ErrorCode::kExcessiveNsec3Iterations:
      return inject_excessive_nsec3_iterations(sb);
    default:
      // Companion codes are not injected directly; in particular
      // kValidatorWorkBudgetExceeded rides along the pairing blowup.
      return false;
  }
}

}  // namespace dfx::zreplicator
