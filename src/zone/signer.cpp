#include "zone/signer.h"

#include <algorithm>
#include <set>

#include "zone/nsec3.h"
#include "util/check.hpp"
#include "util/codec.h"

namespace dfx::zone {
namespace {

bool is_dnssec_type(dns::RRType type) {
  switch (type) {
    case dns::RRType::kRRSIG:
    case dns::RRType::kNSEC:
    case dns::RRType::kNSEC3:
    case dns::RRType::kNSEC3PARAM:
    case dns::RRType::kDNSKEY:
    case dns::RRType::kCDS:
    case dns::RRType::kCDNSKEY:
      return true;
    default:
      return false;
  }
}

/// Owner names the zone is authoritative for (everything not occluded by a
/// zone cut), in canonical order. Delegation points themselves count.
std::vector<dns::Name> authoritative_names(const Zone& zone) {
  std::vector<dns::Name> out;
  for (const auto& name : zone.owner_names()) {
    const auto cut = zone.covering_delegation(name);
    if (cut && *cut != name) continue;  // glue below a cut
    out.push_back(name);
  }
  return out;
}

/// Types present at `name` for the NSEC bitmap. At delegations only NS and
/// DS are authoritative (plus the NSEC itself and its RRSIG).
std::set<dns::RRType> bitmap_types(const Zone& zone, const dns::Name& name,
                                   bool delegation, dns::RRType denial_type,
                                   bool will_be_signed) {
  std::set<dns::RRType> types;
  for (const auto* rrset : zone.at(name)) {
    if (delegation && rrset->type() != dns::RRType::kNS &&
        rrset->type() != dns::RRType::kDS) {
      continue;
    }
    types.insert(rrset->type());
  }
  if (denial_type == dns::RRType::kNSEC) types.insert(dns::RRType::kNSEC);
  if (will_be_signed || !delegation ||
      types.contains(dns::RRType::kDS)) {
    types.insert(dns::RRType::kRRSIG);
  }
  if (delegation && !types.contains(dns::RRType::kDS)) {
    // Insecure delegation: NS only, no RRSIG over the cut.
    types.erase(dns::RRType::kRRSIG);
    if (denial_type == dns::RRType::kNSEC) types.insert(dns::RRType::kNSEC);
  }
  return types;
}

}  // namespace

dns::RrsigRdata make_rrsig(const dns::RRset& rrset, const ZoneKey& key,
                           const dns::Name& apex, UnixTime inception,
                           UnixTime expiration,
                           std::optional<std::uint8_t> labels_override) {
  dns::RrsigRdata sig;
  sig.type_covered = rrset.type();
  const crypto::DnssecAlgorithm alg = key.algorithm();
  sig.algorithm = static_cast<std::uint8_t>(alg);
  // RFC 4034 §3.1.3: the labels field excludes a leading "*" label, which
  // is how validators recognise wildcard-expandable signatures.
  const bool wildcard = rrset.owner().leftmost_label() == "*";
  // Any valid name has at most 127 labels; a count that would truncate in
  // the uint8 labels field means the owner name was built unchecked.
  DFX_DCHECK(rrset.owner().label_count() <= 127);
  sig.labels = labels_override.value_or(static_cast<std::uint8_t>(
      rrset.owner().label_count() - (wildcard ? 1 : 0)));
  sig.original_ttl = rrset.ttl();
  sig.expiration = expiration;
  sig.inception = inception;
  sig.key_tag = key.tag();
  sig.signer = apex;
  sig.signature = key.sign(rrsig_signed_data(rrset, sig));
  return sig;
}

Bytes rrsig_signed_data(const dns::RRset& rrset, const dns::RrsigRdata& sig) {
  Bytes out = sig.to_wire_unsigned();
  const Bytes owner_wire = rrset.owner().to_canonical_wire();
  const dns::RRType type = rrset.type();
  for (const auto& wire : rrset.canonical_rdata_wires()) {
    append(out, owner_wire);
    append_u16(out, static_cast<std::uint16_t>(type));
    append_u16(out, static_cast<std::uint16_t>(dns::RRClass::kIN));
    // The TTL may have been changed in flight; the signer used this one.
    append_u32(out, sig.original_ttl);
    DFX_DCHECK(wire.size() <= 0xFFFF);
    append_u16(out, static_cast<std::uint16_t>(wire.size()));
    append(out, wire);
  }
  return out;
}

[[nodiscard]] bool verify_rrsig(const dns::RRset& rrset,
                                const dns::RrsigRdata& sig,
                                const dns::DnskeyRdata& key) {
  return crypto::verify_message(
      static_cast<crypto::DnssecAlgorithm>(key.algorithm), key.public_key,
      rrsig_signed_data(rrset, sig), sig.signature);
}

dns::DsRdata make_ds(const ZoneKey& key, crypto::DigestType type) {
  return make_ds_from_dnskey(key.zone(), key.to_dnskey(), type);
}

dns::DsRdata make_ds_from_dnskey(const dns::Name& owner,
                                 const dns::DnskeyRdata& dnskey,
                                 crypto::DigestType type) {
  dns::DsRdata ds;
  ds.key_tag = dnskey.key_tag();
  ds.algorithm = dnskey.algorithm;
  ds.digest_type = static_cast<std::uint8_t>(type);
  ds.digest = crypto::ds_digest(type, owner.to_canonical_wire(),
                                dns::rdata_to_wire(dns::Rdata(dnskey)));
  return ds;
}

Zone strip_dnssec(const Zone& signed_zone) {
  Zone out(signed_zone.apex());
  for (const auto* rrset : signed_zone.all_rrsets()) {
    if (is_dnssec_type(rrset->type())) continue;
    // NSEC3 owners (hash labels) carry only DNSSEC types, so they vanish.
    out.put(*rrset);
  }
  return out;
}

Zone sign_zone(const Zone& unsigned_zone, const KeyStore& keys,
               const SigningConfig& config, UnixTime now) {
  Zone zone = strip_dnssec(unsigned_zone);
  const dns::Name& apex = zone.apex();
  const UnixTime inception = now - config.inception_offset;
  const UnixTime expiration = now + config.validity;

  // 1. DNSKEY RRset from the key directory.
  const std::uint32_t dnskey_ttl = 3600;
  dns::RRset dnskey_set(apex, dns::RRType::kDNSKEY, dnskey_ttl);
  for (const auto* key : keys.published(now)) {
    dnskey_set.add(key->to_dnskey());
  }
  if (!dnskey_set.empty()) zone.put(dnskey_set);

  // 1b. CDS/CDNSKEY publication (RFC 7344): the child's desired DS set,
  // derived from its active, non-revoked KSKs.
  if (config.publish_cds) {
    dns::RRset cds_set(apex, dns::RRType::kCDS, dnskey_ttl);
    dns::RRset cdnskey_set(apex, dns::RRType::kCDNSKEY, dnskey_ttl);
    for (const auto* key : keys.active_with_role(now, KeyRole::kKsk)) {
      if (key->revoked()) continue;
      cds_set.add(dns::CdsRdata{make_ds(*key, crypto::DigestType::kSha256)});
      cdnskey_set.add(dns::CdnskeyRdata{key->to_dnskey()});
    }
    if (!cds_set.empty()) {
      zone.put(std::move(cds_set));
      zone.put(std::move(cdnskey_set));
    }
  }

  // 2. Negative-proof chain.
  const std::uint32_t negative_ttl =
      zone.soa() != nullptr ? zone.soa()->minimum : 3600;
  const auto auth_names = authoritative_names(zone);

  // Empty non-terminals: names with descendants but no records. Needed for
  // a correct NSEC3 chain.
  std::set<dns::Name, dns::Name::Less> nsec3_names(auth_names.begin(),
                                                   auth_names.end());
  for (const auto& name : auth_names) {
    dns::Name cur = name.parent();
    // parent() strictly shrinks the label count, so 128 steps (the deepest
    // legal name) always suffice to climb to the apex.
    DFX_BOUNDED_LOOP(guard, 128);
    while (cur.label_count() > apex.label_count()) {
      guard.tick();
      nsec3_names.insert(cur);
      cur = cur.parent();
    }
  }

  if (config.denial == DenialMode::kNsec) {
    for (std::size_t i = 0; i < auth_names.size(); ++i) {
      const dns::Name& name = auth_names[i];
      const dns::Name& next = auth_names[(i + 1) % auth_names.size()];
      dns::NsecRdata nsec;
      nsec.next = next;
      nsec.types = bitmap_types(zone, name, zone.is_delegation(name),
                                dns::RRType::kNSEC, true);
      dns::RRset rrset(name, dns::RRType::kNSEC, negative_ttl);
      rrset.add(nsec);
      zone.put(std::move(rrset));
    }
  } else {
    // NSEC3PARAM advertises the chain parameters.
    dns::Nsec3ParamRdata param;
    param.iterations = config.nsec3_iterations;
    param.salt = config.nsec3_salt;
    dns::RRset param_set(apex, dns::RRType::kNSEC3PARAM, 0);
    param_set.add(param);
    zone.put(std::move(param_set));

    struct HashedName {
      Bytes hash;
      dns::Name name;
    };
    std::vector<HashedName> hashed;
    for (const auto& name : nsec3_names) {
      if (config.nsec3_opt_out && zone.is_delegation(name) &&
          zone.find(name, dns::RRType::kDS) == nullptr) {
        continue;  // opt-out: insecure delegations are not in the chain
      }
      hashed.push_back(
          {nsec3_hash(name, config.nsec3_salt, config.nsec3_iterations),
           name});
    }
    std::sort(hashed.begin(), hashed.end(),
              [](const HashedName& a, const HashedName& b) {
                return a.hash < b.hash;
              });
    for (std::size_t i = 0; i < hashed.size(); ++i) {
      const auto& cur = hashed[i];
      const auto& next = hashed[(i + 1) % hashed.size()];
      dns::Nsec3Rdata nsec3;
      nsec3.hash_algorithm = 1;
      nsec3.flags = config.nsec3_opt_out ? dns::kNsec3FlagOptOut : 0;
      nsec3.iterations = config.nsec3_iterations;
      nsec3.salt = config.nsec3_salt;
      nsec3.next_hashed = next.hash;
      nsec3.types = bitmap_types(zone, cur.name, zone.is_delegation(cur.name),
                                 dns::RRType::kNSEC3, true);
      nsec3.types.erase(dns::RRType::kNSEC3);  // never in its own bitmap
      dns::RRset rrset(apex.child(base32hex_encode(cur.hash)),
                       dns::RRType::kNSEC3, negative_ttl);
      rrset.add(nsec3);
      zone.put(std::move(rrset));
    }
  }

  // 3. Signatures.
  auto zsks = keys.active_with_role(now, KeyRole::kZsk);
  std::erase_if(zsks, [](const ZoneKey* k) { return k->revoked(); });
  auto ksks = keys.active_with_role(now, KeyRole::kKsk);
  // dnssec-signzone falls back to signing everything with the KSK when no
  // ZSK is available, and RFC 4035 requires every algorithm in the DNSKEY
  // RRset to sign the zone data — a KSK whose algorithm has no ZSK must
  // therefore co-sign the data RRsets.
  std::vector<const ZoneKey*> zone_signers = zsks.empty() ? ksks : zsks;
  if (!zsks.empty()) {
    for (const auto* ksk : ksks) {
      if (ksk->revoked()) continue;
      const bool covered = std::any_of(
          zone_signers.begin(), zone_signers.end(), [&](const ZoneKey* k) {
            return k->algorithm() == ksk->algorithm();
          });
      if (!covered) zone_signers.push_back(ksk);
    }
  }

  // All RRSIGs at one owner form a single RRset, whatever they cover.
  std::map<dns::Name, dns::RRset, dns::Name::Less> signatures;
  const auto add_sig = [&](const dns::Name& owner, std::uint32_t ttl,
                           dns::RrsigRdata sig) {
    auto it = signatures.find(owner);
    if (it == signatures.end()) {
      it = signatures
               .emplace(owner, dns::RRset(owner, dns::RRType::kRRSIG, ttl))
               .first;
    }
    it->second.add(std::move(sig));
  };
  for (const auto* rrset : zone.all_rrsets()) {
    if (rrset->type() == dns::RRType::kRRSIG) continue;
    const bool at_cut = zone.is_delegation(rrset->owner());
    if (at_cut && rrset->type() != dns::RRType::kDS &&
        rrset->type() != dns::RRType::kNSEC &&
        rrset->type() != dns::RRType::kNSEC3) {
      continue;  // NS and glue at/below cuts are not signed
    }
    if (!rrset->owner().is_subdomain_of(apex)) continue;
    const auto cut = zone.covering_delegation(rrset->owner());
    if (cut && *cut != rrset->owner()) continue;  // occluded glue

    if (rrset->type() == dns::RRType::kDNSKEY) {
      // KSKs sign the key set; revoked keys must also self-sign (RFC 5011).
      std::vector<const ZoneKey*> signers = ksks;
      if (signers.empty()) signers = zone_signers;
      for (const auto& key : keys.keys()) {
        if (key.revoked() && key.is_published(now)) {
          const bool already =
              std::any_of(signers.begin(), signers.end(),
                          [&](const ZoneKey* k) { return k == &key; });
          if (!already) signers.push_back(&key);
        }
      }
      for (const auto* key : signers) {
        add_sig(rrset->owner(), rrset->ttl(),
                make_rrsig(*rrset, *key, apex, inception, expiration));
      }
    } else {
      for (const auto* key : zone_signers) {
        add_sig(rrset->owner(), rrset->ttl(),
                make_rrsig(*rrset, *key, apex, inception, expiration));
      }
    }
  }
  for (auto& [owner, sigset] : signatures) zone.put(std::move(sigset));
  return zone;
}

}  // namespace dfx::zone
