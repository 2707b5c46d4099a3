#include "zone/key.h"

#include <cstdio>
#include <map>

#include "util/check.hpp"
#include "util/metrics.h"
#include "util/thread_annotations.h"

namespace dfx::zone {

/// One key's signatures by the exact bytes they sign, bounded by
/// kSignatureMemoEntries. Two threads that miss on the same message both
/// sign it and store the same signature; the first store is kept.
class ZoneKey::SignatureMemo {
 public:
  [[nodiscard]] std::optional<Bytes> find(const Bytes& message) const
      DFX_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    const auto it = entries_.find(message);
    if (it == entries_.end()) return std::nullopt;
    return it->second;
  }

  void store(Bytes message, Bytes signature) DFX_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    if (entries_.size() >= kSignatureMemoEntries) entries_.clear();
    entries_.emplace(std::move(message), std::move(signature));
  }

 private:
  mutable Mutex mu_;
  std::map<Bytes, Bytes> entries_ DFX_GUARDED_BY(mu_);
};

ZoneKey::ZoneKey(dns::Name zone, KeyRole role, crypto::KeyPair material,
                 UnixTime created)
    : zone_(std::move(zone)),
      role_(role),
      material_(std::move(material)),
      publish_(created),
      activate_(created),
      signatures_(std::make_shared<SignatureMemo>()) {}

bool ZoneKey::is_published(UnixTime now) const {
  if (publish_ == kUnsetTime || now < publish_) return false;
  if (delete_ != kUnsetTime && now >= delete_) return false;
  return true;
}

bool ZoneKey::is_active(UnixTime now) const {
  if (!is_published(now)) return false;
  if (activate_ == kUnsetTime || now < activate_) return false;
  // Revoked keys still *sign* (RFC 5011 requires a revoked key to sign the
  // DNSKEY RRset) but are not used for general zone data; the signer makes
  // that distinction.
  return true;
}

dns::DnskeyRdata ZoneKey::to_dnskey() const {
  dns::DnskeyRdata rdata;
  rdata.flags = dns::kDnskeyFlagZone;
  if (role_ == KeyRole::kKsk) rdata.flags |= dns::kDnskeyFlagSep;
  if (revoked_) rdata.flags |= dns::kDnskeyFlagRevoke;
  rdata.protocol = 3;
  rdata.algorithm = static_cast<std::uint8_t>(material_.algorithm);
  rdata.public_key = material_.public_key;
  return rdata;
}

std::uint16_t ZoneKey::tag() const { return to_dnskey().key_tag(); }

std::uint16_t ZoneKey::pre_revoke_tag() const {
  dns::DnskeyRdata rdata = to_dnskey();
  rdata.flags &= static_cast<std::uint16_t>(~dns::kDnskeyFlagRevoke);
  return rdata.key_tag();
}

std::string ZoneKey::file_base() const {
  char buf[32];
  std::snprintf(buf, sizeof buf, "+%03d+%05u",
                static_cast<int>(material_.algorithm), tag());
  return "K" + zone_.to_string() + buf;
}

Bytes ZoneKey::sign(ByteView message) const {
  static auto& computed =
      metrics::Registry::global().counter("zone.signatures");
  static auto& memo_hits =
      metrics::Registry::global().counter("zone.signature_memo_hits");
  Bytes signed_data(message.begin(), message.end());
  if (auto hit = signatures_->find(signed_data)) {
    memo_hits.add(1);
    DFX_DCHECK(*hit == crypto::sign_message(material_, message),
               "ZoneKey::sign memo hit differs from a fresh signature");
    return *std::move(hit);
  }
  computed.add(1);
  Bytes signature = crypto::sign_message(material_, message);
  signatures_->store(std::move(signed_data), signature);
  return signature;
}

ZoneKey& KeyStore::generate(Rng& rng, KeyRole role,
                            crypto::DnssecAlgorithm alg, UnixTime now,
                            std::size_t nominal_bits) {
  crypto::KeyPair material = crypto::generate_key(rng, alg, nominal_bits);
  keys_.emplace_back(zone_, role, std::move(material), now);
  return keys_.back();  // dfx-lint: allow(unchecked-front-back): just emplaced
}

ZoneKey& KeyStore::adopt(ZoneKey key) {
  keys_.push_back(std::move(key));
  return keys_.back();  // dfx-lint: allow(unchecked-front-back): just pushed
}

ZoneKey* KeyStore::find_by_tag(std::uint16_t tag) {
  for (auto& key : keys_) {
    if (key.tag() == tag) return &key;
  }
  return nullptr;
}

const ZoneKey* KeyStore::find_by_tag(std::uint16_t tag) const {
  for (const auto& key : keys_) {
    if (key.tag() == tag) return &key;
  }
  return nullptr;
}

bool KeyStore::remove_by_tag(std::uint16_t tag) {
  for (auto it = keys_.begin(); it != keys_.end(); ++it) {
    if (it->tag() == tag) {
      keys_.erase(it);
      return true;
    }
  }
  return false;
}

std::vector<const ZoneKey*> KeyStore::published(UnixTime now) const {
  std::vector<const ZoneKey*> out;
  for (const auto& key : keys_) {
    if (key.is_published(now)) out.push_back(&key);
  }
  return out;
}

std::vector<const ZoneKey*> KeyStore::active(UnixTime now) const {
  std::vector<const ZoneKey*> out;
  for (const auto& key : keys_) {
    if (key.is_active(now)) out.push_back(&key);
  }
  return out;
}

std::vector<const ZoneKey*> KeyStore::active_with_role(UnixTime now,
                                                       KeyRole role) const {
  std::vector<const ZoneKey*> out;
  for (const auto& key : keys_) {
    if (key.role() == role && key.is_active(now)) out.push_back(&key);
  }
  return out;
}

}  // namespace dfx::zone
