// Zone signing keys and the key store (the on-disk key directory model).
//
// Mirrors the BIND key life-cycle: dnssec-keygen creates a key pair with
// timing metadata; dnssec-settime adjusts publish/activate/revoke/delete
// times; dnssec-signzone picks up keys from the key directory.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "crypto/algorithm.h"
#include "dnscore/name.h"
#include "dnscore/rdata.h"
#include "util/rng.h"
#include "util/simclock.h"

namespace dfx::zone {

enum class KeyRole : std::uint8_t {
  kZsk,  // flags 256
  kKsk,  // flags 257 (SEP bit set)
};

/// Timing metadata à la dnssec-settime; kUnset means "not scheduled".
constexpr UnixTime kUnsetTime = INT64_MIN;

/// Signatures one key remembers (see ZoneKey::sign). A full memo is
/// cleared before the next one is stored, so a key holds at most this many.
constexpr std::size_t kSignatureMemoEntries = 256;

/// A signing key: crypto material + DNSKEY metadata + life-cycle times.
class ZoneKey {
 public:
  ZoneKey(dns::Name zone, KeyRole role, crypto::KeyPair material,
          UnixTime created);

  const dns::Name& zone() const { return zone_; }
  KeyRole role() const { return role_; }
  crypto::DnssecAlgorithm algorithm() const { return material_.algorithm; }
  std::size_t nominal_bits() const { return material_.nominal_bits; }
  const crypto::KeyPair& material() const { return material_; }

  bool revoked() const { return revoked_; }
  /// Set/clear the REVOKE flag bit; changes the key tag (RFC 5011).
  void set_revoked(bool revoked) { revoked_ = revoked; }

  UnixTime publish_time() const { return publish_; }
  UnixTime activate_time() const { return activate_; }
  UnixTime delete_time() const { return delete_; }
  void set_publish_time(UnixTime t) { publish_ = t; }
  void set_activate_time(UnixTime t) { activate_ = t; }
  void set_delete_time(UnixTime t) { delete_ = t; }

  /// Published: in the DNSKEY RRset at time `now`.
  bool is_published(UnixTime now) const;
  /// Active: used for signing at time `now`.
  bool is_active(UnixTime now) const;

  /// DNSKEY RDATA including the current flag bits.
  dns::DnskeyRdata to_dnskey() const;

  /// Key tag of the current DNSKEY RDATA (changes when revoked).
  std::uint16_t tag() const;

  /// Key tag the key had before the REVOKE bit was set.
  std::uint16_t pre_revoke_tag() const;

  /// BIND-style key file base name "K<zone>.+NNN+TTTTT".
  std::string file_base() const;

  /// Sign a message with this key's private material. Both signers are
  /// deterministic, so the signature is remembered in a memo that copies
  /// of this key share (they carry the same private material) and returned
  /// again for the same bytes while the memo holds them. Thread-safe.
  /// Counts `zone.signatures` per signature computed and
  /// `zone.signature_memo_hits` per signature returned from the memo.
  Bytes sign(ByteView message) const;

 private:
  class SignatureMemo;

  dns::Name zone_;
  KeyRole role_;
  crypto::KeyPair material_;
  bool revoked_ = false;
  UnixTime publish_;
  UnixTime activate_;
  UnixTime delete_ = kUnsetTime;
  std::shared_ptr<SignatureMemo> signatures_;
};

/// All keys for one zone (the key directory).
class KeyStore {
 public:
  explicit KeyStore(dns::Name zone) : zone_(std::move(zone)) {}

  const dns::Name& zone() const { return zone_; }
  const std::deque<ZoneKey>& keys() const { return keys_; }
  std::deque<ZoneKey>& keys() { return keys_; }
  bool empty() const { return keys_.empty(); }

  /// dnssec-keygen: create and store a key, publish+activate immediately.
  ZoneKey& generate(Rng& rng, KeyRole role, crypto::DnssecAlgorithm alg,
                    UnixTime now, std::size_t nominal_bits = 0);

  /// Adopt an externally created key (ZReplicator error injection).
  ZoneKey& adopt(ZoneKey key);

  ZoneKey* find_by_tag(std::uint16_t tag);
  const ZoneKey* find_by_tag(std::uint16_t tag) const;

  /// Remove a key entirely (file deletion); true if found.
  bool remove_by_tag(std::uint16_t tag);

  /// Keys published at `now` (i.e. in the DNSKEY RRset).
  std::vector<const ZoneKey*> published(UnixTime now) const;

  /// Keys active for signing at `now`, optionally filtered by role.
  std::vector<const ZoneKey*> active(UnixTime now) const;
  std::vector<const ZoneKey*> active_with_role(UnixTime now,
                                               KeyRole role) const;

 private:
  dns::Name zone_;
  // A deque keeps references returned by generate()/adopt() stable across
  // later insertions (vector reallocation invalidated them).
  std::deque<ZoneKey> keys_;
};

}  // namespace dfx::zone
