// Typed RDATA for every record type the system handles, plus a closed
// variant `Rdata` used by RRsets, the wire codec and the master-file codec.
#pragma once

#include <array>
#include <cstdint>
#include <set>
#include <string>
#include <variant>
#include <vector>

#include "crypto/algorithm.h"
#include "dnscore/name.h"
#include "dnscore/rr.h"
#include "util/bytes.h"
#include "util/simclock.h"

namespace dfx::dns {

struct ARdata {
  std::array<std::uint8_t, 4> address{};

  std::string to_text() const;
  bool operator==(const ARdata&) const = default;
};

struct AaaaRdata {
  std::array<std::uint8_t, 16> address{};

  std::string to_text() const;
  bool operator==(const AaaaRdata&) const = default;
};

struct NsRdata {
  Name nsdname;
  bool operator==(const NsRdata&) const = default;
};

struct CnameRdata {
  Name target;
  bool operator==(const CnameRdata&) const = default;
};

struct SoaRdata {
  Name mname;
  Name rname;
  std::uint32_t serial = 0;
  std::uint32_t refresh = 7200;
  std::uint32_t retry = 3600;
  std::uint32_t expire = 1209600;
  std::uint32_t minimum = 3600;  // negative-caching TTL (RFC 2308)
  bool operator==(const SoaRdata&) const = default;
};

struct MxRdata {
  std::uint16_t preference = 10;
  Name exchange;
  bool operator==(const MxRdata&) const = default;
};

struct TxtRdata {
  std::vector<std::string> strings;
  bool operator==(const TxtRdata&) const = default;
};

struct DnskeyRdata {
  std::uint16_t flags = kDnskeyFlagZone;
  std::uint8_t protocol = 3;  // MUST be 3 (RFC 4034 §2.1.2)
  std::uint8_t algorithm = 0;
  Bytes public_key;

  bool is_zone_key() const { return (flags & kDnskeyFlagZone) != 0; }
  bool is_sep() const { return (flags & kDnskeyFlagSep) != 0; }
  bool is_revoked() const { return (flags & kDnskeyFlagRevoke) != 0; }

  /// RFC 4034 Appendix B key tag over this RDATA's wire form.
  std::uint16_t key_tag() const;

  bool operator==(const DnskeyRdata&) const = default;
};

struct DsRdata {
  std::uint16_t key_tag = 0;
  std::uint8_t algorithm = 0;
  std::uint8_t digest_type = 2;
  Bytes digest;
  bool operator==(const DsRdata&) const = default;
};

struct RrsigRdata {
  RRType type_covered = RRType::kA;
  std::uint8_t algorithm = 0;
  std::uint8_t labels = 0;
  std::uint32_t original_ttl = 0;
  UnixTime expiration = 0;
  UnixTime inception = 0;
  std::uint16_t key_tag = 0;
  Name signer;
  Bytes signature;

  /// RDATA wire form with the signature field left empty — the form that is
  /// actually signed (RFC 4034 §3.1.8.1).
  Bytes to_wire_unsigned() const;

  bool operator==(const RrsigRdata&) const = default;
};

struct NsecRdata {
  Name next;
  std::set<RRType> types;
  bool operator==(const NsecRdata&) const = default;
};

struct Nsec3Rdata {
  std::uint8_t hash_algorithm = 1;  // 1 = SHA-1, the only defined value
  std::uint8_t flags = 0;
  std::uint16_t iterations = 0;
  Bytes salt;
  Bytes next_hashed;  // binary hash of the next owner name in chain order
  std::set<RRType> types;

  bool opt_out() const { return (flags & kNsec3FlagOptOut) != 0; }
  bool operator==(const Nsec3Rdata&) const = default;
};

struct Nsec3ParamRdata {
  std::uint8_t hash_algorithm = 1;
  std::uint8_t flags = 0;
  std::uint16_t iterations = 0;
  Bytes salt;
  bool operator==(const Nsec3ParamRdata&) const = default;
};

/// CDS (RFC 7344): same RDATA layout as DS, published by the *child* to
/// signal the DS set it wants at the parent.
struct CdsRdata {
  DsRdata ds;
  bool operator==(const CdsRdata&) const = default;
};

/// CDNSKEY (RFC 7344): same RDATA layout as DNSKEY.
struct CdnskeyRdata {
  DnskeyRdata dnskey;
  bool operator==(const CdnskeyRdata&) const = default;
};

using Rdata = std::variant<ARdata, AaaaRdata, NsRdata, CnameRdata, SoaRdata,
                           MxRdata, TxtRdata, DnskeyRdata, DsRdata, RrsigRdata,
                           NsecRdata, Nsec3Rdata, Nsec3ParamRdata, CdsRdata,
                           CdnskeyRdata>;

/// The RRType a given Rdata alternative represents.
RRType rdata_type(const Rdata& rdata);

/// Canonical RDATA wire form (embedded names lower-cased, RFC 4034 §6.2).
Bytes rdata_to_wire(const Rdata& rdata);

/// Append rdata_to_wire(rdata) to `out` in place, with no buffer of its
/// own (the message encoder writes every record's RDATA this way).
void append_rdata_wire(Bytes& out, const Rdata& rdata);

/// Presentation (zone-file) form of the RDATA fields.
std::string rdata_to_text(const Rdata& rdata);

/// Render an NSEC/NSEC3 type bitmap set as "A NS SOA ..." text.
std::string type_set_to_text(const std::set<RRType>& types);

/// Encode a type set as the NSEC wire bitmap (RFC 4034 §4.1.2).
Bytes encode_type_bitmap(const std::set<RRType>& types);

/// Append encode_type_bitmap(types) to `out` in place.
void append_type_bitmap(Bytes& out, const std::set<RRType>& types);

/// Decode an NSEC wire bitmap.
std::set<RRType> decode_type_bitmap(ByteView data);

}  // namespace dfx::dns
