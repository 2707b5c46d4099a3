#include "dnscore/rdata.h"

#include <cstdio>

#include "util/check.hpp"
#include "util/codec.h"
#include "util/strings.h"

namespace dfx::dns {

std::string ARdata::to_text() const {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%u.%u.%u.%u", address[0], address[1],
                address[2], address[3]);
  return buf;
}

std::string AaaaRdata::to_text() const {
  // Uncompressed form (no :: shortening); fine for diagnostics.
  std::string out;
  char buf[8];
  for (int i = 0; i < 8; ++i) {
    const unsigned v = (static_cast<unsigned>(address[i * 2]) << 8) |
                       address[i * 2 + 1];
    std::snprintf(buf, sizeof buf, "%x", v);
    if (i > 0) out.push_back(':');
    out += buf;
  }
  return out;
}

std::uint16_t DnskeyRdata::key_tag() const {
  // RFC 4034 Appendix B over the wire form, summed field by field instead
  // of over a copy: octets at even offsets count as high bytes. The key
  // starts at offset 4, so its octets keep their own index parity.
  // The sum is modulo 2^32 either way, so the high and low bytes are
  // summed apart (no branch per octet) and combined once.
  std::uint32_t high = 0;
  std::uint32_t low = 0;
  const std::size_t n = public_key.size();
  for (std::size_t i = 0; i + 1 < n; i += 2) {
    high += public_key[i];
    low += public_key[i + 1];
  }
  if (n % 2 != 0) high += public_key[n - 1];
  std::uint32_t ac = flags;
  ac += static_cast<std::uint32_t>(protocol) << 8 | algorithm;
  ac += (high << 8) + low;
  ac += (ac >> 16) & 0xFFFF;
  return static_cast<std::uint16_t>(ac & 0xFFFF);
}

Bytes RrsigRdata::to_wire_unsigned() const {
  RrsigRdata copy = *this;
  copy.signature.clear();
  return rdata_to_wire(Rdata(copy));
}

RRType rdata_type(const Rdata& rdata) {
  struct Visitor {
    RRType operator()(const ARdata&) const { return RRType::kA; }
    RRType operator()(const AaaaRdata&) const { return RRType::kAAAA; }
    RRType operator()(const NsRdata&) const { return RRType::kNS; }
    RRType operator()(const CnameRdata&) const { return RRType::kCNAME; }
    RRType operator()(const SoaRdata&) const { return RRType::kSOA; }
    RRType operator()(const MxRdata&) const { return RRType::kMX; }
    RRType operator()(const TxtRdata&) const { return RRType::kTXT; }
    RRType operator()(const DnskeyRdata&) const { return RRType::kDNSKEY; }
    RRType operator()(const DsRdata&) const { return RRType::kDS; }
    RRType operator()(const RrsigRdata&) const { return RRType::kRRSIG; }
    RRType operator()(const NsecRdata&) const { return RRType::kNSEC; }
    RRType operator()(const Nsec3Rdata&) const { return RRType::kNSEC3; }
    RRType operator()(const Nsec3ParamRdata&) const {
      return RRType::kNSEC3PARAM;
    }
    RRType operator()(const CdsRdata&) const { return RRType::kCDS; }
    RRType operator()(const CdnskeyRdata&) const { return RRType::kCDNSKEY; }
  };
  return std::visit(Visitor{}, rdata);
}

Bytes encode_type_bitmap(const std::set<RRType>& types) {
  Bytes out;
  // Window blocks of 256 types each (RFC 4034 §4.1.2).
  int current_window = -1;
  std::array<std::uint8_t, 32> bits{};
  int max_octet = -1;
  const auto flush = [&] {
    if (current_window < 0 || max_octet < 0) return;
    DFX_DCHECK(max_octet < 32);
    out.push_back(static_cast<std::uint8_t>(current_window));
    out.push_back(static_cast<std::uint8_t>(max_octet + 1));
    for (int i = 0; i <= max_octet; ++i) {
      out.push_back(bits[static_cast<std::size_t>(i)]);
    }
  };
  for (RRType t : types) {
    const std::uint16_t v = static_cast<std::uint16_t>(t);
    const int window = v >> 8;
    if (window != current_window) {
      flush();
      current_window = window;
      bits.fill(0);
      max_octet = -1;
    }
    const int octet = (v & 0xFF) >> 3;
    bits[static_cast<std::size_t>(octet)] |=
        static_cast<std::uint8_t>(0x80 >> (v & 7));
    if (octet > max_octet) max_octet = octet;
  }
  flush();
  return out;
}

std::set<RRType> decode_type_bitmap(ByteView data) {
  std::set<RRType> out;
  std::size_t pos = 0;
  // Every window block consumes at least 3 octets, so iterations are
  // bounded by the input size even for adversarial bitmaps.
  DFX_BOUNDED_LOOP(guard, data.size() / 3 + 1);
  while (pos + 2 <= data.size()) {
    guard.tick();
    const int window = data[pos];
    const std::size_t len = data[pos + 1];
    pos += 2;
    if (len == 0 || len > 32 || pos + len > data.size()) break;
    for (std::size_t i = 0; i < len; ++i) {
      const std::uint8_t octet = data[pos + i];
      for (int bit = 0; bit < 8; ++bit) {
        if ((octet & (0x80 >> bit)) != 0) {
          out.insert(static_cast<RRType>((window << 8) | (i * 8 + bit)));
        }
      }
    }
    pos += len;
  }
  return out;
}

Bytes rdata_to_wire(const Rdata& rdata) {
  Bytes out;
  struct Visitor {
    Bytes& out;

    void operator()(const ARdata& r) const {
      append(out, ByteView(r.address));
    }
    void operator()(const AaaaRdata& r) const {
      append(out, ByteView(r.address));
    }
    void operator()(const NsRdata& r) const {
      append(out, r.nsdname.to_canonical_wire());
    }
    void operator()(const CnameRdata& r) const {
      append(out, r.target.to_canonical_wire());
    }
    void operator()(const SoaRdata& r) const {
      append(out, r.mname.to_canonical_wire());
      append(out, r.rname.to_canonical_wire());
      append_u32(out, r.serial);
      append_u32(out, r.refresh);
      append_u32(out, r.retry);
      append_u32(out, r.expire);
      append_u32(out, r.minimum);
    }
    void operator()(const MxRdata& r) const {
      append_u16(out, r.preference);
      append(out, r.exchange.to_canonical_wire());
    }
    void operator()(const TxtRdata& r) const {
      for (const auto& s : r.strings) {
        DFX_CHECK(s.size() <= 255, "TXT character-string of %zu octets",
                  s.size());
        append_u8(out, static_cast<std::uint8_t>(s.size()));
        append(out, as_bytes(s));
      }
    }
    void operator()(const DnskeyRdata& r) const {
      append_u16(out, r.flags);
      append_u8(out, r.protocol);
      append_u8(out, r.algorithm);
      append(out, r.public_key);
    }
    void operator()(const DsRdata& r) const {
      append_u16(out, r.key_tag);
      append_u8(out, r.algorithm);
      append_u8(out, r.digest_type);
      append(out, r.digest);
    }
    void operator()(const RrsigRdata& r) const {
      append_u16(out, static_cast<std::uint16_t>(r.type_covered));
      append_u8(out, r.algorithm);
      append_u8(out, r.labels);
      append_u32(out, r.original_ttl);
      append_u32(out, static_cast<std::uint32_t>(r.expiration));
      append_u32(out, static_cast<std::uint32_t>(r.inception));
      append_u16(out, r.key_tag);
      append(out, r.signer.to_canonical_wire());
      append(out, r.signature);
    }
    void operator()(const NsecRdata& r) const {
      append(out, r.next.to_canonical_wire());
      append(out, encode_type_bitmap(r.types));
    }
    void operator()(const Nsec3Rdata& r) const {
      DFX_CHECK(r.salt.size() <= 255, "NSEC3 salt of %zu octets",
                r.salt.size());
      DFX_CHECK(r.next_hashed.size() <= 255, "NSEC3 hash of %zu octets",
                r.next_hashed.size());
      append_u8(out, r.hash_algorithm);
      append_u8(out, r.flags);
      append_u16(out, r.iterations);
      append_u8(out, static_cast<std::uint8_t>(r.salt.size()));
      append(out, r.salt);
      append_u8(out, static_cast<std::uint8_t>(r.next_hashed.size()));
      append(out, r.next_hashed);
      append(out, encode_type_bitmap(r.types));
    }
    void operator()(const Nsec3ParamRdata& r) const {
      DFX_CHECK(r.salt.size() <= 255, "NSEC3PARAM salt of %zu octets",
                r.salt.size());
      append_u8(out, r.hash_algorithm);
      append_u8(out, r.flags);
      append_u16(out, r.iterations);
      append_u8(out, static_cast<std::uint8_t>(r.salt.size()));
      append(out, r.salt);
    }
    void operator()(const CdsRdata& r) const { (*this)(r.ds); }
    void operator()(const CdnskeyRdata& r) const { (*this)(r.dnskey); }
  };
  std::visit(Visitor{out}, rdata);
  return out;
}

std::string type_set_to_text(const std::set<RRType>& types) {
  std::vector<std::string> names;
  names.reserve(types.size());
  for (RRType t : types) names.push_back(rrtype_to_string(t));
  return join(names, " ");
}

std::string rdata_to_text(const Rdata& rdata) {
  struct Visitor {
    std::string operator()(const ARdata& r) const { return r.to_text(); }
    std::string operator()(const AaaaRdata& r) const { return r.to_text(); }
    std::string operator()(const NsRdata& r) const {
      return r.nsdname.to_string();
    }
    std::string operator()(const CnameRdata& r) const {
      return r.target.to_string();
    }
    std::string operator()(const SoaRdata& r) const {
      return r.mname.to_string() + " " + r.rname.to_string() + " " +
             std::to_string(r.serial) + " " + std::to_string(r.refresh) +
             " " + std::to_string(r.retry) + " " + std::to_string(r.expire) +
             " " + std::to_string(r.minimum);
    }
    std::string operator()(const MxRdata& r) const {
      return std::to_string(r.preference) + " " + r.exchange.to_string();
    }
    std::string operator()(const TxtRdata& r) const {
      std::vector<std::string> quoted;
      quoted.reserve(r.strings.size());
      for (const auto& s : r.strings) quoted.push_back("\"" + s + "\"");
      return join(quoted, " ");
    }
    std::string operator()(const DnskeyRdata& r) const {
      return std::to_string(r.flags) + " " + std::to_string(r.protocol) +
             " " + std::to_string(r.algorithm) + " " +
             base64_encode(r.public_key);
    }
    std::string operator()(const DsRdata& r) const {
      return std::to_string(r.key_tag) + " " + std::to_string(r.algorithm) +
             " " + std::to_string(r.digest_type) + " " + hex_encode(r.digest);
    }
    std::string operator()(const RrsigRdata& r) const {
      return rrtype_to_string(r.type_covered) + " " +
             std::to_string(r.algorithm) + " " + std::to_string(r.labels) +
             " " + std::to_string(r.original_ttl) + " " +
             format_dnssec_time(r.expiration) + " " +
             format_dnssec_time(r.inception) + " " +
             std::to_string(r.key_tag) + " " + r.signer.to_string() + " " +
             base64_encode(r.signature);
    }
    std::string operator()(const NsecRdata& r) const {
      std::string out = r.next.to_string();
      if (!r.types.empty()) out += " " + type_set_to_text(r.types);
      return out;
    }
    std::string operator()(const Nsec3Rdata& r) const {
      std::string out = std::to_string(r.hash_algorithm) + " " +
                        std::to_string(r.flags) + " " +
                        std::to_string(r.iterations) + " " +
                        (r.salt.empty() ? "-" : hex_encode(r.salt)) + " " +
                        base32hex_encode(r.next_hashed);
      if (!r.types.empty()) out += " " + type_set_to_text(r.types);
      return out;
    }
    std::string operator()(const Nsec3ParamRdata& r) const {
      return std::to_string(r.hash_algorithm) + " " +
             std::to_string(r.flags) + " " + std::to_string(r.iterations) +
             " " + (r.salt.empty() ? "-" : hex_encode(r.salt));
    }
    std::string operator()(const CdsRdata& r) const { return (*this)(r.ds); }
    std::string operator()(const CdnskeyRdata& r) const {
      return (*this)(r.dnskey);
    }
  };
  return std::visit(Visitor{}, rdata);
}

}  // namespace dfx::dns
