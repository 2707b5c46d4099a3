// Resource-record types, classes, and DNSKEY flag constants.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace dfx::dns {

/// RR TYPE values (RFC 1035 / 4034 / 5155).
enum class RRType : std::uint16_t {
  kA = 1,
  kNS = 2,
  kCNAME = 5,
  kSOA = 6,
  kMX = 15,
  kTXT = 16,
  kAAAA = 28,
  kDS = 43,
  kRRSIG = 46,
  kNSEC = 47,
  kDNSKEY = 48,
  kNSEC3 = 50,
  kNSEC3PARAM = 51,
  kCDS = 59,      // RFC 7344: child's desired DS set
  kCDNSKEY = 60,  // RFC 7344: child's desired DNSKEY-at-parent set
};

enum class RRClass : std::uint16_t {
  kIN = 1,
};

/// Mnemonic ("A", "RRSIG", ...). Unknown types render as "TYPEnnn".
std::string rrtype_to_string(RRType type);

/// Parse a mnemonic or "TYPEnnn" form.
[[nodiscard]] std::optional<RRType> rrtype_from_string(std::string_view text);

/// DNSKEY flag bits (RFC 4034 §2.1.1, RFC 5011).
constexpr std::uint16_t kDnskeyFlagZone = 0x0100;    // bit 7: Zone Key
constexpr std::uint16_t kDnskeyFlagRevoke = 0x0080;  // bit 8: REVOKE
constexpr std::uint16_t kDnskeyFlagSep = 0x0001;     // bit 15: SEP (KSK)

/// NSEC3 flag bits (RFC 5155 §3.1.2).
constexpr std::uint8_t kNsec3FlagOptOut = 0x01;

/// Response codes the authoritative server model can return. FORMERR and
/// NOTIMP are produced only by the wire frontend (src/server) for
/// malformed or unsupported packets; the typed query path never sees them.
enum class RCode : std::uint8_t {
  kNoError = 0,
  kFormErr = 1,
  kServFail = 2,
  kNXDomain = 3,
  kNotImp = 4,
  kRefused = 5,
};

std::string rcode_to_string(RCode rcode);

}  // namespace dfx::dns
