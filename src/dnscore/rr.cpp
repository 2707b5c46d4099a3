#include "dnscore/rr.h"

#include "util/strings.h"

namespace dfx::dns {
namespace {

struct TypeName {
  RRType type;
  const char* name;
};

constexpr TypeName kTypeNames[] = {
    {RRType::kA, "A"},           {RRType::kNS, "NS"},
    {RRType::kCNAME, "CNAME"},   {RRType::kSOA, "SOA"},
    {RRType::kMX, "MX"},         {RRType::kTXT, "TXT"},
    {RRType::kAAAA, "AAAA"},     {RRType::kDS, "DS"},
    {RRType::kRRSIG, "RRSIG"},   {RRType::kNSEC, "NSEC"},
    {RRType::kDNSKEY, "DNSKEY"}, {RRType::kNSEC3, "NSEC3"},
    {RRType::kNSEC3PARAM, "NSEC3PARAM"}, {RRType::kCDS, "CDS"},
    {RRType::kCDNSKEY, "CDNSKEY"},
};

}  // namespace

std::string rrtype_to_string(RRType type) {
  for (const auto& tn : kTypeNames) {
    if (tn.type == type) return tn.name;
  }
  return "TYPE" + std::to_string(static_cast<std::uint16_t>(type));
}

[[nodiscard]] std::optional<RRType> rrtype_from_string(std::string_view text) {
  for (const auto& tn : kTypeNames) {
    if (iequals(text, tn.name)) return tn.type;
  }
  if (text.size() > 4 && iequals(text.substr(0, 4), "TYPE")) {
    int v = 0;
    for (char c : text.substr(4)) {
      if (c < '0' || c > '9') return std::nullopt;
      v = v * 10 + (c - '0');
      if (v > 0xFFFF) return std::nullopt;
    }
    return static_cast<RRType>(v);
  }
  return std::nullopt;
}

std::string rcode_to_string(RCode rcode) {
  switch (rcode) {
    case RCode::kNoError:
      return "NOERROR";
    case RCode::kFormErr:
      return "FORMERR";
    case RCode::kServFail:
      return "SERVFAIL";
    case RCode::kNXDomain:
      return "NXDOMAIN";
    case RCode::kNotImp:
      return "NOTIMP";
    case RCode::kRefused:
      return "REFUSED";
  }
  return "RCODE" + std::to_string(static_cast<int>(rcode));
}

}  // namespace dfx::dns
