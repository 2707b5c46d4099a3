#include "dnscore/masterfile.h"

#include <charconv>

#include "dnscore/tokenizer.h"
#include "util/check.hpp"
#include "util/codec.h"
#include "util/simclock.h"
#include "util/strings.h"

namespace dfx::dns {
namespace {

[[nodiscard]] bool parse_u32(std::string_view text, std::uint32_t& out) {
  std::uint64_t v = 0;
  if (text.empty()) return false;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
    if (v > 0xFFFFFFFFULL) return false;
  }
  out = static_cast<std::uint32_t>(v);
  return true;
}

/// TTL with optional BIND-style unit suffixes: 30, 30s, 5m, 2h, 1d, 1w,
/// and concatenations like "1h30m".
[[nodiscard]] bool parse_ttl_value(std::string_view text, std::uint32_t& out) {
  if (text.empty()) return false;
  std::uint64_t total = 0;
  std::uint64_t current = 0;
  bool have_digits = false;
  bool have_unit = false;
  for (char c : text) {
    if (c >= '0' && c <= '9') {
      current = current * 10 + static_cast<std::uint64_t>(c - '0');
      if (current > 0xFFFFFFFFULL) return false;
      have_digits = true;
      continue;
    }
    if (!have_digits) return false;
    std::uint64_t unit = 0;
    switch (ascii_lower(c)) {
      case 's': unit = 1; break;
      case 'm': unit = 60; break;
      case 'h': unit = 3600; break;
      case 'd': unit = 86400; break;
      case 'w': unit = 604800; break;
      default: return false;
    }
    total += current * unit;
    if (total > 0xFFFFFFFFULL) return false;
    current = 0;
    have_digits = false;
    have_unit = true;
  }
  if (have_digits) {
    if (have_unit) return false;  // "1h30" — trailing number without unit
    total = current;
  }
  if (total > 0xFFFFFFFFULL) return false;
  out = static_cast<std::uint32_t>(total);
  return true;
}

[[nodiscard]] bool parse_u16(std::string_view text, std::uint16_t& out) {
  std::uint32_t v = 0;
  if (!parse_u32(text, v) || v > 0xFFFF) return false;
  out = static_cast<std::uint16_t>(v);
  return true;
}

[[nodiscard]] bool parse_u8(std::string_view text, std::uint8_t& out) {
  std::uint32_t v = 0;
  if (!parse_u32(text, v) || v > 0xFF) return false;
  out = static_cast<std::uint8_t>(v);
  return true;
}

[[nodiscard]] std::optional<Name> parse_name_rel(std::string_view text,
                                                 const Name& origin) {
  if (text == "@") return origin;
  if (!text.empty() && text.back() == '.') return Name::parse(text);
  // Relative name: append origin.
  auto rel = Name::parse(std::string(text) + "." + origin.to_string());
  return rel;
}

[[nodiscard]] bool parse_ipv4(std::string_view text,
                              std::array<std::uint8_t, 4>& out) {
  const auto parts = split(text, '.');
  if (parts.size() != 4) return false;
  for (int i = 0; i < 4; ++i) {
    std::uint32_t v = 0;
    if (!parse_u32(parts[static_cast<std::size_t>(i)], v) || v > 255) {
      return false;
    }
    out[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(v);
  }
  return true;
}

[[nodiscard]] bool parse_ipv6(std::string_view text,
                              std::array<std::uint8_t, 16>& out) {
  // Supports full and '::'-compressed forms, no embedded IPv4.
  std::vector<std::uint16_t> head;
  std::vector<std::uint16_t> tail;
  bool seen_gap = false;
  std::size_t start = 0;
  const std::string s(text);
  std::size_t gap = s.find("::");
  std::string head_part = gap == std::string::npos ? s : s.substr(0, gap);
  std::string tail_part = gap == std::string::npos ? "" : s.substr(gap + 2);
  seen_gap = gap != std::string::npos;
  const auto parse_groups = [](const std::string& part,
                               std::vector<std::uint16_t>& groups) {
    if (part.empty()) return true;
    for (const auto& g : split(part, ':')) {
      if (g.empty() || g.size() > 4) return false;
      std::uint16_t v = 0;
      for (char c : g) {
        int d;
        if (c >= '0' && c <= '9') {
          d = c - '0';
        } else if (c >= 'a' && c <= 'f') {
          d = c - 'a' + 10;
        } else if (c >= 'A' && c <= 'F') {
          d = c - 'A' + 10;
        } else {
          return false;
        }
        v = static_cast<std::uint16_t>(((v << 4) | d) & 0xFFFF);
      }
      groups.push_back(v);
    }
    return true;
  };
  (void)start;
  if (!parse_groups(head_part, head) || !parse_groups(tail_part, tail)) {
    return false;
  }
  const std::size_t total = head.size() + tail.size();
  if ((seen_gap && total >= 8) || (!seen_gap && total != 8)) return false;
  std::vector<std::uint16_t> groups = head;
  groups.insert(groups.end(), 8 - total, 0);
  groups.insert(groups.end(), tail.begin(), tail.end());
  for (int i = 0; i < 8; ++i) {
    out[static_cast<std::size_t>(i * 2)] =
        static_cast<std::uint8_t>(groups[static_cast<std::size_t>(i)] >> 8);
    out[static_cast<std::size_t>(i * 2 + 1)] =
        static_cast<std::uint8_t>(groups[static_cast<std::size_t>(i)] & 0xFF);
  }
  return true;
}

}  // namespace

[[nodiscard]] std::variant<Rdata, std::string> parse_rdata_text(
    RRType type, std::span<const std::string_view> fields,
    const Name& origin) {
  const auto err = [](std::string msg) -> std::variant<Rdata, std::string> {
    return msg;
  };
  const auto need = [&](std::size_t n) { return fields.size() >= n; };
  switch (type) {
    case RRType::kA: {
      ARdata a;
      if (!need(1) || !parse_ipv4(fields[0], a.address)) {
        return err("bad A rdata");
      }
      return Rdata(a);
    }
    case RRType::kAAAA: {
      AaaaRdata a;
      if (!need(1) || !parse_ipv6(fields[0], a.address)) {
        return err("bad AAAA rdata");
      }
      return Rdata(a);
    }
    case RRType::kNS: {
      if (!need(1)) return err("bad NS rdata");
      auto name = parse_name_rel(fields[0], origin);
      if (!name) return err("bad NS target");
      return Rdata(NsRdata{*name});
    }
    case RRType::kCNAME: {
      if (!need(1)) return err("bad CNAME rdata");
      auto name = parse_name_rel(fields[0], origin);
      if (!name) return err("bad CNAME target");
      return Rdata(CnameRdata{*name});
    }
    case RRType::kSOA: {
      if (!need(7)) return err("bad SOA rdata");
      SoaRdata soa;
      auto mname = parse_name_rel(fields[0], origin);
      auto rname = parse_name_rel(fields[1], origin);
      if (!mname || !rname) return err("bad SOA names");
      soa.mname = *mname;
      soa.rname = *rname;
      if (!parse_u32(fields[2], soa.serial) ||
          !parse_u32(fields[3], soa.refresh) ||
          !parse_u32(fields[4], soa.retry) ||
          !parse_u32(fields[5], soa.expire) ||
          !parse_u32(fields[6], soa.minimum)) {
        return err("bad SOA numbers");
      }
      return Rdata(soa);
    }
    case RRType::kMX: {
      if (!need(2)) return err("bad MX rdata");
      MxRdata mx;
      if (!parse_u16(fields[0], mx.preference)) return err("bad MX pref");
      auto name = parse_name_rel(fields[1], origin);
      if (!name) return err("bad MX exchange");
      mx.exchange = *name;
      return Rdata(mx);
    }
    case RRType::kTXT: {
      if (fields.empty()) return err("bad TXT rdata");
      TxtRdata txt;
      for (const auto f : fields) {
        std::string s(f);
        if (s.size() >= 2 && s.front() == '"' && s.back() == '"') {
          s = s.substr(1, s.size() - 2);
        }
        if (s.size() > 255) return err("TXT string too long");
        txt.strings.push_back(std::move(s));
      }
      return Rdata(txt);
    }
    case RRType::kDNSKEY: {
      if (!need(4)) return err("bad DNSKEY rdata");
      DnskeyRdata k;
      if (!parse_u16(fields[0], k.flags) || !parse_u8(fields[1], k.protocol) ||
          !parse_u8(fields[2], k.algorithm)) {
        return err("bad DNSKEY numbers");
      }
      std::string b64;
      for (std::size_t i = 3; i < fields.size(); ++i) b64 += fields[i];
      auto key = base64_decode(b64);
      if (!key) return err("bad DNSKEY base64");
      k.public_key = *std::move(key);
      return Rdata(k);
    }
    case RRType::kDS: {
      if (!need(4)) return err("bad DS rdata");
      DsRdata ds;
      if (!parse_u16(fields[0], ds.key_tag) ||
          !parse_u8(fields[1], ds.algorithm) ||
          !parse_u8(fields[2], ds.digest_type)) {
        return err("bad DS numbers");
      }
      std::string hexstr;
      for (std::size_t i = 3; i < fields.size(); ++i) hexstr += fields[i];
      auto digest = hex_decode(hexstr);
      if (!digest) return err("bad DS digest hex");
      ds.digest = *std::move(digest);
      return Rdata(ds);
    }
    case RRType::kRRSIG: {
      if (!need(9)) return err("bad RRSIG rdata");
      RrsigRdata sig;
      auto covered = rrtype_from_string(fields[0]);
      if (!covered) return err("bad RRSIG type covered");
      sig.type_covered = *covered;
      std::uint32_t ottl = 0;
      if (!parse_u8(fields[1], sig.algorithm) ||
          !parse_u8(fields[2], sig.labels) || !parse_u32(fields[3], ottl)) {
        return err("bad RRSIG numbers");
      }
      sig.original_ttl = ottl;
      sig.expiration = parse_dnssec_time(std::string(fields[4]));
      sig.inception = parse_dnssec_time(std::string(fields[5]));
      if (sig.expiration < 0 || sig.inception < 0) {
        return err("bad RRSIG times");
      }
      if (!parse_u16(fields[6], sig.key_tag)) return err("bad RRSIG key tag");
      auto signer = parse_name_rel(fields[7], origin);
      if (!signer) return err("bad RRSIG signer");
      sig.signer = *signer;
      std::string b64;
      for (std::size_t i = 8; i < fields.size(); ++i) b64 += fields[i];
      auto sigbytes = base64_decode(b64);
      if (!sigbytes) return err("bad RRSIG base64");
      sig.signature = *std::move(sigbytes);
      return Rdata(sig);
    }
    case RRType::kNSEC: {
      if (!need(1)) return err("bad NSEC rdata");
      NsecRdata n;
      auto next = parse_name_rel(fields[0], origin);
      if (!next) return err("bad NSEC next name");
      n.next = *next;
      for (std::size_t i = 1; i < fields.size(); ++i) {
        auto t = rrtype_from_string(fields[i]);
        if (!t) return err("bad NSEC type " + std::string(fields[i]));
        n.types.insert(*t);
      }
      return Rdata(n);
    }
    case RRType::kNSEC3: {
      if (!need(5)) return err("bad NSEC3 rdata");
      Nsec3Rdata n;
      if (!parse_u8(fields[0], n.hash_algorithm) ||
          !parse_u8(fields[1], n.flags) ||
          !parse_u16(fields[2], n.iterations)) {
        return err("bad NSEC3 numbers");
      }
      auto salt = hex_decode(fields[3]);
      if (!salt || salt->size() > 255) return err("bad NSEC3 salt");
      n.salt = *std::move(salt);
      auto next = base32hex_decode(fields[4]);
      if (!next || next->empty() || next->size() > 255) {
        return err("bad NSEC3 next hash");
      }
      n.next_hashed = *std::move(next);
      for (std::size_t i = 5; i < fields.size(); ++i) {
        auto t = rrtype_from_string(fields[i]);
        if (!t) return err("bad NSEC3 type " + std::string(fields[i]));
        n.types.insert(*t);
      }
      return Rdata(n);
    }
    case RRType::kCDS: {
      auto inner = parse_rdata_text(RRType::kDS, fields, origin);
      if (auto* msg = std::get_if<std::string>(&inner)) return err(*msg);
      return Rdata(CdsRdata{std::get<DsRdata>(std::get<Rdata>(inner))});
    }
    case RRType::kCDNSKEY: {
      auto inner = parse_rdata_text(RRType::kDNSKEY, fields, origin);
      if (auto* msg = std::get_if<std::string>(&inner)) return err(*msg);
      return Rdata(
          CdnskeyRdata{std::get<DnskeyRdata>(std::get<Rdata>(inner))});
    }
    case RRType::kNSEC3PARAM: {
      if (!need(4)) return err("bad NSEC3PARAM rdata");
      Nsec3ParamRdata p;
      if (!parse_u8(fields[0], p.hash_algorithm) ||
          !parse_u8(fields[1], p.flags) ||
          !parse_u16(fields[2], p.iterations)) {
        return err("bad NSEC3PARAM numbers");
      }
      auto salt = hex_decode(fields[3]);
      if (!salt || salt->size() > 255) return err("bad NSEC3PARAM salt");
      p.salt = *std::move(salt);
      return Rdata(p);
    }
  }
  return err("unsupported type " + rrtype_to_string(type));
}

[[nodiscard]] std::variant<Rdata, std::string> parse_rdata_text(
    RRType type, const std::vector<std::string>& fields, const Name& origin) {
  std::vector<std::string_view> views(fields.begin(), fields.end());
  return parse_rdata_text(
      type, std::span<const std::string_view>(views.data(), views.size()),
      origin);
}

[[nodiscard]] std::variant<std::vector<ResourceRecord>, MasterFileError>
parse_master_file(std::string_view text, const Name& default_origin,
                  std::uint32_t default_ttl) {
  std::vector<ResourceRecord> records;
  Name origin = default_origin;
  Name last_owner = default_origin;
  std::uint32_t ttl = default_ttl;

  // The tokenizer hands out views into `text` and this arena; both outlive
  // every use below (fields are consumed within the loop body).
  WireArena arena;
  MasterFileTokenizer tokenizer(text, arena);
  MasterLine entry;
  while (tokenizer.next(entry)) {
    const std::size_t lineno = entry.line;
    const auto fields = entry.fields;
    DFX_DCHECK(!fields.empty());  // tokenizer skips blank lines

    if (fields[0] == "$ORIGIN") {
      if (fields.size() < 2) return MasterFileError{lineno, "$ORIGIN arg"};
      auto o = Name::parse(fields[1]);
      if (!o) return MasterFileError{lineno, "bad $ORIGIN"};
      origin = *o;
      continue;
    }
    if (fields[0] == "$TTL") {
      if (fields.size() < 2 || !parse_ttl_value(fields[1], ttl)) {
        return MasterFileError{lineno, "bad $TTL"};
      }
      continue;
    }

    std::size_t idx = 0;
    Name owner = last_owner;
    if (!entry.leading_ws) {
      auto o = parse_name_rel(fields[idx], origin);
      if (!o) return MasterFileError{lineno, "bad owner name"};
      owner = *o;
      ++idx;
    }
    std::uint32_t rr_ttl = ttl;
    // Optional TTL and/or class, in either order.
    while (idx < fields.size()) {
      std::uint32_t maybe_ttl = 0;
      if (iequals(fields[idx], "IN")) {
        ++idx;
        continue;
      }
      if (parse_ttl_value(fields[idx], maybe_ttl)) {
        rr_ttl = maybe_ttl;
        ++idx;
        continue;
      }
      break;
    }
    if (idx >= fields.size()) return MasterFileError{lineno, "missing type"};
    auto type = rrtype_from_string(fields[idx]);
    if (!type) {
      return MasterFileError{lineno,
                             "unknown type " + std::string(fields[idx])};
    }
    ++idx;
    DFX_DCHECK(idx <= fields.size());
    auto rdata = parse_rdata_text(*type, fields.subspan(idx), origin);
    if (auto* msg = std::get_if<std::string>(&rdata)) {
      return MasterFileError{lineno, *msg};
    }
    ResourceRecord rr;
    rr.owner = owner;
    rr.type = *type;
    rr.ttl = rr_ttl;
    rr.rdata = std::get<Rdata>(std::move(rdata));
    records.push_back(std::move(rr));
    last_owner = owner;
  }
  if (tokenizer.error().has_value()) {
    return MasterFileError{tokenizer.error()->line,
                           tokenizer.error()->message};
  }
  return records;
}

std::string print_master_file(const std::vector<ResourceRecord>& records) {
  std::string out;
  for (const auto& rr : records) {
    out += rr.to_text();
    out.push_back('\n');
  }
  return out;
}

}  // namespace dfx::dns
