#include "dnscore/message.h"

#include <span>
#include <string>

#include "dnscore/wire.h"
#include "util/check.hpp"
#include "util/strings.h"

namespace dfx::dns {
namespace {

constexpr std::uint64_t kFnvBasis = 0xCBF29CE484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001B3ULL;

/// FNV over one label's canonical (already folded) bytes.
std::uint64_t label_hash(ByteView label) {
  std::uint64_t h = kFnvBasis;
  for (const std::uint8_t c : label) {
    h ^= c;
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace

void NameCompressor::write_name(Bytes& out, const Name& name) {
  const std::size_t n = name.label_count();
  DFX_CHECK(n <= kMaxNamePieces, "name of %zu labels", n);
  const ByteView folded = name.canonical_wire();
  const ByteView wire = name.wire();
  // start[i]: where label i begins in both wire forms.
  std::size_t start[kMaxNamePieces + 1];
  start[0] = 0;
  for (std::size_t i = 0; i < n; ++i) {
    start[i + 1] = start[i] + 1 + folded[start[i]];
  }
  std::uint64_t suffix_hash[kMaxNamePieces + 1];
  suffix_hash[n] = kFnvBasis;
  for (std::size_t i = n; i-- > 0;) {
    const ByteView label = folded.subspan(start[i] + 1, folded[start[i]]);
    suffix_hash[i] = (suffix_hash[i + 1] ^ label_hash(label)) * kFnvPrime;
  }
  // Longest known suffix wins: scan skip counts upward, stop at the
  // first (longest) registered suffix.
  std::size_t skip = 0;
  std::uint32_t pointer = 0;
  bool found = false;
  for (; skip < n; ++skip) {
    if (const auto off =
            lookup(out, suffix_hash[skip], folded.subspan(start[skip]))) {
      pointer = *off;
      found = true;
      break;
    }
  }
  // Emit the labels before the pointer (or all of them), registering
  // each emitted label's suffix for later names. First occurrence wins,
  // and only offsets representable in a 14-bit pointer are remembered.
  for (std::size_t i = 0; i < skip; ++i) {
    const std::size_t offset = out.size();
    if (offset < 0x3FFF) {
      insert_if_absent(out, suffix_hash[i], folded.subspan(start[i]),
                       static_cast<std::uint32_t>(offset));
    }
    append(out, wire.subspan(start[i], start[i + 1] - start[i]));
  }
  if (found) {
    append_u16(out, static_cast<std::uint16_t>(0xC000 | (pointer & 0x3FFF)));
  } else {
    out.push_back(0);
  }
}

bool NameCompressor::suffix_at(const Bytes& out, std::uint32_t offset,
               ByteView folded) const {
  std::size_t pos = offset;
  std::size_t at = 0;
  DFX_BOUNDED_LOOP(guard, out.size() + 2);
  while (true) {
    guard.tick();
    DFX_DCHECK(pos < out.size() && at < folded.size());
    const std::uint8_t len = out[pos];
    if (len == 0) return folded[at] == 0;
    if ((len & 0xC0) == 0xC0) {
      DFX_DCHECK(pos + 1 < out.size());
      pos = ((static_cast<std::size_t>(len) & 0x3F) << 8) | out[pos + 1];
      continue;
    }
    if (folded[at] != len) return false;
    DFX_DCHECK(pos + 1 + len <= out.size());
    for (std::size_t i = 1; i <= len; ++i) {
      if (static_cast<std::uint8_t>(ascii_lower(
              static_cast<char>(out[pos + i]))) != folded[at + i]) {
        return false;
      }
    }
    at += 1 + static_cast<std::size_t>(len);
    pos += 1 + static_cast<std::size_t>(len);
  }
}

[[nodiscard]] std::optional<std::uint32_t> NameCompressor::lookup(
    const Bytes& out, std::uint64_t hash, ByteView folded) const {
  if (count_ == 0) return std::nullopt;
  const Slot* slots = this->slots();
  std::size_t i = hash & mask_;
  DFX_BOUNDED_LOOP(guard, mask_ + 2);
  while (slots[i].offset != kEmptySlot) {
    guard.tick();
    if (slots[i].hash == hash && suffix_at(out, slots[i].offset, folded)) {
      return slots[i].offset;
    }
    i = (i + 1) & mask_;
  }
  return std::nullopt;
}

void NameCompressor::insert_if_absent(const Bytes& out, std::uint64_t hash,
                      ByteView folded, std::uint32_t offset) {
  if ((count_ + 1) * 4 >= (mask_ + 1) * 3) grow();
  Slot* slots = this->slots();
  std::size_t i = hash & mask_;
  DFX_BOUNDED_LOOP(guard, mask_ + 2);
  while (slots[i].offset != kEmptySlot) {
    guard.tick();
    if (slots[i].hash == hash && suffix_at(out, slots[i].offset, folded)) {
      return;  // first occurrence wins, like the old map's emplace
    }
    i = (i + 1) & mask_;
  }
  slots[i] = Slot{hash, offset};
  ++count_;
}

void NameCompressor::grow() {
  // The old table (inline, or the heap block) stays untouched until the
  // new one replaces it.
  const Slot* old = slots();
  const std::size_t old_size = mask_ + 1;
  std::vector<Slot> next(old_size * 2);
  mask_ = next.size() - 1;
  for (std::size_t k = 0; k < old_size; ++k) {
    const Slot& s = old[k];
    if (s.offset == kEmptySlot) continue;
    std::size_t i = s.hash & mask_;
    DFX_BOUNDED_LOOP(guard, next.size() + 1);
    while (next[i].offset != kEmptySlot) {
      guard.tick();
      i = (i + 1) & mask_;
    }
    next[i] = s;
  }
  heap_ = std::move(next);
}

void write_question(Bytes& out, NameCompressor& comp,
                    const Question& question) {
  comp.write_name(out, question.qname);
  append_u16(out, static_cast<std::uint16_t>(question.qtype));
  append_u16(out, static_cast<std::uint16_t>(question.qclass));
}

void write_record(Bytes& out, NameCompressor& comp, const RecordRef& rr) {
  comp.write_name(out, rr.owner);
  append_u16(out, static_cast<std::uint16_t>(rr.type));
  append_u16(out, static_cast<std::uint16_t>(rr.rrclass));
  append_u32(out, rr.ttl);
  // RDATA embedded names are written uncompressed (required for DNSSEC
  // types, simplest-correct for the rest), straight into `out`; RDLENGTH
  // is patched once the RDATA is written.
  const std::size_t length_at = out.size();
  append_u16(out, 0);
  append_rdata_wire(out, rr.rdata);
  const std::size_t length = out.size() - length_at - 2;
  DFX_CHECK(length <= 0xFFFF, "RDATA of %zu octets", length);
  out[length_at] = static_cast<std::uint8_t>(length >> 8);
  out[length_at + 1] = static_cast<std::uint8_t>(length & 0xFF);
}

namespace {

/// Read the record body (class/ttl/rdata) once owner and type are known.
[[nodiscard]] std::optional<ResourceRecord> read_record_body(
    WireReader& r, Name owner, RRType type) {
  ResourceRecord rr;
  rr.owner = std::move(owner);
  rr.type = type;
  rr.rrclass = static_cast<RRClass>(r.read_u16());
  rr.ttl = r.read_u32();
  const std::uint16_t rdlength = r.read_u16();
  const ByteView rdata_wire = r.read_view(rdlength);
  if (!r.ok()) return std::nullopt;
  auto rdata = rdata_from_wire(rr.type, rdata_wire);
  if (!rdata) return std::nullopt;
  rr.rdata = *std::move(rdata);
  return rr;
}

/// Decode an OPT record body (owner and type already read; root owner
/// already checked per RFC 6891 §6.1.2).
[[nodiscard]] std::optional<EdnsInfo> read_opt_body(WireReader& r) {
  EdnsInfo edns;
  edns.udp_size = r.read_u16();  // the CLASS field
  const std::uint32_t ttl = r.read_u32();
  edns.ext_rcode = static_cast<std::uint8_t>((ttl >> 24) & 0xFF);
  edns.version = static_cast<std::uint8_t>((ttl >> 16) & 0xFF);
  edns.do_bit = (ttl & 0x8000) != 0;
  const std::uint16_t rdlength = r.read_u16();
  const ByteView options = r.read_view(rdlength);
  if (!r.ok()) return std::nullopt;
  // Options are TLVs: walk them so a truncated TLV is rejected here
  // rather than surviving to confuse a consumer.
  WireReader opts(options);
  DFX_BOUNDED_LOOP(guard, options.size() + 1);
  while (opts.ok() && opts.remaining() > 0) {
    guard.tick();     // each round consumes >= 4 octets
    opts.read_u16();  // OPTION-CODE
    const std::uint16_t olen = opts.read_u16();
    opts.read_view(olen);
  }
  if (!opts.ok()) return std::nullopt;
  edns.options = Bytes(options.begin(), options.end());
  return edns;
}

void write_opt(Bytes& out, const EdnsInfo& edns) {
  out.push_back(0);  // root owner
  append_u16(out, kOptType);
  append_u16(out, edns.udp_size);
  const std::uint32_t ttl = (static_cast<std::uint32_t>(edns.ext_rcode) << 24) |
                            (static_cast<std::uint32_t>(edns.version) << 16) |
                            (edns.do_bit ? 0x8000u : 0u);
  append_u32(out, ttl);
  DFX_DCHECK(edns.options.size() <= 0xFFFF);
  append_u16(out, static_cast<std::uint16_t>(edns.options.size()));
  append(out, edns.options);
}

}  // namespace

Bytes encode_message(const Message& msg) {
  Bytes out;
  append_u16(out, msg.header.id);
  std::uint16_t flags = 0;
  if (msg.header.qr) flags |= 0x8000;
  flags |= static_cast<std::uint16_t>((msg.header.opcode & 0xF) << 11);
  if (msg.header.aa) flags |= 0x0400;
  if (msg.header.tc) flags |= 0x0200;
  if (msg.header.rd) flags |= 0x0100;
  if (msg.header.ra) flags |= 0x0080;
  if (msg.header.ad) flags |= 0x0020;
  if (msg.header.cd) flags |= 0x0010;
  flags |= static_cast<std::uint16_t>(msg.header.rcode) & 0xF;
  append_u16(out, flags);
  const std::size_t arcount =
      msg.additionals.size() + (msg.edns.has_value() ? 1 : 0);
  DFX_DCHECK(msg.questions.size() <= 0xFFFF && msg.answers.size() <= 0xFFFF &&
             msg.authorities.size() <= 0xFFFF && arcount <= 0xFFFF);
  append_u16(out, static_cast<std::uint16_t>(msg.questions.size()));
  append_u16(out, static_cast<std::uint16_t>(msg.answers.size()));
  append_u16(out, static_cast<std::uint16_t>(msg.authorities.size()));
  append_u16(out, static_cast<std::uint16_t>(arcount));

  NameCompressor comp;
  for (const auto& q : msg.questions) write_question(out, comp, q);
  for (const auto& rr : msg.answers) write_record(out, comp, rr);
  for (const auto& rr : msg.authorities) write_record(out, comp, rr);
  for (const auto& rr : msg.additionals) write_record(out, comp, rr);
  if (msg.edns) write_opt(out, *msg.edns);
  return out;
}

[[nodiscard]] std::optional<Message> decode_message(ByteView wire) {
  WireReader r(wire);
  Message msg;
  msg.header.id = r.read_u16();
  const std::uint16_t flags = r.read_u16();
  if (!r.ok()) return std::nullopt;
  msg.header.qr = (flags & 0x8000) != 0;
  msg.header.opcode = static_cast<std::uint8_t>((flags >> 11) & 0xF);
  msg.header.aa = (flags & 0x0400) != 0;
  msg.header.tc = (flags & 0x0200) != 0;
  msg.header.rd = (flags & 0x0100) != 0;
  msg.header.ra = (flags & 0x0080) != 0;
  msg.header.ad = (flags & 0x0020) != 0;
  msg.header.cd = (flags & 0x0010) != 0;
  msg.header.rcode = static_cast<RCode>(flags & 0xF);
  const std::uint16_t qd = r.read_u16();
  const std::uint16_t an = r.read_u16();
  const std::uint16_t ns = r.read_u16();
  const std::uint16_t ar = r.read_u16();
  if (!r.ok()) return std::nullopt;
  // The counts are attacker data. A question costs at least 5 wire bytes
  // (root name + type + class) and a record at least 11 (+ TTL + RDLENGTH),
  // so counts that cannot possibly fit in the remaining bytes are malformed
  // — rejecting them here bounds every section loop below before a single
  // name is parsed (KeyTrap-style count inflation).
  if (5u * qd + 11u * (static_cast<std::size_t>(an) + ns + ar) >
      r.remaining()) {
    return std::nullopt;
  }
  for (int i = 0; i < qd; ++i) {
    Question q;
    auto qname = r.read_name();
    if (!qname) return std::nullopt;
    q.qname = *std::move(qname);
    q.qtype = static_cast<RRType>(r.read_u16());
    q.qclass = static_cast<RRClass>(r.read_u16());
    if (!r.ok()) return std::nullopt;
    msg.questions.push_back(std::move(q));
  }
  const auto read_section = [&](int count,
                                std::vector<ResourceRecord>& section,
                                bool allow_opt) {
    for (int i = 0; i < count; ++i) {
      auto owner = r.read_name();
      if (!owner) return false;
      const std::uint16_t type = r.read_u16();
      if (!r.ok()) return false;
      if (allow_opt && type == kOptType) {
        if (msg.edns.has_value()) return false;   // RFC 6891 §6.1.1
        if (!owner->is_root()) return false;      // RFC 6891 §6.1.2
        msg.edns = read_opt_body(r);
        if (!msg.edns) return false;
        continue;
      }
      auto rr = read_record_body(r, *std::move(owner),
                                 static_cast<RRType>(type));
      if (!rr) return false;
      section.push_back(*std::move(rr));
    }
    return true;
  };
  if (!read_section(an, msg.answers, false)) return std::nullopt;
  if (!read_section(ns, msg.authorities, false)) return std::nullopt;
  if (!read_section(ar, msg.additionals, true)) return std::nullopt;
  // A message followed by trailing bytes is malformed: nothing in DNS is
  // allowed after the last counted record, and accepting junk here would
  // let decode(encode(decode(x))) disagree with decode(x).
  if (r.remaining() != 0) return std::nullopt;
  return msg;
}

}  // namespace dfx::dns
