#include "server/frontend.h"

#include <algorithm>
#include <array>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "dnscore/wire.h"
#include "util/check.hpp"
#include "util/strings.h"

namespace dfx::server {
namespace {

DFX_TAINT_PASSTHROUGH
std::uint16_t read_be16(ByteView data, std::size_t offset) {
  return static_cast<std::uint16_t>(
      (static_cast<std::uint16_t>(data[offset]) << 8) | data[offset + 1]);
}

DFX_TAINT_PASSTHROUGH
std::uint32_t read_be32(ByteView data, std::size_t offset) {
  return (static_cast<std::uint32_t>(data[offset]) << 24) |
         (static_cast<std::uint32_t>(data[offset + 1]) << 16) |
         (static_cast<std::uint32_t>(data[offset + 2]) << 8) |
         static_cast<std::uint32_t>(data[offset + 3]);
}

AnswerBody rcode_only_body(dns::RCode rcode) {
  AnswerBody body;
  body.rcode = rcode;
  return body;
}

/// Skip one (possibly compressed) owner name inside a record section.
/// Tolerant: the frontend only needs record *boundaries* here. False on
/// truncation, reserved label bits, or a name longer than the RFC 1035
/// ceiling.
bool skip_name(ByteView query, std::size_t& pos) {
  const std::size_t start = pos;
  DFX_BOUNDED_LOOP(guard, 130);  // <= 127 labels in a 255-octet name
  while (true) {
    guard.tick();
    if (pos >= query.size()) return false;
    const std::uint8_t len = query[pos];
    if (len == 0) {
      ++pos;
      return true;
    }
    if ((len & 0xC0) == 0xC0) {  // compression pointer terminates the name
      if (pos + 2 > query.size()) return false;
      pos += 2;
      return true;
    }
    if ((len & 0xC0) != 0) return false;  // reserved 0x40/0x80 label types
    if (pos + 1 + len > query.size()) return false;
    pos += 1 + len;
    if (pos - start > 255) return false;
  }
}

}  // namespace

WireFrontend::WireFrontend(const ZoneStore& store, AnswerCache* cache)
    : store_(store),
      cache_(cache),
      queries_(metrics::Registry::global().counter("server.queries")),
      dropped_(metrics::Registry::global().counter("server.dropped")),
      errors_(metrics::Registry::global().counter("server.errors")),
      truncated_(metrics::Registry::global().counter("server.truncated")) {}

Bytes WireFrontend::header_only(std::uint16_t id, std::uint8_t opcode,
                                bool rd, bool cd, dns::RCode rcode) {
  Bytes out;
  out.reserve(12);
  append_u16(out, id);
  std::uint16_t flags = 0x8000;  // QR
  flags |= static_cast<std::uint16_t>((opcode & 0xF) << 11);
  if (rd) flags |= 0x0100;
  if (cd) flags |= 0x0010;
  flags |= static_cast<std::uint16_t>(rcode) & 0xF;
  append_u16(out, flags);
  for (int i = 0; i < 4; ++i) append_u16(out, 0);
  return out;
}

AnswerBody WireFrontend::build_body(const dns::Question& question,
                                    const authserver::QueryResult& result,
                                    bool do_bit) {
  AnswerBody body;
  body.rcode = result.rcode;
  body.aa = result.authoritative;
  // The header and question go first so that compression offsets count
  // them, then leave the buffer: pointers in the record sections target
  // the question region, whose length depends only on the
  // (spelling-independent) label lengths — so the body can be re-prefixed
  // with any client's spelling of the same name.
  Bytes& out = body.bytes;
  out.reserve(512);
  out.resize(12);
  dns::NameCompressor comp;
  dns::write_question(out, comp, question);
  const std::size_t prefix = out.size();
  DFX_CHECK(prefix == 12 + question.qname.wire_length() + 4);
  const auto write = [&](const authserver::Section& section) {
    std::size_t count = 0;
    for (const dns::RecordRef rr : section) {
      // Without DO the client gets no DNSSEC records (RFC 4035 §3.1): no
      // RRSIG and no denial records in any section. DS stays — it is
      // ordinary answer data at the parent. Applied identically on the
      // cached and uncached paths (DO is part of the cache key).
      if (!do_bit && (rr.type == dns::RRType::kRRSIG ||
                      rr.type == dns::RRType::kNSEC ||
                      rr.type == dns::RRType::kNSEC3)) {
        continue;
      }
      dns::write_record(out, comp, rr);
      ++count;
    }
    DFX_CHECK(count <= 0xFFFF);
    return static_cast<std::uint16_t>(count);
  };
  body.ancount = write(result.answers);
  body.nscount = write(result.authorities);
  body.arcount = write(result.additionals);
  out.erase(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(prefix));
  return body;
}

// The one reserve()-sized output buffer IS the response datagram.
// dfx-lint: allow(hot-path-cost): unavoidable per-packet output allocation.
Bytes WireFrontend::assemble(std::uint16_t id, bool rd, bool cd,
                             ByteView question_wire, const AnswerBody& body,
                             const std::optional<dns::EdnsInfo>& request_edns,
                             std::uint8_t ext_rcode) const {
  const bool has_opt = request_edns.has_value();
  const std::size_t opt_len = has_opt ? 11 : 0;
  const std::size_t limit =
      has_opt ? std::max<std::size_t>(dns::kClassicUdpSize,
                                      request_edns->udp_size)
              : dns::kClassicUdpSize;
  const std::size_t full =
      12 + question_wire.size() + body.bytes.size() + opt_len;
  const bool tc = full > limit;
  if (tc) truncated_.add();

  Bytes out;
  out.reserve(tc ? 12 + question_wire.size() + opt_len : full);
  append_u16(out, id);
  std::uint16_t flags = 0x8000;  // QR; opcode 0 (assemble only serves QUERY)
  if (body.aa) flags |= 0x0400;
  if (tc) flags |= 0x0200;
  if (rd) flags |= 0x0100;
  if (cd) flags |= 0x0010;
  flags |= static_cast<std::uint16_t>(body.rcode) & 0xF;
  append_u16(out, flags);
  append_u16(out, 1);  // QDCOUNT: the echoed question survives truncation
  append_u16(out, tc ? 0 : body.ancount);
  append_u16(out, tc ? 0 : body.nscount);
  append_u16(out,
             static_cast<std::uint16_t>((tc ? 0 : body.arcount) +
                                        (has_opt ? 1 : 0)));
  append(out, question_wire);
  if (!tc) append(out, body.bytes);
  if (has_opt) {
    out.push_back(0);  // root owner
    append_u16(out, dns::kOptType);
    append_u16(out, kResponseUdpSize);
    const std::uint32_t ttl = (static_cast<std::uint32_t>(ext_rcode) << 24) |
                              (request_edns->do_bit ? 0x8000u : 0u);
    append_u32(out, ttl);
    append_u16(out, 0);  // no options
  }
  return out;
}

Bytes WireFrontend::serve(DFX_TAINTED ByteView query) const {
  queries_.add();
  if (query.size() < 12) {
    dropped_.add();
    return {};
  }
  const std::uint16_t id = read_be16(query, 0);
  const std::uint16_t flags = read_be16(query, 2);
  if ((flags & 0x8000) != 0) {
    // A response, not a query: drop instead of answering (answering
    // responses is how reflection loops start).
    dropped_.add();
    return {};
  }
  const auto opcode = static_cast<std::uint8_t>((flags >> 11) & 0xF);
  const bool rd = (flags & 0x0100) != 0;
  const bool cd = (flags & 0x0010) != 0;
  if (opcode != 0) {
    errors_.add();
    return header_only(id, opcode, rd, cd, dns::RCode::kNotImp);
  }
  const std::uint16_t qdcount = read_be16(query, 4);
  const std::uint16_t ancount = read_be16(query, 6);
  const std::uint16_t nscount = read_be16(query, 8);
  const std::uint16_t arcount = read_be16(query, 10);
  if (qdcount != 1) {
    errors_.add();
    return header_only(id, 0, rd, cd, dns::RCode::kFormErr);
  }

  // --- Question scan. One pass builds the cache key (canonical wire
  // form) without constructing a Name; the raw bytes double as the echo.
  // The key lives on the stack — canonical qname wire form (<= 255
  // octets) + 2 QTYPE octets + 1 DO octet — so the hit path never touches
  // the heap for it.
  std::array<char, 260> kbuf;
  std::size_t klen = 0;
  std::size_t pos = 12;
  {
    DFX_BOUNDED_LOOP(guard, 130);
    while (true) {
      guard.tick();
      if (pos >= query.size()) {
        errors_.add();
        return header_only(id, 0, rd, cd, dns::RCode::kFormErr);
      }
      const std::uint8_t len = query[pos];
      if (len == 0) {
        kbuf[klen++] = '\0';
        ++pos;
        break;
      }
      // Reject compressed (and reserved-type) QNAME labels outright: with
      // nothing but the header before the question there is no legitimate
      // pointer target, and an uncompressed QNAME is what lets the cached
      // body's compression offsets line up under any client spelling.
      if (len > 63 || pos + 1 + len > query.size() ||
          (pos - 12) + 2 + static_cast<std::size_t>(len) > 255) {
        errors_.add();
        return header_only(id, 0, rd, cd, dns::RCode::kFormErr);
      }
      // klen mirrors (pos - 12), which the length check above keeps
      // under 255 — the 260-byte buffer cannot overflow.
      DFX_DCHECK(klen + 1 + len < kbuf.size());
      kbuf[klen++] = static_cast<char>(len);
      for (std::size_t i = pos + 1; i <= pos + len; ++i) {
        kbuf[klen++] = ascii_lower(static_cast<char>(query[i]));
      }
      pos += 1 + static_cast<std::size_t>(len);
    }
  }
  if (pos + 4 > query.size()) {
    errors_.add();
    return header_only(id, 0, rd, cd, dns::RCode::kFormErr);
  }
  const std::uint16_t qtype_raw = read_be16(query, pos);
  const std::uint16_t qclass_raw = read_be16(query, pos + 2);
  pos += 4;
  const ByteView question_wire = query.subspan(12, pos - 12);

  // --- Record scan: skip AN/NS bodies, lift the OPT out of AR. From here
  // on a parse failure is FORMERR *with* the question echoed.
  std::optional<dns::EdnsInfo> edns;
  const auto parse_section = [&](std::uint16_t count,
                                 bool allow_opt) -> bool {
    DFX_BOUNDED_LOOP(guard, static_cast<std::size_t>(count) + 1);
    for (std::uint16_t i = 0; i < count; ++i) {
      guard.tick();
      const std::size_t owner_pos = pos;
      if (!skip_name(query, pos)) return false;
      if (pos + 10 > query.size()) return false;
      const std::uint16_t type = read_be16(query, pos);
      const std::uint16_t class_field = read_be16(query, pos + 2);
      const std::uint32_t ttl = read_be32(query, pos + 4);
      const std::uint16_t rdlen = read_be16(query, pos + 8);
      pos += 10;
      if (pos + rdlen > query.size()) return false;
      if (allow_opt && type == dns::kOptType) {
        if (edns.has_value()) return false;       // RFC 6891 §6.1.1
        if (query[owner_pos] != 0) return false;  // owner must be root
        if (rdlen > kMaxEdnsOptionBytes) return false;
        dns::EdnsInfo info;
        info.udp_size = class_field;
        info.ext_rcode = static_cast<std::uint8_t>((ttl >> 24) & 0xFF);
        info.version = static_cast<std::uint8_t>((ttl >> 16) & 0xFF);
        info.do_bit = (ttl & 0x8000) != 0;
        // Walk the option TLVs so a truncated option is FORMERR here.
        std::size_t op = pos;
        const std::size_t end = pos + rdlen;
        DFX_BOUNDED_LOOP(tlv_guard, static_cast<std::size_t>(rdlen) + 1);
        while (op < end) {
          tlv_guard.tick();  // each round consumes >= 4 octets
          if (op + 4 > end) return false;
          const std::uint16_t olen = read_be16(query, op + 2);
          op += 4;
          if (op + olen > end) return false;
          op += olen;
        }
        // The option payload is validated (above) but never re-emitted —
        // assemble() answers with an empty option list — so it is not
        // copied out of the datagram.
        edns = info;
      }
      pos += rdlen;
    }
    return true;
  };
  if (!parse_section(ancount, false) || !parse_section(nscount, false) ||
      !parse_section(arcount, true) || pos != query.size()) {
    errors_.add();
    return assemble(id, rd, cd, question_wire,
                    rcode_only_body(dns::RCode::kFormErr), std::nullopt);
  }
  if (edns && edns->version != 0) {
    // BADVERS: RCODE 16 = ext_rcode 1 with zero low bits (RFC 6891 §6.1.3).
    errors_.add();
    return assemble(id, rd, cd, question_wire,
                    rcode_only_body(dns::RCode::kNoError), edns,
                    /*ext_rcode=*/1);
  }
  if (qclass_raw != static_cast<std::uint16_t>(dns::RRClass::kIN)) {
    return assemble(id, rd, cd, question_wire,
                    rcode_only_body(dns::RCode::kRefused), edns);
  }

  const bool do_bit = edns.has_value() && edns->do_bit;
  const auto qtype = static_cast<dns::RRType>(qtype_raw);
  kbuf[klen++] = static_cast<char>(qtype_raw >> 8);
  kbuf[klen++] = static_cast<char>(qtype_raw & 0xFF);
  kbuf[klen++] = do_bit ? '\1' : '\0';
  const std::string_view key(kbuf.data(), klen);

  const std::uint64_t epoch = cache_ != nullptr ? cache_->epoch() : 0;
  if (cache_ != nullptr) {
    // The response is assembled while the Hit holds its shard's read side,
    // straight from the resident body; a miss holds nothing, so the
    // inserts below cannot wait on this thread.
    if (const auto hit = cache_->lookup(key)) {
      return assemble(id, rd, cd, question_wire, *hit, edns);
    }
  }

  // Miss (or cache-off): now pay for the Name, one flat buffer copied out
  // of the question. The question scan only validated label *lengths*;
  // read_name also applies the rules of presentation form (a '.' inside a
  // wire label splits it, a trailing '.' is dropped, whitespace and control
  // octets are refused), so a name that breaks them fails here. No zone can
  // hold such a name — refuse it.
  dns::WireReader reader(query);
  reader.seek(12);
  auto qname = reader.read_name();
  if (!qname.has_value()) {
    errors_.add();
    AnswerBody refused = rcode_only_body(dns::RCode::kRefused);
    if (cache_ != nullptr) cache_->insert(key, refused, epoch);
    return assemble(id, rd, cd, question_wire, refused, edns);
  }
  const dns::Question question{*std::move(qname), qtype, dns::RRClass::kIN};

  AnswerBody body = rcode_only_body(dns::RCode::kRefused);
  if (auto hosted = store_.find(question.qname, question.qtype)) {
    const dns::Name& apex = hosted->zone.apex();
    std::optional<authserver::QueryResult> result;
    if (cache_ != nullptr) {
      result = cache_->synthesize(apex, question.qname, question.qtype, epoch);
    }
    if (!result) {
      // Synthesis refused, or another thread held the negative tier: walk
      // the zone, which gives the same bytes. The result pins the version,
      // so `hosted` (and `apex` with it) stays alive after the move.
      result = authserver::answer(std::move(hosted), question.qname,
                                  question.qtype);
      if (cache_ != nullptr) cache_->observe(apex, *result, epoch);
    }
    body = build_body(question, *result, do_bit);
  }
  if (cache_ != nullptr) cache_->insert(key, body, epoch);
  return assemble(id, rd, cd, question_wire, body, edns);
}

void connect_invalidation(ZoneStore& store, AnswerCache& cache) {
  store.subscribe([&cache](std::uint64_t) { cache.invalidate_all(); });
}

}  // namespace dfx::server
