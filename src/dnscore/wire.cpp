#include "dnscore/wire.h"

#include <algorithm>

#include "util/check.hpp"

namespace dfx::dns {
namespace {

// A wire name chain visits at most 127 labels and 64 compression jumps;
// anything past that is a malformed or adversarial message.
constexpr std::size_t kMaxNameJumps = 64;
constexpr std::uint64_t kMaxNameLoopIterations = 128 + kMaxNameJumps;

// Longest wire name is 255 octets: 253 text octets once separators are
// counted as dots.
constexpr std::size_t kMaxNameTextLength = 253;

}  // namespace

bool scan_name_pieces(ByteView data, std::size_t& pos_io,
                      std::string_view* pieces, std::size_t* n_pieces) {
  *n_pieces = 0;
  std::size_t pos = pos_io;
  bool jumped = false;
  std::size_t jumps = 0;
  std::size_t text_len = 0;
  // Raw wire labels, zero-copy. text_len <= 253 bounds the count at 127.
  const char* raw_ptr[kMaxNamePieces + 1];
  std::uint8_t raw_len[kMaxNamePieces + 1];
  std::size_t n_raw = 0;
  DFX_BOUNDED_LOOP(guard, kMaxNameLoopIterations);
  while (true) {
    guard.tick();
    if (pos >= data.size()) return false;
    const std::uint8_t len = data[pos];
    if (len == 0) {
      if (!jumped) pos_io = pos + 1;
      break;
    }
    if ((len & 0xC0) == 0xC0) {
      if (pos + 1 >= data.size() || ++jumps > kMaxNameJumps) return false;
      const std::size_t target =
          (static_cast<std::size_t>(len & 0x3F) << 8) | data[pos + 1];
      if (target >= pos) return false;  // forward/self pointers are malformed
      if (!jumped) pos_io = pos + 2;
      jumped = true;
      pos = target;
      continue;
    }
    if ((len & 0xC0) != 0 || pos + 1 + len > data.size()) return false;
    if (n_raw != 0) ++text_len;  // the separating dot
    text_len += len;
    if (text_len > kMaxNameTextLength) return false;
    DFX_DCHECK(n_raw <= kMaxNamePieces);
    raw_ptr[n_raw] = reinterpret_cast<const char*>(data.data() + pos + 1);
    raw_len[n_raw] = len;
    ++n_raw;
    pos += 1 + len;
  }
  if (n_raw == 0) return true;  // root
  // What follows replicates Name::parse over the virtual dotted text the
  // old path materialized: "." is root, one trailing dot is stripped,
  // pieces split on '.', each piece validated. Pieces never span a wire
  // label (the virtual separator ends one), so every piece is a contiguous
  // zero-copy view.
  if (n_raw == 1 && raw_len[0] == 1 && raw_ptr[0][0] == '.') return true;
  if (raw_ptr[n_raw - 1][raw_len[n_raw - 1] - 1] == '.') --raw_len[n_raw - 1];
  std::size_t total = 1;
  const char* cur = nullptr;
  std::size_t cur_len = 0;
  const auto flush = [&]() -> bool {
    if (cur_len == 0 || cur_len > 63) return false;
    if (*n_pieces >= kMaxNamePieces) return false;
    total += cur_len + 1;
    pieces[(*n_pieces)++] = std::string_view(cur, cur_len);
    cur_len = 0;
    return true;
  };
  for (std::size_t k = 0; k < n_raw; ++k) {
    if (k > 0 && !flush()) return false;
    for (std::size_t i = 0; i < raw_len[k]; ++i) {
      const char c = raw_ptr[k][i];
      if (c == '.') {
        if (!flush()) return false;
        continue;
      }
      if (!label_octet_ok(static_cast<std::uint8_t>(c))) return false;
      if (cur_len == 0) cur = raw_ptr[k] + i;
      ++cur_len;
    }
  }
  if (!flush()) return false;
  return total <= 255;
}

std::uint8_t WireReader::read_u8() {
  DFX_DCHECK(pos_ <= data_.size());
  if (pos_ + 1 > data_.size()) {
    ok_ = false;
    return 0;
  }
  return data_[pos_++];
}

std::uint16_t WireReader::read_u16() {
  DFX_DCHECK(pos_ <= data_.size());
  if (pos_ + 2 > data_.size()) {
    ok_ = false;
    pos_ = data_.size();
    return 0;
  }
  const std::uint16_t v = dfx::read_u16(data_, pos_);
  pos_ += 2;
  return v;
}

std::uint32_t WireReader::read_u32() {
  DFX_DCHECK(pos_ <= data_.size());
  if (pos_ + 4 > data_.size()) {
    ok_ = false;
    pos_ = data_.size();
    return 0;
  }
  const std::uint32_t v = dfx::read_u32(data_, pos_);
  pos_ += 4;
  return v;
}

Bytes WireReader::read_bytes(std::size_t n) {
  DFX_DCHECK(pos_ <= data_.size());
  // `n > size - pos` instead of `pos + n > size`: the latter wraps around
  // for attacker-sized n and would pass the bounds check.
  if (n > data_.size() - pos_) {
    ok_ = false;
    pos_ = data_.size();
    return {};
  }
  Bytes out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
            data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

ByteView WireReader::read_view(std::size_t n) {
  DFX_DCHECK(pos_ <= data_.size());
  if (n > data_.size() - pos_) {  // same wrap-proof form as read_bytes
    ok_ = false;
    pos_ = data_.size();
    return {};
  }
  const ByteView out = data_.subspan(pos_, n);
  pos_ += n;
  return out;
}

void WireReader::seek(std::size_t pos) {
  if (pos > data_.size()) {
    ok_ = false;
    return;
  }
  pos_ = pos;
}

[[nodiscard]] std::optional<Name> WireReader::read_name() {
  std::string_view pieces[kMaxNamePieces];
  std::size_t n = 0;
  if (!scan_name_pieces(data_, pos_, pieces, &n)) {
    ok_ = false;
    return std::nullopt;
  }
  if (n == 0) return Name::root();
  return Name(std::span<const std::string_view>(pieces, n));
}

[[nodiscard]] std::optional<Rdata> rdata_from_wire(RRType type, ByteView wire) {
  WireReader r(wire);
  const auto finish = [&](Rdata value) -> std::optional<Rdata> {
    if (!r.ok() || r.remaining() != 0) return std::nullopt;
    return value;
  };
  switch (type) {
    case RRType::kA: {
      ARdata a;
      const ByteView b = r.read_view(4);
      if (!r.ok()) return std::nullopt;
      DFX_CHECK(b.size() == a.address.size());
      std::copy(b.begin(), b.end(), a.address.begin());
      return finish(a);
    }
    case RRType::kAAAA: {
      AaaaRdata a;
      const ByteView b = r.read_view(16);
      if (!r.ok()) return std::nullopt;
      DFX_CHECK(b.size() == a.address.size());
      std::copy(b.begin(), b.end(), a.address.begin());
      return finish(a);
    }
    case RRType::kNS: {
      NsRdata ns;
      auto name = r.read_name();
      if (!name) return std::nullopt;
      ns.nsdname = *std::move(name);
      return finish(ns);
    }
    case RRType::kCNAME: {
      CnameRdata c;
      auto name = r.read_name();
      if (!name) return std::nullopt;
      c.target = *std::move(name);
      return finish(c);
    }
    case RRType::kSOA: {
      SoaRdata soa;
      auto mname = r.read_name();
      auto rname = r.read_name();
      if (!mname || !rname) return std::nullopt;
      soa.mname = *std::move(mname);
      soa.rname = *std::move(rname);
      soa.serial = r.read_u32();
      soa.refresh = r.read_u32();
      soa.retry = r.read_u32();
      soa.expire = r.read_u32();
      soa.minimum = r.read_u32();
      return finish(soa);
    }
    case RRType::kMX: {
      MxRdata mx;
      mx.preference = r.read_u16();
      auto name = r.read_name();
      if (!name) return std::nullopt;
      mx.exchange = *std::move(name);
      return finish(mx);
    }
    case RRType::kTXT: {
      TxtRdata txt;
      DFX_BOUNDED_LOOP(guard, wire.size() + 1);
      while (r.ok() && r.remaining() > 0) {
        guard.tick();  // each round consumes >= 1 octet
        const std::uint8_t len = r.read_u8();
        const ByteView b = r.read_view(len);
        if (!r.ok()) return std::nullopt;
        txt.strings.push_back(to_string(b));
      }
      if (txt.strings.empty()) return std::nullopt;
      return finish(txt);
    }
    case RRType::kDNSKEY: {
      DnskeyRdata k;
      k.flags = r.read_u16();
      k.protocol = r.read_u8();
      k.algorithm = r.read_u8();
      k.public_key = r.read_bytes(r.remaining());
      return finish(k);
    }
    case RRType::kDS: {
      DsRdata ds;
      ds.key_tag = r.read_u16();
      ds.algorithm = r.read_u8();
      ds.digest_type = r.read_u8();
      ds.digest = r.read_bytes(r.remaining());
      if (ds.digest.empty()) return std::nullopt;
      return finish(ds);
    }
    case RRType::kRRSIG: {
      RrsigRdata sig;
      sig.type_covered = static_cast<RRType>(r.read_u16());
      sig.algorithm = r.read_u8();
      sig.labels = r.read_u8();
      sig.original_ttl = r.read_u32();
      sig.expiration = r.read_u32();
      sig.inception = r.read_u32();
      sig.key_tag = r.read_u16();
      auto signer = r.read_name();
      if (!signer) return std::nullopt;
      sig.signer = *std::move(signer);
      sig.signature = r.read_bytes(r.remaining());
      return finish(sig);
    }
    case RRType::kNSEC: {
      NsecRdata n;
      auto next = r.read_name();
      if (!next) return std::nullopt;
      n.next = *std::move(next);
      n.types = decode_type_bitmap(r.read_view(r.remaining()));
      return finish(n);
    }
    case RRType::kNSEC3: {
      Nsec3Rdata n;
      n.hash_algorithm = r.read_u8();
      n.flags = r.read_u8();
      n.iterations = r.read_u16();
      n.salt = r.read_bytes(r.read_u8());
      n.next_hashed = r.read_bytes(r.read_u8());
      if (n.next_hashed.empty()) return std::nullopt;
      n.types = decode_type_bitmap(r.read_view(r.remaining()));
      return finish(n);
    }
    case RRType::kNSEC3PARAM: {
      Nsec3ParamRdata p;
      p.hash_algorithm = r.read_u8();
      p.flags = r.read_u8();
      p.iterations = r.read_u16();
      p.salt = r.read_bytes(r.read_u8());
      return finish(p);
    }
    case RRType::kCDS: {
      auto inner = rdata_from_wire(RRType::kDS, wire);
      if (!inner) return std::nullopt;
      return Rdata(CdsRdata{std::get<DsRdata>(*inner)});
    }
    case RRType::kCDNSKEY: {
      auto inner = rdata_from_wire(RRType::kDNSKEY, wire);
      if (!inner) return std::nullopt;
      return Rdata(CdnskeyRdata{std::get<DnskeyRdata>(*inner)});
    }
  }
  return std::nullopt;
}

}  // namespace dfx::dns
