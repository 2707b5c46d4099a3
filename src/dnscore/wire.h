// Wire-format reader/writer and RDATA wire decoding.
//
// rdata_to_wire (canonical encode) lives with the Rdata types; this header
// adds the inverse direction plus a bounds-checked cursor the message codec
// and tests use. Every wire name goes through one scanner,
// `scan_name_pieces`; `WireReader::read_name` writes the owned `Name`'s
// flat buffer straight from its pieces.
#pragma once

#include <optional>

#include "dnscore/name.h"
#include "dnscore/rdata.h"
#include "dnscore/rr.h"
#include "util/bytes.h"
#include "util/check.hpp"

namespace dfx::dns {

/// A DNS name is at most 255 wire octets, so at most 127 one-octet labels.
constexpr std::size_t kMaxNamePieces = 127;

/// Zero-copy scan of one (possibly compressed) wire name at `pos` in
/// `data`. On success: label pieces (string_views aliasing `data` — they
/// live exactly as long as the buffer behind `data`, no copy is made) are
/// written to `pieces[0..*n_pieces)`, `pos` advances past the name's first
/// segment (the terminal zero octet or the first compression pointer), and
/// true is returned; `pieces` must hold at least kMaxNamePieces entries.
/// Returns false on malformed names with the exact acceptance rules of
/// `WireReader::read_name` (bounds, <= 64 pointer jumps, backward-only
/// pointers, <= 255 total octets, dns::label_octet_ok).
[[nodiscard]] bool scan_name_pieces(ByteView data, std::size_t& pos,
                                    std::string_view* pieces,
                                    std::size_t* n_pieces);

/// Bounds-checked read cursor over a wire buffer.
class WireReader {
 public:
  explicit WireReader(ByteView data) : data_(data) {}

  std::size_t position() const { return pos_; }
  std::size_t remaining() const { return data_.size() - pos_; }
  bool ok() const { return ok_; }

  // Every value read off the wire is attacker-controlled: bound it with a
  // DFX_CHECK (or an explicit comparison) before it sizes or indexes
  // anything. The taint pack in dfixer_lint enforces this.
  DFX_TAINTED std::uint8_t read_u8();
  DFX_TAINTED std::uint16_t read_u16();
  DFX_TAINTED std::uint32_t read_u32();
  DFX_TAINTED Bytes read_bytes(std::size_t n);

  /// Zero-copy variant of read_bytes: the returned view ALIASES the buffer
  /// this reader was constructed over — it is valid only while that buffer
  /// is, and must not be retained past it. Prefer this on hot paths where
  /// the bytes are consumed immediately (hash, compare, re-encode).
  DFX_TAINTED ByteView read_view(std::size_t n);

  /// Read a (possibly compressed) domain name; compression pointers may
  /// reference earlier message offsets only.
  DFX_COLD("owned Name construction is the cache-miss path; hits key on raw wire bytes")
  [[nodiscard]] std::optional<Name> read_name();

  void seek(std::size_t pos);

 private:
  ByteView data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// Decode the RDATA of `type` from its wire form. Returns nullopt for
/// malformed data or unknown types.
[[nodiscard]] std::optional<Rdata> rdata_from_wire(RRType type,
                                                   ByteView wire);

}  // namespace dfx::dns
