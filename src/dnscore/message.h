// DNS message format (RFC 1035 §4) with name compression: the one wire
// codec.
//
// `decode_message` materializes owned `Name`/`Rdata` values (names through
// wire.h's `scan_name_pieces`) and is total on arbitrary bytes;
// `encode_message` is its inverse and writes every packet
// `server::WireFrontend` serves. The in-process authoritative servers the
// replay probes exchange typed structures and never touch wire bytes.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "dnscore/name.h"
#include "dnscore/rr.h"
#include "dnscore/rrset.h"
#include "util/bytes.h"
#include "util/check.hpp"

namespace dfx::dns {

struct Header {
  std::uint16_t id = 0;
  bool qr = false;  // response flag
  std::uint8_t opcode = 0;
  bool aa = false;  // authoritative answer
  bool tc = false;
  bool rd = false;
  bool ra = false;
  bool ad = false;  // authenticated data
  bool cd = false;  // checking disabled
  RCode rcode = RCode::kNoError;
};

struct Question {
  Name qname;
  RRType qtype = RRType::kA;
  RRClass qclass = RRClass::kIN;
};

/// The OPT pseudo-record's TYPE value (RFC 6891). OPT never enters an
/// RRset or a zone, so it is deliberately *not* an RRType enumerator: the
/// codec lifts it into `EdnsInfo` on decode and synthesizes it on encode.
constexpr std::uint16_t kOptType = 41;

/// Classic (pre-EDNS) UDP payload ceiling (RFC 1035 §4.2.1).
constexpr std::uint16_t kClassicUdpSize = 512;

/// EDNS(0) state carried by the OPT pseudo-record (RFC 6891). The wire
/// fields ride in the record's CLASS (udp_size) and TTL (ext_rcode /
/// version / DO); `options` is the raw RDATA (option TLVs, unparsed).
struct EdnsInfo {
  // Decoded straight off the OPT record: every field is attacker data
  // until a bound check proves otherwise (dfixer_lint taint pack).
  DFX_TAINTED std::uint16_t udp_size = kClassicUdpSize;
  DFX_TAINTED std::uint8_t ext_rcode = 0;  // upper 8 bits of 12-bit RCODE
  DFX_TAINTED std::uint8_t version = 0;
  bool do_bit = false;
  DFX_TAINTED Bytes options;

  bool operator==(const EdnsInfo&) const = default;
};

struct Message {
  Header header;
  std::vector<Question> questions;
  std::vector<ResourceRecord> answers;
  std::vector<ResourceRecord> authorities;
  std::vector<ResourceRecord> additionals;
  /// Present iff the message carries an OPT record. Encoded as the last
  /// additional; counted in ARCOUNT but never stored in `additionals`.
  std::optional<EdnsInfo> edns;
};

/// Writes names with RFC 1035 §4.1.4 compression. Pointers may only target
/// prior occurrences of a (case-folded) suffix, at offsets counted from
/// the start of `out`, so one compressor serves one message buffer.
///
/// The table is an open-addressed map of (suffix hash, message offset).
/// Suffix hashes are computed right-to-left in one pass over the name's
/// canonical wire bytes, so a full write_name is O(name bytes) plus O(1)
/// probes per label. Hash hits are verified by walking the
/// already-emitted output bytes (following pointers), so collisions cannot
/// corrupt the output; the emitted bytes are identical to the old
/// map-based compressor's (pinned by a regression test). The first table
/// is inline (a response body registers a dozen or so suffixes); it moves
/// to the heap, doubling, only when it fills. The output does not depend
/// on the table size.
class NameCompressor {
 public:
  void write_name(Bytes& out, const Name& name);

 private:
  static constexpr std::uint32_t kEmptySlot = 0xFFFFFFFFu;

  struct Slot {
    std::uint64_t hash = 0;
    std::uint32_t offset = kEmptySlot;
  };

  /// True if the name chain emitted at message offset `offset` spells the
  /// canonical wire suffix `folded` (case-folded). Follows compression
  /// pointers; the walked bytes were all written by this compressor, so
  /// the chain is well-formed by construction.
  bool suffix_at(const Bytes& out, std::uint32_t offset,
                 ByteView folded) const;
  [[nodiscard]] std::optional<std::uint32_t> lookup(const Bytes& out,
                                                    std::uint64_t hash,
                                                    ByteView folded) const;
  void insert_if_absent(const Bytes& out, std::uint64_t hash,
                        ByteView folded, std::uint32_t offset);
  void grow();

  static constexpr std::size_t kInlineSlots = 32;

  /// The table in use: the inline one until the first grow().
  Slot* slots() { return heap_.empty() ? inline_.data() : heap_.data(); }
  const Slot* slots() const {
    return heap_.empty() ? inline_.data() : heap_.data();
  }

  std::array<Slot, kInlineSlots> inline_{};
  std::vector<Slot> heap_;
  std::size_t mask_ = kInlineSlots - 1;
  std::size_t count_ = 0;
};

/// Append one question (name, QTYPE, QCLASS) to `out`.
void write_question(Bytes& out, NameCompressor& comp,
                    const Question& question);

/// Append one record to `out`: the compressed owner, TYPE, CLASS, TTL,
/// RDLENGTH and the RDATA, written in place (embedded names uncompressed
/// and canonical) with RDLENGTH patched afterwards. encode_message writes
/// every record with it, and so does the serving layer's response body
/// encoder (src/server/frontend), which reads records where they live.
void write_record(Bytes& out, NameCompressor& comp, const RecordRef& rr);

/// Encode with owner-name compression across all sections. A present
/// `edns` field emits the OPT pseudo-record at the end of the additional
/// section.
Bytes encode_message(const Message& msg);

/// Decode; nullopt on malformed input (including trailing bytes after the
/// last record, or more than one OPT record — RFC 6891 §6.1.1). An OPT
/// record in the additional section decodes into `edns`, not `additionals`.
[[nodiscard]] std::optional<Message> decode_message(ByteView wire);

}  // namespace dfx::dns
