// Wire-level query frontend: the byte-in/byte-out serving loop.
//
// `serve()` takes one raw UDP query datagram and returns the raw response
// datagram (empty = drop, as a real server would for non-queries). It
// handles everything transport-level — header validation, EDNS(0)
// negotiation (bufsize, DO, BADVERS), TC truncation, question echo with
// the client's 0x20 spelling — and delegates answer content to the
// ZoneStore / AnswerCache pair.
//
// Response assembly is split so one cached `AnswerBody` (the encoded
// record sections, no header/question/OPT) serves every message ID,
// name spelling and buffer size: compression pointers in the body target
// the question region, whose *length* is spelling-independent. A miss
// builds no dns::Message: `build_body` writes the answer's record views
// straight into the body buffer with dnscore's record writer. Both the
// cache hit and miss paths funnel through the same assembly and the same
// DO-bit section filter, which is what makes cache-on and cache-off
// responses bit-identical (the QpsFixture ctest digest-asserts this).
//
// Error handling (satellite of PR 6): malformed packets get FORMERR,
// unknown opcodes NOTIMP, EDNS version > 0 BADVERS — never an assert;
// test_fuzz drives random and adversarial bytes through serve().
//
// Thread-safety: WireFrontend is immutable after construction; serve()
// is safe from any number of threads. A cache hit writes only memory of
// the serving thread: its stripe of each metrics::Counter and its reader
// slot in the AnswerCache shard, whose read side it holds while it
// assembles the response. ZoneStore lookups on the miss path take the
// store's read side the same way.
#pragma once

#include <cstdint>
#include <optional>

#include "dnscore/message.h"
#include "dnscore/name.h"
#include "dnscore/rr.h"
#include "server/answercache.h"
#include "server/zonestore.h"
#include "util/bytes.h"
#include "util/check.hpp"
#include "util/metrics.h"

namespace dfx::server {

/// Option TLV payloads larger than this are rejected as FORMERR: no
/// option the engine understands comes close, and accepting arbitrarily
/// large OPT RDATA would let one datagram pin server memory.
constexpr std::size_t kMaxEdnsOptionBytes = 4096;

/// Payload size advertised in our response OPT (the common
/// fragmentation-safe default, RFC 9715).
constexpr std::uint16_t kResponseUdpSize = 1232;

class WireFrontend {
 public:
  /// `cache` may be null: every query then takes the full zone walk
  /// (the cache-off reference the digest tests compare against).
  /// The frontend borrows both — they must outlive it. With a cache
  /// attached, negatives are synthesized from harvested NSEC/NSEC3
  /// (RFC 8198) before the zone walk.
  explicit WireFrontend(const ZoneStore& store, AnswerCache* cache = nullptr);

  /// Serve one datagram. Empty result = drop (short packet or QR set).
  /// The buffer is a raw attacker-controlled datagram; every length and
  /// count read out of it must be bounds-checked before use.
  DFX_HOT_PATH
  Bytes serve(DFX_TAINTED ByteView query) const;

  /// The encoded record sections of `result` as the answer to `question`,
  /// DO-filtered: without DO no RRSIG, NSEC or NSEC3 record is written
  /// or counted. Records are encoded where they live (zone RRsets, for a
  /// result of authserver::answer), RDATA in place, so no message or
  /// record is copied. The bytes equal the record sections of
  /// encode_message(result.to_message(question)) with those records
  /// removed.
  DFX_COLD("body construction follows a cache miss and a zone walk")
  static AnswerBody build_body(const dns::Question& question,
                               const authserver::QueryResult& result,
                               bool do_bit);

 private:
  /// Header + question echo + body + OPT, with TC truncation against the
  /// client's buffer size. `question_wire` is the raw 5+-byte question
  /// section from the query (original spelling, no compression).
  DFX_HOT_PATH
  Bytes assemble(std::uint16_t id, bool rd, bool cd, ByteView question_wire,
                 const AnswerBody& body,
                 const std::optional<dns::EdnsInfo>& request_edns,
                 std::uint8_t ext_rcode = 0) const;

  /// 12-byte header-only error (no question could be echoed).
  DFX_COLD("header-only responses are error paths (short/NOTIMP/FORMERR)")
  static Bytes header_only(std::uint16_t id, std::uint8_t opcode, bool rd,
                           bool cd, dns::RCode rcode);

  const ZoneStore& store_;
  AnswerCache* cache_;

  metrics::Counter& queries_;
  metrics::Counter& dropped_;
  metrics::Counter& errors_;
  metrics::Counter& truncated_;
};

/// Hook the cache's epoch bump to the store's map swaps so a zone
/// reload invalidates every cached packet and harvested proof. The cache
/// must outlive the store (the listener holds a reference).
void connect_invalidation(ZoneStore& store, AnswerCache& cache);

}  // namespace dfx::server
