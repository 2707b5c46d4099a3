// NSEC3 hashing (RFC 5155 §5).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "dnscore/name.h"
#include "util/bytes.h"

namespace dfx::zone {

/// Iterated SHA-1 hash of a name: H(x) = SHA1(x || salt), applied
/// `iterations + 1` times over the canonical wire form of `name`.
///
/// Fronted by a memo of kNsec3MemoSlots slots per thread, direct-mapped
/// on the exact question (canonical wire form, salt, iterations): a
/// repeated question returns the stored digest without running SHA-1.
/// It takes no lock and never grows. Every hit counts into
/// `zone.nsec3_hash_memo_hits` (a per-thread stripe of the registry
/// counter, so the count is exact once the hashing threads are done).
/// Callers that budget hashing work (grok's NSEC3 hash budget) charge it
/// before each call, hit or miss.
Bytes nsec3_hash(const dns::NameView& name, ByteView salt,
                 std::uint16_t iterations);

inline constexpr std::size_t kNsec3MemoSlots = 256;

/// The memo slot nsec3_hash uses for a question, or kNsec3MemoSlots when
/// the question is too long to be memoized (tests use it to force
/// collisions).
std::size_t nsec3_memo_slot(const dns::NameView& name, ByteView salt,
                            std::uint16_t iterations);

/// The base32hex label form used as the NSEC3 owner name.
std::string nsec3_hash_label(const dns::NameView& name, ByteView salt,
                             std::uint16_t iterations);

/// Owner name of an NSEC3 record: hash-label prepended to the zone apex.
dns::Name nsec3_owner(const dns::NameView& name, const dns::Name& apex,
                      ByteView salt, std::uint16_t iterations);

}  // namespace dfx::zone
