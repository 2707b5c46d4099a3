#include "zone/nsec3.h"

#include <array>
#include <cstring>
#include <memory>

#include "crypto/sha1.h"
#include "util/check.hpp"
#include "util/codec.h"
#include "util/metrics.h"

namespace dfx::zone {
namespace {

/// A question whose canonical name and salt together exceed this skips
/// the memo and is hashed every time (real names and salts are shorter).
constexpr std::size_t kMemoKeyBytes = 80;

using MemoKey = std::array<std::uint8_t, kMemoKeyBytes>;

/// One memo slot: the exact question (canonical wire || salt, their
/// lengths and the iteration count) and its digest. A canonical wire is
/// at least one byte, so `wire_length == 0` marks an empty slot.
struct MemoSlot {
  std::uint8_t wire_length = 0;
  std::uint8_t salt_length = 0;
  std::uint16_t iterations = 0;
  MemoKey key{};
  std::array<std::uint8_t, crypto::Sha1::kDigestSize> digest{};
};

using Memo = std::array<MemoSlot, kNsec3MemoSlots>;

// Direct-mapped and per thread: no lock, a fixed size, and a colliding
// question simply replaces the slot's occupant. Allocated on a thread's
// first hash, so threads that never hash (the serving hot path) carry
// none of it.
thread_local std::unique_ptr<Memo> memo;

/// The canonical wire form of `name` followed by `salt`, in `key` (which
/// must arrive zero-filled); returns the wire length, or 0 when the two
/// do not fit.
std::size_t memo_key(const dns::NameView& name, ByteView salt, MemoKey& key) {
  const ByteView wire = name.canonical_wire();
  if (wire.size() + salt.size() > key.size()) return 0;
  std::memcpy(key.data(), wire.data(), wire.size());
  if (!salt.empty()) {
    std::memcpy(key.data() + wire.size(), salt.data(), salt.size());
  }
  return wire.size();
}

/// Mixes the first `length` bytes of `key` eight at a time, with the
/// length and the iteration count, and folds the result to a slot. The
/// key is zero-filled past `length`, so whole words can be read.
std::size_t slot_of(const MemoKey& key, std::size_t length,
                    std::uint16_t iterations) {
  static_assert(kMemoKeyBytes % 8 == 0);
  std::uint64_t h = 0x9E3779B97F4A7C15ULL ^ (length << 16) ^ iterations;
  for (std::size_t i = 0; i < length; i += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, key.data() + i, sizeof word);
    h = (h ^ word) * 0xFF51AFD7ED558CCDULL;
    h ^= h >> 32;
  }
  return static_cast<std::size_t>(h % kNsec3MemoSlots);
}

/// H(x) = SHA1(x || salt), iterated: `wire_and_salt` is x || salt.
std::array<std::uint8_t, crypto::Sha1::kDigestSize> hash_chain(
    ByteView wire_and_salt, ByteView salt, std::uint16_t iterations) {
  crypto::Sha1 first;
  first.update(wire_and_salt);
  auto digest = first.finish();
  for (std::uint16_t i = 0; i < iterations; ++i) {
    crypto::Sha1 h;
    h.update(digest);
    h.update(salt);
    digest = h.finish();
  }
  return digest;
}

/// The registry counter is striped per thread, so counting every hit
/// touches no cache line another thread writes.
void note_memo_hit() {
  static auto& hits =
      metrics::Registry::global().counter("zone.nsec3_hash_memo_hits");
  hits.add();
}

}  // namespace

std::size_t nsec3_memo_slot(const dns::NameView& name, ByteView salt,
                            std::uint16_t iterations) {
  MemoKey key{};
  const std::size_t wire_length = memo_key(name, salt, key);
  if (wire_length == 0) return kNsec3MemoSlots;
  return slot_of(key, wire_length + salt.size(), iterations);
}

Bytes nsec3_hash(const dns::NameView& name, ByteView salt,
                 std::uint16_t iterations) {
  MemoKey key{};
  const std::size_t wire_length = memo_key(name, salt, key);
  if (wire_length == 0) {
    const ByteView wire = name.canonical_wire();
    Bytes wire_and_salt(wire.begin(), wire.end());
    wire_and_salt.insert(wire_and_salt.end(), salt.begin(), salt.end());
    const auto digest = hash_chain(wire_and_salt, salt, iterations);
    return Bytes(digest.begin(), digest.end());
  }
  const ByteView question{key.data(), wire_length + salt.size()};
  if (memo == nullptr) memo = std::make_unique<Memo>();
  MemoSlot& slot = (*memo)[slot_of(key, question.size(), iterations)];
  if (slot.wire_length == wire_length && slot.salt_length == salt.size() &&
      slot.iterations == iterations &&
      std::memcmp(slot.key.data(), question.data(), question.size()) == 0) {
    note_memo_hit();
    return Bytes(slot.digest.begin(), slot.digest.end());
  }
  slot.digest = hash_chain(question, salt, iterations);
  DFX_DCHECK(question.size() <= kMemoKeyBytes);  // both lengths fit a byte
  slot.wire_length = static_cast<std::uint8_t>(wire_length);
  slot.salt_length = static_cast<std::uint8_t>(salt.size());
  slot.iterations = iterations;
  std::memcpy(slot.key.data(), question.data(), question.size());
  return Bytes(slot.digest.begin(), slot.digest.end());
}

std::string nsec3_hash_label(const dns::NameView& name, ByteView salt,
                             std::uint16_t iterations) {
  return base32hex_encode(nsec3_hash(name, salt, iterations));
}

dns::Name nsec3_owner(const dns::NameView& name, const dns::Name& apex,
                      ByteView salt, std::uint16_t iterations) {
  return apex.child(nsec3_hash_label(name, salt, iterations));
}

}  // namespace dfx::zone
