// WireArena: a chunked bump allocator backing the master-file tokenizer
// (dnscore/tokenizer.h).
//
// Per-line parsing must not pay one heap allocation per field (field
// arrays, unescaped tokens). The arena turns those into pointer bumps:
// allocation is `cur += n`, deallocation is `reset()`.
//
// Ownership and lifetime rules (see docs/PERFORMANCE.md, "Arena lifetime
// rules"):
//
//  - Everything returned by alloc()/copy()/alloc_array() is owned by the
//    arena. Callers receive non-owning views (spans / string_views); they
//    must NOT free them and must NOT use them after reset() or after the
//    arena is destroyed.
//  - reset() invalidates every outstanding view at once. parse_master_file
//    uses one arena per file and never resets it, so its views live until
//    the parse returns.
//  - Growth never moves existing chunks: views handed out earlier stay
//    valid across later alloc() calls (only reset()/destruction kill them).
//  - A WireArena is single-threaded by design: confine each instance to
//    one thread (one arena per worker), exactly like WireReader.
//
// The dfixer_lint `view-into-temporary` rule guards the obvious misuse —
// returning a view of a function-local owner (a local arena dies with the
// frame just like a local std::string; see
// tests/lint_fixtures/dnscore/bad_arena_view.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/bytes.h"
#include "util/check.hpp"

namespace dfx::dns {

class WireArena {
 public:
  /// `chunk_size` is the granularity of backing allocations; requests
  /// larger than it get a dedicated chunk.
  explicit WireArena(std::size_t chunk_size = 16 * 1024)
      : chunk_size_(chunk_size == 0 ? 1 : chunk_size) {}

  WireArena(const WireArena&) = delete;
  WireArena& operator=(const WireArena&) = delete;

  /// Uninitialized storage for `n` bytes (aligned for any scalar use via
  /// alloc_array). Returns a view owned by the arena — valid until
  /// reset()/destruction, never freed by the caller.
  std::span<std::uint8_t> alloc(std::size_t n) {
    return {static_cast<std::uint8_t*>(raw_alloc(n, 1)), n};
  }

  /// Uninitialized array of `n` objects of trivially-destructible type T.
  /// The arena never runs destructors: T must be trivially destructible.
  template <typename T>
  std::span<T> alloc_array(std::size_t n) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena memory is reclaimed without running destructors");
    return {static_cast<T*>(raw_alloc(n * sizeof(T), alignof(T))), n};
  }

  /// Copy `src` into the arena; the returned view aliases arena storage,
  /// not `src` (safe to use after the source buffer is gone).
  ByteView copy(ByteView src) {
    auto dst = alloc(src.size());
    DFX_DCHECK(dst.size() == src.size());
    if (!src.empty()) std::memcpy(dst.data(), src.data(), src.size());
    return {dst.data(), dst.size()};
  }

  /// Copy a string into the arena (e.g. an unescaped token).
  std::string_view copy(std::string_view src) {
    auto dst = alloc(src.size());
    DFX_DCHECK(dst.size() == src.size());
    if (!src.empty()) std::memcpy(dst.data(), src.data(), src.size());
    return {reinterpret_cast<const char*>(dst.data()), dst.size()};
  }

  /// Invalidate every outstanding view and make the full capacity
  /// available again. Keeps the chunks (no free/malloc churn in steady
  /// state): a parse loop reaches a fixed memory footprint after the
  /// largest message it has seen.
  void reset() {
    live_ = 0;
    cur_chunk_ = 0;
    cur_pos_ = 0;
  }

  /// Bytes handed out since the last reset() (diagnostics / bench).
  std::size_t bytes_used() const { return live_; }

  /// Total backing capacity currently held.
  std::size_t capacity() const {
    std::size_t total = 0;
    for (const auto& c : chunks_) total += c.size;
    return total;
  }

 private:
  struct Chunk {
    std::unique_ptr<std::uint8_t[]> data;
    std::size_t size = 0;
  };

  // Chunk refill is amortized away: reset() retains the chunks, so a
  // steady-state packet loop reuses warmed capacity and never reaches the
  // make_unique branch below.
  DFX_COLD("chunk refill is amortized; reset() retains chunks, steady-state never allocates")
  void* raw_alloc(std::size_t n, std::size_t align) {
    DFX_DCHECK(align != 0 && (align & (align - 1)) == 0);
    live_ += n;
    while (cur_chunk_ < chunks_.size()) {
      Chunk& c = chunks_[cur_chunk_];
      const std::size_t aligned = (cur_pos_ + (align - 1)) & ~(align - 1);
      if (aligned + n <= c.size) {
        cur_pos_ = aligned + n;
        return c.data.get() + aligned;
      }
      ++cur_chunk_;
      cur_pos_ = 0;
    }
    // No existing chunk fits: append one (oversize requests get their own).
    Chunk c;
    c.size = n > chunk_size_ ? n : chunk_size_;
    c.data = std::make_unique<std::uint8_t[]>(c.size);
    chunks_.push_back(std::move(c));
    cur_chunk_ = chunks_.size() - 1;
    cur_pos_ = n;
    return chunks_.back().data.get();
  }

  std::size_t chunk_size_;
  std::vector<Chunk> chunks_;
  std::size_t cur_chunk_ = 0;  // chunk currently being bumped
  std::size_t cur_pos_ = 0;    // bump offset within cur_chunk_
  std::size_t live_ = 0;       // bytes since last reset()
};

}  // namespace dfx::dns
