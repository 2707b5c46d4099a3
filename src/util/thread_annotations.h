// Thread-safety capability annotations, the annotated Mutex/MutexLock
// pair every module outside util/ must use for shared state, and the
// read-mostly lock (ReadMostlyMutex with its ReaderLock/WriterLock guards)
// for state that nearly every access only reads.
//
// Under clang the DFX_* macros expand to the thread-safety-analysis
// attributes, making "data guarded by lock" a property of the type system:
// a `-Wthread-safety -Werror` build (the `clang-tsa` CI job) rejects any
// access to a `DFX_GUARDED_BY` field without its mutex held and any call
// to a `DFX_REQUIRES` function outside the lock. Under gcc (and any other
// compiler) the macros expand to nothing and `Mutex`/`MutexLock` behave
// exactly like `std::mutex`/`std::lock_guard`.
//
// House rules (see docs/STATIC_ANALYSIS.md, "Thread-safety annotations"):
//
//   - Every field shared between threads gets `DFX_GUARDED_BY(mu_)`.
//   - A private helper that assumes the caller already locked is annotated
//     `DFX_REQUIRES(mu_)` — never documented-by-comment only.
//   - A public method that must NOT be called with the lock held (it locks
//     internally) is annotated `DFX_EXCLUDES(mu_)`.
//   - Raw `std::mutex`/`std::lock_guard` outside `src/util/` is a lint
//     error (`raw-std-mutex`).
//
// Lock order is checked by TSan at run time (any inconsistent acquisition
// order it observes, even on one thread) and by dfixer_lint's
// static-lock-cycle rule over the source.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <mutex>
#include <thread>
#include <utility>

// Clang's analysis attributes; no-ops elsewhere. Attribute reference:
// https://clang.llvm.org/docs/ThreadSafetyAnalysis.html
#if defined(__clang__)
#define DFX_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define DFX_THREAD_ANNOTATION(x)
#endif

/// Marks a type as a lockable capability ("mutex" names the capability
/// kind in diagnostics).
#define DFX_CAPABILITY(x) DFX_THREAD_ANNOTATION(capability(x))

/// Marks an RAII type whose constructor acquires and destructor releases.
#define DFX_SCOPED_CAPABILITY DFX_THREAD_ANNOTATION(scoped_lockable)

/// Field may only be read/written with the given capability held.
#define DFX_GUARDED_BY(x) DFX_THREAD_ANNOTATION(guarded_by(x))

/// Pointer field: the *pointee* is guarded; the pointer itself is not.
#define DFX_PT_GUARDED_BY(x) DFX_THREAD_ANNOTATION(pt_guarded_by(x))

/// Function requires the capability to be held by the caller (and does not
/// release it). Use for `_locked()` helpers.
#define DFX_REQUIRES(...) \
  DFX_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Function acquires the capability (empty argument list = `this`).
#define DFX_ACQUIRE(...) \
  DFX_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Function releases the capability (empty argument list = `this`).
#define DFX_RELEASE(...) \
  DFX_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Function acquires the shared (reader) side of the capability.
#define DFX_ACQUIRE_SHARED(...) \
  DFX_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))

/// Function releases the shared (reader) side of the capability.
#define DFX_RELEASE_SHARED(...) \
  DFX_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))

/// Function acquires the capability when it returns the given value.
#define DFX_TRY_ACQUIRE(...) \
  DFX_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

/// Caller must NOT hold the capability — the function (re)locks it itself.
/// Prevents self-deadlock on non-recursive mutexes.
#define DFX_EXCLUDES(...) DFX_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Function returns a reference to the named capability.
#define DFX_RETURN_CAPABILITY(x) DFX_THREAD_ANNOTATION(lock_returned(x))

/// Escape hatch: disables the analysis for one function. Requires a
/// comment explaining why the analysis cannot see the invariant.
#define DFX_NO_THREAD_SAFETY_ANALYSIS \
  DFX_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace dfx {

/// std::mutex with capability annotations so clang can check lock
/// discipline at compile time. Satisfies BasicLockable/Lockable, so it
/// works with `std::condition_variable_any`.
class DFX_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() DFX_ACQUIRE() { mu_.lock(); }
  void unlock() DFX_RELEASE() { mu_.unlock(); }
  bool try_lock() DFX_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

/// RAII scope lock over Mutex, the analogue of std::lock_guard. The
/// DFX_SCOPED_CAPABILITY annotation tells clang the capability is held for
/// the lifetime of the object.
class DFX_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) DFX_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  /// Adopts a lock the caller already holds (after a successful
  /// `try_lock()`): releases it on destruction, acquires nothing.
  MutexLock(Mutex& mu, std::adopt_lock_t) DFX_REQUIRES(mu) : mu_(mu) {}
  ~MutexLock() DFX_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Stripe count of the per-thread primitives below: `thread_slot()`
/// returns an index in [0, kThreadSlots).
inline constexpr std::size_t kThreadSlots = 16;

/// This thread's stripe index, handed out round-robin on the thread's
/// first call and fixed for its lifetime. Threads past the first
/// kThreadSlots share stripes, which stays correct but contends again.
inline std::size_t thread_slot() {
  static std::atomic<std::size_t> next{0};
  thread_local std::size_t slot = kThreadSlots;  // constant init: no guard
  if (slot == kThreadSlots) [[unlikely]] {
    slot = next.fetch_add(1, std::memory_order_relaxed) % kThreadSlots;
  }
  return slot;
}

/// Reader-writer lock for read-mostly state whose read side writes only
/// memory of the reading thread's stripe: a reader increments its own
/// cache-line-sized slot, so concurrent readers share no written line.
///
/// Readers and the writer meet Dekker-style, every step seq_cst: a reader
/// increments its slot and then checks the writer flag; the writer raises
/// the flag and then waits for every slot to read zero. At least one side
/// sees the other, so a reader that finds the flag clear is never
/// overlapped by a writer. A reader that finds it raised takes its
/// increment back and waits for the writer to finish. Writers serialize on
/// an inner mutex and wait for readers, so nothing is reclaimed late.
///
/// Rules: a thread must not take the read side of a lock it already
/// holds (a writer arriving in between would wait for the first hold
/// while the second waits for the writer), must not take the write side
/// while it holds the read side of the same lock, and releases the read
/// side on the thread that took it (the slot is the thread's).
class DFX_CAPABILITY("mutex") ReadMostlyMutex {
 public:
  ReadMostlyMutex() = default;
  ReadMostlyMutex(const ReadMostlyMutex&) = delete;
  ReadMostlyMutex& operator=(const ReadMostlyMutex&) = delete;

  void lock_shared() DFX_ACQUIRE_SHARED() {
    std::atomic<int>& readers = slots_[thread_slot()].readers;
    while (true) {
      readers.fetch_add(1, std::memory_order_seq_cst);
      if (!writer_.load(std::memory_order_seq_cst)) return;
      readers.fetch_sub(1, std::memory_order_seq_cst);
      while (writer_.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
    }
  }
  void unlock_shared() DFX_RELEASE_SHARED() {
    slots_[thread_slot()].readers.fetch_sub(1, std::memory_order_release);
  }

  void lock() DFX_ACQUIRE() {
    writer_mu_.lock();
    writer_.store(true, std::memory_order_seq_cst);
    for (const Slot& slot : slots_) {
      while (slot.readers.load(std::memory_order_seq_cst) != 0) {
        std::this_thread::yield();
      }
    }
  }
  void unlock() DFX_RELEASE() {
    writer_.store(false, std::memory_order_release);
    writer_mu_.unlock();
  }

 private:
  struct alignas(64) Slot {
    std::atomic<int> readers{0};
  };
  std::array<Slot, kThreadSlots> slots_;
  alignas(64) std::atomic<bool> writer_{false};
  std::mutex writer_mu_;
};

/// RAII read side of a ReadMostlyMutex. Movable, so a function can hand
/// the held read side to its caller inside a result object; a moved-from
/// guard releases nothing.
class DFX_SCOPED_CAPABILITY ReaderLock {
 public:
  explicit ReaderLock(ReadMostlyMutex& mu) DFX_ACQUIRE_SHARED(mu) : mu_(&mu) {
    mu_->lock_shared();
  }
  ~ReaderLock() DFX_RELEASE() {
    if (mu_ != nullptr) mu_->unlock_shared();
  }
  ReaderLock(ReaderLock&& other) noexcept
      : mu_(std::exchange(other.mu_, nullptr)) {}

  ReaderLock(const ReaderLock&) = delete;
  ReaderLock& operator=(const ReaderLock&) = delete;
  ReaderLock& operator=(ReaderLock&&) = delete;

 private:
  ReadMostlyMutex* mu_;
};

/// RAII write side of a ReadMostlyMutex: waits for every reader to leave.
class DFX_SCOPED_CAPABILITY WriterLock {
 public:
  explicit WriterLock(ReadMostlyMutex& mu) DFX_ACQUIRE(mu) : mu_(mu) {
    mu_.lock();
  }
  ~WriterLock() DFX_RELEASE() { mu_.unlock(); }

  WriterLock(const WriterLock&) = delete;
  WriterLock& operator=(const WriterLock&) = delete;

 private:
  ReadMostlyMutex& mu_;
};

}  // namespace dfx
