// Thread-safety capability annotations and the annotated Mutex/MutexLock
// pair every module outside util/ must use for shared state.
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

#include <mutex>

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
  ~MutexLock() DFX_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

}  // namespace dfx
