// NEGATIVE-COMPILE FIXTURE — intentionally does NOT build under
//
//   clang++ -std=c++20 -fsyntax-only -Wthread-safety -Werror=thread-safety \
//       -I src tests/negative_compile/thread_annotations_must_warn.cpp
//
// The clang-tsa CI job runs exactly that line and FAILS if it succeeds:
// a successful compile would mean the DFX_* macros stopped expanding to
// clang's capability attributes and the whole analysis went silent. This
// file is excluded from the CMake build (the tests/ glob is non-recursive
// and only matches test_*.cpp), and under gcc — where the macros are
// no-ops by design — it compiles fine, which is also why the check lives
// in the clang job and not in ctest.
#include "util/thread_annotations.h"

namespace {

class Counter {
 public:
  // Violation 1: DFX_REQUIRES helper called below without the lock held.
  void bump_locked() DFX_REQUIRES(mu_) { ++value_; }

  // Violation 2: guarded field written without acquiring mu_.
  void bump_unlocked() { ++value_; }

  // Violation 3: guarded field read without acquiring mu_.
  int peek() const { return value_; }

  // Violation 4: DFX_EXCLUDES method invoked with the lock already held.
  void reset() DFX_EXCLUDES(mu_) {
    const dfx::MutexLock lock(mu_);
    value_ = 0;
  }
  void reset_while_holding() {
    const dfx::MutexLock lock(mu_);
    reset();
  }

  void call_helper_without_lock() { bump_locked(); }

  // Violation 5: the same mutex acquired twice in one function. On a
  // non-recursive mutex the second lock() blocks forever, and TSan does not
  // report it (the process just hangs), so this static check is the only
  // one that catches a self-deadlock.
  void relock() {
    const dfx::MutexLock first(mu_);
    const dfx::MutexLock second(mu_);
  }

 private:
  mutable dfx::Mutex mu_;
  int value_ DFX_GUARDED_BY(mu_) = 0;
};

}  // namespace

int main() {
  Counter c;
  c.bump_unlocked();
  c.call_helper_without_lock();
  c.reset_while_holding();
  c.relock();
  return c.peek();
}
