// TSan lock-order probe (ctest `TsanLockOrder`, registered only when
// DFIXER_SANITIZE contains `thread`). One thread takes two dfx::Mutexes in
// both orders. Nothing deadlocks, yet TSan must report
// "lock-order-inversion (potential deadlock)": the test passes on that
// text, so it fails if dfx::Mutex ever stops being visible to TSan.
#include "util/thread_annotations.h"

int main() {
  dfx::Mutex a;
  dfx::Mutex b;
  {
    const dfx::MutexLock la(a);
    const dfx::MutexLock lb(b);
  }
  {
    const dfx::MutexLock lb(b);
    const dfx::MutexLock la(a);
  }
  return 0;
}
