// Fixture: turning the thread-safety analysis off outside src/core/ must
// trip analysis-escape.
#include "core/epoch_lock.h"
#include "core/thread_annotations.h"

namespace kspdg {

struct Foo {
  // Pins the lock for the object's lifetime, hidden from the analysis.
  explicit Foo(EpochLock& lock) NO_THREAD_SAFETY_ANALYSIS : lock_(lock) {
    lock_.lock_shared();
  }
  ~Foo() NO_THREAD_SAFETY_ANALYSIS { lock_.unlock_shared(); }

  EpochLock& lock_;
};

}  // namespace kspdg
