// Annotated lock wrappers: the repo's only sanctioned mutual-exclusion
// primitives outside std::atomic.
//
// core::Mutex / core::MutexLock / core::CondVar wrap the std primitives 1:1
// and add the two static-analysis layers this repo builds on (reader/writer
// state uses the write-preferring EpochLock, core/epoch_lock.h):
//
//   1. Clang Thread Safety Analysis (core/thread_annotations.h): Mutex is a
//      CAPABILITY and MutexLock a SCOPED_CAPABILITY, so `GUARDED_BY(mu_)`
//      members and `REQUIRES(mu_)` functions are checked at compile time by
//      the CI `analysis` job (`clang++ -Wthread-safety -Werror`).
//   2. The runtime lock-order checker (core/lock_order.h): every Lock()
//      reports to the global acquisition-order graph when
//      KSPDG_CHECK_LOCK_ORDER is on, so a lock-order inversion anywhere in
//      the test suite aborts with both stacks' lock names.
//
// Naked std::mutex / std::shared_mutex / std::thread outside src/core/ are
// a lint error (tools/kspdg_lint.py, rule raw-primitive): state guarded by
// an unannotated lock is invisible to both layers.
//
// The constructor takes the lock's role name ("SubmissionQueue::mu_") for
// order-checker diagnostics; instances sharing a name are one node in the
// order graph (see lock_order.h on why that is the right granularity).
#ifndef KSPDG_CORE_MUTEX_H_
#define KSPDG_CORE_MUTEX_H_

#include <condition_variable>
#include <mutex>

#include "core/lock_order.h"
#include "core/thread_annotations.h"

namespace kspdg {

/// Plain mutual-exclusion lock (wraps std::mutex). Not reentrant. Prefer
/// MutexLock over calling Lock/Unlock by hand.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  /// `name` labels this lock in lock-order diagnostics; use the member's
  /// qualified role, e.g. "ThreadPool::mu_". Must outlive the mutex
  /// (string literals always do).
  explicit Mutex(const char* name) : name_(name) {}

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() {
    mu_.lock();
    lock_order::OnAcquire(name_);
  }

  void Unlock() RELEASE() {
    lock_order::OnRelease(name_);
    mu_.unlock();
  }

  bool TryLock() TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    lock_order::OnAcquire(name_);
    return true;
  }

  const char* name() const { return name_; }

 private:
  friend class CondVar;
  std::mutex mu_;
  const char* name_ = "Mutex";
};

/// RAII guard for Mutex (the std::lock_guard/std::unique_lock of this
/// repo). Supports early Unlock() and re-Lock() like std::unique_lock; the
/// destructor releases only if currently held.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  ~MutexLock() RELEASE() {
    if (owned_) mu_.Unlock();
  }

  /// Releases before end of scope (e.g. to run a callback outside the
  /// critical section).
  void Unlock() RELEASE() {
    owned_ = false;
    mu_.Unlock();
  }

  /// Reacquires after an early Unlock().
  void Lock() ACQUIRE() {
    mu_.Lock();
    owned_ = true;
  }

 private:
  friend class CondVar;
  Mutex& mu_;
  bool owned_ = true;
};

/// Condition variable paired with core::Mutex. There is deliberately no
/// predicate-lambda Wait overload: the analysis cannot see the caller's
/// lock inside a lambda body, so waits are written as explicit loops —
/// `while (!cond) cv.Wait(mu);` — which the analysis checks exactly.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu`, waits, and reacquires it before returning.
  /// The lock-order model keeps `mu` in the held set across the wait: the
  /// wakeup reacquires the same lock, so its recorded edges stay valid.
  void Wait(Mutex& mu) REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace kspdg

#endif  // KSPDG_CORE_MUTEX_H_
