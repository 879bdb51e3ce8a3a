// Capability-annotated lock wrappers.
//
// Every lock in the tree goes through these types so Clang's
// -Wthread-safety analysis (src/common/thread_annotations.h) can prove lock
// discipline at compile time: GUARDED_BY members are only touched under
// their mutex, *Locked helpers declare REQUIRES contracts, and scoped guards
// tie acquisition to scope. The zofs_lint `raw-mutex` rule rejects bare
// std::mutex / std::shared_mutex declarations anywhere else, so a lock
// cannot silently opt out of the analysis.
//
// The wrappers are zero-cost: each is exactly its std:: counterpart plus
// attributes. Guards deliberately mirror the std guards they replace
// (construction acquires, destruction releases, explicit Unlock() for the
// drop-lock-then-call-kernel patterns in src/zofs).

#ifndef SRC_COMMON_MUTEX_H_
#define SRC_COMMON_MUTEX_H_

// zofs-lint: allow(raw-mutex) — this header IS the annotated wrapper layer.

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <shared_mutex>

#include "src/common/thread_annotations.h"

namespace common {

// Plain exclusive mutex.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }
  bool TryLock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

  // For protocols the analysis cannot follow (e.g. a lock handed across a
  // call boundary by value): assert at runtime intent that the capability is
  // held from here on.
  void AssertHeld() ASSERT_CAPABILITY(this) {}

 private:
  friend class CondVar;
  std::mutex mu_;
};

// Condition variable over a Mutex. Wait releases `mu` while it blocks and
// holds it again when it returns; wakeups may be spurious, so callers wait in
// a loop on their predicate.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex* mu) REQUIRES(mu) {
    std::unique_lock<std::mutex> lk(mu->mu_, std::adopt_lock);
    cv_.wait(lk);
    lk.release();  // still held: the caller's guard releases it
  }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

// Reader/writer mutex.
class CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }
  void ReaderLock() ACQUIRE_SHARED() { mu_.lock_shared(); }
  void ReaderUnlock() RELEASE_SHARED() { mu_.unlock_shared(); }

  void AssertHeld() ASSERT_CAPABILITY(this) {}
  void AssertReaderHeld() ASSERT_SHARED_CAPABILITY(this) {}

 private:
  std::shared_mutex mu_;
};

// Reentrant mutex (Strata's shared core calls back into itself). Clang's
// analysis does not model reentrancy, so this capability is declared but its
// operations are not ACQUIRE/RELEASE-annotated — the guard below still
// satisfies the raw-mutex lint and documents the protocol.
class CAPABILITY("recursive_mutex") RecursiveMutex {
 public:
  RecursiveMutex() = default;
  RecursiveMutex(const RecursiveMutex&) = delete;
  RecursiveMutex& operator=(const RecursiveMutex&) = delete;

  void Lock() NO_THREAD_SAFETY_ANALYSIS { mu_.lock(); }
  void Unlock() NO_THREAD_SAFETY_ANALYSIS { mu_.unlock(); }

 private:
  std::recursive_mutex mu_;
};

// One-word test-and-set spinlock. Used where the critical section is a few
// instructions (the FD-table slot protocol in src/fslib): spinning beats a
// mutex's futex path and the word packs into the protected structure.
class CAPABILITY("spinlock") SpinLock {
 public:
  SpinLock() = default;
  SpinLock(const SpinLock&) = delete;
  SpinLock& operator=(const SpinLock&) = delete;

  void Lock() ACQUIRE() {
    while (locked_.exchange(true, std::memory_order_acquire)) {
#if defined(__x86_64__)
      __builtin_ia32_pause();
#endif
    }
  }
  void Unlock() RELEASE() { locked_.store(false, std::memory_order_release); }

  void AssertHeld() ASSERT_CAPABILITY(this) {}

 private:
  std::atomic<bool> locked_{false};
};

// ---- scoped guards ------------------------------------------------------

class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() RELEASE() {
    if (mu_ != nullptr) {
      mu_->Unlock();
    }
  }
  // Early release for drop-the-lock-then-block patterns.
  void Unlock() RELEASE() {
    mu_->Unlock();
    mu_ = nullptr;
  }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* mu_;
};

class SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex* mu) ACQUIRE_SHARED(mu) : mu_(mu) { mu_->ReaderLock(); }
  ~ReaderMutexLock() RELEASE() {
    if (mu_ != nullptr) {
      mu_->ReaderUnlock();
    }
  }
  void Unlock() RELEASE() {
    mu_->ReaderUnlock();
    mu_ = nullptr;
  }
  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  SharedMutex* mu_;
};

class SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex* mu) ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~WriterMutexLock() RELEASE() {
    if (mu_ != nullptr) {
      mu_->Unlock();
    }
  }
  void Unlock() RELEASE() {
    mu_->Unlock();
    mu_ = nullptr;
  }
  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  SharedMutex* mu_;
};

class SCOPED_CAPABILITY RecursiveMutexLock {
 public:
  explicit RecursiveMutexLock(RecursiveMutex* mu) NO_THREAD_SAFETY_ANALYSIS : mu_(mu) {
    mu_->Lock();
  }
  ~RecursiveMutexLock() NO_THREAD_SAFETY_ANALYSIS { mu_->Unlock(); }
  RecursiveMutexLock(const RecursiveMutexLock&) = delete;
  RecursiveMutexLock& operator=(const RecursiveMutexLock&) = delete;

 private:
  RecursiveMutex* mu_;
};

class SCOPED_CAPABILITY SpinLockGuard {
 public:
  explicit SpinLockGuard(SpinLock* l) ACQUIRE(l) : l_(l) { l_->Lock(); }
  ~SpinLockGuard() RELEASE() { l_->Unlock(); }
  SpinLockGuard(const SpinLockGuard&) = delete;
  SpinLockGuard& operator=(const SpinLockGuard&) = delete;

 private:
  SpinLock* l_;
};

}  // namespace common

#endif  // SRC_COMMON_MUTEX_H_
