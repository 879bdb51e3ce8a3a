// Deterministic process-death injection (the procmon tenant-failure
// campaign; see DESIGN.md "process-failure model").
//
// A kill point is a named site where a simulated tenant may be abandoned
// mid-operation: holding an InodeLock, having just published a staged-append
// intent, mid-RenameIntent, mid-channel-batch, or holding a leased allocator
// free list. The soak driver installs a handler; when the handler decides a
// point fires, KillPoint throws ProcessKilledError, which unwinds the
// operation WITHOUT running persistent-state cleanup:
//
//   * Volatile RAII (spinlock guards, AccessWindow PKRU restore) unwinds
//     normally — a real dead process's DRAM locks evaporate and the kernel
//     restores PKRU on context switch, so that cleanup is "free" in reality.
//   * Persistent-state RAII must NOT run: a dead process cannot store a
//     release word to NVM. Destructors that write NVM (InodeLock) consult
//     CurrentThreadKilled() and skip their release store while it is set.
//
// ProcessKilledError is deliberately unrelated to mpk::ViolationError so the
// FSLibs Guarded() wrapper does not swallow it: the kill propagates to the
// harness, which resets the thread flag, unbinds the thread and hands the
// corpse to KernFs::KillProcess.
//
// With no handler installed (every production path) a kill point is one
// relaxed atomic load.

#ifndef SRC_COMMON_KILLPOINT_H_
#define SRC_COMMON_KILLPOINT_H_

#include <atomic>
#include <cstring>

namespace common {

// Thrown out of a kill point. Not derived from std::exception on purpose:
// nothing between the kill point and the harness may handle it generically.
struct ProcessKilledError {
  const char* point;
};

// The injectable death sites (passed to the handler by name).
inline constexpr const char* kKillHoldingInodeLock = "holding-inode-lock";
inline constexpr const char* kKillStagedIntentPublished = "staged-intent-published";
inline constexpr const char* kKillMidRenameIntent = "mid-rename-intent";
inline constexpr const char* kKillMidChannelBatch = "mid-channel-batch";
inline constexpr const char* kKillHoldingLeasedList = "holding-leased-list";

// Returns true to kill the calling thread at `point`.
using KillPointFn = bool (*)(void* ctx, const char* point);

namespace killpoint_internal {
inline std::atomic<KillPointFn> g_fn{nullptr};
inline std::atomic<void*> g_ctx{nullptr};
inline thread_local bool t_killed = false;
}  // namespace killpoint_internal

// Installs (or, with nullptr, removes) the process-wide kill handler.
inline void InstallKillPoint(KillPointFn fn, void* ctx) {
  killpoint_internal::g_ctx.store(ctx, std::memory_order_release);
  killpoint_internal::g_fn.store(fn, std::memory_order_release);
}

// True between a kill firing on this thread and the harness acknowledging it.
// NVM-writing destructors skip their release stores while set (a dead
// process cannot store to NVM on its way out).
inline bool CurrentThreadKilled() { return killpoint_internal::t_killed; }
inline void SetCurrentThreadKilled(bool v) { killpoint_internal::t_killed = v; }

// The harness side: installs the process-wide handler for its lifetime and
// removes it on every exit path. While armed at a point, the first crossing
// of that point kills the thread; later crossings pass until re-armed.
class ScopedKillArm {
 public:
  explicit ScopedKillArm(const char* point = nullptr) : point_(point) {
    InstallKillPoint(&Fire, this);
  }
  ~ScopedKillArm() { InstallKillPoint(nullptr, nullptr); }
  ScopedKillArm(const ScopedKillArm&) = delete;
  ScopedKillArm& operator=(const ScopedKillArm&) = delete;

  void Arm(const char* point) {
    point_ = point;
    fired_ = false;
  }
  void Disarm() { point_ = nullptr; }
  bool fired() const { return fired_; }

 private:
  static bool Fire(void* ctx, const char* point) {
    auto* arm = static_cast<ScopedKillArm*>(ctx);
    const bool fire =
        arm->point_ != nullptr && !arm->fired_ && std::strcmp(arm->point_, point) == 0;
    arm->fired_ = arm->fired_ || fire;
    return fire;
  }

  const char* point_;
  bool fired_ = false;
};

// A named death site. No handler installed: one relaxed load, no branch
// taken. Handler installed and electing to fire: marks the thread killed and
// throws.
inline void KillPoint(const char* point) {
  KillPointFn fn = killpoint_internal::g_fn.load(std::memory_order_acquire);
  if (fn == nullptr) {
    return;
  }
  if (fn(killpoint_internal::g_ctx.load(std::memory_order_acquire), point)) {
    killpoint_internal::t_killed = true;
    throw ProcessKilledError{point};
  }
}

}  // namespace common

#endif  // SRC_COMMON_KILLPOINT_H_
