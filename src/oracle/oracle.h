// The oracles behind the paper's two recovery claims (§3.3, §6.4–6.5) — a
// crashed or scribbled coffer recovers to a consistent tree, and damage stays
// inside its coffer — shared by crashmon, faultinj, procmon and the crash
// tests: the ZoFS stack with its teardown and crash steps, fsck, read-back,
// the MPK containment page diff, the crash-point sweep and the thread fan-out.

#ifndef SRC_ORACLE_ORACLE_H_
#define SRC_ORACLE_ORACLE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/fslib/fslib.h"
#include "src/kernfs/kernfs.h"
#include "src/nvm/nvm.h"
#include "src/ufs/microfs.h"

namespace oracle {

inline constexpr vfs::Cred kRoot{0, 0};

// A zeroed simulated NVM device with the MPK access check installed.
std::unique_ptr<nvm::NvmDevice> NewDevice(size_t bytes, bool crash_tracking = false);

// ZoFS on a device the caller owns: KernFS plus one FSLibs process, with
// kernel crossings free. Processes the caller mounts on kfs() must be gone
// before Unmount, or be handed to Crash.
class Stack {
 public:
  explicit Stack(nvm::NvmDevice* dev) : dev_(dev) {}
  ~Stack() { Unmount(); }
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  void Format(const kernfs::FormatOptions& fo, vfs::Cred cred = kRoot,
              const zofs::Options& zo = {});
  // Mounts the image already on the device (after a crash or a restore).
  void Mount(vfs::Cred cred = kRoot, const zofs::Options& zo = {});
  // The FSLibs process, then the kernel, then the thread's MPK binding.
  void Unmount();
  // Power loss: every process (this one and `others`) is abandoned so no
  // cleanup runs, the kernel is dropped, and the device loses every
  // unpersisted line. The image can be touched before the next Mount.
  void Crash(std::span<std::unique_ptr<fslib::FsLib>* const> others = {});

  kernfs::KernFs* kfs() const { return kfs_.get(); }
  fslib::FsLib* fs() const { return fs_.get(); }

 private:
  void Attach(std::unique_ptr<kernfs::KernFs> kfs, vfs::Cred cred, const zofs::Options& zo);

  nvm::NvmDevice* dev_;
  std::unique_ptr<kernfs::KernFs> kfs_;
  std::unique_ptr<fslib::FsLib> fs_;
};

struct FsckResult {
  std::string kind;  // "" (clean), "recovery-failed", "fsck-alloc" or "fsck-owner"
  std::string detail;
  ufs::RecoveryStats stats;
  bool ok() const { return kind.empty(); }
};

// RecoverAll on the stack's process must succeed without an escaped
// mpk::ViolationError, then the kernel allocation table must check out, and
// every page reachable from a coffer must still be that coffer's.
FsckResult Fsck(const Stack& st);

struct ReadBack {
  enum class State { kPresent, kAbsent, kError };
  State state = State::kError;
  common::Err err = common::Err::kIo;  // the failing call's error
  std::string data;
  bool present() const { return state == State::kPresent; }
};

// Reads `path` in one Pread: all of it (its Fstat size, which must arrive
// whole), or with `len` its first `len` bytes (fewer when the file is
// shorter). Absent means the open failed with kNoEnt.
ReadBack Read(vfs::FileSystem* fs, const vfs::Cred& cred, const std::string& path,
              std::optional<uint64_t> len = std::nullopt);

struct Escape {
  uint64_t page = 0;
  uint32_t owner = 0;
};

// Every page that differs between two images of one formatted device and
// whose owner in `before`'s allocation table is not in `allowed`. Owners
// include 0 (free) and kernfs::kKernelOwner.
std::vector<Escape> ContainmentDiff(std::span<const uint8_t> before,
                                    std::span<const uint8_t> after,
                                    const std::set<uint32_t>& allowed);

struct CrashPoint {
  uint64_t id = 0;          // index in enumeration order
  int64_t base_epoch = -1;  // -1 = the capture snapshot
  int variant = -1;         // -1 = the post-fence state, else a mid-epoch subset
};

// For each baseline (the snapshot, then every post-fence state): the
// baseline, then `mid_per_fence` line subsets of the following epoch.
// `max_points` (0 = all) keeps a prefix.
std::vector<CrashPoint> CrashPoints(size_t epochs, uint32_t mid_per_fence, uint64_t max_points);

// Materializes each point (in non-decreasing base epoch) from the capture
// and calls visit(point, image). A mid-epoch point persists a seeded subset
// of the next epoch's lines, never empty; with no such lines it has no image
// and is skipped.
void SweepImages(const std::vector<uint8_t>& snapshot,
                 const std::vector<nvm::CrashEpoch>& journal, uint64_t seed,
                 std::span<const CrashPoint> points,
                 const std::function<void(const CrashPoint&, const std::vector<uint8_t>&)>& visit);

// Runs work(lo, hi) over contiguous chunks of [0, n), one thread each (at
// least one, at most n), and joins them.
void FanOut(size_t n, int threads, const std::function<void(size_t lo, size_t hi)>& work);

}  // namespace oracle

#endif  // SRC_ORACLE_ORACLE_H_
