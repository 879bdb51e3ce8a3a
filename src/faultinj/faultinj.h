// Metadata fault-injection campaign for the ZoFS stack.
//
// The protection claim under test is the paper's §3.3/§6.4 argument: because
// a µFS dereferences pointers read from NVM that any thread of the process
// may have scribbled, a corrupted coffer must at worst damage *itself* —
// FSLibs has to turn arbitrary metadata garbage into clean errors, never
// crashes, hangs, or writes that escape the coffer.
//
// The campaign runs a deterministic workload, snapshots the quiescent device
// image, then systematically corrupts persistent coffer state — bit flips in
// inodes and dentries, block pointers swapped out-of-range or into other
// coffers, directory pointers aimed at another protection class,
// allocation-table run-length lies, free-list and lease-word garbage,
// directory hash-chain cycles, bogus coffer-root fields — and
// re-drives FSLib through reads, writes, lookups, and recovery on each
// corrupted image. Outcomes are classified per trial:
//
//   detected     an operation failed with a clean error code
//   benign       every operation succeeded and returned correct data
//   silent-data  an operation succeeded but returned wrong data (possible
//                within the damaged coffer; MPK protection is coffer-granular)
//   crash        a simulated page fault fired (Err::kFault or an escaped
//                mpk::ViolationError) — pre-hardening this kills the process
//   hang         an operation exceeded the watchdog budget
//   escape       bytes of a *sibling* coffer changed (alloc-table ownership
//                + byte-compare oracle) — corruption crossed the MPK wall
//
// Reports are byte-stable: two runs with the same seed produce identical
// text/JSON regardless of thread count, so the output can be diffed in CI.
// The CampaignOptions::raw_deref_for_test hook re-enables the pre-hardening
// dereference discipline; the campaign must then report crashes, which is
// the planted-bug regression check that the harness can still see them.

#ifndef SRC_FAULTINJ_FAULTINJ_H_
#define SRC_FAULTINJ_FAULTINJ_H_

#include <cstdint>
#include <string>
#include <vector>

namespace faultinj {

enum class FaultClass {
  kControl,          // no corruption; harness self-check, must come out benign
  kInodeBitFlip,     // random single-bit flips across inode pages
  kDirentBitFlip,    // random single-bit flips in a live directory entry
  kBlkptrOutOfRange, // block pointers beyond the device or misaligned
  kBlkptrCrossCoffer,// block pointers into pages another coffer owns
  kAllocRunLie,      // allocation-table run_len / ownership lies
  kFreeListGarbage,  // free-list heads poisoned (garbage, unowned, sibling)
  kLeaseGarbage,     // allocator lease words and inode lock words scribbled
  kDirCycle,         // directory hash-chain cycles and self-references
  kCofferRootBogus,  // coffer-root magic/custom_off/root_inode_off garbage
  kChanEntryScribble,// a queued channel request scribbled in flight (volatile
                     // DRAM fault, injected live rather than via the image):
                     // the kernel must refuse it with kInval, never dispatch
  kDirPtrCrossClass, // l1_dir / an L1 slot / a dentry-run link aimed at a page
                     // of another protection class, fabricated into a
                     // directory page that recovery would write to
};

inline constexpr FaultClass kAllFaultClasses[] = {
    FaultClass::kControl,          FaultClass::kInodeBitFlip,
    FaultClass::kDirentBitFlip,    FaultClass::kBlkptrOutOfRange,
    FaultClass::kBlkptrCrossCoffer, FaultClass::kAllocRunLie,
    FaultClass::kFreeListGarbage,  FaultClass::kLeaseGarbage,
    FaultClass::kDirCycle,         FaultClass::kCofferRootBogus,
    FaultClass::kChanEntryScribble, FaultClass::kDirPtrCrossClass,
};

const char* FaultClassName(FaultClass c);
bool ParseFaultClass(const std::string& s, FaultClass* out);

enum class Outcome { kDetected, kBenign, kSilentData, kCrash, kHang, kEscape };

const char* OutcomeName(Outcome o);

struct CampaignOptions {
  uint64_t seed = 42;
  size_t dev_bytes = 32ull << 20;
  // Single-bit-flip trials per flip target (inode / dentry structures).
  uint32_t flips_per_struct = 8;
  int threads = 4;
  // Re-enables the pre-hardening raw-dereference discipline in the µFS: the
  // campaign must then observe crashes (planted-bug regression check).
  bool raw_deref_for_test = false;
  // Empty = all classes. kControl always runs.
  std::vector<FaultClass> classes;
  // 0 = no cap; otherwise only the first N trials run (CI budget).
  uint64_t max_trials = 0;
};

struct TrialResult {
  uint64_t trial_id = 0;
  FaultClass fault = FaultClass::kControl;
  uint32_t victim_coffer = 0;
  uint64_t offset = 0;       // first corrupted byte offset
  std::string target;        // human description of the corrupted field
  Outcome outcome = Outcome::kBenign;
  std::string detail;        // first error / fault / mismatch observed
};

struct ClassStats {
  uint64_t trials = 0;
  uint64_t detected = 0;
  uint64_t benign = 0;
  uint64_t silent_data = 0;
  uint64_t crashes = 0;
  uint64_t hangs = 0;
  uint64_t escapes = 0;
};

struct CampaignReport {
  uint64_t seed = 0;
  bool raw_mode = false;
  uint64_t trials = 0;
  ClassStats totals;
  // Indexed in kAllFaultClasses order; classes that did not run have
  // trials == 0.
  std::vector<ClassStats> by_class;
  std::vector<TrialResult> results;  // every trial, in trial-id order
  // Non-empty if the campaign could not even set up its workload; the
  // counters are then meaningless.
  std::string setup_error;

  // The hardened acceptance bar: nothing crashed, hung, or escaped.
  bool Clean() const {
    return setup_error.empty() && totals.crashes == 0 && totals.hangs == 0 &&
           totals.escapes == 0;
  }
  std::string ToText() const;
  std::string ToJson() const;
};

// Runs the full campaign. Deterministic for a fixed (seed, dev_bytes,
// flips_per_struct, classes, max_trials, raw mode) regardless of `threads`.
CampaignReport RunCampaign(const CampaignOptions& opts);

}  // namespace faultinj

#endif  // SRC_FAULTINJ_FAULTINJ_H_
