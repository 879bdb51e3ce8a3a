// zofs_lint — domain-specific static checks for the ZoFS tree.
//
// Clang's -Wthread-safety proves lock/data discipline where capabilities are
// annotated (src/common/mutex.h), but several invariants of this codebase
// are not expressible as capabilities:
//
//   raw-nvm-deref   NvmDevice::base() hands out a raw pointer into simulated
//                   NVM, bypassing the validated accessor set (Read/Write/
//                   As<>/Contains). Outside src/nvm every use must be
//                   individually justified.
//   unfenced-clwb   A Clwb writes lines back but nothing orders them: every
//                   function that issues Clwb must reach an Sfence or
//                   PersistRange later in the same function, or carry a
//                   deferred-durability suppression explaining which caller
//                   fences.
//   naked-wrpkru    PKRU is only written through the RAII window types in
//                   src/mpk (AccessWindow / KernelEntry); a bare WrPkru
//                   elsewhere can leak an open protection window (paper
//                   guideline G1).
//   lock-order      (a) no shard lock may be acquired while retire_mu_ is
//                   held (retire_mu_ is a leaf lock, taken under the shard
//                   lock in RetireAllocatorLocked); (b) no KernFS call
//                   (kfs_->...) while a shard lock is held — kernel entry
//                   under a user-space lock serialises unrelated coffers.
//   raw-mutex       std::mutex / std::shared_mutex / std::lock_guard /
//                   std::condition_variable / ... must not be declared or
//                   used outside src/common/mutex.h:
//                   a raw lock opts out of both the capability analysis and
//                   this lint.
//   staged-append-relink
//                   The staged-append fast path (ISSUE 7) allocates pages
//                   with AllocPageStaged and installs block pointers with
//                   volatile stores; a crash is only recoverable because the
//                   relink intent (PublishStageIntent) is persisted before
//                   any fence that could make the partial state durable. A
//                   function that stages pages and then fences without
//                   publishing the intent breaks the crash protocol.
//   direct-kernel-entry
//                   KernelEntry is the metered user->kernel crossing. Only
//                   the KernFS entry points (src/kernfs/kernfs.cc) and the
//                   batching channel (src/kernfs/channel.cc) may construct
//                   one: a KernelEntry anywhere else bypasses the crossing
//                   accounting (foreground/background split, per-thread
//                   counters) and the channel's batching, and nests inside
//                   an already-open crossing — which aborts under
//                   ZOFS_AUDIT=1.
//   unchecked-inode-lock
//                   InodeLock is a lease, not a mutex: acquisition can fail
//                   (a live holder outlasts the wait bound) and can steal a
//                   dead holder's lease. A function that constructs an
//                   InodeLock and never consults ok() proceeds as if locked
//                   when acquisition may have failed — racing the live
//                   holder it could not wait out.
//   direct-key-assign
//                   The MPK key-virtualization layer (src/mpk/keyclass.*) is
//                   the ONE sanctioned writer of the physical-key bitmap
//                   (key_used_), and KernFS's SetPageKeyLocked is the one
//                   sanctioned page-tag sink (page_keys_). Assigning either
//                   anywhere else bypasses the protection-class refcounts,
//                   the published class→key table, and the LRU key window —
//                   exactly the unaccounted key traffic that caused the
//                   pre-virtualization eviction storms.
//
// The checker is deliberately token/scope-level (no libClang in the build
// image): it strips comments/strings, blanks preprocessor lines, tracks
// brace scopes and classifies blocks (namespace/type/function), then matches
// rule patterns per function. False positives are silenced in place:
//
//   // zofs-lint: allow(rule[, rule...]) — why this site is correct
//
// on the offending line or the line directly above. A standalone suppression
// comment before the first code line of a file applies file-wide (used by
// src/common/mutex.h, which *is* the sanctioned raw-mutex site).

#ifndef SRC_ANALYSIS_LINT_LINT_H_
#define SRC_ANALYSIS_LINT_LINT_H_

#include <string>
#include <string_view>
#include <vector>

namespace analysis::lint {

inline constexpr const char* kRuleRawNvmDeref = "raw-nvm-deref";
inline constexpr const char* kRuleUnfencedClwb = "unfenced-clwb";
inline constexpr const char* kRuleNakedWrpkru = "naked-wrpkru";
inline constexpr const char* kRuleLockOrder = "lock-order";
inline constexpr const char* kRuleRawMutex = "raw-mutex";
inline constexpr const char* kRuleStagedAppendRelink = "staged-append-relink";
inline constexpr const char* kRuleDirectKernelEntry = "direct-kernel-entry";
inline constexpr const char* kRuleUncheckedInodeLock = "unchecked-inode-lock";
inline constexpr const char* kRuleDirectKeyAssign = "direct-key-assign";

// All rule names, for --list-rules and suppression validation.
const std::vector<std::string>& AllRules();

struct Diagnostic {
  std::string file;  // as passed in (repo-relative when linting a tree)
  int line = 0;      // 1-based
  std::string rule;
  std::string message;

  // "file:line: rule: message" — stable, greppable.
  std::string ToString() const;
};

// Lints one translation unit. `path` determines the directory exemptions
// (src/nvm for raw-nvm-deref, src/mpk for naked-wrpkru) and is echoed into
// diagnostics; `content` is the file body.
std::vector<Diagnostic> LintSource(const std::string& path, std::string_view content);

// Recursively lints every *.h / *.cc under `root` (skipping build*/ and
// hidden directories). Diagnostics come back sorted by file then line.
// Returns an empty vector and sets *error for an unreadable root.
std::vector<Diagnostic> LintTree(const std::string& root, std::string* error = nullptr);

}  // namespace analysis::lint

#endif  // SRC_ANALYSIS_LINT_LINT_H_
