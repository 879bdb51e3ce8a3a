// Tests for zofs_lint (src/analysis/lint): one triggering and one
// suppressed fixture per rule, the suppression mechanics, and — the gate
// that matters — a clean run over the real source tree.

#include "src/analysis/lint/lint.h"

#include <string>
#include <vector>

#include "gtest/gtest.h"

namespace analysis::lint {
namespace {

// ---- raw-nvm-deref ------------------------------------------------------

TEST(LintRawNvmDeref, FlagsBaseOutsideNvm) {
  const char* src = R"(
void Copy(nvm::NvmDevice* dev, uint8_t* dst) {
  memcpy(dst, dev->base() + 64, 64);
}
)";
  auto diags = LintSource("src/zofs/x.cc", src);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, kRuleRawNvmDeref);
  EXPECT_EQ(diags[0].line, 3);
}

TEST(LintRawNvmDeref, SuppressedOnPrecedingLine) {
  const char* src = R"(
void Copy(nvm::NvmDevice* dev, uint8_t* dst) {
  // zofs-lint: allow(raw-nvm-deref) — bounds-checked above
  memcpy(dst, dev->base() + 64, 64);
}
)";
  EXPECT_TRUE(LintSource("src/zofs/x.cc", src).empty());
}

TEST(LintRawNvmDeref, ExemptInsideNvm) {
  const char* src = "uint8_t* P(nvm::NvmDevice* d) { return d->base() + 1; }\n";
  EXPECT_TRUE(LintSource("src/nvm/nvm.cc", src).empty());
}

// ---- unfenced-clwb ------------------------------------------------------

TEST(LintUnfencedClwb, FlagsClwbWithoutFence) {
  const char* src = R"(
void Publish(nvm::NvmDevice* dev, uint64_t off) {
  dev->Store64(off, 1);
  dev->Clwb(off, 8);
}
)";
  auto diags = LintSource("src/zofs/x.cc", src);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, kRuleUnfencedClwb);
  EXPECT_EQ(diags[0].line, 4);
}

TEST(LintUnfencedClwb, FenceAfterLastClwbIsClean) {
  const char* src = R"(
void Publish(nvm::NvmDevice* dev, uint64_t off) {
  dev->Clwb(off, 8);
  dev->Clwb(off + 64, 8);
  dev->Sfence();
}
)";
  EXPECT_TRUE(LintSource("src/zofs/x.cc", src).empty());
}

TEST(LintUnfencedClwb, FenceBeforeClwbStillFlags) {
  const char* src = R"(
void Publish(nvm::NvmDevice* dev, uint64_t off) {
  dev->Sfence();
  dev->Clwb(off, 8);
}
)";
  ASSERT_EQ(LintSource("src/zofs/x.cc", src).size(), 1u);
}

TEST(LintUnfencedClwb, PersistRangeCounts) {
  const char* src = R"(
void Publish(nvm::NvmDevice* dev, uint64_t off) {
  dev->Clwb(off, 8);
  dev->PersistRange(off + 64, 8);
}
)";
  EXPECT_TRUE(LintSource("src/zofs/x.cc", src).empty());
}

TEST(LintUnfencedClwb, SuppressedDeferredDurability) {
  const char* src = R"(
void Publish(nvm::NvmDevice* dev, uint64_t off) {
  dev->Clwb(off, 8);  // zofs-lint: allow(unfenced-clwb) — caller fences
}
)";
  EXPECT_TRUE(LintSource("src/zofs/x.cc", src).empty());
}

// Declarations (e.g. `void Clwb(uint64_t, size_t);` in a class body) are not
// calls and must not arm the rule.
TEST(LintUnfencedClwb, DeclarationDoesNotArm) {
  const char* src = R"(
class NvmDevice {
 public:
  void Clwb(uint64_t off, size_t len);
  void Sfence();
};
)";
  EXPECT_TRUE(LintSource("src/fake/dev.h", src).empty());
}

// ---- naked-wrpkru -------------------------------------------------------

TEST(LintNakedWrpkru, FlagsOutsideMpk) {
  const char* src = R"(
void Escalate() {
  mpk::WrPkru(0);
}
)";
  auto diags = LintSource("src/zofs/x.cc", src);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, kRuleNakedWrpkru);
}

TEST(LintNakedWrpkru, SuppressedAndExempt) {
  const char* suppressed = R"(
void Restore(uint32_t saved) {
  // zofs-lint: allow(naked-wrpkru)
  mpk::WrPkru(saved);
}
)";
  EXPECT_TRUE(LintSource("src/kernfs/x.cc", suppressed).empty());
  EXPECT_TRUE(LintSource("src/mpk/mpk.cc", "void W() { WrPkru(0); }\n").empty());
}

// Identifier boundaries: NoteWrPkru is not WrPkru.
TEST(LintNakedWrpkru, NoSubstringMatch) {
  EXPECT_TRUE(LintSource("src/audit/x.cc", "void N() { audit::NoteWrPkru(0); }\n").empty());
}

// ---- lock-order ---------------------------------------------------------

TEST(LintLockOrder, FlagsKernelCallUnderShardLock) {
  const char* src = R"(
bool ZoFs::Evict(uint32_t cid) {
  Shard& sh = ShardFor(cid);
  ShardWriteLock lk(this, sh);
  kfs_->CofferUnmap(*proc_, cid);
  return true;
}
)";
  auto diags = LintSource("src/zofs/x.cc", src);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, kRuleLockOrder);
  EXPECT_EQ(diags[0].line, 5);
}

TEST(LintLockOrder, EarlyUnlockIsClean) {
  const char* src = R"(
bool ZoFs::Evict(uint32_t cid) {
  Shard& sh = ShardFor(cid);
  ShardWriteLock lk(this, sh);
  lk.Unlock();
  kfs_->CofferUnmap(*proc_, cid);
  return true;
}
)";
  EXPECT_TRUE(LintSource("src/zofs/x.cc", src).empty());
}

TEST(LintLockOrder, ScopeExitReleases) {
  const char* src = R"(
bool ZoFs::Evict(uint32_t cid) {
  {
    ShardReadLock lk(this, ShardFor(cid));
  }
  kfs_->CofferUnmap(*proc_, cid);
  return true;
}
)";
  EXPECT_TRUE(LintSource("src/zofs/x.cc", src).empty());
}

TEST(LintLockOrder, FlagsShardLockUnderRetireMu) {
  const char* src = R"(
void ZoFs::Drain() {
  common::MutexLock rlk(&retire_mu_);
  ShardWriteLock lk(this, ShardFor(0));
}
)";
  auto diags = LintSource("src/zofs/x.cc", src);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, kRuleLockOrder);
}

TEST(LintLockOrder, RetireUnderShardIsTheSanctionedOrder) {
  const char* src = R"(
void ZoFs::Retire(Shard& sh, uint32_t cid) {
  ShardWriteLock lk(this, sh);
  common::MutexLock rlk(&retire_mu_);
}
)";
  EXPECT_TRUE(LintSource("src/zofs/x.cc", src).empty());
}

TEST(LintLockOrder, Suppressed) {
  const char* src = R"(
bool ZoFs::Evict(uint32_t cid) {
  ShardWriteLock lk(this, ShardFor(cid));
  // zofs-lint: allow(lock-order) — deliberate, see header comment
  kfs_->CofferUnmap(*proc_, cid);
  return true;
}
)";
  EXPECT_TRUE(LintSource("src/zofs/x.cc", src).empty());
}

// ---- raw-mutex ----------------------------------------------------------

TEST(LintRawMutex, FlagsStdMutexAnywhere) {
  const char* src = R"(
class T {
  std::mutex mu_;
};
)";
  auto diags = LintSource("src/harness/x.h", src);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, kRuleRawMutex);
}

TEST(LintRawMutex, FlagsStdGuards) {
  const char* src = "void F(std::mutex& m) { std::lock_guard<std::mutex> lk(m); }\n";
  // One diagnostic per std:: lock token: the parameter, the template
  // argument, and the guard itself.
  EXPECT_EQ(LintSource("src/x.cc", src).size(), 3u);
}

TEST(LintRawMutex, FlagsStdConditionVariables) {
  const char* src = R"(
class Q {
  std::condition_variable cv_;
  std::condition_variable_any any_cv_;
};
)";
  auto diags = LintSource("src/apps/x.h", src);
  ASSERT_EQ(diags.size(), 2u);
  EXPECT_EQ(diags[0].rule, kRuleRawMutex);
  EXPECT_EQ(diags[1].rule, kRuleRawMutex);
}

TEST(LintRawMutex, SuppressedConditionVariable) {
  const char* src = R"(
class Q {
  // zofs-lint: allow(raw-mutex) — waits on a lock owned by a third-party API
  std::condition_variable cv_;
};
)";
  EXPECT_TRUE(LintSource("src/apps/x.h", src).empty());
}

TEST(LintRawMutex, FileWideAllowInWrapperHeader) {
  const char* src = R"(
// zofs-lint: allow(raw-mutex) — this IS the wrapper layer
#ifndef X_H_
#define X_H_
#include <mutex>
class Mutex {
  std::mutex mu_;
};
#endif
)";
  EXPECT_TRUE(LintSource("src/common/fake_mutex.h", src).empty());
}

TEST(LintRawMutex, FileWideAllowRequiresLeadingPosition) {
  const char* src = R"(
class T {
  int x = 0;
};
// zofs-lint: allow(raw-mutex) — too late: code precedes it
class U {
  std::mutex mu_;
};
)";
  EXPECT_EQ(LintSource("src/x.h", src).size(), 1u);
}

// ---- staged-append-relink -----------------------------------------------

TEST(LintStagedAppendRelink, FlagsFenceWithoutIntent) {
  const char* src = R"(
Status ZoFs::FlushStageBroken(const MapInfo& info, StageState* st) {
  ASSIGN_OR_RETURN(uint64_t page, alloc.AllocPageStaged(&st->flush));
  st->flush.FlushAll(dev);
  dev->Sfence();
  return OkStatus();
}
)";
  auto diags = LintSource("src/zofs/x.cc", src);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, kRuleStagedAppendRelink);
  EXPECT_EQ(diags[0].line, 5);
}

TEST(LintStagedAppendRelink, PersistRangeAlsoCounts) {
  const char* src = R"(
Status ZoFs::FlushStageBroken(const MapInfo& info, StageState* st) {
  ASSIGN_OR_RETURN(uint64_t page, alloc.AllocPageStaged(&st->flush));
  dev->PersistRange(page, 64);
  return OkStatus();
}
)";
  ASSERT_EQ(LintSource("src/zofs/x.cc", src).size(), 1u);
}

TEST(LintStagedAppendRelink, IntentBeforeFenceIsClean) {
  const char* src = R"(
Status ZoFs::FlushStageGood(const MapInfo& info, StageState* st) {
  ASSIGN_OR_RETURN(uint64_t page, alloc.AllocPageStaged(&st->flush));
  RETURN_IF_ERROR(PublishStageIntent(info, *st));
  st->flush.FlushAll(dev);
  dev->Sfence();
  return OkStatus();
}
)";
  EXPECT_TRUE(LintSource("src/zofs/x.cc", src).empty());
}

// Staging with no fence in the same function is the normal deferred shape
// (the durability point fences later) and must not arm the rule.
TEST(LintStagedAppendRelink, DeferredFenceIsClean) {
  const char* src = R"(
Result<bool> ZoFs::StageAppendData(Inode* ino, StageState* st) {
  ASSIGN_OR_RETURN(uint64_t page, alloc.AllocPageStaged(&st->flush));
  dev->NtStoreBytes(page, buf, n);
  return true;
}
)";
  EXPECT_TRUE(LintSource("src/zofs/x.cc", src).empty());
}

TEST(LintStagedAppendRelink, OnePerStagingBatch) {
  const char* src = R"(
Status ZoFs::TwoBatches(const MapInfo& info, StageState* st) {
  ASSIGN_OR_RETURN(uint64_t a, alloc.AllocPageStaged(&st->flush));
  dev->Sfence();
  ASSIGN_OR_RETURN(uint64_t b, alloc.AllocPageStaged(&st->flush));
  dev->Sfence();
  return OkStatus();
}
)";
  EXPECT_EQ(LintSource("src/zofs/x.cc", src).size(), 2u);
}

TEST(LintStagedAppendRelink, Suppressed) {
  const char* src = R"(
Status ZoFs::FlushStageSpecial(const MapInfo& info, StageState* st) {
  ASSIGN_OR_RETURN(uint64_t page, alloc.AllocPageStaged(&st->flush));
  // zofs-lint: allow(staged-append-relink) — stage discarded, nothing durable
  dev->Sfence();
  return OkStatus();
}
)";
  EXPECT_TRUE(LintSource("src/zofs/x.cc", src).empty());
}

// ---- direct-kernel-entry ------------------------------------------------

TEST(LintDirectKernelEntry, FlagsConstructionOutsideKernfs) {
  const char* src = R"(
Status ZoFs::SneakyCrossing() {
  mpk::KernelEntry enter(300);
  return OkStatus();
}
)";
  auto diags = LintSource("src/zofs/x.cc", src);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, kRuleDirectKernelEntry);
  EXPECT_EQ(diags[0].line, 3);
}

TEST(LintDirectKernelEntry, ExemptInKernfsAndChannel) {
  const char* src = R"(
Status KernFs::Nop() {
  KernelEntry enter(crossing_ns_);
  return OkStatus();
}
)";
  EXPECT_TRUE(LintSource("src/kernfs/kernfs.cc", src).empty());
  EXPECT_TRUE(LintSource("src/kernfs/channel.cc", src).empty());
}

// The class definition and other non-construction mentions must not fire:
// a declaration in a type block is not a crossing.
TEST(LintDirectKernelEntry, DeclarationDoesNotFire) {
  const char* src = R"(
class KernelEntry {
 public:
  explicit KernelEntry(uint64_t ns);
};
void F(KernelEntry* e) { Use(e); }
)";
  EXPECT_TRUE(LintSource("src/mpk/mpk.h", src).empty());
  EXPECT_TRUE(LintSource("src/zofs/x.h", src).empty());
}

TEST(LintDirectKernelEntry, Suppressed) {
  const char* src = R"(
Status Harness::MeasureRawCrossing() {
  // zofs-lint: allow(direct-kernel-entry) — microbenchmark of the bare cost
  mpk::KernelEntry enter(300);
  return OkStatus();
}
)";
  EXPECT_TRUE(LintSource("src/harness/x.cc", src).empty());
}

// ---- unchecked-inode-lock -----------------------------------------------

TEST(LintUncheckedInodeLock, FlagsLockNeverChecked) {
  const char* src = R"(
Status ZoFs::Touch(Inode* ino) {
  InodeLock lk(dev_, ino->lock_off, lease_ns_);
  ino->mtime = now;
  return OkStatus();
}
)";
  auto diags = LintSource("src/zofs/x.cc", src);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, kRuleUncheckedInodeLock);
  EXPECT_EQ(diags[0].line, 3);
}

TEST(LintUncheckedInodeLock, OkCheckDischarges) {
  const char* src = R"(
Status ZoFs::Touch(Inode* ino) {
  InodeLock lk(dev_, ino->lock_off, lease_ns_);
  if (!lk.ok()) return Status(Err::kBusy);
  ino->mtime = now;
  return OkStatus();
}
)";
  EXPECT_TRUE(LintSource("src/zofs/x.cc", src).empty());
}

// Only the named lock is discharged: a second unchecked lock in the same
// function still fires.
TEST(LintUncheckedInodeLock, PerLockDischarge) {
  const char* src = R"(
Status ZoFs::Link(Inode* a, Inode* b) {
  InodeLock la(dev_, a->lock_off, lease_ns_);
  InodeLock lb(dev_, b->lock_off, lease_ns_);
  if (!la.ok()) return Status(Err::kBusy);
  return OkStatus();
}
)";
  auto diags = LintSource("src/zofs/x.cc", src);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, kRuleUncheckedInodeLock);
  EXPECT_EQ(diags[0].line, 4);
}

// The constructor definition and reference parameters mention the type
// without acquiring anything.
TEST(LintUncheckedInodeLock, DefinitionAndParamDoNotFire) {
  const char* src = R"(
InodeLock::InodeLock(nvm::NvmDevice* dev, uint64_t off, uint64_t lease_ns) {
  Acquire(dev, off, lease_ns);
}
void Inspect(const InodeLock& lk) { Use(lk); }
)";
  EXPECT_TRUE(LintSource("src/zofs/x.cc", src).empty());
}

TEST(LintUncheckedInodeLock, Suppressed) {
  const char* src = R"(
void ZoFs::BestEffortBump(Inode* ino) {
  // zofs-lint: allow(unchecked-inode-lock) — advisory stat bump, stale is fine
  InodeLock lk(dev_, ino->lock_off, lease_ns_);
  ino->atime = now;
}
)";
  EXPECT_TRUE(LintSource("src/zofs/x.cc", src).empty());
}

// ---- direct-key-assign --------------------------------------------------

TEST(LintDirectKeyAssign, FlagsWriteOutsideMpk) {
  const char* src = R"(
void ZoFs::Hack(Process* proc) {
  proc->page_keys_[7] = 3;
}
)";
  auto diags = LintSource("src/zofs/x.cc", src);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, kRuleDirectKeyAssign);
  EXPECT_EQ(diags[0].line, 3);
}

TEST(LintDirectKeyAssign, FlagsCompoundAndStore) {
  const char* src = R"(
void F(Process& p, KeyClassTable& t) {
  p.page_keys_[idx(a)] |= 0x80;
  t.key_used_[k].store(true);
}
)";
  auto diags = LintSource("src/kernfs/x.cc", src);
  ASSERT_EQ(diags.size(), 2u);
  EXPECT_EQ(diags[0].rule, kRuleDirectKeyAssign);
  EXPECT_EQ(diags[1].rule, kRuleDirectKeyAssign);
}

// Reads (comparisons, indexing into an rvalue) and member declarations with
// array extents are not writes.
TEST(LintDirectKeyAssign, ReadsAndDeclarationsDoNotFire) {
  const char* src = R"(
struct T {
  bool key_used_[kNumKeys] = {false};
};
bool F(const Process& p) {
  if (p.page_keys_[3] == 0xff) return true;
  return key_used_[k];
}
)";
  EXPECT_TRUE(LintSource("src/kernfs/x.cc", src).empty());
}

TEST(LintDirectKeyAssign, ExemptInMpk) {
  const char* src = R"(
void KeyClassTable::Free(uint8_t k) {
  key_used_[k] = false;
}
)";
  EXPECT_TRUE(LintSource("src/mpk/keyclass.cc", src).empty());
}

TEST(LintDirectKeyAssign, Suppressed) {
  const char* src = R"(
void KernFs::SetPageKeyLocked(Process& proc, uint64_t page, uint8_t tag) {
  // zofs-lint: allow(direct-key-assign) — the sanctioned kernel page-tag sink
  proc.page_keys_[page] = tag;
}
)";
  EXPECT_TRUE(LintSource("src/kernfs/x.cc", src).empty());
}

// ---- mechanics ----------------------------------------------------------

TEST(LintMechanics, CommentsAndStringsAreIgnored) {
  const char* src = R"(
void F() {
  const char* s = "dev->base() + std::mutex + WrPkru(";
  // dev->base() in a comment
  /* mpk::WrPkru(0); */
}
)";
  EXPECT_TRUE(LintSource("src/x.cc", src).empty());
}

TEST(LintMechanics, SuppressionListCoversMultipleRules) {
  const char* src = R"(
void F(nvm::NvmDevice* dev) {
  // zofs-lint: allow(raw-nvm-deref, naked-wrpkru)
  use(dev->base(), mpk::WrPkru(0));
}
)";
  EXPECT_TRUE(LintSource("src/x.cc", src).empty());
}

TEST(LintMechanics, DiagnosticFormatting) {
  Diagnostic d{"src/a.cc", 12, kRuleRawMutex, "msg"};
  EXPECT_EQ(d.ToString(), "src/a.cc:12: raw-mutex: msg");
}

TEST(LintMechanics, AllRulesListsNine) { EXPECT_EQ(AllRules().size(), 9u); }

// ---- the real tree ------------------------------------------------------

// The enforced gate: src/ lints clean. Every justified exception carries an
// inline suppression; anything new must either follow the rules or argue
// its case in a comment.
TEST(LintTree, RealSourceTreeIsClean) {
#ifndef ZOFS_SOURCE_DIR
  GTEST_SKIP() << "ZOFS_SOURCE_DIR not defined";
#else
  std::string err;
  auto diags = LintTree(std::string(ZOFS_SOURCE_DIR) + "/src", &err);
  EXPECT_TRUE(err.empty()) << err;
  for (const auto& d : diags) {
    ADD_FAILURE() << d.ToString();
  }
#endif
}

TEST(LintTree, UnreadableRootReportsError) {
  std::string err;
  auto diags = LintTree("/nonexistent/zofs-lint-root", &err);
  EXPECT_TRUE(diags.empty());
  EXPECT_FALSE(err.empty());
}

}  // namespace
}  // namespace analysis::lint
