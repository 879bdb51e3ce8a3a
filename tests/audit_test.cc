// Tests for the persistence-ordering and protection auditor: plants each of
// the four bug classes the auditor detects (missing flush at a durability
// point, commit-before-payload ordering violation, redundant flushes, and
// protection-window misuse) and asserts the corresponding finding appears;
// clean sequences and the full ZoFS stack must audit without errors.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "src/audit/audit.h"
#include "src/fslib/fslib.h"
#include "src/kernfs/kernfs.h"
#include "src/mpk/mpk.h"
#include "src/nvm/nvm.h"
#include "src/oracle/oracle.h"

namespace {

using audit::Auditor;
using audit::FindingKind;
using audit::Report;

nvm::Options SmallOpts() {
  nvm::Options o;
  o.size_bytes = 1 << 20;
  o.crash_tracking = true;
  return o;
}

uint64_t CountOf(const Report& r, FindingKind kind) {
  uint64_t n = 0;
  for (const auto& f : r.findings) {
    if (f.kind == kind) {
      n += f.count;
    }
  }
  return n;
}

const audit::Finding* FindKind(const Report& r, FindingKind kind) {
  for (const auto& f : r.findings) {
    if (f.kind == kind) {
      return &f;
    }
  }
  return nullptr;
}

// RAII attach/detach so a planted bug never leaks into the process-wide env
// auditor when the suite itself runs under ZOFS_AUDIT=1.
class ScopedAudit {
 public:
  ScopedAudit(Auditor* a, nvm::NvmDevice* dev) : a_(a) { a_->Attach(dev); }
  ~ScopedAudit() { a_->Detach(); }

 private:
  Auditor* a_;
};

TEST(AuditTest, CleanSequenceHasNoFindings) {
  nvm::NvmDevice dev(SmallOpts());
  Auditor a;
  ScopedAudit attach(&a, &dev);
  dev.Store64(64, 1);
  dev.Clwb(64, 8);
  dev.Sfence();
  AUDIT_DURABILITY_POINT(&dev, 64, 8);
  Report r = a.Snapshot();
  EXPECT_EQ(r.errors, 0u);
  EXPECT_EQ(r.warnings, 0u);
  EXPECT_EQ(r.perf_lints, 0u);
  EXPECT_TRUE(r.findings.empty());
}

// Bug class 1: a store left dirty (no clwb/sfence) when the code declares the
// range durable.
TEST(AuditTest, DetectsMissingFlushAtDurabilityPoint) {
  nvm::NvmDevice dev(SmallOpts());
  Auditor a;
  ScopedAudit attach(&a, &dev);
  dev.Store64(128, 0xdead);
  AUDIT_DURABILITY_POINT(&dev, 128, 8);  // planted: nothing was flushed
  Report r = a.Snapshot();
  EXPECT_EQ(CountOf(r, FindingKind::kUnflushedAtDurability), 1u);
  EXPECT_GE(r.errors, 1u);
  const audit::Finding* f = FindKind(r, FindingKind::kUnflushedAtDurability);
  ASSERT_NE(f, nullptr);
  EXPECT_NE(f->site.find("audit_test.cc"), std::string::npos);  // call-site tag
}

// Written back but not fenced is still volatile under the strict fence model,
// so a durability point before the sfence must also fire.
TEST(AuditTest, DetectsUnfencedWritebackAtDurabilityPoint) {
  nvm::NvmDevice dev(SmallOpts());
  Auditor a;
  ScopedAudit attach(&a, &dev);
  dev.Store64(128, 7);
  dev.Clwb(128, 8);
  AUDIT_DURABILITY_POINT(&dev, 128, 8);  // planted: clwb'd but no fence yet
  EXPECT_EQ(CountOf(a.Snapshot(), FindingKind::kUnflushedAtDurability), 1u);
  dev.Sfence();
  a.ResetFindings();
  AUDIT_DURABILITY_POINT(&dev, 128, 8);  // now durable: clean
  EXPECT_EQ(a.ErrorCount(), 0u);
}

// Bug class 2: the commit record becomes persistent at a fence while the
// payload it covers is still sitting dirty in the cache.
TEST(AuditTest, DetectsCommitBeforePayloadOrdering) {
  nvm::NvmDevice dev(SmallOpts());
  Auditor a;
  ScopedAudit attach(&a, &dev);
  uint64_t payload = 42;
  dev.StoreBytes(0, &payload, 8);  // cached store: dirty, never flushed
  uint64_t commit = 1;
  dev.NtStoreBytes(512, &commit, 8);  // NT store: persistent at next fence
  AUDIT_ORDER_AFTER(&dev, /*commit=*/512, 8, /*payload=*/0, 8);
  dev.Sfence();  // planted: persists the commit, payload still volatile
  Report r = a.Snapshot();
  EXPECT_EQ(CountOf(r, FindingKind::kOrderingViolation), 1u);
  EXPECT_GE(r.errors, 1u);
}

TEST(AuditTest, CorrectCommitOrderingIsClean) {
  nvm::NvmDevice dev(SmallOpts());
  Auditor a;
  ScopedAudit attach(&a, &dev);
  uint64_t payload = 42;
  dev.StoreBytes(0, &payload, 8);
  dev.Clwb(0, 8);
  dev.Sfence();  // payload durable first
  uint64_t commit = 1;
  dev.NtStoreBytes(512, &commit, 8);
  AUDIT_ORDER_AFTER(&dev, 512, 8, 0, 8);
  dev.Sfence();
  EXPECT_EQ(a.ErrorCount(), 0u);
}

// Bug class 3: flushes that do no work — clwb over clean lines and fences
// with no write-backs pending — reported as perf lints with per-site counts.
TEST(AuditTest, FlagsRedundantFlushesWithSiteAttribution) {
  nvm::NvmDevice dev(SmallOpts());
  Auditor a;
  ScopedAudit attach(&a, &dev);
  {
    AUDIT_SCOPE("PlantedFlushLoop");
    dev.Store64(0, 1);
    dev.Clwb(0, 8);
    dev.Clwb(0, 8);  // planted: line already written back
    dev.Sfence();
    dev.Sfence();  // planted: nothing pending
  }
  Report r = a.Snapshot();
  EXPECT_EQ(r.errors, 0u);  // perf lints are not errors
  const audit::Finding* clwb = FindKind(r, FindingKind::kRedundantClwb);
  const audit::Finding* sfence = FindKind(r, FindingKind::kRedundantSfence);
  ASSERT_NE(clwb, nullptr);
  ASSERT_NE(sfence, nullptr);
  EXPECT_EQ(clwb->count, 1u);
  EXPECT_EQ(sfence->count, 1u);
  // Attributed to the enclosing AUDIT_SCOPE tag, not "(untagged)".
  EXPECT_NE(clwb->site.find("PlantedFlushLoop"), std::string::npos);
  EXPECT_NE(sfence->site.find("PlantedFlushLoop"), std::string::npos);
  EXPECT_EQ(r.redundant_sfences, 1u);
  EXPECT_EQ(r.redundant_clwb_lines, 1u);
}

// Bug class 3b: the same cacheline written back twice inside one fence epoch.
// The second clwb is NOT redundant (the line was re-dirtied), but it is still
// wasted traffic an epoch batcher would coalesce into a single write-back.
TEST(AuditTest, FlagsDuplicateWritebacksWithinOneEpoch) {
  nvm::NvmDevice dev(SmallOpts());
  Auditor a;
  ScopedAudit attach(&a, &dev);
  {
    AUDIT_SCOPE("PlantedEagerFlush");
    dev.Store64(0, 1);
    dev.Clwb(0, 8);
    dev.Store64(8, 2);  // same cacheline, re-dirtied
    dev.Clwb(8, 8);     // planted: second write-back of line 0 in this epoch
    dev.Sfence();
  }
  Report r = a.Snapshot();
  EXPECT_EQ(r.errors, 0u);
  EXPECT_EQ(r.redundant_clwb_lines, 0u);  // both clwbs did real work
  EXPECT_EQ(r.duplicate_epoch_clwb_lines, 1u);
  const audit::Finding* dup = FindKind(r, FindingKind::kDuplicateEpochClwb);
  ASSERT_NE(dup, nullptr);
  EXPECT_EQ(dup->count, 1u);
  EXPECT_NE(dup->site.find("PlantedEagerFlush"), std::string::npos);

  // Once a fence closes the epoch, flushing the line again is a fresh epoch:
  // no new duplicate.
  a.ResetFindings();
  dev.Store64(0, 3);
  dev.Clwb(0, 8);
  dev.Sfence();
  EXPECT_EQ(a.Snapshot().duplicate_epoch_clwb_lines, 0u);
}

// Bug class 4a: an API returns with an AccessWindow still open / PKRU
// changed across the call (guideline G1).
TEST(AuditTest, DetectsWindowLeakAcrossApiBoundary) {
  nvm::NvmDevice dev(SmallOpts());
  Auditor a;
  ScopedAudit attach(&a, &dev);
  std::unique_ptr<mpk::AccessWindow> leaked;
  {
    audit::ApiGuard guard("LeakyApi");
    leaked = std::make_unique<mpk::AccessWindow>(3, true);
  }  // planted: guard exits while the window is still open
  leaked.reset();
  Report r = a.Snapshot();
  EXPECT_EQ(CountOf(r, FindingKind::kWindowLeak), 1u);
  EXPECT_GE(r.errors, 1u);
  const audit::Finding* f = FindKind(r, FindingKind::kWindowLeak);
  ASSERT_NE(f, nullptr);
  EXPECT_NE(f->site.find("LeakyApi"), std::string::npos);
}

TEST(AuditTest, BalancedWindowDoesNotLeak) {
  nvm::NvmDevice dev(SmallOpts());
  Auditor a;
  ScopedAudit attach(&a, &dev);
  {
    audit::ApiGuard guard("TidyApi");
    mpk::AccessWindow w(3, false);
  }
  EXPECT_EQ(CountOf(a.Snapshot(), FindingKind::kWindowLeak), 0u);
}

// Bug class 4b: a writable window that never writes (guideline G2 lint).
TEST(AuditTest, WarnsOnWritableWindowThatOnlyReads) {
  nvm::NvmDevice dev(SmallOpts());
  mpk::PageKeyTable table(dev.size() / nvm::kPageSize, uint8_t{1});
  mpk::BindThreadToProcess(&table);
  Auditor a;
  a.Attach(&dev);
  {
    AUDIT_SCOPE("ReadOnlyUser");
    mpk::AccessWindow w(1, /*writable=*/true);  // planted: asks for write
    mpk::CheckAccess(0, 8, /*is_write=*/false);  // ...but only reads
  }
  Report r = a.Snapshot();
  a.Detach();
  mpk::BindThreadToProcess(nullptr);
  EXPECT_EQ(CountOf(r, FindingKind::kWindowOverWritable), 1u);
  EXPECT_EQ(r.errors, 0u);  // a lint, not an error
  EXPECT_GE(r.warnings, 1u);
  const audit::Finding* f = FindKind(r, FindingKind::kWindowOverWritable);
  ASSERT_NE(f, nullptr);
  EXPECT_NE(f->site.find("ReadOnlyUser"), std::string::npos);
}

TEST(AuditTest, WritableWindowThatWritesIsClean) {
  nvm::NvmDevice dev(SmallOpts());
  mpk::PageKeyTable table(dev.size() / nvm::kPageSize, uint8_t{1});
  mpk::BindThreadToProcess(&table);
  Auditor a;
  a.Attach(&dev);
  {
    mpk::AccessWindow w(1, true);
    mpk::CheckAccess(0, 8, /*is_write=*/true);
  }
  Report r = a.Snapshot();
  a.Detach();
  mpk::BindThreadToProcess(nullptr);
  EXPECT_EQ(CountOf(r, FindingKind::kWindowOverWritable), 0u);
}

TEST(AuditTest, ReportJsonIsDeterministic) {
  nvm::NvmDevice dev(SmallOpts());
  Auditor a;
  ScopedAudit attach(&a, &dev);
  dev.Store64(128, 1);
  AUDIT_DURABILITY_POINT(&dev, 128, 8);
  dev.Store64(256, 2);
  dev.Clwb(256, 8);
  dev.Clwb(256, 8);
  dev.Sfence();
  Report r = a.Snapshot();
  std::string j1 = r.ToJson();
  std::string j2 = a.Snapshot().ToJson();
  EXPECT_EQ(j1, j2);
  EXPECT_NE(j1.find("\"unflushed_at_durability_point\""), std::string::npos);
  EXPECT_NE(j1.find("\"errors\": 1"), std::string::npos);
  EXPECT_FALSE(r.ToText().empty());
}

// The real stack, end to end: a ZoFS workload (create/write/read/rename/
// unlink across the inline and block paths) must audit with zero errors and
// zero warnings — the annotations in src/zofs describe what the code does.
TEST(AuditTest, ZofsStackAuditsClean) {
  auto dev = oracle::NewDevice(128ull << 20);
  Auditor a;
  a.Attach(dev.get());
  kernfs::FormatOptions f;
  f.root_mode = 0755;
  oracle::Stack st(dev.get());
  st.Format(f);
  const vfs::Cred cred = oracle::kRoot;
  {
    fslib::FsLib& fs = *st.fs();
    ASSERT_TRUE(fs.Mkdir(cred, "/dir", 0755).ok());
    auto fd = fs.Open(cred, "/dir/file", vfs::kCreate | vfs::kRdWr, 0644);
    ASSERT_TRUE(fd.ok());
    char small[100];
    memset(small, 'a', sizeof(small));
    ASSERT_TRUE(fs.Write(*fd, small, sizeof(small)).ok());  // inline path
    std::vector<char> big(3 * nvm::kPageSize, 'b');
    ASSERT_TRUE(fs.Write(*fd, big.data(), big.size()).ok());  // spill + blocks
    char back[100];
    ASSERT_TRUE(fs.Pread(*fd, back, sizeof(back), 0).ok());
    ASSERT_TRUE(fs.Close(*fd).ok());
    ASSERT_TRUE(fs.Rename(cred, "/dir/file", "/dir/file2").ok());
    ASSERT_TRUE(fs.Unlink(cred, "/dir/file2").ok());
    ASSERT_TRUE(fs.Rmdir(cred, "/dir").ok());
  }
  st.Unmount();  // the unmount drain is part of the audited run
  Report r = a.Snapshot();
  a.Detach();
  if (r.errors != 0 || r.warnings != 0) {
    fprintf(stderr, "%s", r.ToText().c_str());
  }
  EXPECT_EQ(r.errors, 0u);
  EXPECT_EQ(r.warnings, 0u);
  EXPECT_GT(r.stores, 0u);  // the auditor actually observed the traffic
}

}  // namespace
