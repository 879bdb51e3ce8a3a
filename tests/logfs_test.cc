// Tests for LogFS, the log-structured µFS (§5.3's alternative design):
// log replay at remount, commit-point semantics for torn tails, compaction,
// and kernel-assisted recovery.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "src/fslib/fslib.h"
#include "src/kernfs/kernfs.h"
#include "src/logfs/logfs.h"
#include "src/mpk/mpk.h"
#include "src/nvm/nvm.h"
#include "src/oracle/oracle.h"

namespace {

using common::Err;

class LogFsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    kernfs::FormatOptions f;
    f.root_mode = 0755;
    f.root_type = kernfs::kCofferTypeLogFs;
    st_.Format(f, cred);
    dev_->MarkAllPersistent();
  }

  // Unmounts and mounts again: LogFS rebuilds its index by log replay.
  void Remount() {
    st_.Mount(cred);
    dev_->MarkAllPersistent();
  }

  logfs::LogFs& logfs() { return static_cast<logfs::LogFs&>(fs()->ufs()); }
  fslib::FsLib* fs() { return st_.fs(); }
  kernfs::KernFs* kfs() { return st_.kfs(); }

  vfs::Cred cred{0, 0};
  std::unique_ptr<nvm::NvmDevice> dev_ = oracle::NewDevice(256ull << 20, /*crash_tracking=*/true);
  oracle::Stack st_{dev_.get()};
};

TEST_F(LogFsTest, DispatcherSelectsLogFs) {
  EXPECT_STREQ(fs()->ufs().Name(), "LogFS");
}

TEST_F(LogFsTest, ReplayRebuildsNamespace) {
  ASSERT_TRUE(fs()->Mkdir(cred, "/dir", 0755).ok());
  auto fd = fs()->Open(cred, "/dir/f", vfs::kCreate | vfs::kWrite, 0644);
  ASSERT_TRUE(fd.ok());
  std::string data(10000, 'L');
  ASSERT_TRUE(fs()->Pwrite(*fd, data.data(), data.size(), 0).ok());
  ASSERT_TRUE(fs()->Symlink(cred, "/dir/f", "/link").ok());
  ASSERT_TRUE(fs()->Rename(cred, "/dir/f", "/dir/g").ok());

  Remount();  // replay only, no crash

  auto st = fs()->Stat(cred, "/dir/g");
  ASSERT_TRUE(st.ok()) << common::ErrName(st.error());
  EXPECT_EQ(st->size, data.size());
  EXPECT_EQ(fs()->Stat(cred, "/dir/f").error(), Err::kNoEnt);
  auto rl = fs()->ReadLink(cred, "/link");
  ASSERT_TRUE(rl.ok());
  EXPECT_EQ(*rl, "/dir/f");  // symlinks store paths, not nodes

  EXPECT_EQ(oracle::Read(fs(), cred, "/dir/g").data, data);
  EXPECT_GT(logfs().replayed_records(), 0u);
}

TEST_F(LogFsTest, CompletedOpsSurviveCrash) {
  for (int i = 0; i < 40; i++) {
    auto fd = fs()->Open(cred, "/f" + std::to_string(i), vfs::kCreate | vfs::kWrite, 0644);
    ASSERT_TRUE(fd.ok());
    std::string payload = "payload-" + std::to_string(i);
    ASSERT_TRUE(fs()->Write(*fd, payload.data(), payload.size()).ok());
  }
  ASSERT_TRUE(fs()->Unlink(cred, "/f7").ok());

  st_.Crash();
  Remount();

  for (int i = 0; i < 40; i++) {
    if (i == 7) {
      EXPECT_EQ(fs()->Stat(cred, "/f7").error(), Err::kNoEnt);
      continue;
    }
    EXPECT_EQ(oracle::Read(fs(), cred, "/f" + std::to_string(i)).data,
              "payload-" + std::to_string(i));
  }
}

TEST_F(LogFsTest, TornTailRecordIsIgnored) {
  auto fd = fs()->Open(cred, "/good", vfs::kCreate | vfs::kWrite, 0644);
  ASSERT_TRUE(fd.ok());

  // Forge a torn append: record bytes land after the commit point (`used`)
  // but `used` itself never advances — the exact state a crash between the
  // record persist and the commit persist leaves behind. Replay must ignore
  // everything past `used`.
  struct LogSuperView {
    uint64_t magic, head_page, epoch;
  };
  struct LogPageHeaderView {
    uint64_t next, used;
  };
  const auto* root = kfs()->RootPageOf(kfs()->root_coffer_id());
  const auto* super = reinterpret_cast<const LogSuperView*>(dev_->At(root->root_inode_off));
  uint64_t page = super->head_page;
  ASSERT_NE(page, 0u);
  const LogPageHeaderView* hdr;
  for (;;) {
    hdr = reinterpret_cast<const LogPageHeaderView*>(dev_->At(page));
    if (hdr->next == 0) {
      break;
    }
    page = hdr->next;
  }
  // Plausible-looking garbage record right after the committed bytes.
  uint8_t garbage[32] = {1 /* kRecCreate */, 0, 24, 0};
  memcpy(dev_->base() + page + sizeof(LogPageHeaderView) + hdr->used, garbage,
         sizeof(garbage));
  dev_->MarkAllPersistent();

  Remount();
  EXPECT_TRUE(fs()->Stat(cred, "/good").ok());
  // The garbage never became part of the namespace.
  auto entries = fs()->ReadDir(cred, "/");
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 1u);
}

TEST_F(LogFsTest, CompactionShrinksLogAndPreservesState) {
  // Churn: overwrite one file many times so most log records are dead.
  auto fd = fs()->Open(cred, "/churn", vfs::kCreate | vfs::kRdWr, 0644);
  ASSERT_TRUE(fd.ok());
  std::string block(4096, 'c');
  for (int i = 0; i < 2000; i++) {
    block[0] = static_cast<char>('a' + (i % 26));
    ASSERT_TRUE(fs()->Pwrite(*fd, block.data(), block.size(), 0).ok());
  }
  auto fd2 = fs()->Open(cred, "/keep", vfs::kCreate | vfs::kWrite, 0644);
  ASSERT_TRUE(fs()->Write(*fd2, "keepme", 6).ok());

  fs()->BindThread();
  uint64_t pages_before = logfs().log_pages();
  auto freed = logfs().CompactForTest();
  ASSERT_TRUE(freed.ok());
  EXPECT_LT(logfs().log_pages(), pages_before);

  // State intact after compaction...
  EXPECT_EQ(oracle::Read(fs(), cred, "/keep").data, "keepme");
  char c;
  ASSERT_TRUE(fs()->Pread(*fd, &c, 1, 0).ok());
  EXPECT_EQ(c, static_cast<char>('a' + (1999 % 26)));

  // ... and after a remount of the compacted log.
  Remount();
  auto st = fs()->Stat(cred, "/churn");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->size, 4096u);
  EXPECT_TRUE(fs()->Stat(cred, "/keep").ok());
}

TEST_F(LogFsTest, AutomaticCompactionBoundsLogGrowth) {
  auto fd = fs()->Open(cred, "/hot", vfs::kCreate | vfs::kRdWr, 0644);
  ASSERT_TRUE(fd.ok());
  std::string block(4096, 'h');
  for (int i = 0; i < 20000; i++) {
    ASSERT_TRUE(fs()->Pwrite(*fd, block.data(), block.size(), 0).ok()) << i;
  }
  fs()->BindThread();
  // 20k overwrites = 20k write records (~40B each) ~ 200 pages without GC.
  EXPECT_LT(logfs().log_pages(), 150u) << "compaction never triggered";
}

TEST_F(LogFsTest, RecoverAllReclaimsDeadPages) {
  auto fd = fs()->Open(cred, "/f", vfs::kCreate | vfs::kRdWr, 0644);
  std::string big(1 << 20, 'r');
  ASSERT_TRUE(fs()->Pwrite(*fd, big.data(), big.size(), 0).ok());
  const uint64_t free_before = kfs()->FreePages();
  // 255 pages freed. The free list keeps up to four enlarge batches (256
  // pages) and gives the surplus straight back to KernFS; the rest stays
  // parked until recovery reclaims it.
  ASSERT_TRUE(fs()->Ftruncate(*fd, 4096).ok());
  fs()->BindThread();
  const uint64_t parked = logfs().FreeListPagesForTest();
  const uint64_t given_back = kfs()->FreePages() - free_before;
  EXPECT_GT(parked + given_back, 200u);

  st_.Crash();
  Remount();
  const oracle::FsckResult r = oracle::Fsck(st_);
  ASSERT_TRUE(r.ok()) << r.kind << ": " << r.detail;
  // Every parked page comes back, as every freed page did before give-back.
  EXPECT_GE(r.stats.pages_reclaimed, parked);
  EXPECT_GT(kfs()->FreePages() - free_before, 200u);
  // The surviving file still reads.
  auto st = fs()->Stat(cred, "/f");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->size, 4096u);
}

TEST_F(LogFsTest, LogStructuredAppendsAreOutOfPlace) {
  // Overwriting the same block repeatedly allocates fresh pages (out of
  // place) and recycles old ones — coffer page usage stays bounded.
  auto fd = fs()->Open(cred, "/oop", vfs::kCreate | vfs::kRdWr, 0644);
  std::string block(4096, 'x');
  ASSERT_TRUE(fs()->Pwrite(*fd, block.data(), block.size(), 0).ok());
  auto pages0 = kfs()->PagesOf(kfs()->root_coffer_id());
  uint64_t before = 0;
  for (const auto& r : *pages0) {
    before += r.len;
  }
  for (int i = 0; i < 1000; i++) {
    ASSERT_TRUE(fs()->Pwrite(*fd, block.data(), block.size(), 0).ok());
  }
  auto pages1 = kfs()->PagesOf(kfs()->root_coffer_id());
  uint64_t after = 0;
  for (const auto& r : *pages1) {
    after += r.len;
  }
  EXPECT_LE(after, before + 192) << "old out-of-place pages not recycled";
}

}  // namespace
