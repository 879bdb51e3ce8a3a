// Tests for the shared oracles (src/oracle): each must fire on the damage it
// exists to see and stay quiet on legal change.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <string>
#include <vector>

#include "src/kernfs/layout.h"
#include "src/mpk/mpk.h"
#include "src/oracle/oracle.h"
#include "src/zofs/layout.h"

namespace {

using oracle::kRoot;

class OracleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    kernfs::FormatOptions f;
    f.root_mode = 0777;  // other users may create files under /
    st_.Format(f);
  }

  // Creates `path` through `fs` with `pages` pages of data and mode 0600,
  // which gives it a coffer of its own. Returns the byte offsets of its data
  // pages; *node (optional) receives the file.
  std::vector<uint64_t> PrivateFile(fslib::FsLib* fs, const vfs::Cred& cred,
                                    const std::string& path, size_t pages,
                                    zofs::NodeRef* node = nullptr) {
    auto fd = fs->Open(cred, path, vfs::kCreate | vfs::kWrite, 0600);
    EXPECT_TRUE(fd.ok());
    const std::string data(pages * nvm::kPageSize, 'p');
    EXPECT_TRUE(fs->Pwrite(*fd, data.data(), data.size(), 0).ok());
    EXPECT_TRUE(fs->Close(*fd).ok());
    st_.fs()->BindThread();
    auto n = st_.fs()->zofs().Lookup(path, true);
    EXPECT_TRUE(n.ok());
    EXPECT_NE(n->coffer_id, st_.kfs()->root_coffer_id());
    uint64_t size = 0;
    auto idx = st_.fs()->zofs().FilePages(*n, &size);
    EXPECT_TRUE(idx.ok());
    EXPECT_EQ(idx->size(), pages);
    std::vector<uint64_t> offs;
    for (uint64_t pg : *idx) {
      offs.push_back(pg * nvm::kPageSize);
    }
    if (node != nullptr) {
      *node = *n;
    }
    return offs;
  }

  // A directory coffer /sd holding /sd/x, and another user's private file
  // /vault (a coffer in another protection class) with two data pages. The
  // stack is left unmounted so the caller can plant damage.
  struct SdAndVault {
    zofs::NodeRef sd;
    std::vector<uint64_t> vault;
  };
  SdAndVault MakeSdAndVault() {
    SdAndVault sv;
    fslib::FsLib* fs = st_.fs();
    EXPECT_TRUE(fs->Mkdir(kRoot, "/sd", 0700).ok());
    auto x = fs->Open(kRoot, "/sd/x", vfs::kCreate | vfs::kWrite, 0700);
    EXPECT_TRUE(x.ok() && fs->Close(*x).ok());
    fs->BindThread();
    auto sd = fs->zofs().Lookup("/sd", true);
    EXPECT_TRUE(sd.ok());
    sv.sd = *sd;
    const vfs::Cred user{5, 5};
    {
      fslib::FsLib other(st_.kfs(), user);
      sv.vault = PrivateFile(&other, user, "/vault", 2);
    }
    st_.Unmount();
    return sv;
  }

  // /sd's directory body now lives in /vault's pages: an L1 page whose first
  // slot names an L2 page holding one in-use dentry with no name.
  void PlantForeignDirectoryBody(const SdAndVault& sv) {
    for (uint64_t off = 0; off < nvm::kPageSize; off += 8) {
      dev_->Store64(sv.vault[0] + off, off == 0 ? sv.vault[1] : 0);
      dev_->Store64(sv.vault[1] + off, 0);
    }
    dev_->Store16(sv.vault[1] + offsetof(zofs::Dentry, flags), zofs::kDentryInUse);
    dev_->Store64(sv.sd.inode_off + offsetof(zofs::Inode, l1_dir), sv.vault[0]);
  }

  std::unique_ptr<nvm::NvmDevice> dev_ = oracle::NewDevice(32ull << 20);
  oracle::Stack st_{dev_.get()};
};

TEST_F(OracleTest, ContainmentDiffReportsSiblingPageOnly) {
  zofs::NodeRef a, b;
  const uint64_t a_page = PrivateFile(st_.fs(), kRoot, "/a", 1, &a)[0];
  const uint64_t b_page = PrivateFile(st_.fs(), kRoot, "/b", 1, &b)[0];
  std::vector<uint8_t> before, after;
  dev_->SnapshotTo(&before);
  mpk::BindThreadToProcess(nullptr);  // stray stores: no MPK check stops them
  dev_->Store8(a_page + 10, 'x');
  dev_->Store8(b_page + 20, 'y');
  dev_->SnapshotTo(&after);

  const std::vector<oracle::Escape> esc = oracle::ContainmentDiff(before, after, {a.coffer_id});
  ASSERT_EQ(esc.size(), 1u);
  EXPECT_EQ(esc[0].page, b_page / nvm::kPageSize);
  EXPECT_EQ(esc[0].owner, b.coffer_id);
  EXPECT_TRUE(oracle::ContainmentDiff(before, after, {a.coffer_id, b.coffer_id}).empty());
}

TEST_F(OracleTest, FsckPassesCleanStackAndReportsOwnerLie) {
  PrivateFile(st_.fs(), kRoot, "/a", 1);
  EXPECT_TRUE(oracle::Fsck(st_).ok());

  // The persistent table now gives the device's last (free) page to a coffer
  // that does not exist, while the kernel's free map still holds it.
  const auto* sb = dev_->As<kernfs::Superblock>(0);
  const uint64_t last = sb->num_pages - 1;
  mpk::BindThreadToProcess(nullptr);
  dev_->Store32(sb->alloc_table_off + last * sizeof(kernfs::AllocEntry), 0xbeef);
  const oracle::FsckResult r = oracle::Fsck(st_);
  EXPECT_EQ(r.kind, "fsck-alloc");
  EXPECT_NE(r.detail.find(std::to_string(last)), std::string::npos) << r.detail;
}

TEST_F(OracleTest, FsckReportsReachablePageTheCofferDoesNotOwn) {
  zofs::NodeRef a;
  PrivateFile(st_.fs(), kRoot, "/a", 1, &a);
  st_.Unmount();
  st_.Mount();
  EXPECT_TRUE(oracle::Fsck(st_).ok());
  st_.Unmount();

  // /a's second block slot (past its size, as a truncate leaves it before the
  // clear persists) names the device's last page, which the kernel holds
  // free: the next coffer granted that page would share it with /a.
  const auto* sb = dev_->As<kernfs::Superblock>(0);
  const uint64_t last = sb->num_pages - 1;
  dev_->Store64(a.inode_off + offsetof(zofs::Inode, direct) + 8, last * nvm::kPageSize);
  st_.Mount();
  const oracle::FsckResult r = oracle::Fsck(st_);
  EXPECT_EQ(r.kind, "fsck-owner");
  EXPECT_NE(r.detail.find(std::to_string(last)), std::string::npos) << r.detail;
}

TEST_F(OracleTest, FsckReportsFaultEscapingRecovery) {
  const SdAndVault sv = MakeSdAndVault();
  PlantForeignDirectoryBody(sv);
  // The pre-hardening walk (raw_deref_for_test) only bounds-checks directory
  // pages, then clears the nameless dentry in place: a store into a page
  // whose key the recovery window does not hold.
  zofs::Options raw;
  raw.raw_deref_for_test = true;
  st_.Mount(kRoot, raw);

  const oracle::FsckResult r = oracle::Fsck(st_);
  EXPECT_EQ(r.kind, "recovery-failed");
  EXPECT_EQ(r.detail.rfind("mpk fault: write", 0), 0u) << r.detail;
}

TEST_F(OracleTest, RecoveryRefusesDirectoryPagesOfAnotherClass) {
  const SdAndVault sv = MakeSdAndVault();
  PlantForeignDirectoryBody(sv);
  // Clearing that dentry would be a store into a page whose key the recovery
  // window does not hold, so the walk must drop the foreign body unread.
  st_.Mount();

  const oracle::FsckResult r = oracle::Fsck(st_);
  EXPECT_TRUE(r.kind.empty()) << r.kind << ": " << r.detail;
  uint16_t flags = 0;
  std::memcpy(&flags, dev_->base() + sv.vault[1] + offsetof(zofs::Dentry, flags), sizeof(flags));
  EXPECT_EQ(flags, zofs::kDentryInUse);  // the foreign page was left alone
}

TEST_F(OracleTest, FsckReportsRecoveryRefusingLyingRootPage) {
  const SdAndVault sv = MakeSdAndVault();
  // /sd's coffer root page now says its allocator pool lives in one of
  // /vault's pages. User space cannot repair a coffer whose kernel-kept root
  // page is lying, so recovery gives up on it and fsck must say so.
  const uint64_t sd_root = uint64_t{sv.sd.coffer_id} * nvm::kPageSize;
  dev_->Store64(sd_root + offsetof(kernfs::CofferRoot, custom_off), sv.vault[0]);
  st_.Mount();

  const oracle::FsckResult r = oracle::Fsck(st_);
  EXPECT_EQ(r.kind, "recovery-failed");
  EXPECT_EQ(r.detail, common::ErrName(common::Err::kCorrupt)) << r.detail;
}

TEST(CrashPointsTest, CappedSweepIsPrefixOfUncapped) {
  // The snapshot and 9 post-fence states, plus 2 subsets of the epoch after
  // each of the first 9 baselines.
  const std::vector<oracle::CrashPoint> all = oracle::CrashPoints(9, 2, 0);
  ASSERT_EQ(all.size(), 10u + 2u * 9u);
  for (uint64_t cap : {1u, 7u, 8u, 27u, 28u, 40u}) {
    const std::vector<oracle::CrashPoint> capped = oracle::CrashPoints(9, 2, cap);
    ASSERT_EQ(capped.size(), std::min<size_t>(cap, all.size())) << cap;
    for (size_t i = 0; i < capped.size(); i++) {
      EXPECT_EQ(capped[i].id, all[i].id);
      EXPECT_EQ(capped[i].base_epoch, all[i].base_epoch);
      EXPECT_EQ(capped[i].variant, all[i].variant);
    }
  }
}

TEST(FanOutTest, ChunksCoverRangeOnceForAnyThreadCount) {
  for (int threads : {-1, 0, 1, 3, 100}) {
    std::vector<int> hits(17, 0);
    oracle::FanOut(hits.size(), threads, [&](size_t lo, size_t hi) {
      std::for_each(hits.begin() + lo, hits.begin() + hi, [](int& h) { h++; });
    });
    EXPECT_EQ(std::count(hits.begin(), hits.end(), 1), 17) << threads;
  }
}

}  // namespace
