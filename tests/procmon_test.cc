// Tenant-death tests (src/procmon + the kill/steal/repair/reap machinery):
//
//   * a survivor steals a dead tenant's expired InodeLock and repairs the
//     corpse's published staged-append intent IN PLACE — no remount;
//   * same for a half-done rename intent (rolled forward from the intent);
//   * two survivors race one expired lock: exactly one steal, one repair,
//     and both threads' operations eventually succeed;
//   * the kernel reaper reclaims a dead process's mappings, channel rings
//     and unharvested grants without the corpse's cooperation;
//   * a small end-to-end soak covers every kill point and comes out clean
//     with a byte-stable report.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/clock.h"
#include "src/common/killpoint.h"
#include "src/fslib/fslib.h"
#include "src/kernfs/channel.h"
#include "src/kernfs/kernfs.h"
#include "src/mpk/mpk.h"
#include "src/nvm/nvm.h"
#include "src/oracle/oracle.h"
#include "src/procmon/procmon.h"
#include "src/zofs/alloc.h"
#include "src/zofs/zofs.h"

namespace {

using oracle::kRoot;
const vfs::Cred kTenant{100, 100};

class ProcmonTest : public ::testing::Test {
 protected:
  void SetUp() override {
    kernfs::FormatOptions f;
    f.root_mode = 0777;
    st_.Format(f);
    kfs_ = st_.kfs();
  }

  void TearDown() override { common::SetCurrentThreadKilled(false); }

  // Runs `setup` (kill points disarmed) then `op` (kill point armed) on a
  // fresh tenant process with its own lease identity, killing it at `point`.
  // Leaves the corpse in the morgue (victim_ abandoned) and the logical
  // clock advanced past lease expiry.
  void KillTenantAt(const char* point, const std::function<void(fslib::FsLib*)>& setup,
                    const std::function<void(fslib::FsLib*)>& op) {
    victim_ = std::make_unique<fslib::FsLib>(kfs_, kTenant);
    bool fired = false;
    {
      zofs::ScopedTidOverride tid(1000);
      victim_->BindThread();
      if (setup != nullptr) {
        setup(victim_.get());
      }
      common::ScopedKillArm arm(point);
      try {
        op(victim_.get());
      } catch (const common::ProcessKilledError& e) {
        EXPECT_STREQ(e.point, point);
        fired = true;
      }
      EXPECT_EQ(arm.fired(), fired);
      common::SetCurrentThreadKilled(false);
    }
    mpk::BindThreadToProcess(nullptr);
    ASSERT_TRUE(fired) << "kill point " << point << " never fired";

    kernfs::KillOptions ko;  // no stray burst: these tests isolate repair
    kfs_->KillProcess(victim_->proc(), ko);
    victim_->Abandon();
    common::AdvanceNowNsForTest(10'000'000'000ull);  // lapse the dead lease
  }

  // The root process that outlives the victims.
  fslib::FsLib* Survivor() { return st_.fs(); }

  common::ScopedClockPin clock_{1'000'000'000ull};  // deterministic lease arithmetic
  std::unique_ptr<nvm::NvmDevice> dev_ = oracle::NewDevice(64ull << 20, /*crash_tracking=*/true);
  oracle::Stack st_{dev_.get()};
  kernfs::KernFs* kfs_ = nullptr;  // st_'s, for the whole test
  std::unique_ptr<fslib::FsLib> victim_;
};

TEST_F(ProcmonTest, StealRepairsPendingStagedIntentWithoutRemount) {
  const std::string payload(3 * nvm::kPageSize, 'z');
  vfs::Fd vfd = 0;
  KillTenantAt(
      common::kKillStagedIntentPublished,
      [&](fslib::FsLib* fs) {
        ASSERT_TRUE(fs->Mkdir(kTenant, "/v", 0700).ok());
        // Appends stage; Fsync's FlushStage publishes the intent, then dies.
        auto fd = fs->Open(kTenant, "/v/log", vfs::kCreate | vfs::kWrite | vfs::kAppend, 0600);
        ASSERT_TRUE(fd.ok());
        vfd = *fd;
        ASSERT_TRUE(fs->Write(vfd, payload.data(), payload.size()).ok());
      },
      [&](fslib::FsLib* fs) { (void)fs->Fsync(vfd); });

  // The corpse left the file's InodeLock held and a published staged-append
  // intent: the size update and block-pointer install never ran.
  const uint64_t steals0 = zofs::LockStealCount();
  const uint64_t repairs0 = zofs::OnlineRepairCount();

  // Same mounted KernFs, no remount, no RecoverAll: the survivor's write
  // takes the file's expired lock, steals it and rolls the intent forward in
  // place. The overwrite re-stores the byte already there so the content
  // check below stays exact.
  zofs::ScopedTidOverride tid(7);
  fslib::FsLib* fs = Survivor();
  auto fd = fs->Open(kRoot, "/v/log", vfs::kRdWr, 0);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(fs->Pwrite(*fd, "z", 1, 0).ok());

  EXPECT_GE(zofs::LockStealCount() - steals0, 1u);
  EXPECT_EQ(zofs::OnlineRepairCount() - repairs0, 1u);

  auto st = fs->Fstat(*fd);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->size, payload.size());
  std::string back(payload.size(), 0);
  ASSERT_TRUE(fs->Pread(*fd, back.data(), back.size(), 0).ok());
  EXPECT_EQ(back, payload);
  ASSERT_TRUE(fs->Close(*fd).ok());

  // A second, steal-free write finds nothing left to repair.
  const uint64_t repairs1 = zofs::OnlineRepairCount();
  auto fd2 = fs->Open(kRoot, "/v/log", vfs::kRdWr, 0);
  ASSERT_TRUE(fd2.ok());
  ASSERT_TRUE(fs->Pwrite(*fd2, "z", 1, 0).ok());
  ASSERT_TRUE(fs->Close(*fd2).ok());
  EXPECT_EQ(zofs::OnlineRepairCount(), repairs1);
}

TEST_F(ProcmonTest, StealRepairsPendingRenameIntentWithoutRemount) {
  KillTenantAt(
      common::kKillMidRenameIntent,
      [&](fslib::FsLib* fs) {
        ASSERT_TRUE(fs->Mkdir(kTenant, "/v", 0700).ok());
        auto fd = fs->Open(kTenant, "/v/a", vfs::kCreate | vfs::kWrite, 0600);
        ASSERT_TRUE(fd.ok());
        ASSERT_TRUE(fs->Write(*fd, "payload", 7).ok());
        ASSERT_TRUE(fs->Close(*fd).ok());
      },
      [&](fslib::FsLib* fs) { (void)fs->Rename(kTenant, "/v/a", "/v/b"); });

  // The kill site sits after the destination dentry landed: both names are
  // momentarily visible, vouched by the persistent intent.
  const uint64_t repairs0 = zofs::OnlineRepairCount();

  // Creating an unrelated file in /v takes the directory's dead-held lock:
  // the steal repairs the rename in place (rolls it forward — the intent had
  // committed), again without a remount.
  zofs::ScopedTidOverride tid(7);
  fslib::FsLib* fs = Survivor();
  auto probe = fs->Open(kRoot, "/v/probe", vfs::kCreate | vfs::kWrite, 0600);
  ASSERT_TRUE(probe.ok());
  ASSERT_TRUE(fs->Close(*probe).ok());

  EXPECT_EQ(zofs::OnlineRepairCount() - repairs0, 1u);
  EXPECT_FALSE(fs->Stat(kRoot, "/v/a").ok());
  auto st = fs->Stat(kRoot, "/v/b");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->size, 7u);
  EXPECT_EQ(oracle::Read(fs, kRoot, "/v/b").data, "payload");
}

TEST_F(ProcmonTest, ConcurrentStealExactlyOneWins) {
  const std::string payload(2 * nvm::kPageSize, 'q');
  vfs::Fd vfd = 0;
  KillTenantAt(
      common::kKillStagedIntentPublished,
      [&](fslib::FsLib* fs) {
        ASSERT_TRUE(fs->Mkdir(kTenant, "/v", 0700).ok());
        auto fd = fs->Open(kTenant, "/v/log", vfs::kCreate | vfs::kWrite | vfs::kAppend, 0600);
        ASSERT_TRUE(fd.ok());
        vfd = *fd;
        ASSERT_TRUE(fs->Write(vfd, payload.data(), payload.size()).ok());
      },
      [&](fslib::FsLib* fs) { (void)fs->Fsync(vfd); });

  const uint64_t steals0 = zofs::LockStealCount();
  const uint64_t repairs0 = zofs::OnlineRepairCount();

  // Two survivors race the one expired lock. The expiry-CAS claim in the
  // steal path admits exactly one thief; the loser sees a live lease, waits
  // out the handover and acquires normally once the winner releases.
  fslib::FsLib* fs = Survivor();
  bool done[2] = {false, false};
  std::thread racers[2];
  for (int i = 0; i < 2; i++) {
    racers[i] = std::thread([&, i] {
      zofs::ScopedTidOverride tid(2001 + i);
      fs->BindThread();
      for (int attempt = 0; attempt < 8 && !done[i]; attempt++) {
        auto fd = fs->Open(kRoot, "/v/log", vfs::kRdWr, 0);
        if (!fd.ok()) {
          continue;
        }
        if (fs->Pwrite(*fd, "q", 1, 0).ok()) {  // re-stores the byte in place
          done[i] = true;
        }
        (void)fs->Close(*fd);
      }
      mpk::BindThreadToProcess(nullptr);
    });
  }
  racers[0].join();
  racers[1].join();

  EXPECT_TRUE(done[0]);
  EXPECT_TRUE(done[1]);
  EXPECT_EQ(zofs::LockStealCount() - steals0, 1u);
  EXPECT_EQ(zofs::OnlineRepairCount() - repairs0, 1u);

  // Both observed the fully repaired state.
  zofs::ScopedTidOverride tid(7);
  auto st = fs->Stat(kRoot, "/v/log");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->size, payload.size());
}

TEST_F(ProcmonTest, ReaperReclaimsDeadProcessResources) {
  const uint64_t mappings0 = kernfs::ReapedMappingCount();
  const uint64_t grants0 = kernfs::ReapedGrantPageCount();

  vfs::Fd vfd = 0;
  KillTenantAt(
      common::kKillHoldingInodeLock,
      [&](fslib::FsLib* fs) {
        ASSERT_TRUE(fs->Mkdir(kTenant, "/v", 0700).ok());
        auto fd = fs->Open(kTenant, "/v/f", vfs::kCreate | vfs::kWrite, 0600);
        ASSERT_TRUE(fd.ok());
        vfd = *fd;
        ASSERT_TRUE(fs->Write(vfd, "x", 1).ok());
        // Park an executed-but-unharvested grant for the tenant's own coffer
        // in the channel's completion ring.
        uint32_t vcid = 0;
        for (uint32_t cid : kfs_->AllCofferIds()) {
          const kernfs::CofferRoot* cr = kfs_->RootPageOf(cid);
          if (cr != nullptr && cr->uid == kTenant.uid) {
            vcid = cid;
          }
        }
        ASSERT_NE(vcid, 0u);
        kernfs::Channel* ch = fs->zofs().channels().Current();
        ASSERT_NE(ch, nullptr);
        ASSERT_NE(ch->SubmitEnlarge(vcid, 4), 0u);
        ch->Flush();
      },
      [&](fslib::FsLib* fs) {
        // Dies inside the Pwrite's InodeLock, grant still parked.
        std::string b(16, 'y');
        (void)fs->Pwrite(vfd, b.data(), b.size(), 0);
      });

  EXPECT_EQ(kfs_->DeadProcessCountForTest(), 1u);
  EXPECT_GE(kfs_->ReapDeadProcesses(), 1u);
  EXPECT_EQ(kfs_->DeadProcessCountForTest(), 0u);
  victim_.reset();  // abandoned: touches nothing kernel-side

  // Mappings and the stranded grant came back without the corpse's help.
  EXPECT_GE(kernfs::ReapedMappingCount() - mappings0, 1u);
  EXPECT_GE(kernfs::ReapedGrantPageCount() - grants0, 4u);
  EXPECT_TRUE(kfs_->CheckAllocTableForTest().empty()) << kfs_->CheckAllocTableForTest();

  // The dead tenant's coffer is attachable by a successor: keys were freed.
  zofs::ScopedTidOverride tid(7);
  fslib::FsLib* fs = Survivor();
  auto st = fs->Stat(kRoot, "/v/f");
  ASSERT_TRUE(st.ok());
}

TEST(ProcmonSoakTest, SmallSoakCoversAllPointsAndIsByteStable) {
  procmon::SoakOptions o;
  o.seed = 42;
  o.tenants = 2;
  o.rounds = 10;
  o.ops_per_tenant_per_round = 10;
  o.stray_writes = 8;
  o.remount_every = 5;
  o.device_mb = 64;

  procmon::SoakReport a = procmon::RunSoak(o);
  EXPECT_TRUE(a.Clean()) << a.ToJson();
  EXPECT_GT(a.kills, 0u);
  for (int i = 0; i < 5; i++) {
    EXPECT_GT(a.kills_by_point[i], 0u) << procmon::kKillPointNames[i];
  }
  EXPECT_EQ(a.reaped_processes, a.kills);
  EXPECT_GT(a.lock_steals, 0u);
  EXPECT_GT(a.online_repairs, 0u);
  EXPECT_GT(a.stray_landed, 0u);
  EXPECT_GT(a.stray_blocked, 0u);

  procmon::SoakReport b = procmon::RunSoak(o);
  EXPECT_EQ(a.ToJson(), b.ToJson());  // the determinism contract
}

}  // namespace
