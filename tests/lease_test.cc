// Tests for the NVM lease primitive (src/zofs/lease.h) and for the claim
// races it closes: threads claiming the leased free lists of a freshly
// formatted shared coffer, and threads racing InodeLock on fresh inodes.
// Both used to stamp the expiry in a separate store after the owner CAS, so
// a racer could observe the new owner next to a zero expiry, judge the lease
// dead and take it too.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/clock.h"
#include "src/fslib/fslib.h"
#include "src/harness/fslab.h"
#include "src/nvm/nvm.h"
#include "src/zofs/layout.h"
#include "src/zofs/lease.h"
#include "src/zofs/zofs.h"

namespace {

using zofs::kMaxLeaseSlackNs;
using zofs::Lease;
using zofs::LeaseClaim;
using zofs::LeaseDead;
using zofs::LeaseWord;

// Spins until all `n` threads have arrived, so their first claims collide.
void ArriveAndWait(std::atomic<int>* arrived, int n) {
  arrived->fetch_add(1);
  while (arrived->load() < n) {
  }
}

class LeaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    nvm::Options o;
    o.size_bytes = 4ull << 20;
    dev_ = std::make_unique<nvm::NvmDevice>(o);
  }
  std::unique_ptr<nvm::NvmDevice> dev_;
};

TEST_F(LeaseTest, DeadAtTheBoundaries) {
  const uint64_t now = 1'000'000'000;
  EXPECT_FALSE(LeaseDead(now, now));  // expires at now: still live
  EXPECT_TRUE(LeaseDead(now - 1, now));
  EXPECT_FALSE(LeaseDead(now + kMaxLeaseSlackNs, now));
  EXPECT_TRUE(LeaseDead(now + kMaxLeaseSlackNs + 1, now));  // garbage stamp
  EXPECT_TRUE(LeaseDead(0, now));
}

TEST_F(LeaseTest, ClaimFromAStaleObservationFails) {
  Lease lease(dev_.get(), 4096);
  const LeaseWord seen = lease.Load();
  EXPECT_EQ(seen.owner, 0u);
  ASSERT_TRUE(lease.TryClaim(seen, 7, 100));
  EXPECT_FALSE(lease.TryClaim(seen, 8, 200));  // racer that saw the old pair
  const LeaseWord now = lease.Load();
  EXPECT_EQ(now.owner, 7u);
  EXPECT_EQ(now.expiry, 100u);
}

TEST_F(LeaseTest, RenewFailsOnceTheLeaseChangedHands) {
  Lease lease(dev_.get(), 4096);
  ASSERT_TRUE(lease.TryClaim(lease.Load(), 7, 100));
  ASSERT_TRUE(lease.Renew(7, 100, 150));
  ASSERT_TRUE(lease.TryClaim(lease.Load(), 9, 300));  // a thief takes it over
  EXPECT_FALSE(lease.Renew(7, 150, 400));  // the holder's stamp is gone
  EXPECT_FALSE(lease.Renew(7, 300, 400));  // stamp matched, owner did not
}

TEST_F(LeaseTest, AcquireWaitsOutALiveHolderThenStealsOnceDead) {
  common::ScopedClockPin pin(1'000'000'000);
  const uint64_t lease_ns = 1'000'000;
  Lease lease(dev_.get(), 4096);
  EXPECT_EQ(lease.Acquire(7, lease_ns), LeaseClaim::kClaimed);
  // Live holder: the bounded wait (10 ms floor, hardware clock) gives up.
  EXPECT_EQ(lease.Acquire(8, lease_ns), LeaseClaim::kBusy);
  EXPECT_EQ(lease.Load().owner, 7u);
  common::AdvanceNowNsForTest(lease_ns + 1);
  EXPECT_EQ(lease.Acquire(8, lease_ns), LeaseClaim::kStolen);
  const LeaseWord w = lease.Load();
  EXPECT_EQ(w.owner, 8u);
  EXPECT_EQ(w.expiry, common::NowNs() + lease_ns);
}

TEST_F(LeaseTest, GarbageExpiryIsStolenOutright) {
  common::ScopedClockPin pin(1'000'000'000);
  Lease lease(dev_.get(), 4096);
  ASSERT_TRUE(lease.TryClaim(lease.Load(), 7, common::NowNs() + 2 * kMaxLeaseSlackNs));
  EXPECT_EQ(lease.Acquire(8, 1'000'000), LeaseClaim::kStolen);
}

// Exhaustive-interleaving model of the claim protocol. Each actor is a small
// state machine whose steps are the protocol's single-word atomic accesses;
// Explore runs every interleaving and counts states in which two claimants
// both hold the lease, or a holder that has finished stamping has lost it.
// `expiry_first` selects Lease's protocol; false models the claim-then-stamp
// protocol it replaced (owner CAS on a free lease, expiry stored after; a
// reclaim that CASes only the owner).
struct ModelWord {
  uint64_t owner;
  uint64_t expiry;
};
struct ModelActor {
  bool reclaimer = false;
  int pc = 0;
  int tries_left = 1;
  uint64_t o = 0, e = 0;
  bool holds = false, done = false;
};
constexpr uint64_t kModelNow = 1'000;
constexpr uint64_t kModelStamp = kModelNow + 500;

void ModelStep(ModelWord* g, ModelActor* a, uint64_t me, bool expiry_first) {
  auto give_up = [&]() {
    a->pc = 0;
    a->done = --a->tries_left == 0;
  };
  switch (a->pc) {
    case 0:
      a->o = g->owner;
      a->pc = 1;
      if (a->reclaimer && a->o == 0) {
        give_up();
      }
      break;
    case 1:
      if (!expiry_first && !a->reclaimer && a->o == 0) {
        if (g->owner == 0) {  // owner CAS; the stamp comes later (pc 4)
          g->owner = me;
          a->holds = true;
          a->pc = 4;
        } else {
          give_up();
        }
        break;
      }
      a->e = g->expiry;
      if (a->o != 0 && !LeaseDead(a->e, kModelNow)) {
        give_up();  // live holder
      } else {
        a->pc = a->reclaimer && !expiry_first ? 3 : 2;  // the old reclaim CASes only the owner
      }
      break;
    case 2: {
      const uint64_t stamp = a->reclaimer ? a->e : kModelStamp;
      if (g->expiry == a->e) {
        g->expiry = stamp;
        a->pc = 3;
      } else {
        give_up();
      }
      break;
    }
    case 3:
      if (g->owner == a->o) {
        g->owner = a->reclaimer ? 0 : me;
        a->holds = !a->reclaimer;
        a->done = true;
      } else {
        give_up();
      }
      break;
    case 4:
      g->expiry = kModelStamp;
      a->done = true;
      break;
  }
}

uint64_t Explore(ModelWord g, std::vector<ModelActor> actors, bool expiry_first) {
  int holders = 0;
  for (size_t i = 0; i < actors.size(); i++) {
    holders += actors[i].holds;
    if (actors[i].holds && actors[i].done && g.owner != i + 1) {
      return 1;  // a finished claim was taken away under a live stamp
    }
  }
  if (holders > 1) {
    return 1;
  }
  uint64_t bad = 0;
  for (size_t i = 0; i < actors.size(); i++) {
    if (!actors[i].done) {
      ModelWord g2 = g;
      std::vector<ModelActor> next = actors;
      ModelStep(&g2, &next[i], i + 1, expiry_first);
      bad += Explore(g2, next, expiry_first);
    }
  }
  return bad;
}

uint64_t ExploreAll(bool expiry_first) {
  const ModelWord starts[] = {
      {0, 0},                  // never claimed
      {0, kModelNow + 50},     // released, stamp still live
      {99, kModelNow - 1},     // dead holder
      {99, ~0ull},             // garbage stamp
  };
  ModelActor claimer;
  claimer.tries_left = 2;
  ModelActor reclaimer;
  reclaimer.reclaimer = true;
  uint64_t bad = 0;
  for (const ModelWord& w : starts) {
    bad += Explore(w, {claimer, claimer}, expiry_first);
    bad += Explore(w, {claimer, claimer, reclaimer}, expiry_first);
  }
  return bad;
}

TEST(LeaseModelTest, EveryInterleavingKeepsOneHolder) {
  EXPECT_EQ(ExploreAll(/*expiry_first=*/true), 0u);
}

TEST(LeaseModelTest, ClaimThenStampLosesTheLease) {
  // The model is strong enough to find the race the protocol removed.
  EXPECT_GT(ExploreAll(/*expiry_first=*/false), 0u);
}

TEST_F(LeaseTest, FreshInodeLockRaceNeverSteals) {
  // Four threads race InodeLock on never-locked inodes (owner and expiry
  // both 0). No lease ever lapses here (real clock, 200 ms leases), so any
  // steal is a racer that judged a just-claimed lock dead.
  constexpr int kThreads = 4;
  constexpr uint64_t kIters = 256;
  const uint64_t steals0 = zofs::LockStealCount();
  int overlaps = 0;
  for (uint64_t it = 0; it < kIters; it++) {
    const uint64_t ino = (1 + it % 512) * nvm::kPageSize;
    const std::vector<uint8_t> zeros(sizeof(zofs::Inode), 0);
    dev_->StoreBytes(ino, zeros.data(), zeros.size());
    std::atomic<int> arrived{0};
    std::atomic<int> inside{0};
    std::atomic<int> overlap{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; t++) {
      threads.emplace_back([&]() {
        ArriveAndWait(&arrived, kThreads);
        zofs::InodeLock lk(dev_.get(), ino, 200'000'000, 1);
        ASSERT_TRUE(lk.ok());
        if (inside.fetch_add(1) != 0) {
          overlap.fetch_add(1);
        }
        std::this_thread::yield();
        inside.fetch_sub(1);
      });
    }
    for (auto& th : threads) {
      th.join();
    }
    overlaps += overlap.load();
  }
  EXPECT_EQ(zofs::LockStealCount() - steals0, 0u);
  EXPECT_EQ(overlaps, 0);
}

TEST(LeaseRaceTest, SharedCofferAppendsFromAFreshPool) {
  // Four threads append into files of one shared coffer (the root's 0644
  // class), starting together on a freshly formatted pool so their first
  // free-list claims collide. Two threads popping one list hand the same
  // page out twice, which surfaces as EUCLEAN (a free-list link that fails
  // validation) or as one file's blocks overwriting another's.
  constexpr int kThreads = 4;
  constexpr int kIters = 80;
  constexpr int kBlocks = 24;
  const vfs::Cred cred{0, 0};
  for (int it = 0; it < kIters; it++) {
    harness::LabOptions lo;
    lo.dev_bytes = 64ull << 20;
    lo.kernel_crossing_ns = 0;
    lo.clwb_ns = 0;
    lo.sfence_ns = 0;
    harness::FsLab lab(harness::FsKind::kZofs, lo);
    auto* fs = static_cast<fslib::FsLib*>(lab.View(0));
    for (int t = 0; t < kThreads; t++) {
      auto fd = fs->Open(cred, "/f" + std::to_string(t), vfs::kCreate | vfs::kWrite, 0644);
      ASSERT_TRUE(fd.ok());
      ASSERT_TRUE(fs->Close(*fd).ok());
    }
    std::atomic<int> arrived{0};
    std::vector<std::string> errors(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; t++) {
      threads.emplace_back([&, t]() {
        fs->BindThread();
        auto fd = fs->Open(cred, "/f" + std::to_string(t), vfs::kWrite | vfs::kAppend, 0);
        if (!fd.ok()) {
          errors[t] = "open";
          return;
        }
        ArriveAndWait(&arrived, kThreads);
        for (int b = 0; b < kBlocks && errors[t].empty(); b++) {
          std::vector<uint8_t> buf(nvm::kPageSize, static_cast<uint8_t>(t * kBlocks + b + 1));
          auto w = fs->Write(*fd, buf.data(), buf.size());
          if (!w.ok()) {
            errors[t] = "write errno " + std::to_string(static_cast<int>(w.error()));
          }
        }
        if (errors[t].empty() && !fs->Fsync(*fd).ok()) {
          errors[t] = "fsync";
        }
        fs->Close(*fd);
      });
    }
    for (auto& th : threads) {
      th.join();
    }
    fs->BindThread();
    for (int t = 0; t < kThreads; t++) {
      ASSERT_EQ(errors[t], "") << "iteration " << it << " thread " << t;
      auto fd = fs->Open(cred, "/f" + std::to_string(t), vfs::kRead, 0);
      ASSERT_TRUE(fd.ok());
      std::vector<uint8_t> buf(nvm::kPageSize);
      for (int b = 0; b < kBlocks; b++) {
        auto r = fs->Pread(*fd, buf.data(), buf.size(), uint64_t(b) * nvm::kPageSize);
        ASSERT_TRUE(r.ok());
        ASSERT_EQ(*r, buf.size());
        const uint8_t tag = static_cast<uint8_t>(t * kBlocks + b + 1);
        for (uint8_t c : buf) {
          ASSERT_EQ(c, tag) << "iteration " << it << ": a page of /f" << t
                            << " block " << b << " was handed to another file";
        }
      }
      fs->Close(*fd);
    }
    EXPECT_EQ(lab.kernfs()->CheckAllocTableForTest(), "") << "iteration " << it;
  }
}

}  // namespace
