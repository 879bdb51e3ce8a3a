// Concurrency stress tests: multiple threads and multiple simulated
// processes hammering one ZoFS instance. Invariants checked afterwards:
// namespace consistency, allocation-table accounting, and per-file data
// integrity. These are the conditions under which the paper's lease locks
// and per-thread allocators must hold up (§5.2).

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>

#include "src/common/rand.h"
#include "src/fslib/fslib.h"
#include "src/kernfs/kernfs.h"
#include "src/mpk/mpk.h"
#include "src/nvm/nvm.h"
#include "src/oracle/oracle.h"

namespace {

class ConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    kernfs::FormatOptions f;
    f.root_mode = 0755;
    st_.Format(f, cred);
    kfs_ = st_.kfs();
    fs_ = st_.fs();
  }

  vfs::Cred cred{0, 0};
  std::unique_ptr<nvm::NvmDevice> dev_ = oracle::NewDevice(512ull << 20);
  oracle::Stack st_{dev_.get()};
  kernfs::KernFs* kfs_ = nullptr;  // st_'s, for the whole test
  fslib::FsLib* fs_ = nullptr;
};

TEST_F(ConcurrencyTest, ParallelAppendersToPrivateFiles) {
  constexpr int kThreads = 6;
  constexpr int kAppends = 300;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t]() {
      auto fd = fs_->Open(cred, "/app" + std::to_string(t),
                          vfs::kCreate | vfs::kWrite | vfs::kAppend, 0644);
      if (!fd.ok()) {
        failures++;
        return;
      }
      std::vector<uint8_t> buf(512, static_cast<uint8_t>(t + 1));
      for (int i = 0; i < kAppends; i++) {
        if (!fs_->Write(*fd, buf.data(), buf.size()).ok()) {
          failures++;
          return;
        }
      }
      fs_->Close(*fd);
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(failures.load(), 0);
  fs_->BindThread();
  for (int t = 0; t < kThreads; t++) {
    auto st = fs_->Stat(cred, "/app" + std::to_string(t));
    ASSERT_TRUE(st.ok());
    EXPECT_EQ(st->size, 512u * kAppends);
    // Every byte carries the writer's tag (no cross-thread bleed).
    EXPECT_EQ(oracle::Read(fs_, cred, "/app" + std::to_string(t)).data,
              std::string(512 * kAppends, static_cast<char>(t + 1)));
  }
  EXPECT_TRUE(kfs_->CheckAllocTableForTest().empty()) << kfs_->CheckAllocTableForTest();
}

TEST_F(ConcurrencyTest, ConcurrentAppendersToOneSharedFile) {
  constexpr int kThreads = 4;
  constexpr int kAppends = 250;
  auto seed_fd = fs_->Open(cred, "/shared", vfs::kCreate | vfs::kWrite, 0644);
  ASSERT_TRUE(seed_fd.ok());
  std::vector<std::thread> threads;
  std::atomic<int> ok_appends{0};
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t]() {
      auto fd = fs_->Open(cred, "/shared", vfs::kWrite | vfs::kAppend, 0644);
      if (!fd.ok()) {
        return;
      }
      std::vector<uint8_t> buf(256, static_cast<uint8_t>(t + 1));
      for (int i = 0; i < kAppends; i++) {
        if (fs_->Write(*fd, buf.data(), buf.size()).ok()) {
          ok_appends++;
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  fs_->BindThread();
  auto st = fs_->Stat(cred, "/shared");
  ASSERT_TRUE(st.ok());
  // Appends are serialised by the inode lease lock: no lost updates.
  EXPECT_EQ(st->size, 256u * ok_appends.load());
  EXPECT_EQ(ok_appends.load(), kThreads * kAppends);
}

TEST_F(ConcurrencyTest, ConcurrentCreatesInSharedDirectory) {
  ASSERT_TRUE(fs_->Mkdir(cred, "/dir", 0755).ok());
  constexpr int kThreads = 4;
  constexpr int kFiles = 150;
  std::vector<std::thread> threads;
  std::atomic<int> created{0};
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t]() {
      for (int i = 0; i < kFiles; i++) {
        std::string p = "/dir/t" + std::to_string(t) + "_" + std::to_string(i);
        auto fd = fs_->Open(cred, p, vfs::kCreate | vfs::kWrite, 0644);
        if (fd.ok()) {
          created++;
          fs_->Close(*fd);
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  fs_->BindThread();
  EXPECT_EQ(created.load(), kThreads * kFiles);
  auto entries = fs_->ReadDir(cred, "/dir");
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), static_cast<size_t>(kThreads * kFiles));
  EXPECT_TRUE(kfs_->CheckAllocTableForTest().empty());
}

TEST_F(ConcurrencyTest, ExclusiveCreateRaceHasOneWinner) {
  constexpr int kThreads = 6;
  for (int round = 0; round < 20; round++) {
    std::string path = "/race" + std::to_string(round);
    std::atomic<int> winners{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; t++) {
      threads.emplace_back([&]() {
        auto fd = fs_->Open(cred, path, vfs::kCreate | vfs::kExcl | vfs::kWrite, 0644);
        if (fd.ok()) {
          winners++;
        }
      });
    }
    for (auto& th : threads) {
      th.join();
    }
    EXPECT_EQ(winners.load(), 1) << path;
  }
}

TEST_F(ConcurrencyTest, TwoProcessesInterleaveOnSharedTree) {
  fslib::FsLib p2(kfs_, vfs::Cred{0, 0});
  ASSERT_TRUE(fs_->Mkdir(cred, "/both", 0755).ok());
  std::atomic<int> errors{0};
  std::thread t1([&]() {
    fs_->BindThread();
    for (int i = 0; i < 200; i++) {
      auto fd = fs_->Open(cred, "/both/p1_" + std::to_string(i), vfs::kCreate | vfs::kWrite,
                          0644);
      if (!fd.ok() || !fs_->Write(*fd, "one", 3).ok()) {
        errors++;
      }
    }
  });
  std::thread t2([&]() {
    p2.BindThread();
    for (int i = 0; i < 200; i++) {
      auto fd = p2.Open(cred, "/both/p2_" + std::to_string(i), vfs::kCreate | vfs::kWrite, 0644);
      if (!fd.ok() || !p2.Write(*fd, "two", 3).ok()) {
        errors++;
      }
      if (i % 10 == 0) {
        p2.ReadDir(cred, "/both");
      }
    }
  });
  t1.join();
  t2.join();
  EXPECT_EQ(errors.load(), 0);
  fs_->BindThread();
  auto entries = fs_->ReadDir(cred, "/both");
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 400u);
}

TEST_F(ConcurrencyTest, MixedOpsRandomStorm) {
  // Four threads, each with its own subdirectory plus a shared pool of
  // names: create/write/read/delete/rename at random; afterwards the tree
  // must be walkable and the allocation table consistent.
  ASSERT_TRUE(fs_->Mkdir(cred, "/storm", 0755).ok());
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t]() {
      common::Rng rng(1000 + t);
      std::string mydir = "/storm/t" + std::to_string(t);
      fs_->Mkdir(cred, mydir, 0755);
      for (int i = 0; i < 250; i++) {
        std::string name = mydir + "/f" + std::to_string(rng.Below(30));
        switch (rng.Below(5)) {
          case 0: {
            auto fd = fs_->Open(cred, name, vfs::kCreate | vfs::kWrite, 0644);
            if (fd.ok()) {
              std::vector<uint8_t> data(rng.Below(9000));
              fs_->Pwrite(*fd, data.data(), data.size(), 0);
              fs_->Close(*fd);
            }
            break;
          }
          case 1:
            fs_->Unlink(cred, name);
            break;
          case 2: {
            auto fd = fs_->Open(cred, name, vfs::kRead, 0);
            if (fd.ok()) {
              char buf[4096];
              fs_->Read(*fd, buf, sizeof(buf));
              fs_->Close(*fd);
            }
            break;
          }
          case 3:
            fs_->Rename(cred, name, mydir + "/g" + std::to_string(rng.Below(30)));
            break;
          case 4:
            fs_->Stat(cred, name);
            break;
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  fs_->BindThread();
  auto entries = fs_->ReadDir(cred, "/storm");
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), static_cast<size_t>(kThreads));
  for (int t = 0; t < kThreads; t++) {
    auto sub = fs_->ReadDir(cred, "/storm/t" + std::to_string(t));
    ASSERT_TRUE(sub.ok());
    for (const auto& e : *sub) {
      EXPECT_TRUE(fs_->Stat(cred, "/storm/t" + std::to_string(t) + "/" + e.name).ok());
    }
  }
  EXPECT_TRUE(kfs_->CheckAllocTableForTest().empty()) << kfs_->CheckAllocTableForTest();
}

}  // namespace
