// Tests for the LevelDB-like LSM key-value store.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "src/apps/kvstore/kvstore.h"
#include "src/common/rand.h"
#include "src/harness/fslab.h"
#include "src/mpk/mpk.h"

namespace {

// Forwards every call to `inner`, except that while `short_writes` is set a
// Write or Pwrite of more than one byte stores only half of it and says so,
// while `failing_truncates` is set every Ftruncate fails with kIo, while
// `slow_preads` is set every 8th Pread on a thread first sleeps
// 100 us (it widens the window between a Get taking its table list and its
// pread, so a table retired under a reader shows up as a failed Get), while
// `slow_fsyncs` is set every Fsync first sleeps 100 us, and while
// `hold_writes` is set a Write waits for it to clear (whether its length is
// cut is settled on entry). It counts Write and Fsync calls.
class TestFs final : public vfs::FileSystem {
 public:
  explicit TestFs(vfs::FileSystem* inner) : inner_(inner) {}
  std::atomic<bool> short_writes{false};
  std::atomic<bool> failing_truncates{false};
  std::atomic<bool> slow_preads{false};
  std::atomic<bool> slow_fsyncs{false};
  std::atomic<bool> hold_writes{false};
  std::atomic<int> held{0};  // Writes that waited for hold_writes to clear
  std::atomic<int> writes{0};
  std::atomic<int> fsyncs{0};

  const char* Name() const override { return inner_->Name(); }
  common::Result<vfs::Fd> Open(const vfs::Cred& c, const std::string& p, uint32_t f,
                               uint16_t m) override {
    return inner_->Open(c, p, f, m);
  }
  common::Status Close(vfs::Fd fd) override { return inner_->Close(fd); }
  common::Result<size_t> Read(vfs::Fd fd, void* b, size_t n) override {
    return inner_->Read(fd, b, n);
  }
  common::Result<size_t> Write(vfs::Fd fd, const void* b, size_t n) override {
    const size_t len = Cut(n);
    if (hold_writes) {
      held++;
      while (hold_writes) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    }
    writes++;
    return inner_->Write(fd, b, len);
  }
  common::Result<size_t> Pread(vfs::Fd fd, void* b, size_t n, uint64_t off) override {
    thread_local uint32_t calls = 0;
    if (slow_preads && ++calls % 8 == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    return inner_->Pread(fd, b, n, off);
  }
  common::Result<size_t> Pwrite(vfs::Fd fd, const void* b, size_t n, uint64_t off) override {
    return inner_->Pwrite(fd, b, Cut(n), off);
  }
  common::Result<uint64_t> Lseek(vfs::Fd fd, int64_t off, int whence) override {
    return inner_->Lseek(fd, off, whence);
  }
  common::Status Fsync(vfs::Fd fd) override {
    if (slow_fsyncs) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    fsyncs++;
    return inner_->Fsync(fd);
  }
  common::Result<vfs::StatBuf> Fstat(vfs::Fd fd) override { return inner_->Fstat(fd); }
  common::Status Ftruncate(vfs::Fd fd, uint64_t len) override {
    if (failing_truncates) {
      return common::Err::kIo;
    }
    return inner_->Ftruncate(fd, len);
  }
  common::Result<vfs::Fd> Dup(vfs::Fd fd) override { return inner_->Dup(fd); }
  common::Status Mkdir(const vfs::Cred& c, const std::string& p, uint16_t m) override {
    return inner_->Mkdir(c, p, m);
  }
  common::Status Rmdir(const vfs::Cred& c, const std::string& p) override {
    return inner_->Rmdir(c, p);
  }
  common::Status Unlink(const vfs::Cred& c, const std::string& p) override {
    return inner_->Unlink(c, p);
  }
  common::Result<vfs::StatBuf> Stat(const vfs::Cred& c, const std::string& p) override {
    return inner_->Stat(c, p);
  }
  common::Result<std::vector<vfs::DirEntry>> ReadDir(const vfs::Cred& c,
                                                     const std::string& p) override {
    return inner_->ReadDir(c, p);
  }
  common::Status Rename(const vfs::Cred& c, const std::string& a, const std::string& b) override {
    return inner_->Rename(c, a, b);
  }
  common::Status Chmod(const vfs::Cred& c, const std::string& p, uint16_t m) override {
    return inner_->Chmod(c, p, m);
  }
  common::Status Chown(const vfs::Cred& c, const std::string& p, uint32_t u,
                       uint32_t g) override {
    return inner_->Chown(c, p, u, g);
  }
  common::Status Symlink(const vfs::Cred& c, const std::string& t,
                         const std::string& l) override {
    return inner_->Symlink(c, t, l);
  }
  common::Result<std::string> ReadLink(const vfs::Cred& c, const std::string& p) override {
    return inner_->ReadLink(c, p);
  }

 private:
  size_t Cut(size_t n) const { return short_writes && n > 1 ? n / 2 : n; }

  vfs::FileSystem* inner_;
};

// Puts <p>0 on a thread whose WAL write `fs` holds, queues Puts of <p>1,
// <p>2 and <p>3 behind it, then lets the held write through with
// short_writes on: the three queued Puts share the next WAL write, which is
// cut in half. Returns the four statuses in key order.
std::vector<common::Status> PutsBatchedBehindShortWrite(kvstore::Db* db, TestFs* fs,
                                                        const std::string& p) {
  std::vector<common::Status> st(4, common::OkStatus());
  const int writes_before = fs->writes.load();
  fs->hold_writes = true;
  std::vector<std::thread> threads;
  threads.emplace_back([&] { st[0] = db->Put(p + "0", "v"); });
  while (fs->held.load() == 0) {  // <p>0 leads the WAL and waits in its Write
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  for (int i = 1; i < 4; i++) {
    threads.emplace_back([&, i] { st[i] = db->Put(p + std::to_string(i), "v"); });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));  // all three queue behind <p>0
  fs->short_writes = true;
  fs->hold_writes = false;
  for (auto& t : threads) {
    t.join();
  }
  fs->short_writes = false;
  EXPECT_EQ(fs->writes.load() - writes_before, 2);  // <p>0, then one batch of three
  return st;
}

class KvStoreTest : public ::testing::TestWithParam<harness::FsKind> {
 protected:
  void SetUp() override {
    harness::LabOptions lo;
    lo.dev_bytes = 512ull << 20;
    lo.kernel_crossing_ns = 0;
    lab_ = std::make_unique<harness::FsLab>(GetParam(), lo);
    fs_ = lab_->View(0);
  }
  void TearDown() override {
    lab_.reset();
    mpk::BindThreadToProcess(nullptr);
  }

  std::unique_ptr<harness::FsLab> lab_;
  vfs::FileSystem* fs_ = nullptr;
};

TEST_P(KvStoreTest, PutGetDelete) {
  auto db = kvstore::Db::Open(fs_, "/db");
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->Put("k1", "v1").ok());
  ASSERT_TRUE((*db)->Put("k2", "v2").ok());
  EXPECT_EQ(*(*db)->Get("k1"), "v1");
  EXPECT_EQ(*(*db)->Get("k2"), "v2");
  ASSERT_TRUE((*db)->Delete("k1").ok());
  EXPECT_FALSE((*db)->Get("k1").ok());
  EXPECT_EQ(*(*db)->Get("k2"), "v2");
}

TEST_P(KvStoreTest, OverwriteReturnsLatest) {
  auto db = kvstore::Db::Open(fs_, "/db");
  for (int i = 0; i < 10; i++) {
    ASSERT_TRUE((*db)->Put("key", "v" + std::to_string(i)).ok());
  }
  EXPECT_EQ(*(*db)->Get("key"), "v9");
}

TEST_P(KvStoreTest, FlushAndReadThroughTables) {
  kvstore::DbOptions opts;
  opts.memtable_bytes = 8 * 1024;  // force frequent flushes
  auto db = kvstore::Db::Open(fs_, "/db", opts);
  for (int i = 0; i < 500; i++) {
    ASSERT_TRUE((*db)->Put("key" + std::to_string(i), "value" + std::to_string(i)).ok());
  }
  EXPECT_GT((*db)->table_count(), 0u);
  for (int i = 0; i < 500; i += 17) {
    auto v = (*db)->Get("key" + std::to_string(i));
    ASSERT_TRUE(v.ok()) << i;
    EXPECT_EQ(*v, "value" + std::to_string(i));
  }
}

TEST_P(KvStoreTest, CompactionPreservesData) {
  kvstore::DbOptions opts;
  opts.memtable_bytes = 4 * 1024;
  opts.compact_trigger = 3;
  auto db = kvstore::Db::Open(fs_, "/db", opts);
  for (int i = 0; i < 600; i++) {
    ASSERT_TRUE((*db)->Put("k" + std::to_string(i % 150), "gen" + std::to_string(i)).ok());
  }
  EXPECT_LE((*db)->table_count(), 3u);  // compaction kept the count bounded
  // Every key returns its newest generation.
  for (int k = 0; k < 150; k++) {
    auto v = (*db)->Get("k" + std::to_string(k));
    ASSERT_TRUE(v.ok()) << k;
    int gen = std::stoi(v->substr(3));
    EXPECT_EQ(gen % 150, k);
    EXPECT_GE(gen, 450);  // one of the last generations
  }
}

TEST_P(KvStoreTest, TombstonesSurviveFlushAndCompaction) {
  kvstore::DbOptions opts;
  opts.memtable_bytes = 4 * 1024;
  opts.compact_trigger = 3;
  auto db = kvstore::Db::Open(fs_, "/db", opts);
  for (int i = 0; i < 200; i++) {
    ASSERT_TRUE((*db)->Put("k" + std::to_string(i), "v").ok());
  }
  for (int i = 0; i < 200; i += 2) {
    ASSERT_TRUE((*db)->Delete("k" + std::to_string(i)).ok());
  }
  ASSERT_TRUE((*db)->FlushMemtableForTest().ok());
  for (int i = 0; i < 200; i++) {
    auto v = (*db)->Get("k" + std::to_string(i));
    EXPECT_EQ(v.ok(), i % 2 == 1) << i;
  }
}

TEST_P(KvStoreTest, ReopenRecoversFromWalAndTables) {
  kvstore::DbOptions opts;
  opts.memtable_bytes = 16 * 1024;
  {
    auto db = kvstore::Db::Open(fs_, "/db", opts);
    for (int i = 0; i < 300; i++) {
      ASSERT_TRUE((*db)->Put("p" + std::to_string(i), "q" + std::to_string(i)).ok());
    }
    // Destructor closes FDs; WAL holds the unflushed tail.
  }
  auto db2 = kvstore::Db::Open(fs_, "/db", opts);
  ASSERT_TRUE(db2.ok());
  for (int i = 0; i < 300; i += 13) {
    auto v = (*db2)->Get("p" + std::to_string(i));
    ASSERT_TRUE(v.ok()) << i;
    EXPECT_EQ(*v, "q" + std::to_string(i));
  }
}

TEST_P(KvStoreTest, ScribbledTableHeaderFailsReopen) {
  // On-media record lengths are untrusted: a table whose first header claims
  // a ~4 GiB key must make reopen fail cleanly, not size a buffer from it.
  {
    auto db = kvstore::Db::Open(fs_, "/db");
    ASSERT_TRUE(db.ok());
    for (int i = 0; i < 50; i++) {
      ASSERT_TRUE((*db)->Put("s" + std::to_string(i), "t" + std::to_string(i)).ok());
    }
    ASSERT_TRUE((*db)->FlushMemtableForTest().ok());
    ASSERT_EQ((*db)->table_count(), 1u);
  }
  const vfs::Cred cred{0, 0};
  auto entries = fs_->ReadDir(cred, "/db");
  ASSERT_TRUE(entries.ok());
  std::string table;
  for (const vfs::DirEntry& e : *entries) {
    if (e.name.rfind("sst_", 0) == 0) {
      table = "/db/" + e.name;
    }
  }
  ASSERT_FALSE(table.empty());
  auto fd = fs_->Open(cred, table, vfs::kWrite, 0);
  ASSERT_TRUE(fd.ok());
  const uint32_t scribble[2] = {0xfffffff0u, 7};  // klen, vlen
  ASSERT_TRUE(fs_->Pwrite(*fd, scribble, sizeof(scribble), 0).ok());
  ASSERT_TRUE(fs_->Close(*fd).ok());

  auto db2 = kvstore::Db::Open(fs_, "/db");
  ASSERT_FALSE(db2.ok());
  EXPECT_EQ(db2.error(), common::Err::kCorrupt);
}

TEST_P(KvStoreTest, IteratorYieldsSortedLiveKeys) {
  kvstore::DbOptions opts;
  opts.memtable_bytes = 4 * 1024;
  auto db = kvstore::Db::Open(fs_, "/db", opts);
  common::Rng rng(9);
  std::map<std::string, std::string> model;
  for (int i = 0; i < 400; i++) {
    std::string k = "k" + std::to_string(rng.Below(200));
    std::string v = "v" + std::to_string(i);
    ASSERT_TRUE((*db)->Put(k, v).ok());
    model[k] = v;
  }
  for (int i = 0; i < 50; i++) {
    std::string k = "k" + std::to_string(rng.Below(200));
    (*db)->Delete(k);
    model.erase(k);
  }
  auto iter = (*db)->NewIterator();
  ASSERT_TRUE(iter.ok());
  auto mit = model.begin();
  size_t n = 0;
  for (; iter->Valid(); iter->Next(), ++mit, ++n) {
    ASSERT_NE(mit, model.end());
    EXPECT_EQ(iter->key(), mit->first);
    EXPECT_EQ(iter->value(), mit->second);
  }
  EXPECT_EQ(n, model.size());
}

TEST_P(KvStoreTest, ShortWalWriteFailsThePut) {
  TestFs sfs(fs_);
  {
    auto db = kvstore::Db::Open(&sfs, "/db", kvstore::DbOptions{.sync_writes = true});
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->Put("a", "1").ok());
    sfs.short_writes = true;
    auto st = (*db)->Put("b", "2");
    sfs.short_writes = false;
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.error(), common::Err::kIo);
    EXPECT_FALSE((*db)->Get("b").ok());  // never acked, never visible
    ASSERT_TRUE((*db)->Put("c", "3").ok());
    // A cut batch write fails every Put in the batch.
    auto batch = PutsBatchedBehindShortWrite(db->get(), &sfs, "batch");
    EXPECT_TRUE(batch[0].ok());
    for (int i = 1; i < 4; i++) {
      ASSERT_FALSE(batch[i].ok()) << i;
      EXPECT_EQ(batch[i].error(), common::Err::kIo) << i;
      EXPECT_FALSE((*db)->Get("batch" + std::to_string(i)).ok()) << i;
    }
    ASSERT_TRUE((*db)->Put("e", "5").ok());
  }
  // The half records were cut off the log, so the Puts acked after them
  // replay.
  auto db = kvstore::Db::Open(fs_, "/db");
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(*(*db)->Get("a"), "1");
  EXPECT_FALSE((*db)->Get("b").ok());
  ASSERT_TRUE((*db)->Get("c").ok());
  EXPECT_EQ(*(*db)->Get("c"), "3");
  ASSERT_TRUE((*db)->Get("batch0").ok());
  for (int i = 1; i < 4; i++) {
    EXPECT_FALSE((*db)->Get("batch" + std::to_string(i)).ok()) << i;
  }
  ASSERT_TRUE((*db)->Get("e").ok());
  EXPECT_EQ(*(*db)->Get("e"), "5");
}

TEST_P(KvStoreTest, UncutShortWalWriteRefusesLaterWrites) {
  TestFs sfs(fs_);
  {
    auto db = kvstore::Db::Open(&sfs, "/db", kvstore::DbOptions{.sync_writes = true});
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->Put("a", "1").ok());
    sfs.short_writes = true;
    sfs.failing_truncates = true;
    EXPECT_FALSE((*db)->Put("b", "2").ok());
    sfs.short_writes = false;
    sfs.failing_truncates = false;
    // The half record is still in the log: a Put acked behind it would be
    // dropped by the next replay, so none is acked.
    auto st = (*db)->Put("c", "3");
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.error(), common::Err::kIo);
    EXPECT_FALSE((*db)->Delete("a").ok());
    EXPECT_EQ(*(*db)->Get("a"), "1");
  }
  auto db = kvstore::Db::Open(fs_, "/db");
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(*(*db)->Get("a"), "1");
  EXPECT_FALSE((*db)->Get("c").ok());

  // The same for a batch: the cut write fails all three queued Puts, and the
  // uncut partial batch refuses every later write.
  {
    auto db2 = kvstore::Db::Open(&sfs, "/db2", kvstore::DbOptions{.sync_writes = true});
    ASSERT_TRUE(db2.ok());
    sfs.failing_truncates = true;
    auto st = PutsBatchedBehindShortWrite(db2->get(), &sfs, "batch");
    sfs.failing_truncates = false;
    EXPECT_TRUE(st[0].ok());
    for (int i = 1; i < 4; i++) {
      ASSERT_FALSE(st[i].ok()) << i;
      EXPECT_EQ(st[i].error(), common::Err::kIo) << i;
    }
    auto put = (*db2)->Put("c", "3");
    ASSERT_FALSE(put.ok());
    EXPECT_EQ(put.error(), common::Err::kIo);
    EXPECT_EQ(*(*db2)->Get("batch0"), "v");
  }
  // Whole records in the uncut half replay, as after a crash mid-write (a
  // failed Put's outcome is unknown), but nothing refused after them does.
  auto db2 = kvstore::Db::Open(fs_, "/db2");
  ASSERT_TRUE(db2.ok());
  EXPECT_EQ(*(*db2)->Get("batch0"), "v");
  EXPECT_FALSE((*db2)->Get("c").ok());
}

TEST_P(KvStoreTest, ShortTableWriteFailsTheFlush) {
  TestFs sfs(fs_);
  {
    auto db = kvstore::Db::Open(&sfs, "/db");
    ASSERT_TRUE(db.ok());
    for (int i = 0; i < 100; i++) {
      ASSERT_TRUE((*db)->Put("k" + std::to_string(i), "v" + std::to_string(i)).ok());
    }
    sfs.short_writes = true;
    auto st = (*db)->FlushMemtableForTest();
    sfs.short_writes = false;
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.error(), common::Err::kIo);
    EXPECT_EQ((*db)->table_count(), 0u);
    EXPECT_EQ(*(*db)->Get("k42"), "v42");  // still served from the memtable
  }
  // No truncated table was left behind to shadow the log.
  auto entries = fs_->ReadDir(vfs::Cred{0, 0}, "/db");
  ASSERT_TRUE(entries.ok());
  for (const vfs::DirEntry& e : *entries) {
    EXPECT_NE(e.name.rfind("sst_", 0), 0u) << e.name;
  }
  auto db = kvstore::Db::Open(fs_, "/db");
  ASSERT_TRUE(db.ok());
  for (int i = 0; i < 100; i++) {
    auto v = (*db)->Get("k" + std::to_string(i));
    ASSERT_TRUE(v.ok()) << i;
    EXPECT_EQ(*v, "v" + std::to_string(i));
  }
}

TEST_P(KvStoreTest, ConcurrentGetsThroughFlushAndCompaction) {
  // Four clients, each the only writer of its own keys (key % 4), read every
  // key while small memtables flush and compact underneath them. A Get must
  // return a version no older than the owner's last acked Put and no newer
  // than its last attempted one.
  constexpr int kThreads = 4;
  constexpr int kKeys = 256;
  constexpr int kOpsPerThread = 4000;
  kvstore::DbOptions opts;
  opts.memtable_bytes = 8 * 1024;
  opts.compact_trigger = 3;
  TestFs tfs(fs_);
  tfs.slow_preads = true;
  auto db = kvstore::Db::Open(&tfs, "/db", opts);
  ASSERT_TRUE(db.ok());
  std::vector<std::atomic<uint64_t>> acked(kKeys), attempted(kKeys);
  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      common::Rng rng(100 + t);
      for (int i = 0; i < kOpsPerThread; i++) {
        const bool put = rng.Below(2) == 0;
        const int k = put ? static_cast<int>(rng.Below(kKeys / kThreads)) * kThreads + t
                          : static_cast<int>(rng.Below(kKeys));
        const std::string key = "key" + std::to_string(k);
        if (put) {
          const uint64_t v = attempted[k].load() + 1;
          attempted[k].store(v);
          if (!(*db)->Put(key, std::to_string(v) + std::string(48, '.')).ok()) {
            bad++;
          }
          acked[k].store(v);
          continue;
        }
        const uint64_t floor = acked[k].load();
        auto got = (*db)->Get(key);
        if (!got.ok()) {
          if (got.error() != common::Err::kNoEnt || floor != 0) {
            bad++;
          }
          continue;
        }
        const uint64_t v = std::stoull(*got);
        if (v < floor || v > attempted[k].load()) {
          bad++;
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(bad.load(), 0);
  EXPECT_LE((*db)->table_count(), opts.compact_trigger);
  for (int k = 0; k < kKeys; k++) {
    if (acked[k].load() != 0) {
      auto got = (*db)->Get("key" + std::to_string(k));
      ASSERT_TRUE(got.ok()) << k;
      EXPECT_EQ(std::stoull(*got), acked[k].load()) << k;
    }
  }
}

TEST_P(KvStoreTest, ConcurrentSameKeyPutsReplayInWalOrder) {
  // Four clients overwrite the same eight keys with unique values while
  // small memtables flush and compact. The memtable must apply batches in
  // WAL order: what a Get returns once the clients stop is what a replay of
  // the log (and the tables) rebuilds. A flush fixes whatever order the
  // memtable had, so only the last writes before a stop can show a
  // reordering: many short rounds, each ending in a reopen, give it many
  // chances. The clients live across rounds (each new thread would lease
  // its own allocator free list).
  constexpr int kThreads = 4;
  constexpr int kKeys = 8;
  constexpr int kRounds = 1000;
  constexpr int kOpsPerRound = kKeys;
  kvstore::DbOptions opts;
  opts.memtable_bytes = 8 * 1024;
  opts.compact_trigger = 3;
  auto db = kvstore::Db::Open(fs_, "/db", opts);
  ASSERT_TRUE(db.ok());
  std::barrier sync(kThreads + 1);
  std::atomic<int> bad{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds && !stop; round++) {
        for (int i = 0; i < kOpsPerRound; i++) {
          const std::string value =
              std::to_string(round) + "." + std::to_string(t) + "." + std::to_string(i);
          if (!(*db)->Put("key" + std::to_string(i % kKeys), value).ok()) {
            bad++;
          }
        }
        sync.arrive_and_wait();  // the round's Puts are done
        sync.arrive_and_wait();  // the Db was checked and reopened
      }
    });
  }
  for (int round = 0; round < kRounds && !stop; round++) {
    sync.arrive_and_wait();
    std::vector<std::string> live(kKeys);
    for (int k = 0; k < kKeys; k++) {
      auto got = (*db)->Get("key" + std::to_string(k));
      live[k] = got.ok() ? *got : "missing";
    }
    db->reset();
    db = kvstore::Db::Open(fs_, "/db", opts);
    if (!db.ok()) {
      ADD_FAILURE() << "reopen failed in round " << round;
      stop = true;
    }
    for (int k = 0; k < kKeys && !stop; k++) {
      auto got = (*db)->Get("key" + std::to_string(k));
      if (!got.ok() || *got != live[k]) {
        ADD_FAILURE() << "key" << k << " read " << live[k] << " before the reopen in round "
                      << round;
        stop = true;
      }
    }
    stop = stop || bad.load() != 0;
    sync.arrive_and_wait();
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(bad.load(), 0);
  ASSERT_TRUE(db.ok());
  EXPECT_GT((*db)->table_count(), 0u);
}

TEST_P(KvStoreTest, GroupCommitSharesFsyncs) {
  // With every fsync slowed to 100 us, Puts from four clients queue up
  // behind a leader and share its fsync; a lone client fsyncs every Put.
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    constexpr int kPutsPerThread = 200;
    TestFs tfs(fs_);
    const std::string dir = "/db" + std::to_string(threads);
    auto db = kvstore::Db::Open(&tfs, dir, kvstore::DbOptions{.sync_writes = true});
    ASSERT_TRUE(db.ok());
    tfs.slow_fsyncs = true;
    const int fsyncs_before = tfs.fsyncs.load();
    std::atomic<int> bad{0};
    std::vector<std::thread> clients;
    for (int t = 0; t < threads; t++) {
      clients.emplace_back([&, t] {
        for (int i = 0; i < kPutsPerThread; i++) {
          if (!(*db)->Put("k" + std::to_string(t) + "." + std::to_string(i), "v").ok()) {
            bad++;
          }
        }
      });
    }
    for (auto& c : clients) {
      c.join();
    }
    ASSERT_EQ(bad.load(), 0);
    const int fsyncs = tfs.fsyncs.load() - fsyncs_before;
    const int puts = threads * kPutsPerThread;
    if (threads == 1) {
      EXPECT_EQ(fsyncs, puts);
    } else {
      EXPECT_LT(fsyncs, puts);
    }
  }
}

TEST_P(KvStoreTest, IteratorSeesEveryAckedPutDuringWrites) {
  // Three clients each Put a fresh run of keys while small memtables flush
  // and compact; an iterator must hold every key acked before it was made.
  constexpr int kWriters = 3;
  constexpr int kKeysPerWriter = 1500;
  kvstore::DbOptions opts;
  opts.memtable_bytes = 8 * 1024;
  opts.compact_trigger = 3;
  TestFs tfs(fs_);
  tfs.slow_preads = true;
  auto db = kvstore::Db::Open(&tfs, "/db", opts);
  ASSERT_TRUE(db.ok());
  auto key = [](int w, int i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "w%d.%06d", w, i);
    return std::string(buf);
  };
  std::vector<std::atomic<int>> acked(kWriters);
  std::atomic<int> bad{0};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; w++) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kKeysPerWriter; i++) {
        if (!(*db)->Put(key(w, i), std::to_string(i)).ok()) {
          bad++;
        }
        acked[w].store(i + 1);
      }
    });
  }
  int scans = 0;
  for (bool done = false; !done; scans++) {
    std::vector<int> floor(kWriters);
    done = true;
    for (int w = 0; w < kWriters; w++) {
      floor[w] = acked[w].load();
      done = done && floor[w] == kKeysPerWriter;
    }
    auto iter = (*db)->NewIterator();
    ASSERT_TRUE(iter.ok());
    std::vector<int> seen(kWriters, 0);
    for (; iter->Valid(); iter->Next()) {
      int w = 0, i = 0;
      ASSERT_EQ(std::sscanf(iter->key().c_str(), "w%d.%d", &w, &i), 2) << iter->key();
      ASSERT_EQ(iter->key(), key(w, i));
      EXPECT_EQ(iter->value(), std::to_string(i));
      // Keys of one writer come in its Put order: each must be the next.
      if (i < floor[w]) {
        EXPECT_EQ(i, seen[w]) << iter->key();
      }
      seen[w] = std::max(seen[w], i + 1);
    }
    for (int w = 0; w < kWriters; w++) {
      EXPECT_GE(seen[w], floor[w]) << "writer " << w << " scan " << scans;
    }
  }
  for (auto& th : writers) {
    th.join();
  }
  EXPECT_EQ(bad.load(), 0);
  EXPECT_GT(scans, 1);
}

TEST_P(KvStoreTest, FlushRequestsQueueWithConcurrentPuts) {
  // FlushMemtableForTest joins the writer queue, so a flush (and its WAL
  // truncate) never cuts off a batch in flight: every acked Put survives a
  // reopen.
  constexpr int kThreads = 3;
  constexpr int kPutsPerThread = 800;
  TestFs tfs(fs_);
  {
    auto db = kvstore::Db::Open(&tfs, "/db", kvstore::DbOptions{.sync_writes = true});
    ASSERT_TRUE(db.ok());
    std::atomic<bool> stop{false};
    std::atomic<int> bad{0};
    std::thread flusher([&] {
      while (!stop) {
        if (!(*db)->FlushMemtableForTest().ok()) {
          bad++;
        }
      }
    });
    std::vector<std::thread> clients;
    for (int t = 0; t < kThreads; t++) {
      clients.emplace_back([&, t] {
        for (int i = 0; i < kPutsPerThread; i++) {
          if (!(*db)->Put("k" + std::to_string(t) + "." + std::to_string(i),
                          std::to_string(i)).ok()) {
            bad++;
          }
        }
      });
    }
    for (auto& c : clients) {
      c.join();
    }
    stop = true;
    flusher.join();
    ASSERT_EQ(bad.load(), 0);
  }
  auto db = kvstore::Db::Open(fs_, "/db");
  ASSERT_TRUE(db.ok());
  for (int t = 0; t < kThreads; t++) {
    for (int i = 0; i < kPutsPerThread; i++) {
      auto got = (*db)->Get("k" + std::to_string(t) + "." + std::to_string(i));
      ASSERT_TRUE(got.ok()) << t << "." << i;
      EXPECT_EQ(*got, std::to_string(i));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(OnUserSpaceAndKernelFs, KvStoreTest,
                         ::testing::Values(harness::FsKind::kZofs, harness::FsKind::kLogFs,
                                           harness::FsKind::kNova));

}  // namespace
