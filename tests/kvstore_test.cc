// Tests for the LevelDB-like LSM key-value store.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "src/apps/kvstore/kvstore.h"
#include "src/common/rand.h"
#include "src/harness/fslab.h"
#include "src/mpk/mpk.h"

namespace {

// Forwards every call to `inner`, except that while `short_writes` is set a
// Write or Pwrite of more than one byte stores only half of it and says so,
// while `failing_truncates` is set every Ftruncate fails with kIo, and while
// `slow_preads` is set every 8th Pread on a thread first sleeps
// 100 us (it widens the window between a Get taking its table list and its
// pread, so a table retired under a reader shows up as a failed Get).
class TestFs final : public vfs::FileSystem {
 public:
  explicit TestFs(vfs::FileSystem* inner) : inner_(inner) {}
  std::atomic<bool> short_writes{false};
  std::atomic<bool> failing_truncates{false};
  std::atomic<bool> slow_preads{false};

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
    return inner_->Write(fd, b, Cut(n));
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
  common::Status Fsync(vfs::Fd fd) override { return inner_->Fsync(fd); }
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
  }
  // The half record was cut off the log, so the Put acked after it replays.
  auto db = kvstore::Db::Open(fs_, "/db");
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(*(*db)->Get("a"), "1");
  EXPECT_FALSE((*db)->Get("b").ok());
  ASSERT_TRUE((*db)->Get("c").ok());
  EXPECT_EQ(*(*db)->Get("c"), "3");
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

INSTANTIATE_TEST_SUITE_P(OnUserSpaceAndKernelFs, KvStoreTest,
                         ::testing::Values(harness::FsKind::kZofs, harness::FsKind::kLogFs,
                                           harness::FsKind::kNova));

}  // namespace
