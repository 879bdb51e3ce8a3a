// Tests for the LevelDB-like LSM key-value store.

#include <gtest/gtest.h>

#include "src/apps/kvstore/kvstore.h"
#include "src/common/rand.h"
#include "src/harness/fslab.h"
#include "src/mpk/mpk.h"

namespace {

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

INSTANTIATE_TEST_SUITE_P(OnUserSpaceAndKernelFs, KvStoreTest,
                         ::testing::Values(harness::FsKind::kZofs, harness::FsKind::kLogFs,
                                           harness::FsKind::kNova));

}  // namespace
