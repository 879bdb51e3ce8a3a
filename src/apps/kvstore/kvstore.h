// A LevelDB-like LSM key-value store built on the vfs::FileSystem API.
//
// Stands in for LevelDB in the paper's §6.3 evaluation (Table 7): it
// exercises the same file-system operation mix — sequential WAL appends
// (optionally fsynced), bulk sorted-table writes at memtable flush, random
// reads through table files, and file deletion at compaction.
//
// Structure: a write-ahead log, an in-memory memtable, and a single level of
// sorted tables (sst_<seq>, newer shadows older). Each table keeps a sparse
// in-memory index (every index_stride-th key and its offset) and a bloom
// filter (10 bits per key), both rebuilt by a sequential scan at open. The
// on-media record is [klen u32][vlen u32, 0xffffffff = tombstone][key][value]
// for the WAL and the tables alike.
//
// Read path: a Get holds the Db mutex only to look in the memtable and copy
// a shared_ptr to the current table list (the version). It then probes the
// tables newest first without the lock: the bloom filter skips most tables,
// and a probe is one pread of the span between two adjacent index entries.
//
// Write path: a Put appends to the WAL (and fsyncs it under sync_writes),
// then updates the memtable, all under the mutex. A full memtable is written
// out as a new table; when compact_trigger tables exist, the Put that
// flushed merges them all into one (a streaming k-way merge over 1 MiB
// sequential reads that drops tombstones) before it returns. The merged-away
// tables are closed and unlinked oldest first, and only after no reader
// holds a version that lists them.

#ifndef SRC_APPS_KVSTORE_KVSTORE_H_
#define SRC_APPS_KVSTORE_KVSTORE_H_

#include <functional>
#include <map>
#include <memory>
#include <memory_resource>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/result.h"
#include "src/vfs/vfs.h"

namespace kvstore {

using common::Err;
using common::Result;
using common::Status;

struct DbOptions {
  bool sync_writes = false;          // fsync the WAL on every write
  size_t memtable_bytes = 4 << 20;   // flush threshold
  size_t compact_trigger = 8;        // merge tables when this many exist
  size_t index_stride = 16;          // sparse index: every Nth entry
};

class Db {
 public:
  // Opens (or creates) a database rooted at directory `dir`.
  static Result<std::unique_ptr<Db>> Open(vfs::FileSystem* fs, const std::string& dir,
                                          DbOptions opts = {});
  ~Db();

  Status Put(const std::string& key, const std::string& value);
  Status Delete(const std::string& key);
  Result<std::string> Get(const std::string& key);

  // In-order iteration over the live key space (merges memtable + tables).
  class Iterator {
   public:
    bool Valid() const { return idx_ < entries_.size(); }
    void Next() { idx_++; }
    const std::string& key() const { return entries_[idx_].first; }
    const std::string& value() const { return entries_[idx_].second; }

   private:
    friend class Db;
    std::vector<std::pair<std::string, std::string>> entries_;
    size_t idx_ = 0;
  };
  Result<Iterator> NewIterator();

  // Testing/diagnostics.
  size_t table_count() const;
  Status FlushMemtableForTest() {
    common::MutexLock lk(&mu_);
    return FlushMemtable();
  }

 private:
  struct Table;
  // The immutable table list a reader works from, oldest first.
  struct Version {
    std::vector<std::shared_ptr<Table>> tables;
  };
  // Receives merged records in key order; `value` is nullopt for a
  // tombstone. The views are valid only during the call.
  using MergeSink = std::function<Status(std::string_view key,
                                         std::optional<std::string_view> value)>;
  class TableWriter;

  Db(vfs::FileSystem* fs, std::string dir, DbOptions opts);

  Status Replay() REQUIRES(mu_);  // rebuild the memtable from the WAL at open
  Status WriteWal(const std::string& key, const std::string& value, bool tombstone)
      REQUIRES(mu_);
  // Records `key` -> `value` (nullopt = tombstone), copying both into the
  // memtable's arena.
  void ApplyToMemtable(std::string_view key, std::optional<std::string_view> value)
      REQUIRES(mu_);
  std::string_view Stash(std::string_view bytes) REQUIRES(mu_);
  Status FlushMemtable() REQUIRES(mu_);
  Status Compact() REQUIRES(mu_);
  // Makes `tables` the current version; a reader still holding the replaced
  // one keeps its tables alive (see RetireTables).
  void InstallVersion(std::vector<std::shared_ptr<Table>> tables) REQUIRES(mu_);
  // Waits until no version a reader holds lists any of `retired`, then
  // closes and unlinks them in the given (oldest-first) order.
  void RetireTables(std::vector<std::shared_ptr<Table>> retired) REQUIRES(mu_);
  // Streams the k-way merge of `tables` (newest wins per key) into `sink`.
  Status MergeTables(const std::vector<std::shared_ptr<Table>>& tables, const MergeSink& sink);
  Result<std::shared_ptr<Table>> LoadTable(const std::string& path);
  // Searches one table for `key` (whose KeyHash is `hash`); outer optional =
  // found, inner = tombstone or value.
  Result<std::optional<std::optional<std::string>>> SearchTable(const Table& t,
                                                                std::string_view key,
                                                                uint64_t hash);

  vfs::FileSystem* fs_;
  std::string dir_;
  DbOptions opts_;
  vfs::Cred cred_{0, 0};

  mutable common::Mutex mu_;
  // Set up during single-threaded Open and read by the destructor without
  // the lock; the WAL cursor and the memtable are guarded.
  vfs::Fd wal_fd_ = -1;
  uint64_t wal_bytes_ GUARDED_BY(mu_) = 0;
  // A partial WAL record could not be cut off: every later write fails.
  bool wal_broken_ GUARDED_BY(mu_) = false;
  uint64_t next_seq_ GUARDED_BY(mu_) = 1;
  // The memtable's keys, values and tree nodes all live in one arena that a
  // flush drops whole. nullopt value = tombstone.
  std::pmr::monotonic_buffer_resource mem_arena_ GUARDED_BY(mu_);
  std::pmr::map<std::string_view, std::optional<std::string_view>> memtable_
      GUARDED_BY(mu_){&mem_arena_};
  size_t memtable_bytes_ GUARDED_BY(mu_) = 0;
  std::shared_ptr<const Version> version_ GUARDED_BY(mu_);
};

}  // namespace kvstore

#endif  // SRC_APPS_KVSTORE_KVSTORE_H_
