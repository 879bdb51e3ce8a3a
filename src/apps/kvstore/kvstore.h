// A LevelDB-like LSM key-value store built on the vfs::FileSystem API.
//
// Stands in for LevelDB in the paper's §6.3 evaluation (Table 7): it
// exercises the same file-system operation mix — sequential WAL appends
// (optionally fsynced), bulk sorted-table writes at memtable flush, random
// reads through table files, and file deletion at compaction.
//
// Structure: a write-ahead log, a skiplist memtable, at most one immutable
// memtable being written out, and a single level of sorted tables
// (sst_<seq>, newer shadows older). Each table keeps a sparse in-memory index
// (every index_stride-th key and its offset) and a bloom filter (10 bits per
// key), both rebuilt by a sequential scan at open. The on-media record is
// [klen u32][vlen u32, 0xffffffff = tombstone][key][value] for the WAL and
// the tables alike; a WAL batch is its records back to back.
//
// Write path (group commit, two pipelined stages):
//  - WAL stage. A Put or Delete joins a FIFO writer queue. The writer at the
//    front is the WAL leader: it takes every writer queued behind it as its
//    batch, appends their records with one Write (and one Fsync under
//    sync_writes) without holding the Db mutex, then hands leadership to the
//    next queued writer. Only the leader touches the WAL. A leader that finds
//    the memtable full first waits until every earlier batch is in it, then
//    flushes it and truncates the WAL.
//  - Insert stage. A batch's ticket (its WAL order) lets it insert only after
//    the batch before it, so memtable order equals WAL order; the leader then
//    acks its followers. A value is visible only once it is durable, and a
//    Put returns only once it is visible.
// Waits spin for a bounded time, then block on a condition variable.
//
// Read path: a Get holds the Db mutex only to copy a shared_ptr to the
// current version {memtable, immutable memtable, tables}. It searches the
// memtables without a lock (skiplist readers need none) and then probes the
// tables newest first: the bloom filter skips most tables, and a probe is one
// pread of the span between two adjacent index entries.
//
// Flush and compaction run in the WAL stage and never hold the mutex across
// I/O. A flush makes the memtable immutable (Gets keep reading it), writes
// it out as a new table, and installs the table in its place. When
// compact_trigger tables exist, the same leader merges them all into one (a
// streaming k-way merge over 1 MiB sequential reads that drops tombstones)
// before it appends its batch. The merged-away tables are closed and
// unlinked oldest first, and only after no reader holds a version that lists
// them.

#ifndef SRC_APPS_KVSTORE_KVSTORE_H_
#define SRC_APPS_KVSTORE_KVSTORE_H_

#include <atomic>
#include <functional>
#include <memory>
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
  bool sync_writes = false;          // fsync the WAL before a write is acked
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

  // In-order iteration over the live key space (merges memtables + tables).
  // It sees every write acked before it was created.
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
  // Writes the memtable out as a table (a no-op when it is empty). It goes
  // through the writer queue, so it never cuts off a batch in flight.
  Status FlushMemtableForTest();

 private:
  struct Table;
  class MemTable;
  // What a reader works from: the memtable, the immutable one being flushed
  // (or null), and the tables, oldest first. Never changed once installed.
  struct Version {
    std::shared_ptr<MemTable> mem;
    std::shared_ptr<MemTable> imm;
    std::vector<std::shared_ptr<Table>> tables;
  };
  struct Writer;
  // Receives merged records in key order; `value` is nullopt for a
  // tombstone. The views are valid only during the call.
  using MergeSink = std::function<Status(std::string_view key,
                                         std::optional<std::string_view> value)>;
  class TableWriter;

  Db(vfs::FileSystem* fs, std::string dir, DbOptions opts);

  Status Replay() REQUIRES(mu_);  // rebuild the memtable from the WAL at open
  // Queues `w` and returns once its batch is acked.
  Status Write(Writer* w) EXCLUDES(mu_);
  // Makes `w`, now at the front of the queue, the WAL leader of every writer
  // queued behind it (up to a flush request, which leads alone).
  void MakeLeader(Writer* w) REQUIRES(mu_);
  // Runs the batch `leader` leads through the WAL and insert stages.
  Status Lead(Writer* leader) EXCLUDES(mu_);
  // WAL leader only: one Write (and Fsync) for the records of first..last.
  Status AppendBatch(const Writer* first, const Writer* last);
  // WAL leader only, once every earlier batch is in the memtable.
  Status FlushMemtable() EXCLUDES(mu_);
  Status Compact() EXCLUDES(mu_);
  void InstallVersion(Version v) REQUIRES(mu_);
  // Waits until no version a reader holds lists any of `retired`, then
  // closes and unlinks them in the given (oldest-first) order.
  void RetireTables(std::vector<std::shared_ptr<Table>> retired) EXCLUDES(mu_);
  // Returns once done() holds: spins for a bounded time, then blocks on cv_.
  template <typename Done>
  void Await(const Done& done) EXCLUDES(mu_);
  // Wakes blocked waiters after a store that may satisfy them.
  void Wake() EXCLUDES(mu_);
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
  std::shared_ptr<const Version> version_ GUARDED_BY(mu_);
  // The writer queue, linked through Writer::next; its front is the WAL
  // leader.
  Writer* queue_head_ GUARDED_BY(mu_) = nullptr;
  Writer* queue_tail_ GUARDED_BY(mu_) = nullptr;
  uint64_t last_ticket_ GUARDED_BY(mu_) = 0;  // tickets go to batches in WAL order
  std::atomic<uint64_t> inserted_ticket_{0};  // batches 1..this are in the memtable
  common::CondVar cv_;                        // Await's blocked waiters, under mu_
  std::atomic<int> sleepers_{0};              // how many are blocked there

  // Owned by the WAL leader (and by Open and the destructor, which run
  // alone): the WAL, its buffer, and the table sequence.
  vfs::Fd wal_fd_ = -1;
  uint64_t wal_bytes_ = 0;
  // A partial WAL record could not be cut off: every later write fails.
  bool wal_broken_ = false;
  std::string wal_buf_;
  uint64_t next_seq_ = 1;
};

}  // namespace kvstore

#endif  // SRC_APPS_KVSTORE_KVSTORE_H_
