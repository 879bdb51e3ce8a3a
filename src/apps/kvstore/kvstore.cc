#include "src/apps/kvstore/kvstore.h"

#include <algorithm>
#include <cstring>

namespace kvstore {

namespace {

// WAL / table record header.
struct RecordHeader {
  uint32_t klen;
  uint32_t vlen;  // 0xffffffff = tombstone
};
constexpr uint32_t kTombstone = 0xffffffffu;

void AppendU32(std::string* out, uint32_t v) { out->append(reinterpret_cast<char*>(&v), 4); }

// Reads exactly `n` bytes at `off` into *out. The caller has checked the
// range against the file size, so a short read means the file is corrupt.
Status ReadExact(vfs::FileSystem* fs, vfs::Fd fd, std::string* out, uint64_t n, uint64_t off) {
  out->resize(n);
  if (n == 0) {
    return common::OkStatus();
  }
  ASSIGN_OR_RETURN(got, fs->Pread(fd, out->data(), n, off));
  return got == n ? common::OkStatus() : Status(Err::kCorrupt);
}

struct Record {
  bool tombstone;
  uint64_t value_off;
  uint64_t vlen;  // 0 for a tombstone
  uint64_t end;   // offset of the next record
};

// Parses the WAL / table record at `off` of a file holding `size` bytes:
// reads its key into *key and, when `value` is non-null, its value (empty
// for a tombstone). On-media lengths are never trusted to size a buffer:
// a record running past `size` is kCorrupt.
Result<Record> ReadRecord(vfs::FileSystem* fs, vfs::Fd fd, uint64_t off, uint64_t size,
                          std::string* key, std::string* value) {
  RecordHeader h;
  if (off > size || size - off < sizeof(h)) {
    return Err::kCorrupt;
  }
  ASSIGN_OR_RETURN(n, fs->Pread(fd, &h, sizeof(h), off));
  if (n != sizeof(h)) {
    return Err::kCorrupt;
  }
  Record r;
  r.tombstone = h.vlen == kTombstone;
  r.vlen = r.tombstone ? 0 : h.vlen;
  if (h.klen + r.vlen > size - off - sizeof(h)) {
    return Err::kCorrupt;
  }
  r.value_off = off + sizeof(h) + h.klen;
  r.end = r.value_off + r.vlen;
  RETURN_IF_ERROR(ReadExact(fs, fd, key, h.klen, off + sizeof(h)));
  if (value != nullptr) {
    RETURN_IF_ERROR(ReadExact(fs, fd, value, r.vlen, r.value_off));
  }
  return r;
}

}  // namespace

Result<std::unique_ptr<Db>> Db::Open(vfs::FileSystem* fs, const std::string& dir, DbOptions opts) {
  auto db = std::unique_ptr<Db>(new Db(fs, dir, opts));
  // No concurrent access exists before Open returns; the lock is taken anyway
  // so Replay's REQUIRES(mu_) contract holds analysis-wide.
  common::MutexLock lk(&db->mu_);
  auto st = fs->Mkdir(db->cred_, dir, 0755);
  if (!st.ok() && st.error() != Err::kExist) {
    return st.error();
  }
  // Load existing tables (named sst_<seq>).
  ASSIGN_OR_RETURN(entries, fs->ReadDir(db->cred_, dir));
  std::vector<std::pair<uint64_t, std::string>> ssts;
  for (const vfs::DirEntry& e : entries) {
    if (e.name.rfind("sst_", 0) == 0) {
      ssts.emplace_back(std::strtoull(e.name.c_str() + 4, nullptr, 10), dir + "/" + e.name);
    }
  }
  std::sort(ssts.begin(), ssts.end());
  for (const auto& [seq, path] : ssts) {
    ASSIGN_OR_RETURN(t, db->LoadTable(path, seq));
    db->tables_.push_back(std::move(t));
    db->next_seq_ = std::max(db->next_seq_, seq + 1);
  }
  // Open the WAL and replay whatever it holds.
  ASSIGN_OR_RETURN(wal, fs->Open(db->cred_, dir + "/wal.log",
                                 vfs::kCreate | vfs::kRdWr | vfs::kAppend, 0644));
  db->wal_fd_ = wal;
  RETURN_IF_ERROR(db->Replay());
  return db;
}

Db::~Db() {
  if (wal_fd_ >= 0) {
    fs_->Close(wal_fd_);
  }
  for (auto& t : tables_) {
    if (t->fd >= 0) {
      fs_->Close(t->fd);
    }
  }
}

Status Db::Replay() {
  ASSIGN_OR_RETURN(st, fs_->Fstat(wal_fd_));
  uint64_t off = 0;
  std::string key, value;
  while (off + sizeof(RecordHeader) <= st.size) {
    auto r = ReadRecord(fs_, wal_fd_, off, st.size, &key, &value);
    if (!r.ok()) {
      if (r.error() == Err::kCorrupt) {
        break;  // torn record at the tail: ignore (standard WAL recovery)
      }
      return r.error();
    }
    off = r->end;
    if (r->tombstone) {
      memtable_[key] = std::nullopt;
    } else {
      memtable_[key] = value;
      memtable_bytes_ += key.size() + value.size() + 16;
    }
  }
  wal_bytes_ = off;
  return common::OkStatus();
}

Status Db::WriteWal(const std::string& key, const std::string& value, bool tombstone) {
  std::string rec;
  rec.reserve(sizeof(RecordHeader) + key.size() + value.size());
  AppendU32(&rec, static_cast<uint32_t>(key.size()));
  AppendU32(&rec, tombstone ? kTombstone : static_cast<uint32_t>(value.size()));
  rec += key;
  if (!tombstone) {
    rec += value;
  }
  ASSIGN_OR_RETURN(n, fs_->Write(wal_fd_, rec.data(), rec.size()));
  (void)n;
  wal_bytes_ += rec.size();
  if (opts_.sync_writes) {
    RETURN_IF_ERROR(fs_->Fsync(wal_fd_));
  }
  return common::OkStatus();
}

Status Db::Put(const std::string& key, const std::string& value) {
  common::MutexLock lk(&mu_);
  RETURN_IF_ERROR(WriteWal(key, value, /*tombstone=*/false));
  memtable_[key] = value;
  memtable_bytes_ += key.size() + value.size() + 16;
  if (memtable_bytes_ >= opts_.memtable_bytes) {
    RETURN_IF_ERROR(FlushMemtable());
  }
  return common::OkStatus();
}

Status Db::Delete(const std::string& key) {
  common::MutexLock lk(&mu_);
  RETURN_IF_ERROR(WriteWal(key, "", /*tombstone=*/true));
  memtable_[key] = std::nullopt;
  memtable_bytes_ += key.size() + 16;
  if (memtable_bytes_ >= opts_.memtable_bytes) {
    RETURN_IF_ERROR(FlushMemtable());
  }
  return common::OkStatus();
}

Result<std::unique_ptr<Db::Table>> Db::WriteTable(
    const std::vector<std::pair<std::string, std::optional<std::string>>>& entries,
    uint64_t seq) {
  auto t = std::make_unique<Table>();
  t->seq = seq;
  t->path = dir_ + "/sst_" + std::to_string(seq);
  ASSIGN_OR_RETURN(fd, fs_->Open(cred_, t->path, vfs::kCreate | vfs::kRdWr | vfs::kTrunc, 0644));
  std::string block;
  block.reserve(1 << 20);
  uint64_t off = 0;
  size_t i = 0;
  for (const auto& [key, value] : entries) {
    if (i++ % opts_.index_stride == 0) {
      t->index.push_back(TableEntry{key, off + block.size()});
    }
    AppendU32(&block, static_cast<uint32_t>(key.size()));
    AppendU32(&block, value.has_value() ? static_cast<uint32_t>(value->size()) : kTombstone);
    block += key;
    if (value.has_value()) {
      block += *value;
    }
    if (block.size() >= (1 << 20)) {
      ASSIGN_OR_RETURN(n, fs_->Pwrite(fd, block.data(), block.size(), off));
      (void)n;
      off += block.size();
      block.clear();
    }
  }
  if (!block.empty()) {
    ASSIGN_OR_RETURN(n, fs_->Pwrite(fd, block.data(), block.size(), off));
    (void)n;
    off += block.size();
  }
  RETURN_IF_ERROR(fs_->Fsync(fd));
  t->fd = fd;
  t->file_size = off;
  return t;
}

Result<std::unique_ptr<Db::Table>> Db::LoadTable(const std::string& path, uint64_t seq) {
  auto t = std::make_unique<Table>();
  t->seq = seq;
  t->path = path;
  ASSIGN_OR_RETURN(fd, fs_->Open(cred_, path, vfs::kRead, 0));
  t->fd = fd;
  ASSIGN_OR_RETURN(st, fs_->Fstat(fd));
  t->file_size = st.size;
  // Rebuild the sparse index with a sequential scan.
  uint64_t off = 0;
  size_t i = 0;
  std::string key;
  while (off + sizeof(RecordHeader) <= t->file_size) {
    ASSIGN_OR_RETURN(r, ReadRecord(fs_, fd, off, t->file_size, &key, nullptr));
    if (i++ % opts_.index_stride == 0) {
      t->index.push_back(TableEntry{key, off});
    }
    off = r.end;
  }
  return t;
}

Status Db::FlushMemtable() {
  if (memtable_.empty()) {
    return common::OkStatus();
  }
  std::vector<std::pair<std::string, std::optional<std::string>>> entries(memtable_.begin(),
                                                                          memtable_.end());
  ASSIGN_OR_RETURN(t, WriteTable(entries, next_seq_++));
  tables_.push_back(std::move(t));
  memtable_.clear();
  memtable_bytes_ = 0;
  // Truncate the WAL: its contents are now durable in the table. (The WAL fd
  // is append-mode, so the write offset resets with the size.)
  RETURN_IF_ERROR(fs_->Ftruncate(wal_fd_, 0));
  wal_bytes_ = 0;
  if (tables_.size() >= opts_.compact_trigger) {
    RETURN_IF_ERROR(Compact());
  }
  return common::OkStatus();
}

Status Db::MergeTables(std::map<std::string, std::optional<std::string>>* merged) {
  std::string key, value;
  for (const auto& t : tables_) {  // oldest -> newest: later overwrite earlier
    uint64_t off = 0;
    while (off + sizeof(RecordHeader) <= t->file_size) {
      ASSIGN_OR_RETURN(r, ReadRecord(fs_, t->fd, off, t->file_size, &key, &value));
      (*merged)[key] = r.tombstone ? std::nullopt : std::optional<std::string>(value);
      off = r.end;
    }
  }
  return common::OkStatus();
}

Status Db::Compact() {
  // Merge every table (newest wins) into one, dropping tombstones.
  std::map<std::string, std::optional<std::string>> merged;
  RETURN_IF_ERROR(MergeTables(&merged));
  // Drop tombstones in the output (full merge).
  std::vector<std::pair<std::string, std::optional<std::string>>> live;
  live.reserve(merged.size());
  for (auto& [k, v] : merged) {
    if (v.has_value()) {
      live.emplace_back(k, std::move(v));
    }
  }
  ASSIGN_OR_RETURN(nt, WriteTable(live, next_seq_++));
  // Retire the old tables.
  for (auto& t : tables_) {
    fs_->Close(t->fd);
    fs_->Unlink(cred_, t->path);
  }
  tables_.clear();
  tables_.push_back(std::move(nt));
  return common::OkStatus();
}

Result<std::optional<std::optional<std::string>>> Db::SearchTable(Table& t,
                                                                  const std::string& key) {
  if (t.index.empty()) {
    return std::optional<std::optional<std::string>>{};
  }
  // Find the last index entry <= key.
  auto it = std::upper_bound(t.index.begin(), t.index.end(), key,
                             [](const std::string& k, const TableEntry& e) { return k < e.key; });
  if (it == t.index.begin()) {
    return std::optional<std::optional<std::string>>{};
  }
  --it;
  uint64_t off = it->off;
  // Scan up to index_stride records.
  std::string k;
  for (size_t i = 0; i <= opts_.index_stride && off + sizeof(RecordHeader) <= t.file_size; i++) {
    ASSIGN_OR_RETURN(r, ReadRecord(fs_, t.fd, off, t.file_size, &k, nullptr));
    if (k == key) {
      if (r.tombstone) {
        return std::optional<std::optional<std::string>>{std::optional<std::string>{}};
      }
      std::string v;
      RETURN_IF_ERROR(ReadExact(fs_, t.fd, &v, r.vlen, r.value_off));
      return std::optional<std::optional<std::string>>{std::optional<std::string>{std::move(v)}};
    }
    if (k > key) {
      break;  // sorted: key absent
    }
    off = r.end;
  }
  return std::optional<std::optional<std::string>>{};
}

Result<std::string> Db::Get(const std::string& key) {
  common::MutexLock lk(&mu_);
  auto it = memtable_.find(key);
  if (it != memtable_.end()) {
    if (!it->second.has_value()) {
      return Err::kNoEnt;
    }
    return *it->second;
  }
  for (auto t = tables_.rbegin(); t != tables_.rend(); ++t) {  // newest first
    ASSIGN_OR_RETURN(found, SearchTable(**t, key));
    if (found.has_value()) {
      if (!found->has_value()) {
        return Err::kNoEnt;  // tombstone
      }
      return **found;
    }
  }
  return Err::kNoEnt;
}

Result<Db::Iterator> Db::NewIterator() {
  common::MutexLock lk(&mu_);
  std::map<std::string, std::optional<std::string>> merged;
  RETURN_IF_ERROR(MergeTables(&merged));
  for (const auto& [k, v] : memtable_) {
    merged[k] = v;
  }
  Iterator iter;
  for (auto& [k, v] : merged) {
    if (v.has_value()) {
      iter.entries_.emplace_back(k, std::move(*v));
    }
  }
  return iter;
}

}  // namespace kvstore
