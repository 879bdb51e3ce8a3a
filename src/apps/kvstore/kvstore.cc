#include "src/apps/kvstore/kvstore.h"

#include <algorithm>
#include <cstring>
#include <thread>

#include "src/common/hash.h"

namespace kvstore {

namespace {

// Record header: klen u32, vlen u32 (kTombstone marks a deletion).
constexpr size_t kHeaderBytes = 8;
constexpr uint32_t kTombstone = 0xffffffffu;
// Sequential reads and table writes move this many bytes per call.
constexpr size_t kScanBytes = 1 << 20;
constexpr uint64_t kBloomBitsPerKey = 10;
constexpr int kBloomProbes = 7;  // ~ln 2 * bits per key

using Value = std::optional<std::string_view>;

void AppendU32(std::string* out, uint32_t v) { out->append(reinterpret_cast<char*>(&v), 4); }

void AppendRecord(std::string* out, std::string_view key, Value value) {
  AppendU32(out, static_cast<uint32_t>(key.size()));
  AppendU32(out, value.has_value() ? static_cast<uint32_t>(value->size()) : kTombstone);
  out->append(key);
  if (value.has_value()) {
    out->append(*value);
  }
}

struct RecordView {
  std::string_view key;
  Value value;  // nullopt for a tombstone
  size_t end;   // position of the next record in the buffer
};

// Parses the record at buf[pos]. On-media lengths are never trusted to size a
// buffer: a record running past the end of `buf` is kCorrupt.
Result<RecordView> ParseRecord(std::string_view buf, size_t pos) {
  if (pos > buf.size() || buf.size() - pos < kHeaderBytes) {
    return Err::kCorrupt;
  }
  uint32_t klen = 0, vlen = 0;
  std::memcpy(&klen, buf.data() + pos, 4);
  std::memcpy(&vlen, buf.data() + pos + 4, 4);
  const bool tombstone = vlen == kTombstone;
  const uint64_t body = uint64_t{klen} + (tombstone ? 0 : vlen);
  if (body > buf.size() - pos - kHeaderBytes) {
    return Err::kCorrupt;
  }
  RecordView r;
  r.key = buf.substr(pos + kHeaderBytes, klen);
  if (!tombstone) {
    r.value = buf.substr(pos + kHeaderBytes + klen, vlen);
  }
  r.end = pos + kHeaderBytes + body;
  return r;
}

uint64_t KeyHash(std::string_view key) {
  uint64_t h = common::Fnv1a64(key);  // SplitMix64 finalizer spreads FNV's high bits
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
  return h ^ (h >> 31);
}

// Reads a file front to back in kScanBytes preads, one record at a time.
class Scanner {
 public:
  Scanner(vfs::FileSystem* fs, vfs::Fd fd, uint64_t size) : fs_(fs), fd_(fd), size_(size) {}

  // Advances to the next record: true when there is one, false when fewer
  // than a header's bytes remain. A record running past the end of the file
  // is kCorrupt. The previous record's views die here.
  Result<bool> Next() {
    const uint64_t off = buf_off_ + pos_;
    if (size_ - off < kHeaderBytes) {
      return false;
    }
    RETURN_IF_ERROR(Fill(kHeaderBytes));
    uint32_t len[2];
    std::memcpy(len, buf_.data() + pos_, sizeof(len));
    const uint64_t body = uint64_t{len[0]} + (len[1] == kTombstone ? 0 : len[1]);
    if (body > size_ - off - kHeaderBytes) {
      return Err::kCorrupt;
    }
    RETURN_IF_ERROR(Fill(kHeaderBytes + body));
    ASSIGN_OR_RETURN(r, ParseRecord(buf_, pos_));
    rec_ = r;
    rec_off_ = off;
    pos_ = r.end;
    return true;
  }

  const RecordView& rec() const { return rec_; }
  uint64_t offset() const { return rec_off_; }  // file offset of the current record
  uint64_t end() const { return buf_off_ + pos_; }  // just past it

 private:
  // Makes buf_ hold at least `need` bytes from pos_ (callers keep `need`
  // within the file).
  Status Fill(uint64_t need) {
    if (buf_.size() - pos_ >= need) {
      return common::OkStatus();
    }
    buf_.erase(0, pos_);
    buf_off_ += pos_;
    pos_ = 0;
    const size_t have = buf_.size();
    const size_t want = std::min<uint64_t>(std::max<uint64_t>(need, kScanBytes), size_ - buf_off_);
    buf_.resize(want);
    ASSIGN_OR_RETURN(got, fs_->Pread(fd_, buf_.data() + have, want - have, buf_off_ + have));
    return got == want - have ? common::OkStatus() : Status(Err::kCorrupt);
  }

  vfs::FileSystem* fs_;
  vfs::Fd fd_;
  uint64_t size_;
  std::string buf_;
  uint64_t buf_off_ = 0;  // file offset of buf_[0]
  size_t pos_ = 0;        // start of the next record in buf_
  RecordView rec_{};
  uint64_t rec_off_ = 0;
};

}  // namespace

// An immutable sorted table. The index and the bloom filter are built as the
// records go by, in order, at write or load time.
struct Db::Table {
  struct IndexEntry {
    std::string key;
    uint64_t off;  // offset of the record in the table file
  };

  std::string path;
  vfs::Fd fd = -1;
  uint64_t file_size = 0;
  std::vector<IndexEntry> index;  // sparse, sorted
  std::vector<uint64_t> bloom;    // bit array
  std::vector<uint64_t> hashes;   // key hashes until Seal builds the bloom

  void Note(std::string_view key, uint64_t off, size_t stride) {
    if (hashes.size() % stride == 0) {
      index.push_back(IndexEntry{std::string(key), off});
    }
    hashes.push_back(KeyHash(key));
  }

  void Seal() {
    bloom.assign((std::max<uint64_t>(hashes.size(), 1) * kBloomBitsPerKey + 63) / 64, 0);
    for (uint64_t h : hashes) {
      ForEachProbe(h, [&](uint64_t bit) { bloom[bit / 64] |= 1ull << (bit % 64); });
    }
    hashes = {};
  }

  bool MayContain(uint64_t h) const {
    bool all = true;
    ForEachProbe(h, [&](uint64_t bit) { all = all && (bloom[bit / 64] >> (bit % 64) & 1); });
    return all;
  }

  // Double hashing over the bit array (as LevelDB's filter policy does).
  template <typename F>
  void ForEachProbe(uint64_t h, F&& f) const {
    const uint64_t nbits = bloom.size() * 64;
    const uint64_t delta = (h >> 32) | (h << 32);
    for (int i = 0; i < kBloomProbes; i++, h += delta) {
      f(h % nbits);
    }
  }
};

// Streams sorted records into a new table file in kScanBytes writes. A
// writer destroyed before Finish closes and unlinks its partial file.
class Db::TableWriter {
 public:
  TableWriter(Db* db, uint64_t seq) : db_(db), t_(std::make_shared<Table>()) {
    t_->path = db->dir_ + "/sst_" + std::to_string(seq);
    block_.reserve(kScanBytes);
  }
  ~TableWriter() {
    if (t_ != nullptr && t_->fd >= 0) {
      db_->fs_->Close(t_->fd);
      db_->fs_->Unlink(db_->cred_, t_->path);
    }
  }

  Status Open() {
    ASSIGN_OR_RETURN(fd, db_->fs_->Open(db_->cred_, t_->path,
                                        vfs::kCreate | vfs::kRdWr | vfs::kTrunc, 0644));
    t_->fd = fd;
    return common::OkStatus();
  }

  Status Add(std::string_view key, Value value) {
    t_->Note(key, t_->file_size + block_.size(), db_->opts_.index_stride);
    AppendRecord(&block_, key, value);
    return block_.size() >= kScanBytes ? WriteBlock() : common::OkStatus();
  }

  Result<std::shared_ptr<Table>> Finish() {
    if (!block_.empty()) {
      RETURN_IF_ERROR(WriteBlock());
    }
    RETURN_IF_ERROR(db_->fs_->Fsync(t_->fd));
    t_->Seal();
    return std::move(t_);
  }

 private:
  // A short write would silently truncate the table: it fails the flush.
  Status WriteBlock() {
    ASSIGN_OR_RETURN(n, db_->fs_->Pwrite(t_->fd, block_.data(), block_.size(), t_->file_size));
    if (n != block_.size()) {
      return Err::kIo;
    }
    t_->file_size += n;
    block_.clear();
    return common::OkStatus();
  }

  Db* db_;
  std::shared_ptr<Table> t_;
  std::string block_;
};

Db::Db(vfs::FileSystem* fs, std::string dir, DbOptions opts)
    : fs_(fs), dir_(std::move(dir)), opts_(opts), version_(std::make_shared<const Version>()) {}

Result<std::unique_ptr<Db>> Db::Open(vfs::FileSystem* fs, const std::string& dir, DbOptions opts) {
  auto db = std::unique_ptr<Db>(new Db(fs, dir, opts));
  // No concurrent access exists before Open returns; the lock is taken anyway
  // so the REQUIRES(mu_) contracts hold analysis-wide.
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
  std::vector<std::shared_ptr<Table>> tables;
  for (const auto& [seq, path] : ssts) {
    auto t = db->LoadTable(path);
    if (!t.ok()) {
      for (const auto& loaded : tables) {
        fs->Close(loaded->fd);
      }
      return t.error();
    }
    tables.push_back(std::move(*t));
    db->next_seq_ = std::max(db->next_seq_, seq + 1);
  }
  db->InstallVersion(std::move(tables));
  // Open the WAL and replay whatever it holds.
  ASSIGN_OR_RETURN(wal, fs->Open(db->cred_, dir + "/wal.log",
                                 vfs::kCreate | vfs::kRdWr | vfs::kAppend, 0644));
  db->wal_fd_ = wal;
  RETURN_IF_ERROR(db->Replay());
  return db;
}

Db::~Db() {
  common::MutexLock lk(&mu_);
  if (wal_fd_ >= 0) {
    fs_->Close(wal_fd_);
  }
  for (const auto& t : version_->tables) {
    fs_->Close(t->fd);
  }
}

size_t Db::table_count() const {
  common::MutexLock lk(&mu_);
  return version_->tables.size();
}

std::string_view Db::Stash(std::string_view bytes) {
  char* p = static_cast<char*>(mem_arena_.allocate(std::max<size_t>(bytes.size(), 1), 1));
  std::memcpy(p, bytes.data(), bytes.size());
  return {p, bytes.size()};
}

void Db::ApplyToMemtable(std::string_view key, Value value) {
  memtable_bytes_ += key.size() + (value.has_value() ? value->size() : 0) + 16;
  if (value.has_value()) {
    value = Stash(*value);  // an overwritten value stays in the arena until the flush
  }
  auto it = memtable_.lower_bound(key);
  if (it != memtable_.end() && it->first == key) {
    it->second = value;
  } else {
    memtable_.emplace_hint(it, Stash(key), value);
  }
}

Status Db::Replay() {
  ASSIGN_OR_RETURN(st, fs_->Fstat(wal_fd_));
  Scanner scan(fs_, wal_fd_, st.size);
  uint64_t good = 0;
  while (true) {
    auto more = scan.Next();
    if (!more.ok() && more.error() != Err::kCorrupt) {
      return more.error();
    }
    if (!more.ok() || !*more) {
      break;  // a torn record at the tail ends the log (standard WAL recovery)
    }
    ApplyToMemtable(scan.rec().key, scan.rec().value);
    good = scan.end();
  }
  // Cut a torn tail off, or the next append would land behind it and be lost
  // at the following replay.
  if (good < st.size) {
    RETURN_IF_ERROR(fs_->Ftruncate(wal_fd_, good));
  }
  wal_bytes_ = good;
  return common::OkStatus();
}

Status Db::WriteWal(const std::string& key, const std::string& value, bool tombstone) {
  if (wal_broken_) {
    return Err::kIo;
  }
  std::string rec;
  rec.reserve(kHeaderBytes + key.size() + value.size());
  AppendRecord(&rec, key, tombstone ? Value() : Value(value));
  ASSIGN_OR_RETURN(n, fs_->Write(wal_fd_, rec.data(), rec.size()));
  if (n != rec.size()) {
    // The record is not in the log: do not ack it, and cut the partial
    // record off so later appends stay replayable. If the cut fails, a
    // replay would stop at the partial record and drop every later append,
    // so refuse all further writes instead of acking them.
    if (!fs_->Ftruncate(wal_fd_, wal_bytes_).ok()) {
      wal_broken_ = true;
    }
    return Err::kIo;
  }
  wal_bytes_ += rec.size();
  if (opts_.sync_writes) {
    RETURN_IF_ERROR(fs_->Fsync(wal_fd_));
  }
  return common::OkStatus();
}

Status Db::Put(const std::string& key, const std::string& value) {
  common::MutexLock lk(&mu_);
  RETURN_IF_ERROR(WriteWal(key, value, /*tombstone=*/false));
  ApplyToMemtable(key, value);
  if (memtable_bytes_ >= opts_.memtable_bytes) {
    RETURN_IF_ERROR(FlushMemtable());
  }
  return common::OkStatus();
}

Status Db::Delete(const std::string& key) {
  common::MutexLock lk(&mu_);
  RETURN_IF_ERROR(WriteWal(key, "", /*tombstone=*/true));
  ApplyToMemtable(key, std::nullopt);
  if (memtable_bytes_ >= opts_.memtable_bytes) {
    RETURN_IF_ERROR(FlushMemtable());
  }
  return common::OkStatus();
}

Result<std::shared_ptr<Db::Table>> Db::LoadTable(const std::string& path) {
  auto t = std::make_shared<Table>();
  t->path = path;
  ASSIGN_OR_RETURN(fd, fs_->Open(cred_, path, vfs::kRead, 0));
  t->fd = fd;
  auto scan_all = [&]() -> Status {
    ASSIGN_OR_RETURN(st, fs_->Fstat(fd));
    t->file_size = st.size;
    Scanner scan(fs_, fd, st.size);
    while (true) {
      ASSIGN_OR_RETURN(more, scan.Next());
      if (!more) {
        return common::OkStatus();
      }
      t->Note(scan.rec().key, scan.offset(), opts_.index_stride);
    }
  };
  Status s = scan_all();
  if (!s.ok()) {
    fs_->Close(fd);
    return s.error();
  }
  t->Seal();
  return t;
}

void Db::InstallVersion(std::vector<std::shared_ptr<Table>> tables) {
  version_ = std::make_shared<const Version>(Version{std::move(tables)});
}

void Db::RetireTables(std::vector<std::shared_ptr<Table>> retired) {
  // A reader holds a version, never a bare table, and takes it only under
  // mu_, which this thread holds. Every version that lists a retired table
  // holds a reference to it, so once each retired table is ours alone no
  // reader's version can still aim a pread at its fd.
  auto busy = [&] {
    return std::any_of(retired.begin(), retired.end(),
                       [](const std::shared_ptr<Table>& t) { return t.use_count() > 1; });
  };
  while (busy()) {
    std::this_thread::yield();
  }
  // Oldest first: a crash part-way then leaves only tables newer than the
  // ones already gone, so a tombstone the merge dropped cannot be outlived
  // by the older value it shadowed.
  for (const auto& t : retired) {
    fs_->Close(t->fd);
    fs_->Unlink(cred_, t->path);
  }
}

Status Db::FlushMemtable() {
  if (memtable_.empty()) {
    return common::OkStatus();
  }
  TableWriter w(this, next_seq_++);
  RETURN_IF_ERROR(w.Open());
  for (const auto& [key, value] : memtable_) {
    RETURN_IF_ERROR(w.Add(key, value));
  }
  ASSIGN_OR_RETURN(t, w.Finish());
  std::vector<std::shared_ptr<Table>> tables = version_->tables;
  tables.push_back(std::move(t));
  InstallVersion(std::move(tables));
  memtable_.clear();
  mem_arena_.release();
  memtable_bytes_ = 0;
  // Truncate the WAL: its contents are now durable in the table. (The WAL fd
  // is append-mode, so the write offset resets with the size.)
  RETURN_IF_ERROR(fs_->Ftruncate(wal_fd_, 0));
  wal_bytes_ = 0;
  if (version_->tables.size() >= opts_.compact_trigger) {
    RETURN_IF_ERROR(Compact());
  }
  return common::OkStatus();
}

Status Db::MergeTables(const std::vector<std::shared_ptr<Table>>& tables, const MergeSink& sink) {
  // One cursor per table, newest first, in a min-heap on (key, cursor): the
  // newest copy of a key surfaces first and its older copies right after.
  std::vector<Scanner> cur;
  cur.reserve(tables.size());  // a short record's views point into its scanner
  for (auto t = tables.rbegin(); t != tables.rend(); ++t) {
    cur.emplace_back(fs_, (*t)->fd, (*t)->file_size);
  }
  auto later = [&](size_t a, size_t b) {
    const int c = cur[a].rec().key.compare(cur[b].rec().key);
    return c > 0 || (c == 0 && a > b);
  };
  std::vector<size_t> heap;
  auto advance = [&](size_t i) -> Status {
    ASSIGN_OR_RETURN(more, cur[i].Next());
    if (more) {
      heap.push_back(i);
      std::push_heap(heap.begin(), heap.end(), later);
    }
    return common::OkStatus();
  };
  auto pop = [&] {
    std::pop_heap(heap.begin(), heap.end(), later);
    const size_t i = heap.back();
    heap.pop_back();
    return i;
  };
  for (size_t i = 0; i < cur.size(); i++) {
    RETURN_IF_ERROR(advance(i));
  }
  while (!heap.empty()) {
    const size_t best = pop();
    RETURN_IF_ERROR(sink(cur[best].rec().key, cur[best].rec().value));
    // Step past the shadowed copies first: the winner's key view dies when
    // its own cursor moves.
    while (!heap.empty() && cur[heap.front()].rec().key == cur[best].rec().key) {
      RETURN_IF_ERROR(advance(pop()));
    }
    RETURN_IF_ERROR(advance(best));
  }
  return common::OkStatus();
}

Status Db::Compact() {
  // Merge every table (newest wins) into one, dropping tombstones: the merge
  // covers everything older, so nothing is left for them to shadow.
  std::vector<std::shared_ptr<Table>> inputs = version_->tables;
  TableWriter w(this, next_seq_++);
  RETURN_IF_ERROR(w.Open());
  RETURN_IF_ERROR(MergeTables(inputs, [&](std::string_view key, Value value) {
    return value.has_value() ? w.Add(key, value) : common::OkStatus();
  }));
  ASSIGN_OR_RETURN(t, w.Finish());
  InstallVersion({std::move(t)});
  RetireTables(std::move(inputs));
  return common::OkStatus();
}

Result<std::optional<std::optional<std::string>>> Db::SearchTable(const Table& t,
                                                                  std::string_view key,
                                                                  uint64_t hash) {
  using Found = std::optional<std::optional<std::string>>;
  if (!t.MayContain(hash)) {
    return Found{};
  }
  // The last index entry <= key starts the only span that can hold it.
  auto it = std::upper_bound(t.index.begin(), t.index.end(), key,
                             [](std::string_view k, const Table::IndexEntry& e) { return k < e.key; });
  if (it == t.index.begin()) {
    return Found{};
  }
  const uint64_t begin = std::prev(it)->off;
  const uint64_t end = it == t.index.end() ? t.file_size : it->off;
  std::string span(end - begin, '\0');
  ASSIGN_OR_RETURN(got, fs_->Pread(t.fd, span.data(), span.size(), begin));
  if (got != span.size()) {
    return Err::kCorrupt;
  }
  for (size_t pos = 0; pos < span.size();) {
    ASSIGN_OR_RETURN(r, ParseRecord(span, pos));
    if (r.key == key) {
      return Found{r.value.has_value() ? std::optional<std::string>(*r.value) : std::nullopt};
    }
    if (r.key > key) {
      break;  // sorted: key absent
    }
    pos = r.end;
  }
  return Found{};
}

Result<std::string> Db::Get(const std::string& key) {
  std::shared_ptr<const Version> v;
  {
    common::MutexLock lk(&mu_);
    auto it = memtable_.find(key);
    if (it != memtable_.end()) {
      if (!it->second.has_value()) {
        return Err::kNoEnt;
      }
      return std::string(*it->second);
    }
    v = version_;
  }
  const uint64_t hash = KeyHash(key);
  for (auto t = v->tables.rbegin(); t != v->tables.rend(); ++t) {  // newest first
    ASSIGN_OR_RETURN(found, SearchTable(**t, key, hash));
    if (found.has_value()) {
      if (!found->has_value()) {
        return Err::kNoEnt;  // tombstone
      }
      return std::move(**found);
    }
  }
  return Err::kNoEnt;
}

Result<Db::Iterator> Db::NewIterator() {
  common::MutexLock lk(&mu_);
  Iterator iter;
  auto emit = [&](std::string_view k, Value v) {
    if (v.has_value()) {
      iter.entries_.emplace_back(k, *v);
    }
  };
  // The memtable is the newest source: fold it into the tables' merge.
  auto mem = memtable_.begin();
  RETURN_IF_ERROR(MergeTables(version_->tables, [&](std::string_view key, Value value) {
    for (; mem != memtable_.end() && mem->first < key; ++mem) {
      emit(mem->first, mem->second);
    }
    if (mem != memtable_.end() && mem->first == key) {
      emit(key, mem->second);
      ++mem;
    } else {
      emit(key, value);
    }
    return common::OkStatus();
  }));
  for (; mem != memtable_.end(); ++mem) {
    emit(mem->first, mem->second);
  }
  return iter;
}

}  // namespace kvstore
