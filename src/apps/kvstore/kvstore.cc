#include "src/apps/kvstore/kvstore.h"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <memory_resource>
#include <new>
#include <thread>

#include "src/common/clock.h"
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
// Await pauses this many times, then yields for up to kSpinNs, then blocks.
constexpr uint32_t kPauseSpins = 256;
constexpr uint64_t kSpinNs = 50'000;

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

// A skiplist memtable (LevelDB's shape). One inserter runs at a time (the
// batch whose ticket is up) and readers take no lock: a node is filled in
// before a release store links it, and readers follow links with acquire
// loads. An overwrite publishes a new value the same way and leaves the old
// one for readers that already hold it. Keys, values and nodes live in the
// memtable's arena, which is dropped with it.
class Db::MemTable {
 public:
  MemTable() : head_(NewNode({}, nullptr, kMaxHeight)) {}

  // Records key -> value (nullopt = tombstone). Inserter only.
  void Add(std::string_view key, Value value) {
    bytes_.fetch_add(key.size() + (value.has_value() ? value->size() : 0) + 16,
                     std::memory_order_relaxed);
    const Value* v = value.has_value() ? new (Alloc(sizeof(Value), alignof(Value)))
                                             Value(Copy(*value))
                                       : &kDeleted;
    Node* prev[kMaxHeight];
    Node* x = Seek(key, prev);
    if (x != nullptr && x->key == key) {
      x->value.store(v, std::memory_order_release);
      return;
    }
    const int h = RandomHeight();
    const int height = height_.load(std::memory_order_relaxed);
    if (h > height) {
      std::fill(prev + height, prev + h, head_);
      // A reader that sees the new height before the links just drops a level.
      height_.store(h, std::memory_order_relaxed);
    }
    x = NewNode(Copy(key), v, h);
    for (int i = 0; i < h; i++) {
      x->Link(i).store(prev[i]->Link(i).load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
      prev[i]->Link(i).store(x, std::memory_order_release);
    }
  }

  // Outer optional: key present; inner: value or tombstone. The view lives
  // as long as the memtable.
  std::optional<Value> Find(std::string_view key) const {
    const Node* x = Seek(key, nullptr);
    if (x == nullptr || x->key != key) {
      return std::nullopt;
    }
    return *x->value.load(std::memory_order_acquire);
  }

  size_t bytes() const { return bytes_.load(std::memory_order_relaxed); }
  bool empty() const { return head_->Next(0) == nullptr; }

  // Calls f(key, value) in key order, stopping at the first failure.
  template <typename F>
  Status ForEach(const F& f) const {
    for (const Node* x = head_->Next(0); x != nullptr; x = x->Next(0)) {
      RETURN_IF_ERROR(f(x->key, *x->value.load(std::memory_order_acquire)));
    }
    return common::OkStatus();
  }

 private:
  static constexpr int kMaxHeight = 12;
  static inline const Value kDeleted{};

  // A node's `height` links follow it in its allocation.
  struct Node {
    Node(std::string_view k, const Value* v) : key(k), value(v) {}
    std::atomic<Node*>& Link(int i) const {
      return const_cast<std::atomic<Node*>*>(
          reinterpret_cast<const std::atomic<Node*>*>(this + 1))[i];
    }
    Node* Next(int i) const { return Link(i).load(std::memory_order_acquire); }

    const std::string_view key;
    std::atomic<const Value*> value;
  };

  void* Alloc(size_t bytes, size_t align) { return arena_.allocate(bytes, align); }

  std::string_view Copy(std::string_view bytes) {
    char* p = static_cast<char*>(Alloc(std::max<size_t>(bytes.size(), 1), 1));
    std::memcpy(p, bytes.data(), bytes.size());
    return {p, bytes.size()};
  }

  Node* NewNode(std::string_view key, const Value* v, int height) {
    Node* x = new (Alloc(sizeof(Node) + sizeof(std::atomic<Node*>) * height, alignof(Node)))
        Node(key, v);
    for (int i = 0; i < height; i++) {
      new (&x->Link(i)) std::atomic<Node*>(nullptr);
    }
    return x;
  }

  // Each level up holds a quarter of the nodes of the one below.
  int RandomHeight() {
    int h = 1;
    while (h < kMaxHeight && (rnd_ = rnd_ * 6364136223846793005ull + 1442695040888963407ull) >> 62 == 0) {
      h++;
    }
    return h;
  }

  // The first node whose key is >= `key`; fills prev[level] with its
  // predecessor on every level when `prev` is given.
  Node* Seek(std::string_view key, Node** prev) const {
    Node* x = head_;
    for (int level = height_.load(std::memory_order_relaxed) - 1;;) {
      Node* next = x->Next(level);
      if (next != nullptr && next->key < key) {
        x = next;
        continue;
      }
      if (prev != nullptr) {
        prev[level] = x;
      }
      if (level == 0) {
        return next;
      }
      level--;
    }
  }

  std::pmr::monotonic_buffer_resource arena_;  // inserter only
  Node* const head_;
  std::atomic<int> height_{1};
  uint64_t rnd_ = 0x9e3779b97f4a7c15ull;  // inserter only
  std::atomic<size_t> bytes_{0};
};

// One Put, Delete or flush request in the writer queue. It lives on its
// caller's stack and may be gone as soon as its state turns kDone.
struct Db::Writer {
  enum State : int { kQueued, kLeader, kDone };

  std::string_view key;
  Value value;  // nullopt = tombstone
  bool flush = false;  // FlushMemtableForTest: no record; it leads alone
  Writer* next = nullptr;  // queue link, set under mu_
  std::atomic<int> state{kQueued};
  Status status = common::OkStatus();  // the batch's outcome, set before kDone
  // Set before kLeader, by whoever makes this writer the leader.
  Writer* last = nullptr;  // the batch is this writer through `last`
  bool make_room = false;  // flush (and maybe compact) before appending
  uint64_t prior = 0;      // the ticket of the batch ahead of this one
};

Db::Db(vfs::FileSystem* fs, std::string dir, DbOptions opts)
    : fs_(fs), dir_(std::move(dir)), opts_(opts),
      version_(std::make_shared<const Version>(Version{std::make_shared<MemTable>(), nullptr, {}})) {}

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
  db->InstallVersion({db->version_->mem, nullptr, std::move(tables)});
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
    version_->mem->Add(scan.rec().key, scan.rec().value);
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

Status Db::Put(const std::string& key, const std::string& value) {
  Writer w;
  w.key = key;
  w.value = value;
  return Write(&w);
}

Status Db::Delete(const std::string& key) {
  Writer w;
  w.key = key;
  return Write(&w);
}

Status Db::FlushMemtableForTest() {
  Writer w;
  w.flush = true;
  return Write(&w);
}

Status Db::Write(Writer* w) {
  {
    common::MutexLock lk(&mu_);
    if (queue_tail_ != nullptr) {
      queue_tail_->next = w;
    } else {
      queue_head_ = w;
    }
    queue_tail_ = w;
    if (queue_head_ == w) {
      MakeLeader(w);
    }
  }
  Await([w] { return w->state.load() != Writer::kQueued; });
  if (w->state.load() == Writer::kDone) {
    return w->status;
  }
  return Lead(w);
}

void Db::MakeLeader(Writer* w) {
  Writer* last = w;
  if (!w->flush) {
    while (last->next != nullptr && !last->next->flush) {
      last = last->next;
    }
  }
  w->last = last;
  w->make_room = w->flush || version_->mem->bytes() >= opts_.memtable_bytes;
  w->prior = last_ticket_;
  w->state.store(Writer::kLeader);
}

Status Db::Lead(Writer* leader) {
  Writer* const last = leader->last;
  Status s = common::OkStatus();
  if (leader->make_room) {
    // The memtable must hold everything the WAL does before both are let go.
    Await([&] { return inserted_ticket_.load() == leader->prior; });
    s = FlushMemtable();
    if (s.ok() && table_count() >= opts_.compact_trigger) {
      s = Compact();
    }
  }
  if (s.ok() && !leader->flush) {
    s = AppendBatch(leader, last);
  }
  // Hand the WAL to the next writer, then insert while it appends.
  uint64_t ticket = 0;
  MemTable* mem = nullptr;
  {
    common::MutexLock lk(&mu_);
    if (s.ok() && !leader->flush) {
      ticket = ++last_ticket_;
      mem = version_->mem.get();  // no flush replaces it before this batch is in
    }
    queue_head_ = last->next;
    if (queue_head_ == nullptr) {
      queue_tail_ = nullptr;
    } else {
      MakeLeader(queue_head_);
      if (sleepers_.load() > 0) {
        cv_.NotifyAll();
      }
    }
  }
  if (ticket != 0) {
    Await([&] { return inserted_ticket_.load() == ticket - 1; });
    for (const Writer* w = leader;; w = w->next) {
      mem->Add(w->key, w->value);
      if (w == last) {
        break;
      }
    }
    inserted_ticket_.store(ticket);
  }
  // Ack the followers. Each may return, freeing its Writer, once it is kDone.
  for (Writer* f = leader == last ? nullptr : leader->next; f != nullptr;) {
    Writer* next = f == last ? nullptr : f->next;
    f->status = s;
    f->state.store(Writer::kDone);
    f = next;
  }
  Wake();
  return s;
}

Status Db::AppendBatch(const Writer* first, const Writer* last) {
  if (wal_broken_) {
    return Err::kIo;
  }
  wal_buf_.clear();
  for (const Writer* w = first;; w = w->next) {
    AppendRecord(&wal_buf_, w->key, w->value);
    if (w == last) {
      break;
    }
  }
  ASSIGN_OR_RETURN(n, fs_->Write(wal_fd_, wal_buf_.data(), wal_buf_.size()));
  if (n != wal_buf_.size()) {
    // The batch is not in the log: ack none of it, and cut the partial
    // records off so later appends stay replayable. If the cut fails, a
    // replay would stop at the partial record and drop every later append,
    // so refuse all further writes instead of acking them.
    if (!fs_->Ftruncate(wal_fd_, wal_bytes_).ok()) {
      wal_broken_ = true;
    }
    return Err::kIo;
  }
  wal_bytes_ += n;
  if (opts_.sync_writes) {
    RETURN_IF_ERROR(fs_->Fsync(wal_fd_));
  }
  return common::OkStatus();
}

template <typename Done>
void Db::Await(const Done& done) {
  // Most waits end within one batch's append and insert, a few
  // microseconds, sooner than a sleep and wakeup would; a flush or a
  // compaction ahead takes milliseconds.
  uint64_t start = 0;
  for (uint32_t spins = 0; !done(); spins++) {
    if (spins < kPauseSpins) {
#if defined(__x86_64__)
      __builtin_ia32_pause();
#endif
      continue;
    }
    const uint64_t now = common::RealNowNs();
    start = start == 0 ? now : start;
    if (now - start < kSpinNs) {
      std::this_thread::yield();
      continue;
    }
    common::MutexLock lk(&mu_);
    sleepers_++;
    while (!done()) {
      cv_.Wait(&mu_);
    }
    sleepers_--;
    return;
  }
}

void Db::Wake() {
  // The waker's store and this load, and a sleeper's increment and its
  // recheck, are all sequentially consistent: either the sleeper sees the
  // store or this sees the sleeper.
  if (sleepers_.load() > 0) {
    common::MutexLock lk(&mu_);
    cv_.NotifyAll();
  }
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

void Db::InstallVersion(Version v) {
  version_ = std::make_shared<const Version>(std::move(v));
}

void Db::RetireTables(std::vector<std::shared_ptr<Table>> retired) {
  // A reader holds a version, never a bare table, and takes it only under
  // mu_ from version_, which no longer lists the retired tables. Every
  // version that does holds a reference to them, so once each retired table
  // is ours alone no reader's version can still aim a pread at its fd. A Get
  // lets go within microseconds; an iterator may take longer.
  auto busy = [&] {
    return std::any_of(retired.begin(), retired.end(),
                       [](const std::shared_ptr<Table>& t) { return t.use_count() > 1; });
  };
  for (uint32_t tries = 0; busy(); tries++) {
    if (tries < kPauseSpins) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
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
  std::shared_ptr<MemTable> full;
  std::vector<std::shared_ptr<Table>> tables;
  auto fresh = std::make_shared<MemTable>();
  {
    common::MutexLock lk(&mu_);
    if (version_->mem->empty()) {
      return common::OkStatus();
    }
    full = version_->mem;
    tables = version_->tables;
    // Gets keep reading the full memtable while it is written out.
    InstallVersion({fresh, full, tables});
  }
  auto write = [&]() -> Result<std::shared_ptr<Table>> {
    TableWriter w(this, next_seq_++);
    RETURN_IF_ERROR(w.Open());
    RETURN_IF_ERROR(full->ForEach([&](std::string_view key, Value value) {
      return w.Add(key, value);
    }));
    return w.Finish();
  };
  auto t = write();
  {
    common::MutexLock lk(&mu_);
    if (!t.ok()) {
      // Nothing reached `fresh`: later batches wait behind this leader.
      InstallVersion({full, nullptr, tables});
      return t.error();
    }
    tables.push_back(std::move(*t));
    InstallVersion({fresh, nullptr, std::move(tables)});
  }
  // Truncate the WAL: its contents are now durable in the table. (The WAL fd
  // is append-mode, so the write offset resets with the size.)
  RETURN_IF_ERROR(fs_->Ftruncate(wal_fd_, 0));
  wal_bytes_ = 0;
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
  std::vector<std::shared_ptr<Table>> inputs;
  {
    common::MutexLock lk(&mu_);
    inputs = version_->tables;
  }
  TableWriter w(this, next_seq_++);
  RETURN_IF_ERROR(w.Open());
  RETURN_IF_ERROR(MergeTables(inputs, [&](std::string_view key, Value value) {
    return value.has_value() ? w.Add(key, value) : common::OkStatus();
  }));
  ASSIGN_OR_RETURN(t, w.Finish());
  {
    common::MutexLock lk(&mu_);
    InstallVersion({version_->mem, version_->imm, {std::move(t)}});
  }
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
    v = version_;
  }
  for (const MemTable* m : {v->mem.get(), v->imm.get()}) {  // newest first
    if (m == nullptr) {
      continue;
    }
    if (auto hit = m->Find(key)) {
      if (!hit->has_value()) {
        return Err::kNoEnt;
      }
      return std::string(**hit);
    }
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
  std::shared_ptr<const Version> v;
  {
    common::MutexLock lk(&mu_);
    v = version_;
  }
  // The memtables as one sorted run. During a flush there are two:
  // std::merge puts the newer copy of a key first, and std::unique keeps it.
  using Entry = std::pair<std::string_view, Value>;
  auto entries = [](const MemTable& m) {
    std::vector<Entry> out;
    m.ForEach([&](std::string_view k, Value val) {
      out.emplace_back(k, val);
      return common::OkStatus();
    });
    return out;
  };
  std::vector<Entry> mems = entries(*v->mem);
  if (v->imm != nullptr) {
    const std::vector<Entry> older = entries(*v->imm);
    std::vector<Entry> merged;
    std::merge(mems.begin(), mems.end(), older.begin(), older.end(), std::back_inserter(merged),
               [](const Entry& a, const Entry& b) { return a.first < b.first; });
    merged.erase(std::unique(merged.begin(), merged.end(),
                             [](const Entry& a, const Entry& b) { return a.first == b.first; }),
                 merged.end());
    mems = std::move(merged);
  }

  Iterator iter;
  auto emit = [&](std::string_view k, Value val) {
    if (val.has_value()) {
      iter.entries_.emplace_back(k, *val);
    }
  };
  // The memtables are the newest source: fold them into the tables' merge.
  auto mem = mems.begin();
  RETURN_IF_ERROR(MergeTables(v->tables, [&](std::string_view key, Value value) {
    for (; mem != mems.end() && mem->first < key; ++mem) {
      emit(mem->first, mem->second);
    }
    if (mem != mems.end() && mem->first == key) {
      emit(key, mem->second);
      ++mem;
    } else {
      emit(key, value);
    }
    return common::OkStatus();
  }));
  for (; mem != mems.end(); ++mem) {
    emit(mem->first, mem->second);
  }
  return iter;
}

}  // namespace kvstore
