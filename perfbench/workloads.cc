// The four workloads. Each client's ops come from a generator seeded only by
// (--seed, phase, client); the generator also keeps the shadow model the
// oracle checks. A failed op marks the names it touched as unknown: the
// generator stops choosing them and the oracle skips them, so one failure is
// counted once instead of cascading.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "perfbench/perfbench.h"
#include "src/apps/kvstore/kvstore.h"
#include "src/common/clock.h"
#include "src/common/rand.h"
#include "src/fslib/fslib.h"
#include "src/harness/fslab.h"

namespace perfbench {

namespace {

// FsLib checks permissions against its process's credentials; the per-call
// cred of vfs::FileSystem is not consulted.
const vfs::Cred kCred{0, 0};
constexpr size_t kBlock = 4096;

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t ClientSeed(uint64_t seed, int client) { return Mix(seed ^ Mix(0x5eed0000ULL + client)); }

// Fills `n` bytes with a pattern that names (a, b, c) in every 8-byte word,
// each word also salted with its position, so a block from another file,
// block, version or offset never verifies.
void Stamp(uint8_t* dst, size_t n, uint64_t a, uint64_t b, uint64_t c) {
  const uint64_t h = Mix(Mix(Mix(a) ^ b) ^ c);
  for (size_t i = 0; i < n; i += 8) {
    const uint64_t w = h ^ (i * 0x9e3779b97f4a7c15ULL);
    std::memcpy(dst + i, &w, std::min<size_t>(8, n - i));
  }
}

bool StampMatches(const uint8_t* p, size_t n, uint64_t a, uint64_t b, uint64_t c) {
  thread_local std::vector<uint8_t> want;
  want.resize(n);
  Stamp(want.data(), n, a, b, c);
  return std::memcmp(p, want.data(), n) == 0;
}

// Small integers with O(1) insert, erase and uniform pick.
class IndexSet {
 public:
  explicit IndexSet(uint32_t universe) : pos_(universe, -1) {}
  size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }
  bool contains(uint32_t v) const { return pos_[v] >= 0; }
  void Insert(uint32_t v) {
    if (!contains(v)) {
      pos_[v] = static_cast<int32_t>(items_.size());
      items_.push_back(v);
    }
  }
  void Erase(uint32_t v) {
    if (!contains(v)) {
      return;
    }
    const uint32_t last = items_.back();
    items_[pos_[v]] = last;
    pos_[last] = pos_[v];
    items_.pop_back();
    pos_[v] = -1;
  }
  uint32_t Pick(common::Rng& rng) const { return items_[rng.Below(items_.size())]; }

 private:
  std::vector<uint32_t> items_;
  std::vector<int32_t> pos_;
};

// Runs one op: sets the failure context, times it under an op span and
// records it. Returns the hardware clock at the op's end.
template <typename F>
uint64_t RunOp(ClientStats& st, OpClass cls, const char* name, F&& op) {
  ClientContext& ctx = Ctx();
  ctx.op = name;
  ctx.op_index++;
  bool ok = false;
  const uint64_t t0 = common::RealNowNs();
  {
    ScopedSpan span(kSpOp);
    ok = op();
  }
  const uint64_t t1 = common::RealNowNs();
  st.lat_ns[static_cast<int>(cls)].push_back(SaturateNs(t1 - t0));
  st.attempted++;
  if (!ok) {
    st.failed++;
  }
  return t1;
}

// A transfer that returned fewer bytes than asked without an error.
bool FullTransfer(const vfs::Result<size_t>& r, size_t want, FailureLog& fl,
                  const std::string& what) {
  if (!r.ok()) {
    return false;
  }
  if (*r != want) {
    fl.NoteMismatch(what + ": transferred " + std::to_string(*r) + " of " +
                    std::to_string(want) + " bytes");
    return false;
  }
  return true;
}

// Creates `path`, writes `n` bytes and closes it (setup and oracle helper).
common::Err WriteFile(vfs::FileSystem* fs, const std::string& path, uint16_t mode,
                      const uint8_t* data, size_t n, bool fsync) {
  auto fd = fs->Open(kCred, path, vfs::kCreate | vfs::kWrite | vfs::kTrunc, mode);
  if (!fd.ok()) {
    return fd.error();
  }
  auto w = fs->Write(*fd, data, n);
  common::Err err = !w.ok() ? w.error() : (*w != n ? common::Err::kIo : common::Err::kOk);
  if (err == common::Err::kOk && fsync) {
    auto s = fs->Fsync(*fd);
    err = s.ok() ? common::Err::kOk : s.error();
  }
  auto c = fs->Close(*fd);
  if (err == common::Err::kOk && !c.ok()) {
    err = c.error();
  }
  return err;
}

// Opens `path` read-only and reads up to `cap` bytes into `buf`.
vfs::Result<size_t> ReadFile(vfs::FileSystem* fs, const std::string& path, uint8_t* buf,
                             size_t cap) {
  auto fd = fs->Open(kCred, path, vfs::kRead, 0);
  if (!fd.ok()) {
    return fd.error();
  }
  auto r = fs->Read(*fd, buf, cap);
  auto c = fs->Close(*fd);
  if (r.ok() && !c.ok()) {
    return c.error();
  }
  return r;
}

enum NameState : uint8_t { kAbsent, kPresent, kUnknown };

// ============================================================================
// meta: four clients in one process share one flat directory in the root
// coffer. Each client owns kMetaNames names and keeps about half of them live.

constexpr uint32_t kMetaNames = 2048;
constexpr uint32_t kMetaBand = 64;  // live names stay within kMetaNames / 2 +- this
constexpr char kMetaDir[] = "/meta";

struct MetaOp {
  enum Kind : uint8_t { kCreate, kRead, kStat, kRename, kUnlink } kind = kCreate;
  uint32_t a = 0;
  uint32_t b = 0;
  uint64_t version = 0;  // content identity: a create's sequence number
};

class MetaGen {
 public:
  explicit MetaGen(uint64_t seed)
      : rng_(seed), present_(kMetaNames), absent_(kMetaNames), state_(kMetaNames, kAbsent),
        version_(kMetaNames, 0) {
    for (uint32_t i = 0; i < kMetaNames; i++) {
      if (i < kMetaNames / 2) {
        present_.Insert(i);
        state_[i] = kPresent;
        version_[i] = 1;
      } else {
        absent_.Insert(i);
      }
    }
  }

  MetaOp Next() {
    uint64_t r = rng_.Below(100);
    // Creates and removals balance on average; turning one into the other
    // at the edges of a band keeps the live population, and with it the
    // space the coffer needs, from wandering across runs.
    if (r < 20 && present_.size() > kMetaNames / 2 + kMetaBand) {
      r = 99;
    } else if (r >= 90 && present_.size() < kMetaNames / 2 - kMetaBand) {
      r = 0;
    }
    MetaOp op;
    if (r < 20) {
      op.kind = MetaOp::kCreate;
      op.a = absent_.Pick(rng_);
      op.version = next_version_++;
      SetPresent(op.a, op.version);
    } else if (r < 80) {
      op.kind = r < 50 ? MetaOp::kRead : MetaOp::kStat;
      op.a = present_.Pick(rng_);
      op.version = version_[op.a];
    } else if (r < 90) {
      op.kind = MetaOp::kRename;
      op.a = present_.Pick(rng_);
      do {
        op.b = present_.Pick(rng_);
      } while (op.b == op.a);
      op.version = version_[op.a];
      SetPresent(op.b, op.version);
      SetAbsent(op.a);
    } else {
      op.kind = MetaOp::kUnlink;
      op.a = present_.Pick(rng_);
      SetAbsent(op.a);
    }
    return op;
  }

  void MarkUnknown(uint32_t name) {
    present_.Erase(name);
    absent_.Erase(name);
    state_[name] = kUnknown;
  }

  NameState state(uint32_t name) const { return static_cast<NameState>(state_[name]); }
  uint64_t version(uint32_t name) const { return version_[name]; }
  size_t live() const { return present_.size(); }

  static std::string Describe(const MetaOp& op) {
    static constexpr const char* kKinds[] = {"create", "read", "stat", "rename", "unlink"};
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s a=%u b=%u v=%" PRIu64, kKinds[op.kind], op.a, op.b,
                  op.version);
    return buf;
  }

 private:
  void SetPresent(uint32_t n, uint64_t v) {
    absent_.Erase(n);
    present_.Insert(n);
    state_[n] = kPresent;
    version_[n] = v;
  }
  void SetAbsent(uint32_t n) {
    present_.Erase(n);
    absent_.Insert(n);
    state_[n] = kAbsent;
  }

  common::Rng rng_;
  IndexSet present_;
  IndexSet absent_;
  std::vector<uint8_t> state_;
  std::vector<uint64_t> version_;
  uint64_t next_version_ = 2;
};

class MetaWorkload final : public Workload {
 public:
  MetaWorkload(const harness::LabOptions& lopts, uint64_t seed, FailureLog* failures)
      : Workload(lopts, failures) {
    for (int c = 0; c < kClients; c++) {
      gens_.emplace_back(ClientSeed(seed, c));
      paths_.emplace_back();
      for (uint32_t i = 0; i < kMetaNames; i++) {
        paths_[c].push_back(std::string(kMetaDir) + "/" + Name(c, i));
      }
    }
  }

  void Setup() override {
    lab_ = std::make_unique<harness::FsLab>(harness::FsKind::kZofs, lopts_);
    fs_ = Wrap(static_cast<fslib::FsLib*>(lab_->View(0)));
    // 0755 under the 0755 root: same permission group, so the directory and
    // every file stay in the root coffer.
    auto s = fs_->Mkdir(kCred, kMetaDir, 0755);
    if (!s.ok()) {
      SetupFailed("mkdir /meta", s.error());
    }
    std::vector<uint8_t> buf(kBlock);
    for (int c = 0; c < kClients; c++) {
      for (uint32_t i = 0; i < kMetaNames; i++) {
        if (gens_[c].state(i) == kPresent) {
          Stamp(buf.data(), kBlock, c, gens_[c].version(i), 0);
          auto e = WriteFile(fs_, paths_[c][i], 0644, buf.data(), kBlock, true);
          if (e != common::Err::kOk) {
            SetupFailed("prefill " + paths_[c][i], e);
          }
        }
      }
    }
  }

  void RunClient(int c, uint64_t deadline_ns, ClientStats& st) override {
    MetaGen& gen = gens_[c];
    std::vector<uint8_t> buf(2 * kBlock);
    uint64_t now = 0;
    do {
      const MetaOp op = gen.Next();
      const std::string& pa = paths_[c][op.a];
      switch (op.kind) {
        case MetaOp::kCreate:
          now = RunOp(st, OpClass::kWrite, "create", [&] {
            Stamp(buf.data(), kBlock, c, op.version, 0);
            st.user_bytes_written += kBlock;
            auto fd = fs_->Open(kCred, pa, vfs::kCreate | vfs::kWrite, 0644);
            if (!fd.ok()) {
              gen.MarkUnknown(op.a);
              return false;
            }
            bool ok = FullTransfer(fs_->Write(*fd, buf.data(), kBlock), kBlock, failures(),
                                   "write " + pa);
            ok = ok && fs_->Fsync(*fd).ok();
            ok = fs_->Close(*fd).ok() && ok;
            if (!ok) {
              gen.MarkUnknown(op.a);
            }
            return ok;
          });
          break;
        case MetaOp::kRead:
          now = RunOp(st, OpClass::kRead, "read", [&] {
            if (!FullTransfer(ReadFile(fs_, pa, buf.data(), buf.size()), kBlock, failures(),
                              "read " + pa)) {
              return false;
            }
            if (!StampMatches(buf.data(), kBlock, c, op.version, 0)) {
              failures().NoteMismatch("content of " + pa);
              gen.MarkUnknown(op.a);
              return false;
            }
            return true;
          });
          break;
        case MetaOp::kStat:
          now = RunOp(st, OpClass::kRead, "stat", [&] {
            auto s = fs_->Stat(kCred, pa);
            if (!s.ok()) {
              return false;
            }
            if (s->size != kBlock || s->type != vfs::FileType::kRegular) {
              failures().NoteMismatch("stat of " + pa);
              return false;
            }
            return true;
          });
          break;
        case MetaOp::kRename:
          now = RunOp(st, OpClass::kWrite, "rename", [&] {
            if (!fs_->Rename(kCred, pa, paths_[c][op.b]).ok()) {
              gen.MarkUnknown(op.a);
              gen.MarkUnknown(op.b);
              return false;
            }
            return true;
          });
          break;
        case MetaOp::kUnlink:
          now = RunOp(st, OpClass::kWrite, "unlink", [&] {
            if (!fs_->Unlink(kCred, pa).ok()) {
              gen.MarkUnknown(op.a);
              return false;
            }
            return true;
          });
          break;
      }
    } while (now < deadline_ns);
  }

  // The directory must list exactly the live names of the shadow models
  // (unknown names may be either way), and every live file must read back
  // its last content.
  void Verify() override {
    auto list = fs_->ReadDir(kCred, kMetaDir);
    if (!list.ok()) {
      failures().NoteMismatch("readdir /meta failed");
      return;
    }
    std::vector<std::vector<uint8_t>> listed(kClients, std::vector<uint8_t>(kMetaNames, 0));
    for (const vfs::DirEntry& e : *list) {
      int c = -1;
      unsigned i = 0;
      if (std::sscanf(e.name.c_str(), "c%d_%u", &c, &i) != 2 || c < 0 || c >= kClients ||
          i >= kMetaNames || Name(c, i) != e.name) {
        failures().NoteMismatch("stray entry /meta/" + e.name);
        continue;
      }
      listed[c][i] = 1;
    }
    std::vector<uint8_t> buf(2 * kBlock);
    for (int c = 0; c < kClients; c++) {
      for (uint32_t i = 0; i < kMetaNames; i++) {
        const NameState s = gens_[c].state(i);
        if (s == kUnknown) {
          continue;
        }
        if ((s == kPresent) != (listed[c][i] != 0)) {
          failures().NoteMismatch((s == kPresent ? "missing " : "unexpected ") + paths_[c][i]);
          continue;
        }
        if (s == kPresent) {
          auto r = ReadFile(fs_, paths_[c][i], buf.data(), buf.size());
          if (!r.ok() || *r != kBlock ||
              !StampMatches(buf.data(), kBlock, c, gens_[c].version(i), 0)) {
            failures().NoteMismatch("final content of " + paths_[c][i]);
          }
        }
      }
    }
  }

  uint64_t LiveUserBytes() const override {
    uint64_t files = 0;
    for (const MetaGen& g : gens_) {
      files += g.live();
    }
    return files * kBlock;
  }

 private:
  static std::string Name(int c, uint32_t i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "c%d_%u", c, i);
    return buf;
  }

  std::vector<MetaGen> gens_;
  std::vector<std::vector<std::string>> paths_;
  vfs::FileSystem* fs_ = nullptr;
};

// ============================================================================
// data: each client owns a private coffer with kDataFiles multi-MiB files and
// an append log. Reads and overwrites pick blocks Zipfian.

constexpr uint32_t kDataFiles = 4;
constexpr uint32_t kDataFileBlocks = 1024;  // 4 MiB per file, 64 MiB over 4 clients
constexpr uint32_t kDataBlocks = kDataFiles * kDataFileBlocks;
constexpr uint32_t kLogFile = kDataFiles;   // descriptor index of the log
constexpr uint32_t kLogCapBlocks = 256;     // the log wraps (truncate to 0) at 1 MiB
constexpr uint32_t kFsyncEvery = 16;        // writes between fsync ops
constexpr uint64_t kLogTag = 1ull << 32;    // stamp identity of log blocks
// Distinct effective permission groups, none the root coffer's 0644: each
// client's tree becomes its own coffer.
constexpr uint16_t kPrivateModes[kClients] = {0600, 0602, 0604, 0606};
static_assert((kDataBlocks & (kDataBlocks - 1)) == 0, "block scramble needs a power of two");

struct DataOp {
  enum Kind : uint8_t { kPread, kPwrite, kAppend, kFsync } kind = kPread;
  uint32_t block = 0;       // global block (file * kDataFileBlocks + offset), or log block
  uint64_t version = 0;
  bool wrap = false;        // append: truncate the log first
  uint32_t dirty_mask = 0;  // fsync: descriptors written since the last fsync
};

class DataGen {
 public:
  explicit DataGen(uint64_t seed)
      : rng_(seed), zipf_(kDataBlocks, 0.99, Mix(seed)), version_(kDataBlocks, 1),
        unknown_(kDataBlocks, 0) {}

  DataOp Next() {
    DataOp op;
    if (writes_since_fsync_ >= kFsyncEvery) {
      op.kind = DataOp::kFsync;
      op.dirty_mask = dirty_;
      dirty_ = 0;
      writes_since_fsync_ = 0;
      return op;
    }
    const uint64_t r = rng_.Below(100);
    if (r < 80) {
      // Odd multiplier: a bijection on [0, 2^k) that spreads the hot ranks
      // over all files.
      op.block = static_cast<uint32_t>((zipf_.Next() * 2654435761ull) & (kDataBlocks - 1));
      if (r < 50) {
        op.kind = DataOp::kPread;
        op.version = version_[op.block];
        return op;
      }
      op.kind = DataOp::kPwrite;
      op.version = ++version_[op.block];
      dirty_ |= 1u << (op.block / kDataFileBlocks);
    } else {
      op.kind = DataOp::kAppend;
      if (log_blocks_ == kLogCapBlocks) {
        op.wrap = true;
        log_blocks_ = 0;
        log_gen_++;
      }
      op.block = log_blocks_++;
      op.version = log_gen_;
      dirty_ |= 1u << kLogFile;
    }
    writes_since_fsync_++;
    return op;
  }

  void MarkUnknown(const DataOp& op) {
    if (op.kind == DataOp::kPwrite) {
      unknown_[op.block] = 1;
    } else if (op.kind == DataOp::kAppend) {
      log_unknown_ = true;
    }
  }

  uint64_t version(uint32_t g) const { return version_[g]; }
  bool unknown(uint32_t g) const { return unknown_[g] != 0; }
  uint32_t log_blocks() const { return log_blocks_; }
  uint64_t log_gen() const { return log_gen_; }
  bool log_unknown() const { return log_unknown_; }

  static std::string Describe(const DataOp& op) {
    static constexpr const char* kKinds[] = {"pread", "pwrite", "append", "fsync"};
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s blk=%u v=%" PRIu64 " wrap=%d mask=%x", kKinds[op.kind],
                  op.block, op.version, op.wrap ? 1 : 0, op.dirty_mask);
    return buf;
  }

 private:
  common::Rng rng_;
  common::Zipf zipf_;
  std::vector<uint64_t> version_;
  std::vector<uint8_t> unknown_;
  uint32_t log_blocks_ = 0;
  uint64_t log_gen_ = 1;
  bool log_unknown_ = false;
  uint32_t writes_since_fsync_ = 0;
  uint32_t dirty_ = 0;
};

class DataWorkload final : public Workload {
 public:
  DataWorkload(const harness::LabOptions& lopts, uint64_t seed, FailureLog* failures)
      : Workload(lopts, failures) {
    for (int c = 0; c < kClients; c++) {
      gens_.emplace_back(ClientSeed(seed, c));
    }
  }

  ~DataWorkload() override {
    for (const auto& fds : fds_) {
      for (vfs::Fd fd : fds) {
        fs_->Close(fd);
      }
    }
  }

  void Setup() override {
    lab_ = std::make_unique<harness::FsLab>(harness::FsKind::kZofs, lopts_);
    fs_ = Wrap(static_cast<fslib::FsLib*>(lab_->View(0)));
    std::vector<uint8_t> chunk(64 * kBlock);
    for (int c = 0; c < kClients; c++) {
      const std::string dir = "/d" + std::to_string(c);
      auto s = fs_->Mkdir(kCred, dir, kPrivateModes[c]);
      if (!s.ok()) {
        SetupFailed("mkdir " + dir, s.error());
      }
      fds_.emplace_back();
      for (uint32_t f = 0; f <= kDataFiles; f++) {
        const bool log = f == kLogFile;
        const std::string path = dir + (log ? "/log" : "/f" + std::to_string(f));
        auto fd = fs_->Open(kCred, path,
                            vfs::kCreate | vfs::kRdWr | (log ? vfs::kAppend : 0),
                            kPrivateModes[c]);
        if (!fd.ok()) {
          SetupFailed("create " + path, fd.error());
        }
        fds_[c].push_back(*fd);
        for (uint32_t b = 0; !log && b < kDataFileBlocks; b += 64) {
          for (uint32_t i = 0; i < 64; i++) {
            const uint32_t g = f * kDataFileBlocks + b + i;
            Stamp(chunk.data() + i * kBlock, kBlock, c, g, gens_[c].version(g));
          }
          auto w = fs_->Pwrite(*fd, chunk.data(), chunk.size(), uint64_t{b} * kBlock);
          if (!w.ok() || *w != chunk.size()) {
            SetupFailed("prefill " + path, w.ok() ? common::Err::kIo : w.error());
          }
        }
        auto sy = fs_->Fsync(*fd);
        if (!sy.ok()) {
          SetupFailed("fsync " + path, sy.error());
        }
      }
    }
  }

  void RunClient(int c, uint64_t deadline_ns, ClientStats& st) override {
    DataGen& gen = gens_[c];
    const std::vector<vfs::Fd>& fds = fds_[c];
    std::vector<uint8_t> buf(kBlock);
    uint64_t now = 0;
    do {
      const DataOp op = gen.Next();
      // The data file and offset of a pread/pwrite block.
      const vfs::Fd fd = fds[op.block / kDataFileBlocks];
      const uint64_t off = uint64_t{op.block % kDataFileBlocks} * kBlock;
      switch (op.kind) {
        case DataOp::kPread:
          now = RunOp(st, OpClass::kRead, "pread", [&] {
            if (!FullTransfer(fs_->Pread(fd, buf.data(), kBlock, off), kBlock, failures(),
                              "pread")) {
              return false;
            }
            if (!gen.unknown(op.block) &&
                !StampMatches(buf.data(), kBlock, c, op.block, op.version)) {
              failures().NoteMismatch("client " + std::to_string(c) + " block " +
                                      std::to_string(op.block));
              return false;
            }
            return true;
          });
          break;
        case DataOp::kPwrite:
          now = RunOp(st, OpClass::kWrite, "pwrite", [&] {
            Stamp(buf.data(), kBlock, c, op.block, op.version);
            st.user_bytes_written += kBlock;
            if (!FullTransfer(fs_->Pwrite(fd, buf.data(), kBlock, off), kBlock, failures(),
                              "pwrite")) {
              gen.MarkUnknown(op);
              return false;
            }
            return true;
          });
          break;
        case DataOp::kAppend:
          now = RunOp(st, OpClass::kWrite, "append", [&] {
            const vfs::Fd log = fds[kLogFile];
            if (op.wrap && !fs_->Ftruncate(log, 0).ok()) {
              gen.MarkUnknown(op);
              return false;
            }
            Stamp(buf.data(), kBlock, c, kLogTag | op.block, op.version);
            st.user_bytes_written += kBlock;
            if (!FullTransfer(fs_->Write(log, buf.data(), kBlock), kBlock, failures(),
                              "append")) {
              gen.MarkUnknown(op);
              return false;
            }
            return true;
          });
          break;
        case DataOp::kFsync:
          now = RunOp(st, OpClass::kFsync, "fsync", [&] {
            bool ok = true;
            for (uint32_t f = 0; f <= kDataFiles; f++) {
              if (op.dirty_mask & (1u << f)) {
                ok = fs_->Fsync(fds[f]).ok() && ok;
              }
            }
            return ok;
          });
          break;
      }
    } while (now < deadline_ns);
  }

  // Full read-back: every block of every file carries its last version, and
  // the log holds exactly the blocks appended since its last wrap.
  void Verify() override {
    std::vector<uint8_t> buf(kBlock);
    for (int c = 0; c < kClients; c++) {
      const DataGen& gen = gens_[c];
      for (uint32_t g = 0; g < kDataBlocks; g++) {
        auto r = fs_->Pread(fds_[c][g / kDataFileBlocks], buf.data(), kBlock,
                            uint64_t{g % kDataFileBlocks} * kBlock);
        if (!r.ok() || *r != kBlock ||
            (!gen.unknown(g) && !StampMatches(buf.data(), kBlock, c, g, gen.version(g)))) {
          failures().NoteMismatch("final client " + std::to_string(c) + " block " +
                                  std::to_string(g));
        }
      }
      if (gen.log_unknown()) {
        continue;
      }
      const vfs::Fd log = fds_[c][kLogFile];
      auto st = fs_->Fstat(log);
      if (!st.ok() || st->size != uint64_t{gen.log_blocks()} * kBlock) {
        failures().NoteMismatch("final log size of client " + std::to_string(c));
        continue;
      }
      for (uint32_t b = 0; b < gen.log_blocks(); b++) {
        auto r = fs_->Pread(log, buf.data(), kBlock, uint64_t{b} * kBlock);
        if (!r.ok() || *r != kBlock ||
            !StampMatches(buf.data(), kBlock, c, kLogTag | b, gen.log_gen())) {
          failures().NoteMismatch("final log block " + std::to_string(b) + " of client " +
                                  std::to_string(c));
        }
      }
    }
  }

  uint64_t LiveUserBytes() const override {
    uint64_t bytes = uint64_t{kClients} * kDataBlocks * kBlock;
    for (const DataGen& g : gens_) {
      bytes += uint64_t{g.log_blocks()} * kBlock;
    }
    return bytes;
  }

 private:
  std::vector<DataGen> gens_;
  std::vector<std::vector<vfs::Fd>> fds_;  // per client: kDataFiles files, then the log
  vfs::FileSystem* fs_ = nullptr;
};

// ============================================================================
// kv: kvstore::Db with synchronous writes, four clients on one Db. Each
// client Puts only its own keys (key % kClients == client), so the final
// value of every key is known exactly; Gets read any key.

constexpr size_t kKvMemtableBytes = 4 << 20;
constexpr size_t kKvKeyBytes = 16;
constexpr size_t kKvValueBytes = 100;
// About 7x the memtable (Db charges key + value + 16 bytes an entry): most
// Gets read table files, and Puts cycle through flushes and compactions.
constexpr uint32_t kKvKeys =
    7 * kKvMemtableBytes / (kKvKeyBytes + kKvValueBytes + 16) / kClients * kClients;
constexpr char kKvDir[] = "/kv";
constexpr uint64_t kKvTag = 0x6b76;

struct KvOp {
  bool put = false;
  uint32_t key = 0;
  uint64_t version = 0;
};

class KvGen {
 public:
  KvGen(uint64_t seed, int client)
      : rng_(seed), zipf_(kKvKeys, 0.99, Mix(seed)), client_(client),
        version_(kKvKeys / kClients, 1) {}

  KvOp Next() {
    KvOp op;
    if (rng_.Below(2) == 0) {
      const uint64_t slot = rng_.Below(kKvKeys / kClients);
      op.put = true;
      op.key = static_cast<uint32_t>(slot * kClients + client_);
      op.version = ++version_[slot];
    } else {
      // 1000003 is prime and larger than kKvKeys: a bijection on the keys
      // that scatters the hot ranks.
      op.key = static_cast<uint32_t>(zipf_.Next() * 1000003ull % kKvKeys);
    }
    return op;
  }

  static std::string Describe(const KvOp& op) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s k=%u v=%" PRIu64, op.put ? "put" : "get", op.key,
                  op.version);
    return buf;
  }

 private:
  common::Rng rng_;
  common::Zipf zipf_;
  int client_;
  std::vector<uint64_t> version_;
};

std::string KvKey(uint32_t k) {
  char buf[kKvKeyBytes + 1];
  std::snprintf(buf, sizeof(buf), "k%015u", k);
  return std::string(buf, kKvKeyBytes);
}

// Value: the version in the first 8 bytes, then a stamp of (key, version).
std::string KvValue(uint32_t k, uint64_t version) {
  std::string v(kKvValueBytes, '\0');
  std::memcpy(v.data(), &version, 8);
  Stamp(reinterpret_cast<uint8_t*>(v.data()) + 8, kKvValueBytes - 8, kKvTag, k, version);
  return v;
}

// The version a value carries, or 0 when it is not a value of key `k`.
uint64_t KvVersionOf(uint32_t k, const std::string& v) {
  uint64_t version = 0;
  if (v.size() != kKvValueBytes) {
    return 0;
  }
  std::memcpy(&version, v.data(), 8);
  const auto* p = reinterpret_cast<const uint8_t*>(v.data()) + 8;
  return StampMatches(p, kKvValueBytes - 8, kKvTag, k, version) ? version : 0;
}

class KvWorkload final : public Workload {
 public:
  KvWorkload(const harness::LabOptions& lopts, uint64_t seed, FailureLog* failures)
      : Workload(lopts, failures), attempted_(new std::atomic<uint64_t>[kKvKeys]),
        acked_(kKvKeys, 1) {
    for (int c = 0; c < kClients; c++) {
      gens_.emplace_back(ClientSeed(seed, c), c);
    }
    for (uint32_t k = 0; k < kKvKeys; k++) {
      attempted_[k].store(1, std::memory_order_relaxed);
    }
  }

  void Setup() override {
    lab_ = std::make_unique<harness::FsLab>(harness::FsKind::kZofs, lopts_);
    fs_ = Wrap(static_cast<fslib::FsLib*>(lab_->View(0)));
    // Load every key once without per-Put fsync, then reopen the way the
    // clients use the Db (the reopen replays the WAL).
    kvstore::DbOptions load;
    load.memtable_bytes = kKvMemtableBytes;
    OpenDb(load);
    for (uint32_t k = 0; k < kKvKeys; k++) {
      auto s = db_->Put(KvKey(k), KvValue(k, 1));
      if (!s.ok()) {
        SetupFailed("prefill put", s.error());
      }
    }
    db_.reset();
    OpenDb(RunOptions());
  }

  void RunClient(int c, uint64_t deadline_ns, ClientStats& st) override {
    KvGen& gen = gens_[c];
    uint64_t now = 0;
    do {
      const KvOp op = gen.Next();
      const std::string key = KvKey(op.key);
      if (op.put) {
        now = RunOp(st, OpClass::kWrite, "put", [&] {
          const std::string value = KvValue(op.key, op.version);
          st.user_bytes_written += kKvKeyBytes + kKvValueBytes;
          attempted_[op.key].store(op.version, std::memory_order_release);
          common::Status s = common::OkStatus();
          {
            ScopedSpan span(kSpDbPut, kKvKeyBytes + kKvValueBytes);
            s = db_->Put(key, value);
          }
          if (!s.ok()) {
            failures().NoteErr(kSpDbPut, s.error(), "key=" + key);
            return false;
          }
          acked_[op.key] = op.version;
          return true;
        });
      } else {
        now = RunOp(st, OpClass::kRead, "get", [&] {
          common::Result<std::string> v = common::Err::kIo;
          {
            ScopedSpan span(kSpDbGet);
            v = db_->Get(key);
          }
          if (!v.ok()) {
            failures().NoteErr(kSpDbGet, v.error(), "key=" + key);
            return false;
          }
          // Any value the Get returned was attempted before the Put entered
          // the Db, so the bound is loaded after the Get.
          const uint64_t version = KvVersionOf(op.key, *v);
          if (version == 0 || version > attempted_[op.key].load(std::memory_order_acquire)) {
            failures().NoteMismatch("get " + key);
            return false;
          }
          return true;
        });
      }
    } while (now < deadline_ns);
  }

  // Close and reopen the Db, then every key must hold its last acknowledged
  // value (or, after a failed Put, the value that Put attempted).
  void Verify() override {
    db_.reset();
    auto db = kvstore::Db::Open(fs_, kKvDir, RunOptions());
    if (!db.ok()) {
      failures().NoteMismatch(std::string("reopen failed: ") + common::ErrName(db.error()));
      return;
    }
    db_ = std::move(*db);
    auto it = db_->NewIterator();
    if (!it.ok()) {
      failures().NoteMismatch("iterator failed");
      return;
    }
    uint32_t seen = 0;
    for (; it->Valid(); it->Next()) {
      unsigned k = 0;
      if (std::sscanf(it->key().c_str(), "k%u", &k) != 1 || k >= kKvKeys ||
          KvKey(k) != it->key()) {
        failures().NoteMismatch("stray key " + it->key());
        continue;
      }
      const uint64_t v = KvVersionOf(k, it->value());
      if (v < acked_[k] || v > attempted_[k].load()) {
        failures().NoteMismatch("final value of " + it->key());
      }
      seen++;
    }
    if (seen != kKvKeys) {
      failures().NoteMismatch("reopened Db holds " + std::to_string(seen) + " of " +
                              std::to_string(kKvKeys) + " keys");
    }
  }

  uint64_t LiveUserBytes() const override {
    return uint64_t{kKvKeys} * (kKvKeyBytes + kKvValueBytes);
  }

 private:
  static kvstore::DbOptions RunOptions() {
    kvstore::DbOptions o;
    o.sync_writes = true;
    o.memtable_bytes = kKvMemtableBytes;
    return o;
  }

  void OpenDb(const kvstore::DbOptions& o) {
    auto db = kvstore::Db::Open(fs_, kKvDir, o);
    if (!db.ok()) {
      SetupFailed("open db", db.error());
    }
    db_ = std::move(*db);
  }

  std::vector<KvGen> gens_;
  std::unique_ptr<std::atomic<uint64_t>[]> attempted_;  // highest version a Put was issued for
  std::vector<uint64_t> acked_;  // last acknowledged version; written by the key's owner only
  vfs::FileSystem* fs_ = nullptr;
  std::unique_ptr<kvstore::Db> db_;
};

// ============================================================================
// tenants: four simulated processes with distinct uids, one client each.
// Each owns 64 directory coffers cycling 24 permission groups; with its home
// coffer, the root coffer and the shared /pub coffer a process sees 27
// protection classes, more than the 15 MPK keys.

constexpr uint32_t kTenantDirs = 64;
constexpr uint32_t kTenantNames = 32;
constexpr uint32_t kTenantPrefill = 8;
constexpr uint32_t kTenantRunLen = 16;
constexpr uint32_t kPubFiles = 32;
constexpr size_t kTenantMaxFile = 512;
// The first 16 let the owner write (the tenant creates and unlinks there);
// the last 8 are owner-read-only (root fills them at setup and hands them
// over; the tenant only stats and reads).
constexpr uint16_t kTenantModes[24] = {0600, 0602, 0604, 0606, 0620, 0622, 0624, 0626,
                                       0640, 0642, 0644, 0646, 0660, 0662, 0664, 0666,
                                       0400, 0402, 0404, 0406, 0420, 0422, 0424, 0426};
constexpr uint64_t kPubTag = 0xffff;

uint16_t TenantMode(uint32_t dir) { return kTenantModes[dir % 24]; }
bool TenantWritable(uint32_t dir) { return (TenantMode(dir) & 0200) != 0; }
uint32_t PrefillSize(uint32_t dir, uint32_t name) { return 64 + (dir * 32 + name) * 37 % 449; }
uint32_t PubSize(uint32_t i) { return 256 + 8 * i; }

struct TenantOp {
  enum Kind : uint8_t { kCreate, kStat, kRead, kUnlink, kPubRead } kind = kStat;
  uint32_t dir = 0;
  uint32_t file = 0;
  uint64_t version = 0;
  uint32_t size = 0;
};

class TenantGen {
 public:
  explicit TenantGen(uint64_t seed) : rng_(seed) {
    for (uint32_t d = 0; d < kTenantDirs; d++) {
      dirs_.emplace_back();
      Dir& dir = dirs_.back();
      for (uint32_t n = 0; n < kTenantNames; n++) {
        if (n < kTenantPrefill) {
          dir.present.Insert(n);
          dir.state[n] = kPresent;
          dir.version[n] = 1;
          dir.size[n] = PrefillSize(d, n);
        } else {
          dir.absent.Insert(n);
        }
      }
    }
  }

  TenantOp Next() {
    if (run_left_ == 0) {
      cur_ = static_cast<uint32_t>(rng_.Below(kTenantDirs));
      run_left_ = kTenantRunLen;
    }
    run_left_--;
    TenantOp op;
    op.dir = cur_;
    Dir& d = dirs_[cur_];
    const uint64_t r = rng_.Below(100);
    if (r >= 95 || d.present.empty()) {
      op.kind = TenantOp::kPubRead;
      op.file = static_cast<uint32_t>(rng_.Below(kPubFiles));
      op.size = PubSize(op.file);
      return op;
    }
    if (TenantWritable(cur_) && r < 25 && !d.absent.empty()) {
      op.kind = TenantOp::kCreate;
      op.file = d.absent.Pick(rng_);
      op.version = next_version_++;
      op.size = static_cast<uint32_t>(64 + rng_.Below(kTenantMaxFile - 64 + 1));
      d.absent.Erase(op.file);
      d.present.Insert(op.file);
      d.state[op.file] = kPresent;
      d.version[op.file] = op.version;
      d.size[op.file] = op.size;
      return op;
    }
    op.file = d.present.Pick(rng_);
    op.version = d.version[op.file];
    op.size = d.size[op.file];
    if (!TenantWritable(cur_)) {
      op.kind = r < 45 ? TenantOp::kStat : TenantOp::kRead;
    } else if (r < 50) {
      op.kind = TenantOp::kStat;
    } else if (r < 80 || d.present.size() <= 2) {
      op.kind = TenantOp::kRead;
    } else {
      op.kind = TenantOp::kUnlink;
      d.present.Erase(op.file);
      d.absent.Insert(op.file);
      d.state[op.file] = kAbsent;
    }
    return op;
  }

  void MarkUnknown(uint32_t dir, uint32_t name) {
    dirs_[dir].present.Erase(name);
    dirs_[dir].absent.Erase(name);
    dirs_[dir].state[name] = kUnknown;
  }

  NameState state(uint32_t dir, uint32_t n) const {
    return static_cast<NameState>(dirs_[dir].state[n]);
  }
  uint64_t version(uint32_t dir, uint32_t n) const { return dirs_[dir].version[n]; }
  uint32_t size(uint32_t dir, uint32_t n) const { return dirs_[dir].size[n]; }

  static std::string Describe(const TenantOp& op) {
    static constexpr const char* kKinds[] = {"create", "stat", "read", "unlink", "pubread"};
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s d=%u f=%u v=%" PRIu64 " n=%u", kKinds[op.kind], op.dir,
                  op.file, op.version, op.size);
    return buf;
  }

 private:
  struct Dir {
    IndexSet present{kTenantNames};
    IndexSet absent{kTenantNames};
    std::vector<uint8_t> state = std::vector<uint8_t>(kTenantNames, kAbsent);
    std::vector<uint64_t> version = std::vector<uint64_t>(kTenantNames, 0);
    std::vector<uint32_t> size = std::vector<uint32_t>(kTenantNames, 0);
  };

  common::Rng rng_;
  std::vector<Dir> dirs_;
  uint32_t cur_ = 0;
  uint32_t run_left_ = 0;
  uint64_t next_version_ = 2;
};

class TenantsWorkload final : public Workload {
 public:
  TenantsWorkload(const harness::LabOptions& lopts, uint64_t seed, FailureLog* failures)
      : Workload(lopts, failures) {
    for (int t = 0; t < kClients; t++) {
      gens_.emplace_back(ClientSeed(seed, t));
      paths_.emplace_back();
      for (uint32_t d = 0; d < kTenantDirs; d++) {
        for (uint32_t n = 0; n < kTenantNames; n++) {
          paths_[t].push_back(DirPath(t, d) + "/f" + std::to_string(n));
        }
      }
    }
    for (uint32_t i = 0; i < kPubFiles; i++) {
      pub_paths_.push_back("/pub/f" + std::to_string(i));
    }
  }

  void Setup() override {
    lab_ = std::make_unique<harness::FsLab>(harness::FsKind::kZofs, lopts_);
    // Root only sets up; it is not one of the client processes.
    vfs::FileSystem* root = lab_->View(0);
    std::vector<uint8_t> buf(kTenantMaxFile);
    auto must = [&](const common::Status& s, const std::string& what) {
      if (!s.ok()) {
        SetupFailed(what, s.error());
      }
    };
    // World-readable /pub: its own coffer (0444 differs from the root's 0644).
    must(root->Mkdir(kCred, "/pub", 0444), "mkdir /pub");
    for (uint32_t i = 0; i < kPubFiles; i++) {
      Stamp(buf.data(), PubSize(i), kPubTag, i, 1);
      auto e = WriteFile(root, pub_paths_[i], 0444, buf.data(), PubSize(i), false);
      if (e != common::Err::kOk) {
        SetupFailed("create " + pub_paths_[i], e);
      }
    }
    for (int t = 0; t < kClients; t++) {
      const vfs::Cred cred{1001u + t, 1001u + t};
      const std::string home = "/u" + std::to_string(t);
      // The home coffer gets a gid of its own, so no tenant directory shares
      // its permission group.
      must(root->Mkdir(kCred, home, 0700), "mkdir " + home);
      must(root->Chown(kCred, home, cred.uid, cred.gid + 1000), "chown " + home);
      // Options left at their defaults: the same ZoFS configuration FsLab
      // gives its own views.
      procs_.push_back(std::make_unique<fslib::FsLib>(lab_->kernfs(), cred));
      fs_.push_back(Wrap(procs_.back().get()));
      for (uint32_t d = 0; d < kTenantDirs; d++) {
        // Writable directories are the tenant's own; read-only ones are
        // filled by root and then handed to the tenant.
        vfs::FileSystem* maker = TenantWritable(d) ? fs_[t] : root;
        const std::string dir = DirPath(t, d);
        must(maker->Mkdir(kCred, dir, TenantMode(d)), "mkdir " + dir);
        for (uint32_t n = 0; n < kTenantPrefill; n++) {
          Stamp(buf.data(), PrefillSize(d, n), Tag(t, d), n, 1);
          auto e = WriteFile(maker, File(t, d, n), TenantMode(d), buf.data(), PrefillSize(d, n),
                             false);
          if (e != common::Err::kOk) {
            SetupFailed("create " + File(t, d, n), e);
          }
        }
        if (!TenantWritable(d)) {
          must(root->Chown(kCred, dir, cred.uid, cred.gid), "chown " + dir);
        }
      }
    }
  }

  void RunClient(int t, uint64_t deadline_ns, ClientStats& st) override {
    TenantGen& gen = gens_[t];
    vfs::FileSystem* fs = fs_[t];
    std::vector<uint8_t> buf(kBlock);
    uint64_t now = 0;
    do {
      const TenantOp op = gen.Next();
      const std::string& path = op.kind == TenantOp::kPubRead ? pub_paths_[op.file]
                                                              : File(t, op.dir, op.file);
      switch (op.kind) {
        case TenantOp::kCreate:
          now = RunOp(st, OpClass::kWrite, "create", [&] {
            Stamp(buf.data(), op.size, Tag(t, op.dir), op.file, op.version);
            st.user_bytes_written += op.size;
            auto fd = fs->Open(kCred, path, vfs::kCreate | vfs::kWrite, TenantMode(op.dir));
            if (!fd.ok()) {
              gen.MarkUnknown(op.dir, op.file);
              return false;
            }
            bool ok = FullTransfer(fs->Write(*fd, buf.data(), op.size), op.size, failures(),
                                   "write " + path);
            ok = ok && fs->Fsync(*fd).ok();
            ok = fs->Close(*fd).ok() && ok;
            if (!ok) {
              gen.MarkUnknown(op.dir, op.file);
            }
            return ok;
          });
          break;
        case TenantOp::kStat:
          now = RunOp(st, OpClass::kRead, "stat", [&] {
            auto s = fs->Stat(kCred, path);
            if (!s.ok()) {
              return false;
            }
            if (s->size != op.size) {
              failures().NoteMismatch("stat of " + path);
              return false;
            }
            return true;
          });
          break;
        case TenantOp::kRead:
        case TenantOp::kPubRead:
          now = RunOp(st, OpClass::kRead, op.kind == TenantOp::kRead ? "read" : "pubread", [&] {
            if (!FullTransfer(ReadFile(fs, path, buf.data(), buf.size()), op.size, failures(),
                              "read " + path)) {
              return false;
            }
            const bool pub = op.kind == TenantOp::kPubRead;
            if (!StampMatches(buf.data(), op.size, pub ? kPubTag : Tag(t, op.dir), op.file,
                              pub ? 1 : op.version)) {
              failures().NoteMismatch("content of " + path);
              return false;
            }
            return true;
          });
          break;
        case TenantOp::kUnlink:
          now = RunOp(st, OpClass::kWrite, "unlink", [&] {
            if (!fs->Unlink(kCred, path).ok()) {
              gen.MarkUnknown(op.dir, op.file);
              return false;
            }
            return true;
          });
          break;
      }
    } while (now < deadline_ns);
  }

  // Each tenant's directories must list exactly its shadow model's live
  // files, each with its last content; /pub must be unchanged.
  void Verify() override {
    std::vector<uint8_t> buf(kBlock);
    for (int t = 0; t < kClients; t++) {
      for (uint32_t d = 0; d < kTenantDirs; d++) {
        auto list = fs_[t]->ReadDir(kCred, DirPath(t, d));
        if (!list.ok()) {
          failures().NoteMismatch("readdir " + DirPath(t, d));
          continue;
        }
        std::vector<uint8_t> listed(kTenantNames, 0);
        for (const vfs::DirEntry& e : *list) {
          unsigned n = 0;
          char canonical[16] = "";
          if (std::sscanf(e.name.c_str(), "f%u", &n) == 1) {
            std::snprintf(canonical, sizeof(canonical), "f%u", n);
          }
          if (n >= kTenantNames || e.name != canonical) {
            failures().NoteMismatch("stray entry " + DirPath(t, d) + "/" + e.name);
            continue;
          }
          listed[n] = 1;
        }
        for (uint32_t n = 0; n < kTenantNames; n++) {
          const NameState s = gens_[t].state(d, n);
          if (s == kUnknown) {
            continue;
          }
          if ((s == kPresent) != (listed[n] != 0)) {
            failures().NoteMismatch((s == kPresent ? "missing " : "unexpected ") + File(t, d, n));
            continue;
          }
          if (s == kPresent) {
            const uint32_t size = gens_[t].size(d, n);
            auto r = ReadFile(fs_[t], File(t, d, n), buf.data(), buf.size());
            if (!r.ok() || *r != size ||
                !StampMatches(buf.data(), size, Tag(t, d), n, gens_[t].version(d, n))) {
              failures().NoteMismatch("final content of " + File(t, d, n));
            }
          }
        }
      }
    }
    for (uint32_t i = 0; i < kPubFiles; i++) {
      auto r = ReadFile(fs_[0], pub_paths_[i], buf.data(), buf.size());
      if (!r.ok() || *r != PubSize(i) || !StampMatches(buf.data(), PubSize(i), kPubTag, i, 1)) {
        failures().NoteMismatch("final content of " + pub_paths_[i]);
      }
    }
  }

  uint64_t LiveUserBytes() const override {
    uint64_t bytes = 0;
    for (uint32_t i = 0; i < kPubFiles; i++) {
      bytes += PubSize(i);
    }
    for (const TenantGen& g : gens_) {
      for (uint32_t d = 0; d < kTenantDirs; d++) {
        for (uint32_t n = 0; n < kTenantNames; n++) {
          if (g.state(d, n) == kPresent) {
            bytes += g.size(d, n);
          }
        }
      }
    }
    return bytes;
  }

 private:
  static std::string DirPath(int t, uint32_t d) {
    return "/u" + std::to_string(t) + "/d" + std::to_string(d);
  }
  static uint64_t Tag(int t, uint32_t d) { return (uint64_t{1} + t) << 16 | d; }
  const std::string& File(int t, uint32_t d, uint32_t n) const {
    return paths_[t][d * kTenantNames + n];
  }

  std::vector<TenantGen> gens_;
  std::vector<std::vector<std::string>> paths_;
  std::vector<std::string> pub_paths_;
  std::vector<std::unique_ptr<fslib::FsLib>> procs_;
  std::vector<vfs::FileSystem*> fs_;  // per tenant, the decorator over procs_[t]
};

template <typename Gen>
void DumpGen(int n, uint64_t seed) {
  for (int c = 0; c < kClients; c++) {
    Gen gen(ClientSeed(seed, c));
    for (int i = 0; i < n; i++) {
      std::printf("c%d %s\n", c, Gen::Describe(gen.Next()).c_str());
    }
  }
}

}  // namespace

// ---- Workload base ---------------------------------------------------------

Workload::Workload(const harness::LabOptions& lopts, FailureLog* failures)
    : lopts_(lopts), failures_(failures) {}

Workload::~Workload() = default;

vfs::FileSystem* Workload::Wrap(fslib::FsLib* lib) {
  libs_.push_back(lib);
  wrapped_.push_back(std::make_unique<TracingFs>(lib, failures_));
  return wrapped_.back().get();
}

void Workload::SetupFailed(const std::string& what, common::Err e) const {
  throw SetupError{what + ": " + common::ErrName(e)};
}

int EndToEndPhases(const std::string& name) {
  // A kv phase must span a whole flush-and-compaction cycle (about eight
  // memtable flushes); shorter phases catch the Db at a different point of
  // the cycle on every run. The other workloads have no such cycle, and more
  // phases make their medians steadier.
  return name == "kv" ? 3 : 5;
}

bool IsWorkload(const std::string& name) {
  for (const char* w : {"meta", "data", "kv", "tenants"}) {
    if (name == w) {
      return true;
    }
  }
  return false;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, const harness::LabOptions& lopts,
                                       uint64_t seed, FailureLog* failures) {
  if (name == "meta") {
    return std::make_unique<MetaWorkload>(lopts, seed, failures);
  }
  if (name == "data") {
    return std::make_unique<DataWorkload>(lopts, seed, failures);
  }
  if (name == "kv") {
    return std::make_unique<KvWorkload>(lopts, seed, failures);
  }
  if (name == "tenants") {
    return std::make_unique<TenantsWorkload>(lopts, seed, failures);
  }
  return nullptr;
}

void DumpOps(const std::string& name, uint64_t seed, int n) {
  if (name == "meta") {
    DumpGen<MetaGen>(n, seed);
  } else if (name == "data") {
    DumpGen<DataGen>(n, seed);
  } else if (name == "kv") {
    for (int c = 0; c < kClients; c++) {
      KvGen gen(ClientSeed(seed, c), c);
      for (int i = 0; i < n; i++) {
        std::printf("c%d %s\n", c, KvGen::Describe(gen.Next()).c_str());
      }
    }
  } else if (name == "tenants") {
    DumpGen<TenantGen>(n, seed);
  }
}

}  // namespace perfbench
