// The repository benchmark: four workloads over the default ZoFS stack,
// driven only through public entry points (harness::FsLab / fslib::FsLib
// behind vfs::FileSystem, and kvstore::Db).
//
// Every layer is measured from outside: a benchmark-owned vfs::FileSystem
// decorator (TracingFs) times calls at the FS boundary, kvstore::Db calls are
// timed around Put/Get, and per-layer counters are deltas of the counters the
// layers already export.

#ifndef PERFBENCH_PERFBENCH_H_
#define PERFBENCH_PERFBENCH_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/harness/fslab.h"
#include "src/vfs/vfs.h"

namespace perfbench {

// Closed-loop clients per workload (one thread each). Never more than the
// host's cores on the 4-core machine the benchmark was written for.
inline constexpr int kClients = 4;

// ---- spans ----------------------------------------------------------------

// Span names: one per vfs::FileSystem entry point, then the kvstore calls and
// the workload's own per-op span.
enum SpanName : uint8_t {
  kSpOpen,
  kSpClose,
  kSpRead,
  kSpWrite,
  kSpPread,
  kSpPwrite,
  kSpFsync,
  kSpStat,
  kSpUnlink,
  kSpRename,
  kSpMkdir,
  kSpLseek,
  kSpFstat,
  kSpFtruncate,
  kSpDup,
  kSpRmdir,
  kSpReadDir,
  kSpChmod,
  kSpChown,
  kSpSymlink,
  kSpReadLink,
  kSpFsCount,  // entries below are not file-system calls
  kSpDbPut = kSpFsCount,
  kSpDbGet,
  kSpOp,
  kSpCount,
};
const char* SpanNameStr(SpanName n);

// The fslib ops the per-layer report breaks out (the rest only feed
// failure accounting and kvstore.fs_calls_per_op).
inline constexpr SpanName kReportedFsOps[] = {kSpOpen,  kSpClose,  kSpRead, kSpWrite,
                                              kSpPread, kSpPwrite, kSpFsync, kSpStat,
                                              kSpUnlink, kSpRename, kSpMkdir};

// Span flag: an Open that carried vfs::kCreate (a kvstore table-file create
// inside a Put marks that Put as a flush/compaction stall).
inline constexpr uint8_t kSpanCreate = 1;

struct Span {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t op_id = 0;   // (client << 48) | op index; shared by one op's spans
  uint64_t bytes = 0;   // payload of read/write calls
  int32_t parent = -1;  // index in the same client's span buffer
  uint8_t name = 0;
  uint8_t flags = 0;
};

// ---- per-client accounting -----------------------------------------------

enum class OpClass : uint8_t { kRead, kWrite, kFsync };

inline uint32_t SaturateNs(uint64_t ns) {
  return ns > UINT32_MAX ? UINT32_MAX : static_cast<uint32_t>(ns);
}

struct ClientStats {
  std::vector<uint32_t> lat_ns[3];  // indexed by OpClass; saturates at ~4.3 s
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t user_bytes_written = 0;
  uint64_t appends = 0;              // writes issued on O_APPEND descriptors
  std::vector<uint32_t> fsync_ns;    // every Fsync at the FS boundary
  std::vector<Span> spans;           // traced phase only
  bool tracing = false;
};

// What the calling thread is doing; read by TracingFs. Only a client thread
// inside the timed phase has `stats` set.
struct ClientContext {
  int client = -1;
  uint64_t op_index = 0;
  const char* op = "setup";
  ClientStats* stats = nullptr;
  int32_t parent = -1;  // innermost open span
};
ClientContext& Ctx();

// Records one span into the calling client's buffer when tracing is on.
class ScopedSpan {
 public:
  ScopedSpan(SpanName name, uint64_t bytes = 0, uint8_t flags = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  std::vector<Span>* buf_ = nullptr;
  int32_t idx_ = -1;
  int32_t saved_parent_ = -1;
};

// ---- failure accounting ----------------------------------------------------

// Errno-level failure counts ("fslib.fail.<op>.<errno>", "kvstore.fail.<op>.
// <errno>", "oracle.mismatch") plus the context of the first
// failure, shared by every thread of a run. Oracle mismatches are kept apart:
// they make the run incorrect.
class FailureLog {
 public:
  void NoteErr(SpanName call, common::Err e, const std::string& where);
  void NoteMismatch(const std::string& what);

  uint64_t mismatches() const { return mismatches_.load(std::memory_order_relaxed); }
  std::map<std::string, uint64_t> counts() const;
  std::string first() const;

 private:
  void NoteFirst(const std::string& s);

  mutable std::mutex mu_;
  std::map<std::string, uint64_t> counts_;
  std::string first_;
  std::atomic<uint64_t> mismatches_{0};
};

// ---- the decorator ---------------------------------------------------------

// Names the object of a file-system call; formatted only when the call fails.
struct CallTarget {
  const std::string* path = nullptr;
  const std::string* to = nullptr;
  vfs::Fd fd = -1;
  std::string Str() const;
};

// Forwards every call to `inner`. Inside the timed phase it counts failed
// calls by errno, times Fsync and counts O_APPEND writes for the calling
// client; in the traced phase it also records a span per call.
class TracingFs final : public vfs::FileSystem {
 public:
  TracingFs(vfs::FileSystem* inner, FailureLog* failures);

  const char* Name() const override { return inner_->Name(); }

  vfs::Result<vfs::Fd> Open(const vfs::Cred& cred, const std::string& path, uint32_t flags,
                            uint16_t mode) override;
  vfs::Status Close(vfs::Fd fd) override;
  vfs::Result<size_t> Read(vfs::Fd fd, void* buf, size_t n) override;
  vfs::Result<size_t> Write(vfs::Fd fd, const void* buf, size_t n) override;
  vfs::Result<size_t> Pread(vfs::Fd fd, void* buf, size_t n, uint64_t off) override;
  vfs::Result<size_t> Pwrite(vfs::Fd fd, const void* buf, size_t n, uint64_t off) override;
  vfs::Result<uint64_t> Lseek(vfs::Fd fd, int64_t off, int whence) override;
  vfs::Status Fsync(vfs::Fd fd) override;
  vfs::Result<vfs::StatBuf> Fstat(vfs::Fd fd) override;
  vfs::Status Ftruncate(vfs::Fd fd, uint64_t len) override;
  vfs::Result<vfs::Fd> Dup(vfs::Fd fd) override;
  vfs::Status Mkdir(const vfs::Cred& cred, const std::string& path, uint16_t mode) override;
  vfs::Status Rmdir(const vfs::Cred& cred, const std::string& path) override;
  vfs::Status Unlink(const vfs::Cred& cred, const std::string& path) override;
  vfs::Result<vfs::StatBuf> Stat(const vfs::Cred& cred, const std::string& path) override;
  vfs::Result<std::vector<vfs::DirEntry>> ReadDir(const vfs::Cred& cred,
                                                  const std::string& path) override;
  vfs::Status Rename(const vfs::Cred& cred, const std::string& from,
                     const std::string& to) override;
  vfs::Status Chmod(const vfs::Cred& cred, const std::string& path, uint16_t mode) override;
  vfs::Status Chown(const vfs::Cred& cred, const std::string& path, uint32_t uid,
                    uint32_t gid) override;
  vfs::Status Symlink(const vfs::Cred& cred, const std::string& target,
                      const std::string& linkpath) override;
  vfs::Result<std::string> ReadLink(const vfs::Cred& cred, const std::string& path) override;

 private:
  template <typename R, typename F>
  R Call(SpanName name, const CallTarget& where, uint64_t bytes, uint8_t flags, F&& f);
  bool IsAppendFd(vfs::Fd fd) const;

  vfs::FileSystem* inner_;
  FailureLog* failures_;
  // 1 = descriptor was opened with vfs::kAppend (FsLib hands out < 65536).
  static constexpr size_t kMaxFd = 65536;
  std::unique_ptr<std::atomic<uint8_t>[]> append_fd_;
};

// ---- workloads -------------------------------------------------------------

class Workload {
 public:
  virtual ~Workload();

  // Device creation, mount and prefill: everything before the timed phase.
  virtual void Setup() = 0;
  // Client `c`'s closed loop, until the hardware clock reaches `deadline_ns`.
  virtual void RunClient(int c, uint64_t deadline_ns, ClientStats& st) = 0;
  // The correctness oracle after the timed phase; reports mismatches to the
  // failure log.
  virtual void Verify() = 0;
  // Bytes of live user data the oracle expects at the end of the run.
  virtual uint64_t LiveUserBytes() const = 0;

  harness::FsLab& lab() { return *lab_; }
  // Every simulated process the clients run in.
  const std::vector<fslib::FsLib*>& libs() const { return libs_; }
  FailureLog& failures() { return *failures_; }

 protected:
  Workload(const harness::LabOptions& lopts, FailureLog* failures);
  // Wraps `lib` in a decorator owned by the workload; registers it for
  // counter snapshots.
  vfs::FileSystem* Wrap(fslib::FsLib* lib);
  // A failed setup step: the run cannot be measured.
  [[noreturn]] void SetupFailed(const std::string& what, common::Err e) const;

  harness::LabOptions lopts_;
  std::unique_ptr<harness::FsLab> lab_;
  FailureLog* failures_;
  std::vector<fslib::FsLib*> libs_;
  std::vector<std::unique_ptr<TracingFs>> wrapped_;
};

// meta, data, kv or tenants.
bool IsWorkload(const std::string& name);

// How many freshly set-up phases an end-to-end run splits its time into.
int EndToEndPhases(const std::string& name);

std::unique_ptr<Workload> MakeWorkload(const std::string& name, const harness::LabOptions& lopts,
                                       uint64_t seed, FailureLog* failures);

// Prints the first `n` generated ops of every client for `seed`, assuming
// every op succeeds. The file system never runs; the self-test compares the
// text across seeds.
void DumpOps(const std::string& name, uint64_t seed, int n);

// Thrown when setup fails: the run exits nonzero without a result.
struct SetupError {
  std::string what;
};

}  // namespace perfbench

#endif  // PERFBENCH_PERFBENCH_H_
