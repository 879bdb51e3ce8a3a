#include <cstdio>

#include "perfbench/perfbench.h"
#include "src/common/clock.h"

namespace perfbench {

const char* SpanNameStr(SpanName n) {
  static constexpr const char* kNames[kSpCount] = {
      "open",  "close", "read",     "write",   "pread", "pwrite",  "fsync",
      "stat",  "unlink", "rename",  "mkdir",   "lseek", "fstat",   "ftruncate",
      "dup",   "rmdir", "readdir",  "chmod",   "chown", "symlink", "readlink",
      "db_put", "db_get", "op"};
  return n < kSpCount ? kNames[n] : "?";
}

ClientContext& Ctx() {
  thread_local ClientContext ctx;
  return ctx;
}

ScopedSpan::ScopedSpan(SpanName name, uint64_t bytes, uint8_t flags) {
  ClientContext& ctx = Ctx();
  if (ctx.stats == nullptr || !ctx.stats->tracing) {
    return;
  }
  buf_ = &ctx.stats->spans;
  idx_ = static_cast<int32_t>(buf_->size());
  saved_parent_ = ctx.parent;
  Span s;
  s.op_id = (static_cast<uint64_t>(ctx.client) << 48) | ctx.op_index;
  s.bytes = bytes;
  s.parent = ctx.parent;
  s.name = name;
  s.flags = flags;
  s.start_ns = common::RealNowNs();
  buf_->push_back(s);
  ctx.parent = idx_;
}

ScopedSpan::~ScopedSpan() {
  if (buf_ == nullptr) {
    return;
  }
  (*buf_)[idx_].end_ns = common::RealNowNs();
  Ctx().parent = saved_parent_;
}

// ---- FailureLog ------------------------------------------------------------

void FailureLog::NoteFirst(const std::string& s) {
  if (first_.empty()) {
    const ClientContext& ctx = Ctx();
    char head[160];
    std::snprintf(head, sizeof(head), "op=%s client=%d op_index=%llu ", ctx.op, ctx.client,
                  static_cast<unsigned long long>(ctx.op_index));
    first_ = head + s;
  }
}

void FailureLog::NoteErr(SpanName call, common::Err e, const std::string& where) {
  std::lock_guard<std::mutex> lk(mu_);
  counts_[std::string(call < kSpFsCount ? "fslib.fail." : "kvstore.fail.") + SpanNameStr(call) +
          "." + common::ErrName(e)]++;
  NoteFirst(std::string("call=") + SpanNameStr(call) + " " + where + " err=" +
            common::ErrName(e));
}

void FailureLog::NoteMismatch(const std::string& what) {
  mismatches_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lk(mu_);
  counts_["oracle.mismatch"]++;
  NoteFirst("verify: " + what);
}

std::map<std::string, uint64_t> FailureLog::counts() const {
  std::lock_guard<std::mutex> lk(mu_);
  return counts_;
}

std::string FailureLog::first() const {
  std::lock_guard<std::mutex> lk(mu_);
  return first_;
}

// ---- TracingFs -------------------------------------------------------------

std::string CallTarget::Str() const {
  if (path == nullptr) {
    return "fd=" + std::to_string(fd);
  }
  return "path=" + *path + (to != nullptr ? " to=" + *to : "");
}

namespace {

CallTarget FdWhere(vfs::Fd fd) { return CallTarget{nullptr, nullptr, fd}; }
CallTarget PathWhere(const std::string& path) { return CallTarget{&path, nullptr, -1}; }

}  // namespace

TracingFs::TracingFs(vfs::FileSystem* inner, FailureLog* failures)
    : inner_(inner), failures_(failures), append_fd_(new std::atomic<uint8_t>[kMaxFd]) {
  for (size_t i = 0; i < kMaxFd; i++) {
    append_fd_[i].store(0, std::memory_order_relaxed);
  }
}

template <typename R, typename F>
R TracingFs::Call(SpanName name, const CallTarget& where, uint64_t bytes, uint8_t flags, F&& f) {
  ScopedSpan span(name, bytes, flags);
  R r = f();
  // Setup and the oracle report their own failures; an errno counts against
  // the file system only inside the timed phase.
  if (!r.ok() && Ctx().stats != nullptr) {
    failures_->NoteErr(name, r.error(), where.Str());
  }
  return r;
}

bool TracingFs::IsAppendFd(vfs::Fd fd) const {
  return fd >= 0 && static_cast<size_t>(fd) < kMaxFd &&
         append_fd_[fd].load(std::memory_order_relaxed) != 0;
}

vfs::Result<vfs::Fd> TracingFs::Open(const vfs::Cred& cred, const std::string& path,
                                     uint32_t flags, uint16_t mode) {
  auto r = Call<vfs::Result<vfs::Fd>>(kSpOpen, PathWhere(path), 0,
                                      (flags & vfs::kCreate) ? kSpanCreate : 0,
                                      [&] { return inner_->Open(cred, path, flags, mode); });
  if (r.ok() && *r >= 0 && static_cast<size_t>(*r) < kMaxFd) {
    append_fd_[*r].store((flags & vfs::kAppend) ? 1 : 0, std::memory_order_relaxed);
  }
  return r;
}

vfs::Status TracingFs::Close(vfs::Fd fd) {
  return Call<vfs::Status>(kSpClose, FdWhere(fd), 0, 0, [&] { return inner_->Close(fd); });
}

vfs::Result<size_t> TracingFs::Read(vfs::Fd fd, void* buf, size_t n) {
  return Call<vfs::Result<size_t>>(kSpRead, FdWhere(fd), n, 0,
                                   [&] { return inner_->Read(fd, buf, n); });
}

vfs::Result<size_t> TracingFs::Write(vfs::Fd fd, const void* buf, size_t n) {
  if (IsAppendFd(fd)) {
    if (ClientStats* st = Ctx().stats) {
      st->appends++;
    }
  }
  return Call<vfs::Result<size_t>>(kSpWrite, FdWhere(fd), n, 0,
                                   [&] { return inner_->Write(fd, buf, n); });
}

vfs::Result<size_t> TracingFs::Pread(vfs::Fd fd, void* buf, size_t n, uint64_t off) {
  return Call<vfs::Result<size_t>>(kSpPread, FdWhere(fd), n, 0,
                                   [&] { return inner_->Pread(fd, buf, n, off); });
}

vfs::Result<size_t> TracingFs::Pwrite(vfs::Fd fd, const void* buf, size_t n, uint64_t off) {
  return Call<vfs::Result<size_t>>(kSpPwrite, FdWhere(fd), n, 0,
                                   [&] { return inner_->Pwrite(fd, buf, n, off); });
}

vfs::Result<uint64_t> TracingFs::Lseek(vfs::Fd fd, int64_t off, int whence) {
  return Call<vfs::Result<uint64_t>>(kSpLseek, FdWhere(fd), 0, 0,
                                     [&] { return inner_->Lseek(fd, off, whence); });
}

vfs::Status TracingFs::Fsync(vfs::Fd fd) {
  ClientStats* st = Ctx().stats;
  const uint64_t t0 = st != nullptr ? common::RealNowNs() : 0;
  auto r = Call<vfs::Status>(kSpFsync, FdWhere(fd), 0, 0, [&] { return inner_->Fsync(fd); });
  if (st != nullptr) {
    st->fsync_ns.push_back(SaturateNs(common::RealNowNs() - t0));
  }
  return r;
}

vfs::Result<vfs::StatBuf> TracingFs::Fstat(vfs::Fd fd) {
  return Call<vfs::Result<vfs::StatBuf>>(kSpFstat, FdWhere(fd), 0, 0,
                                         [&] { return inner_->Fstat(fd); });
}

vfs::Status TracingFs::Ftruncate(vfs::Fd fd, uint64_t len) {
  return Call<vfs::Status>(kSpFtruncate, FdWhere(fd), 0, 0,
                           [&] { return inner_->Ftruncate(fd, len); });
}

vfs::Result<vfs::Fd> TracingFs::Dup(vfs::Fd fd) {
  auto r = Call<vfs::Result<vfs::Fd>>(kSpDup, FdWhere(fd), 0, 0, [&] { return inner_->Dup(fd); });
  if (r.ok() && *r >= 0 && static_cast<size_t>(*r) < kMaxFd) {
    append_fd_[*r].store(IsAppendFd(fd) ? 1 : 0, std::memory_order_relaxed);
  }
  return r;
}

vfs::Status TracingFs::Mkdir(const vfs::Cred& cred, const std::string& path, uint16_t mode) {
  return Call<vfs::Status>(kSpMkdir, PathWhere(path), 0, 0,
                           [&] { return inner_->Mkdir(cred, path, mode); });
}

vfs::Status TracingFs::Rmdir(const vfs::Cred& cred, const std::string& path) {
  return Call<vfs::Status>(kSpRmdir, PathWhere(path), 0, 0,
                           [&] { return inner_->Rmdir(cred, path); });
}

vfs::Status TracingFs::Unlink(const vfs::Cred& cred, const std::string& path) {
  return Call<vfs::Status>(kSpUnlink, PathWhere(path), 0, 0,
                           [&] { return inner_->Unlink(cred, path); });
}

vfs::Result<vfs::StatBuf> TracingFs::Stat(const vfs::Cred& cred, const std::string& path) {
  return Call<vfs::Result<vfs::StatBuf>>(kSpStat, PathWhere(path), 0, 0,
                                         [&] { return inner_->Stat(cred, path); });
}

vfs::Result<std::vector<vfs::DirEntry>> TracingFs::ReadDir(const vfs::Cred& cred,
                                                           const std::string& path) {
  return Call<vfs::Result<std::vector<vfs::DirEntry>>>(
      kSpReadDir, PathWhere(path), 0, 0, [&] { return inner_->ReadDir(cred, path); });
}

vfs::Status TracingFs::Rename(const vfs::Cred& cred, const std::string& from,
                              const std::string& to) {
  return Call<vfs::Status>(kSpRename, CallTarget{&from, &to, -1}, 0, 0,
                           [&] { return inner_->Rename(cred, from, to); });
}

vfs::Status TracingFs::Chmod(const vfs::Cred& cred, const std::string& path, uint16_t mode) {
  return Call<vfs::Status>(kSpChmod, PathWhere(path), 0, 0,
                           [&] { return inner_->Chmod(cred, path, mode); });
}

vfs::Status TracingFs::Chown(const vfs::Cred& cred, const std::string& path, uint32_t uid,
                             uint32_t gid) {
  return Call<vfs::Status>(kSpChown, PathWhere(path), 0, 0,
                           [&] { return inner_->Chown(cred, path, uid, gid); });
}

vfs::Status TracingFs::Symlink(const vfs::Cred& cred, const std::string& target,
                               const std::string& linkpath) {
  return Call<vfs::Status>(kSpSymlink, PathWhere(linkpath), 0, 0,
                           [&] { return inner_->Symlink(cred, target, linkpath); });
}

vfs::Result<std::string> TracingFs::ReadLink(const vfs::Cred& cred, const std::string& path) {
  return Call<vfs::Result<std::string>>(kSpReadLink, PathWhere(path), 0, 0,
                                        [&] { return inner_->ReadLink(cred, path); });
}

}  // namespace perfbench
