#include "src/oracle/oracle.h"

#include <algorithm>
#include <cstring>
#include <sstream>
#include <thread>

#include "src/common/rand.h"
#include "src/kernfs/layout.h"
#include "src/mpk/mpk.h"

namespace oracle {

std::unique_ptr<nvm::NvmDevice> NewDevice(size_t bytes, bool crash_tracking) {
  nvm::Options o;
  o.size_bytes = bytes;
  o.crash_tracking = crash_tracking;
  auto dev = std::make_unique<nvm::NvmDevice>(o);
  mpk::InstallDeviceHook(dev.get());
  return dev;
}

void Stack::Attach(std::unique_ptr<kernfs::KernFs> kfs, vfs::Cred cred, const zofs::Options& zo) {
  Unmount();
  kfs_ = std::move(kfs);
  kfs_->set_kernel_crossing_ns(0);
  fs_ = std::make_unique<fslib::FsLib>(kfs_.get(), cred, zo);
}

void Stack::Format(const kernfs::FormatOptions& fo, vfs::Cred cred, const zofs::Options& zo) {
  Attach(std::make_unique<kernfs::KernFs>(dev_, fo), cred, zo);
}

void Stack::Mount(vfs::Cred cred, const zofs::Options& zo) {
  Attach(std::make_unique<kernfs::KernFs>(dev_), cred, zo);
}

void Stack::Unmount() {
  fs_.reset();
  kfs_.reset();
  mpk::BindThreadToProcess(nullptr);
}

void Stack::Crash(std::span<std::unique_ptr<fslib::FsLib>* const> others) {
  for (std::unique_ptr<fslib::FsLib>* fs : others) {
    if (*fs != nullptr) {
      (*fs)->Abandon();
      fs->reset();
    }
  }
  if (fs_ != nullptr) {
    fs_->Abandon();
  }
  Unmount();
  dev_->SimulateCrash();
}

FsckResult Fsck(const Stack& st) {
  FsckResult r;
  st.fs()->BindThread();
  // Recovery must never fault, whatever the image looks like: an escaped
  // simulated page fault on a torn or scribbled image is itself a finding.
  try {
    auto stats = st.fs()->ufs().RecoverAll();
    if (!stats.ok()) {
      r.kind = "recovery-failed";
      r.detail = common::ErrName(stats.error());
      return r;
    }
    r.stats = *stats;
  } catch (const mpk::ViolationError& e) {
    std::ostringstream os;
    os << "mpk fault: " << (e.is_write ? "write" : "read") << " off=0x" << std::hex << e.off
       << std::dec << " key=" << static_cast<int>(e.key);
    r.kind = "recovery-failed";
    r.detail = os.str();
    return r;
  }
  const std::string alloc = st.kfs()->CheckAllocTableForTest();
  if (!alloc.empty()) {
    r.kind = "fsck-alloc";
    r.detail = alloc.substr(0, alloc.find('\n'));
    return r;
  }
  // A page reachable after recovery but no longer the coffer's would be
  // owned twice once the kernel hands it on.
  auto* z = dynamic_cast<zofs::ZoFs*>(&st.fs()->ufs());
  const std::string owner = z != nullptr ? z->ReachableNotOwnedForTest() : "";
  if (!owner.empty()) {
    r.kind = "fsck-owner";
    r.detail = owner;
  }
  return r;
}

ReadBack Read(vfs::FileSystem* fs, const vfs::Cred& cred, const std::string& path,
              std::optional<uint64_t> len) {
  ReadBack rb;
  auto fd = fs->Open(cred, path, vfs::kRead, 0);
  if (!fd.ok()) {
    rb.err = fd.error();
    rb.state = fd.error() == common::Err::kNoEnt ? ReadBack::State::kAbsent
                                                 : ReadBack::State::kError;
    return rb;
  }
  uint64_t want = 0;
  if (len.has_value()) {
    want = *len;
  } else {
    auto st = fs->Fstat(*fd);
    if (!st.ok()) {
      rb.err = st.error();
      fs->Close(*fd);
      return rb;
    }
    want = st->size;
  }
  rb.data.assign(want, '\0');
  auto n = fs->Pread(*fd, rb.data.data(), rb.data.size(), 0);
  fs->Close(*fd);
  if (!n.ok()) {
    rb.err = n.error();
    return rb;
  }
  if (!len.has_value() && *n != want) {
    return rb;  // a whole read came up short: kIo
  }
  rb.data.resize(*n);
  rb.state = ReadBack::State::kPresent;
  return rb;
}

std::vector<Escape> ContainmentDiff(std::span<const uint8_t> before,
                                    std::span<const uint8_t> after,
                                    const std::set<uint32_t>& allowed) {
  kernfs::Superblock sb;
  memcpy(&sb, before.data(), sizeof(sb));
  const uint64_t pages =
      std::min<uint64_t>(sb.num_pages, std::min(before.size(), after.size()) / nvm::kPageSize);
  std::vector<Escape> out;
  for (uint64_t pg = 0; pg < pages; pg++) {
    kernfs::AllocEntry e;
    memcpy(&e, before.data() + sb.alloc_table_off + pg * sizeof(e), sizeof(e));
    if (allowed.count(e.coffer_id) != 0) {
      continue;
    }
    if (memcmp(before.data() + pg * nvm::kPageSize, after.data() + pg * nvm::kPageSize,
               nvm::kPageSize) != 0) {
      out.push_back({pg, e.coffer_id});
    }
  }
  return out;
}

std::vector<CrashPoint> CrashPoints(size_t epochs, uint32_t mid_per_fence, uint64_t max_points) {
  std::vector<CrashPoint> pts;
  const int64_t n = static_cast<int64_t>(epochs);
  for (int64_t base = -1; base < n; base++) {
    pts.push_back({pts.size(), base, -1});
    if (base + 1 < n) {
      for (uint32_t k = 0; k < mid_per_fence; k++) {
        pts.push_back({pts.size(), base, static_cast<int>(k)});
      }
    }
    if (max_points != 0 && pts.size() >= max_points) {
      pts.resize(max_points);
      break;
    }
  }
  return pts;
}

namespace {

// A seeded coin per line, one line forced when the coins pick none.
std::vector<bool> PickSubset(uint64_t seed, int64_t base, int variant, size_t n) {
  common::Rng rng(seed ^ (0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(base + 2)) ^
                  (0x517cc1b727220a95ULL * static_cast<uint64_t>(variant + 1)));
  std::vector<bool> pick(n);
  bool any = false;
  for (size_t i = 0; i < n; i++) {
    pick[i] = (rng.Next() & 1) != 0;
    any = any || pick[i];
  }
  if (!any && n != 0) {
    pick[static_cast<size_t>(base + 2 + variant) % n] = true;
  }
  return pick;
}

}  // namespace

void SweepImages(const std::vector<uint8_t>& snapshot,
                 const std::vector<nvm::CrashEpoch>& journal, uint64_t seed,
                 std::span<const CrashPoint> points,
                 const std::function<void(const CrashPoint&, const std::vector<uint8_t>&)>& visit) {
  nvm::CrashImageBuilder builder(snapshot, &journal);
  std::vector<uint8_t> scratch;
  for (const CrashPoint& p : points) {
    builder.AdvanceTo(p.base_epoch);
    if (p.variant < 0) {
      visit(p, builder.image());
      continue;
    }
    const std::vector<bool> pick =
        PickSubset(seed, p.base_epoch, p.variant, builder.NextEpochLineCount());
    if (builder.MaterializeMidEpoch(pick, &scratch)) {
      visit(p, scratch);
    }
  }
}

void FanOut(size_t n, int threads, const std::function<void(size_t lo, size_t hi)>& work) {
  if (n == 0) {
    return;
  }
  const size_t t = std::min<size_t>(n, static_cast<size_t>(std::max(1, threads)));
  const size_t chunk = (n + t - 1) / t;
  std::vector<std::jthread> pool;
  for (size_t lo = 0; lo < n; lo += chunk) {
    pool.emplace_back(work, lo, std::min(n, lo + chunk));
  }
}

}  // namespace oracle
