// zofs_perfbench: runs one workload and prints every metric by name and
// unit, then one JSON line (the last line of stdout):
//
//   zofs_perfbench --workload meta|data|kv|tenants --seed N --seconds S --trace 0|1
//                  [--trace-out FILE]
//   zofs_perfbench --workload W --seed N --dump-ops K   (first K generated ops)
//
// --trace 0 measures the end-to-end metrics: five phases of S/5 seconds
// (three on kv), each on a freshly set-up file system with its own inputs;
// every metric is the median of its per-phase values. --trace 1 measures the
// per-layer metrics: four phases of S/4 seconds on the same inputs: default
// untraced (counters), default traced (spans), MPK disabled, and all modeled
// costs zero.

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <malloc.h>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/perfbench.h"
#include "src/common/clock.h"
#include "src/fslib/fslib.h"
#include "src/harness/fslab.h"
#include "src/kernfs/kernfs.h"
#include "src/mpk/keyclass.h"
#include "src/zofs/zofs.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  int dump_ops = 0;
  std::string trace_out;
};

uint64_t PhaseSeed(uint64_t seed, int phase) {
  return seed * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(phase);
}

// ---- counters --------------------------------------------------------------

struct Counters {
  uint64_t fg_crossings = 0;
  uint64_t bg_crossings = 0;
  uint64_t clwb_lines = 0;
  uint64_t sfences = 0;
  uint64_t nvm_bytes = 0;
  uint64_t reaped_mappings = 0;
  uint64_t key_evictions = 0;
  uint64_t retag_pages = 0;
  uint64_t lock_steals = 0;
  uint64_t online_repairs = 0;
  uint64_t reaped_lists = 0;
  // Summed over the client processes.
  uint64_t shard_locks = 0;
  uint64_t session_epoch = 0;
  uint64_t fd_alloc_locks = 0;
  uint64_t staged_append_hits = 0;
};

Counters Snapshot(Workload& w) {
  Counters c;
  c.fg_crossings = kernfs::ForegroundCrossingCount();
  c.bg_crossings = kernfs::BackgroundCrossingCount();
  c.clwb_lines = w.lab().dev()->clwb_count();
  c.sfences = w.lab().dev()->sfence_count();
  c.nvm_bytes = w.lab().dev()->bytes_written();
  c.reaped_mappings = kernfs::ReapedMappingCount();
  c.key_evictions = mpk::KeyEvictionCount();
  c.retag_pages = mpk::KeyRetagPageCount();
  c.lock_steals = zofs::LockStealCount();
  c.online_repairs = zofs::OnlineRepairCount();
  c.reaped_lists = zofs::ReapedListCount();
  for (fslib::FsLib* lib : w.libs()) {
    c.shard_locks += lib->zofs().ShardLockAcquisitionsForTest();
    c.session_epoch += lib->zofs().SessionEpochForTest();
    c.fd_alloc_locks += lib->FdAllocLockAcquisitionsForTest();
    c.staged_append_hits += lib->zofs().StagedAppendHits();
  }
  return c;
}

Counters Delta(const Counters& b, const Counters& a) {
  Counters d;
  d.fg_crossings = b.fg_crossings - a.fg_crossings;
  d.bg_crossings = b.bg_crossings - a.bg_crossings;
  d.clwb_lines = b.clwb_lines - a.clwb_lines;
  d.sfences = b.sfences - a.sfences;
  d.nvm_bytes = b.nvm_bytes - a.nvm_bytes;
  d.reaped_mappings = b.reaped_mappings - a.reaped_mappings;
  d.key_evictions = b.key_evictions - a.key_evictions;
  d.retag_pages = b.retag_pages - a.retag_pages;
  d.lock_steals = b.lock_steals - a.lock_steals;
  d.online_repairs = b.online_repairs - a.online_repairs;
  d.reaped_lists = b.reaped_lists - a.reaped_lists;
  d.shard_locks = b.shard_locks - a.shard_locks;
  d.session_epoch = b.session_epoch - a.session_epoch;
  d.fd_alloc_locks = b.fd_alloc_locks - a.fd_alloc_locks;
  d.staged_append_hits = b.staged_append_hits - a.staged_append_hits;
  return d;
}

// ---- one phase ---------------------------------------------------------------


void ResetPeakRss();
double PeakRssMiB();

struct Phase {
  double setup_s = 0;
  double timed_s = 0;
  std::vector<ClientStats> clients;
  Counters delta;
  uint64_t live_classes = 0;  // most protection classes any one process holds
  double space_amp = 0;
  double peak_rss_mib = 0;
  uint64_t oracle_mismatches = 0;
  std::string alloc_error;

  uint64_t attempted = 0;
  uint64_t op_failures = 0;
  uint64_t user_bytes = 0;
  uint64_t appends = 0;
  uint64_t lat_sum_ns = 0;

  uint64_t ok_ops() const { return attempted - op_failures; }
  double ops_per_s() const { return timed_s > 0 ? ok_ops() / timed_s : 0; }
  double mean_op_us() const { return attempted ? lat_sum_ns / 1e3 / attempted : 0; }
};

Phase RunPhase(const std::string& name, const harness::LabOptions& lopts, uint64_t seed,
               double seconds, bool trace, FailureLog& fl) {
  Phase p;
  ResetPeakRss();
  std::unique_ptr<Workload> w = MakeWorkload(name, lopts, seed, &fl);
  Ctx().op = "setup";
  const uint64_t t0 = common::RealNowNs();
  w->Setup();
  p.setup_s = (common::RealNowNs() - t0) / 1e9;

  const Counters before = Snapshot(*w);
  p.clients.resize(kClients);
  const uint64_t start = common::RealNowNs();
  const uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; c++) {
      threads.emplace_back([&, c] {
        ClientStats& st = p.clients[c];
        st.tracing = trace;
        ClientContext& ctx = Ctx();
        ctx = ClientContext{};
        ctx.client = c;
        ctx.stats = &st;
        w->RunClient(c, deadline, st);
        ctx.stats = nullptr;
      });
    }
    for (std::thread& t : threads) {
      t.join();
    }
  }
  p.timed_s = (common::RealNowNs() - start) / 1e9;
  p.delta = Delta(Snapshot(*w), before);

  for (fslib::FsLib* lib : w->libs()) {
    p.live_classes = std::max<uint64_t>(p.live_classes, lib->proc()->LiveProtClassCount());
  }
  for (const ClientStats& st : p.clients) {
    p.attempted += st.attempted;
    p.op_failures += st.failed;
    p.user_bytes += st.user_bytes_written;
    p.appends += st.appends;
    for (const auto& v : st.lat_ns) {
      for (uint32_t ns : v) {
        p.lat_sum_ns += ns;
      }
    }
  }
  kernfs::KernFs* kfs = w->lab().kernfs();
  const uint64_t used_bytes = (w->lab().dev()->num_pages() - kfs->FreePages()) * nvm::kPageSize;
  const uint64_t live = w->LiveUserBytes();
  p.space_amp = live ? static_cast<double>(used_bytes) / static_cast<double>(live) : 0;
  p.peak_rss_mib = PeakRssMiB();  // before the oracle's own allocations

  Ctx().op = "verify";
  const uint64_t m0 = fl.mismatches();
  w->Verify();
  p.oracle_mismatches = fl.mismatches() - m0;
  p.alloc_error = kfs->CheckAllocTableForTest();
  Ctx().op = "teardown";
  return p;
}

// ---- statistics --------------------------------------------------------------

// Nearest-rank percentile; reorders `v`.
template <typename T>
double PercentileUs(std::vector<T>& v, double pct) {
  if (v.empty()) {
    return 0;
  }
  size_t rank = static_cast<size_t>(std::ceil(pct / 100.0 * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  std::nth_element(v.begin(), v.begin() + (rank - 1), v.end());
  return static_cast<double>(v[rank - 1]) / 1e3;
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Ratio(double num, double den) { return den != 0 ? num / den : 0; }

// One phase's latency samples of the given op classes, over all clients.
std::vector<uint32_t> Pool(const Phase& p, const std::vector<OpClass>& cls) {
  std::vector<uint32_t> out;
  for (const ClientStats& st : p.clients) {
    for (OpClass c : cls) {
      const auto& v = st.lat_ns[static_cast<int>(c)];
      out.insert(out.end(), v.begin(), v.end());
    }
  }
  return out;
}

std::vector<uint32_t> PoolFsync(const Phase& p) {
  std::vector<uint32_t> out;
  for (const ClientStats& st : p.clients) {
    out.insert(out.end(), st.fsync_ns.begin(), st.fsync_ns.end());
  }
  return out;
}

// Measured cost of common::SpinNs(ns): the median over batches of the mean
// of 2000 back-to-back calls.
double SpinCostNs(uint64_t ns) {
  constexpr int kBatches = 7;
  constexpr int kCalls = 2000;
  std::vector<double> per_call;
  for (int b = 0; b < kBatches; b++) {
    const uint64_t t0 = common::RealNowNs();
    for (int i = 0; i < kCalls; i++) {
      common::SpinNs(ns);
    }
    per_call.push_back(static_cast<double>(common::RealNowNs() - t0) / kCalls);
  }
  return Median(per_call);
}

// Starts a new peak-RSS window: returns freed heap to the OS and resets the
// kernel's high-water mark. Without the reset, every phase reads the peak of
// the whole process.
void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

double PeakRssMiB() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

// ---- output ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    metrics_.push_back({name, value, unit});
    std::printf("%-40s %.6g %s%s%s\n", name.c_str(), value, unit.c_str(),
                note.empty() ? "" : "  ", note.c_str());
  }

  // The result line: every metric added, with all its digits.
  void PrintJson(bool correct, uint64_t attempted, uint64_t failed) const {
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
                ", \"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (size_t i = 0; i < metrics_.size(); i++) {
      const Metric& m = metrics_[i];
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                  m.name.c_str(), std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
    }
    std::printf("}}\n");
  }

 private:
  std::vector<Metric> metrics_;
};

void PrintHeader(const Args& a, const harness::LabOptions& lo, int phases) {
  std::printf("# perfbench workload=%s seed=%" PRIu64 " seconds=%g trace=%d phases=%d "
              "phase_s=%g clients=%d closed_loop=1\n",
              a.workload.c_str(), a.seed, a.seconds, a.trace, phases, a.seconds / phases,
              kClients);
  std::printf("# host nproc=%u compiler=\"%s\" build=%s clock=real(steady_clock,unpinned)\n",
              std::thread::hardware_concurrency(), PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE);
  std::printf("# settings dev_bytes=%zu kernel_crossing_ns=%" PRIu64 " clwb_ns=%" PRIu64
              " sfence_ns=%" PRIu64 " state_shards=%u session_cache=%d sync_crossings=%d "
              "key_virtualization=%d mpk=%d\n",
              lo.dev_bytes, lo.kernel_crossing_ns, lo.clwb_ns, lo.sfence_ns,
              lo.zofs_state_shards, lo.zofs_session_cache ? 1 : 0,
              lo.zofs_sync_crossings ? 1 : 0, lo.zofs_key_virtualization ? 1 : 0,
              lo.disable_mpk ? 0 : 1);
  std::printf("# note: latencies are this host's DRAM-simulated NVM with modeled crossing and "
              "flush costs, not an NVM device's\n");
}

// Errno-level failure counts and the first failure's context.
void PrintFailures(const FailureLog& fl) {
  for (const auto& [key, n] : fl.counts()) {
    std::printf("%-40s %" PRIu64 " count\n", key.c_str(), n);
  }
  const std::string first = fl.first();
  if (!first.empty()) {
    std::printf("# first failure: %s\n", first.c_str());
  }
}

// The calibration probe, printed on every run.
std::vector<Metric> SpinProbe() {
  std::vector<Metric> out;
  for (uint64_t ns : {30, 100, 300}) {
    const double cost = SpinCostNs(ns);
    out.push_back({"common.spin_ns." + std::to_string(ns), cost, "ns"});
    std::printf("# common.spin_ns.%" PRIu64 " %.1f ns\n", ns, cost);
  }
  return out;
}

// Correct when nothing mismatched, inside an op or in an oracle, and every
// allocation table checked clean.
bool Correct(const std::vector<Phase>& phases, const FailureLog& fl) {
  for (const Phase& p : phases) {
    if (!p.alloc_error.empty()) {
      return false;
    }
  }
  return fl.mismatches() == 0;
}

void PrintPhaseChecks(const std::vector<Phase>& phases) {
  for (size_t i = 0; i < phases.size(); i++) {
    const Phase& p = phases[i];
    std::printf("# phase %zu: setup %.3f s, %" PRIu64 " ops in %.3f s, %" PRIu64
                " failed, oracle mismatches %" PRIu64 ", alloc table %s, space_amp %.4f, "
                "peak_rss %.1f MiB\n",
                i, p.setup_s, p.attempted, p.timed_s, p.op_failures, p.oracle_mismatches,
                p.alloc_error.empty() ? "clean" : p.alloc_error.c_str(), p.space_amp,
                p.peak_rss_mib);
  }
}

// --trace 0: the end-to-end metrics.
int RunEndToEnd(const Args& a) {
  const harness::LabOptions lo;
  const int n_phases = EndToEndPhases(a.workload);
  PrintHeader(a, lo, n_phases);
  SpinProbe();
  FailureLog fl;
  std::vector<Phase> phases;
  for (int i = 0; i < n_phases; i++) {
    phases.push_back(
        RunPhase(a.workload, lo, PhaseSeed(a.seed, i), a.seconds / n_phases, false, fl));
  }
  uint64_t attempted = 0, failed = 0;
  for (const Phase& p : phases) {
    attempted += p.attempted;
    failed += p.op_failures + p.oracle_mismatches;
  }
  PrintPhaseChecks(phases);
  PrintFailures(fl);

  // Each metric is the median of its per-phase values: a phase the host
  // slowed (or sped up) does not move the result.
  Report r;
  auto median_of = [&](auto per_phase) {
    std::vector<double> v;
    for (const Phase& p : phases) {
      v.push_back(per_phase(p));
    }
    return Median(v);
  };
  auto lat = [&](const std::string& name, auto samples, double pct) {
    size_t n = 0;
    const double us = median_of([&](const Phase& p) {
      std::vector<uint32_t> v = samples(p);
      n += v.size();
      return PercentileUs(v, pct);
    });
    r.Add(name, us, "us", "n=" + std::to_string(n));
  };
  auto of = [](std::vector<OpClass> cls) {
    return [cls](const Phase& p) { return Pool(p, cls); };
  };
  const auto all = of({OpClass::kRead, OpClass::kWrite, OpClass::kFsync});
  r.Add("ops_per_s", median_of([](const Phase& p) { return p.ops_per_s(); }), "ops/s");
  lat("p50_us", all, 50);
  lat("p99_us", all, 99);
  lat("read_p50_us", of({OpClass::kRead}), 50);
  lat("read_p99_us", of({OpClass::kRead}), 99);
  lat("write_p50_us", of({OpClass::kWrite}), 50);
  lat("write_p99_us", of({OpClass::kWrite}), 99);
  lat("fsync_p50_us", PoolFsync, 50);
  const double fail_frac = Ratio(static_cast<double>(failed), static_cast<double>(attempted));
  std::printf("%-40s %.6g ratio  failed=%" PRIu64 " attempted=%" PRIu64 "\n", "fail_frac",
              fail_frac, failed, attempted);
  r.Add("success_frac", 1.0 - fail_frac, "ratio");
  r.Add("space_amp", median_of([](const Phase& p) { return p.space_amp; }), "ratio");
  r.Add("setup_s", median_of([](const Phase& p) { return p.setup_s; }), "s");
  r.Add("peak_rss_mb", median_of([](const Phase& p) { return p.peak_rss_mib; }), "MiB");
  r.PrintJson(Correct(phases, fl), attempted, failed);
  return 0;
}

// Span-derived numbers of the traced phase.
struct SpanStats {
  std::vector<uint64_t> fs_ns[kSpFsCount];
  // kvstore: per Put/Get span, minus the vfs spans directly under it.
  uint64_t db_ops = 0, db_self_ns = 0, db_child_calls = 0;
  uint64_t gets = 0, get_preads = 0, puts = 0, put_fsyncs = 0;
  uint64_t put_user_bytes = 0, put_fs_bytes = 0;
  uint64_t stall_puts = 0, stall_ns = 0;
};

SpanStats AnalyzeSpans(const Phase& p) {
  SpanStats s;
  for (const ClientStats& st : p.clients) {
    const std::vector<Span>& spans = st.spans;
    std::vector<uint64_t> child_ns(spans.size(), 0);
    std::vector<uint8_t> has_create(spans.size(), 0);
    for (size_t i = 0; i < spans.size(); i++) {
      const Span& sp = spans[i];
      const uint64_t dur = sp.end_ns - sp.start_ns;
      if (sp.name >= kSpFsCount) {
        continue;
      }
      s.fs_ns[sp.name].push_back(dur);
      if (sp.parent < 0) {
        continue;
      }
      const Span& par = spans[sp.parent];
      if (par.name != kSpDbPut && par.name != kSpDbGet) {
        continue;
      }
      child_ns[sp.parent] += dur;
      s.db_child_calls++;
      if (par.name == kSpDbGet && sp.name == kSpPread) {
        s.get_preads++;
      }
      if (par.name == kSpDbPut) {
        s.put_fsyncs += sp.name == kSpFsync;
        if (sp.name == kSpWrite || sp.name == kSpPwrite) {
          s.put_fs_bytes += sp.bytes;
        }
        if (sp.name == kSpOpen && (sp.flags & kSpanCreate)) {
          has_create[sp.parent] = 1;
        }
      }
    }
    for (size_t i = 0; i < spans.size(); i++) {
      const Span& sp = spans[i];
      if (sp.name != kSpDbPut && sp.name != kSpDbGet) {
        continue;
      }
      const uint64_t dur = sp.end_ns - sp.start_ns;
      s.db_ops++;
      s.db_self_ns += dur - std::min(dur, child_ns[i]);
      if (sp.name == kSpDbGet) {
        s.gets++;
      } else {
        s.puts++;
        s.put_user_bytes += sp.bytes;
        if (has_create[i]) {
          s.stall_puts++;
          s.stall_ns += dur;
        }
      }
    }
  }
  return s;
}

// Spans of the traced phase as TSV, at most kMaxSpansOut per client.
void WriteSpans(const Phase& p, const std::string& path) {
  constexpr size_t kMaxSpansOut = 50000;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "client\tindex\tparent\top_id\tname\tstart_ns\tend_ns\tbytes\tflags\n");
  for (size_t c = 0; c < p.clients.size(); c++) {
    const std::vector<Span>& spans = p.clients[c].spans;
    for (size_t i = 0; i < spans.size() && i < kMaxSpansOut; i++) {
      const Span& s = spans[i];
      std::fprintf(f, "%zu\t%zu\t%d\t%" PRIu64 "\t%s\t%" PRIu64 "\t%" PRIu64 "\t%" PRIu64 "\t%u\n",
                   c, i, s.parent, s.op_id, SpanNameStr(static_cast<SpanName>(s.name)),
                   s.start_ns, s.end_ns, s.bytes, s.flags);
    }
  }
  std::fclose(f);
}

// --trace 1: the per-layer metrics.
int RunLayers(const Args& a) {
  constexpr int kPhases = 4;
  const harness::LabOptions lo;
  harness::LabOptions no_mpk = lo;
  no_mpk.disable_mpk = true;
  harness::LabOptions zero_cost = lo;
  zero_cost.kernel_crossing_ns = 0;
  zero_cost.clwb_ns = 0;
  zero_cost.sfence_ns = 0;

  PrintHeader(a, lo, kPhases);
  std::printf("# phases: 0 default untraced, 1 default traced, 2 disable_mpk untraced, "
              "3 zero modeled cost untraced; same inputs in each\n");
  const std::vector<Metric> spin = SpinProbe();
  FailureLog fl;
  const double per = a.seconds / kPhases;
  const uint64_t seed = PhaseSeed(a.seed, 0);
  std::vector<Phase> phases;
  phases.push_back(RunPhase(a.workload, lo, seed, per, false, fl));
  phases.push_back(RunPhase(a.workload, lo, seed, per, true, fl));
  phases.push_back(RunPhase(a.workload, no_mpk, seed, per, false, fl));
  phases.push_back(RunPhase(a.workload, zero_cost, seed, per, false, fl));
  const Phase& base = phases[0];
  const Phase& traced = phases[1];
  PrintPhaseChecks(phases);
  PrintFailures(fl);
  if (!a.trace_out.empty()) {
    WriteSpans(traced, a.trace_out);
  }

  Report r;
  for (const Metric& m : spin) {
    r.Add(m.name, m.value, m.unit);
  }
  const Counters& d = base.delta;
  const double ops = static_cast<double>(base.attempted);
  const double nvm_modeled_us =
      Ratio(static_cast<double>(d.clwb_lines * lo.clwb_ns + d.sfences * lo.sfence_ns), ops) / 1e3;
  r.Add("nvm.clwb_lines_per_op", Ratio(d.clwb_lines, ops), "lines/op");
  r.Add("nvm.sfence_per_op", Ratio(d.sfences, ops), "fences/op");
  r.Add("nvm.bytes_per_user_byte", Ratio(d.nvm_bytes, base.user_bytes), "ratio");
  r.Add("nvm.modeled_us_per_op", nvm_modeled_us, "us");

  const double kernfs_modeled_us =
      Ratio(static_cast<double>((d.fg_crossings + d.bg_crossings) * lo.kernel_crossing_ns), ops) /
      1e3;
  r.Add("kernfs.fg_crossings_per_op", Ratio(d.fg_crossings, ops), "crossings/op");
  r.Add("kernfs.bg_crossings_per_op", Ratio(d.bg_crossings, ops), "crossings/op");
  r.Add("kernfs.modeled_us_per_op", kernfs_modeled_us, "us");
  r.Add("kernfs.reaped_mappings", d.reaped_mappings, "count");

  r.Add("mpk.key_evictions_per_op", Ratio(d.key_evictions, ops), "evictions/op");
  r.Add("mpk.retag_pages_per_op", Ratio(d.retag_pages, ops), "pages/op");
  r.Add("mpk.live_classes", base.live_classes, "count");
  r.Add("mpk.check_us_per_op", base.mean_op_us() - phases[2].mean_op_us(), "us");

  r.Add("zofs.shard_locks_per_op", Ratio(d.shard_locks, ops), "locks/op");
  r.Add("zofs.session_epoch_bumps_per_op", Ratio(d.session_epoch, ops), "bumps/op");
  r.Add("zofs.staged_append_hit_frac", Ratio(d.staged_append_hits, base.appends), "ratio",
        "appends=" + std::to_string(base.appends));
  r.Add("zofs.lock_steals", d.lock_steals, "count");
  r.Add("zofs.online_repairs", d.online_repairs, "count");
  r.Add("zofs.reaped_lists", d.reaped_lists, "count");

  SpanStats s = AnalyzeSpans(traced);
  for (SpanName op : kReportedFsOps) {
    std::vector<uint64_t>& v = s.fs_ns[op];
    const std::string prefix = std::string("fslib.") + SpanNameStr(op);
    r.Add(prefix + ".count", static_cast<double>(v.size()), "count");
    r.Add(prefix + ".p50_us", PercentileUs(v, 50), "us");
    r.Add(prefix + ".p99_us", PercentileUs(v, 99), "us");
  }
  r.Add("fslib.fd_alloc_locks_per_op", Ratio(d.fd_alloc_locks, ops), "locks/op");
  const double sw_us = base.mean_op_us() - kernfs_modeled_us - nvm_modeled_us;
  r.Add("fslib.sw_us_per_op", sw_us, "us");

  r.Add("kvstore.self_us_per_op", Ratio(s.db_self_ns, s.db_ops) / 1e3, "us");
  r.Add("kvstore.fs_calls_per_op", Ratio(s.db_child_calls, s.db_ops), "calls/op");
  r.Add("kvstore.preads_per_get", Ratio(s.get_preads, s.gets), "calls/op");
  r.Add("kvstore.fsyncs_per_put", Ratio(s.put_fsyncs, s.puts), "calls/op");
  r.Add("kvstore.fs_bytes_per_user_byte", Ratio(s.put_fs_bytes, s.put_user_bytes), "ratio");
  r.Add("kvstore.stall_puts", s.stall_puts, "count");
  r.Add("kvstore.stall_us_total", s.stall_ns / 1e3, "us");

  const double zero_cost_us = phases[3].mean_op_us();
  r.Add("layers.mean_op_us", base.mean_op_us(), "us");
  r.Add("layers.zero_cost_mean_op_us", zero_cost_us, "us");
  r.Add("layers.residual_vs_zero_cost_frac", Ratio(sw_us - zero_cost_us, zero_cost_us), "ratio");
  r.Add("trace.overhead_frac", 1.0 - Ratio(traced.ops_per_s(), base.ops_per_s()), "ratio");

  uint64_t attempted = 0, failed = 0;
  for (const Phase& p : phases) {
    attempted += p.attempted;
    failed += p.op_failures + p.oracle_mismatches;
  }
  r.PrintJson(Correct(phases, fl), attempted, failed);
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: zofs_perfbench --workload meta|data|kv|tenants --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE]\n"
               "       zofs_perfbench --workload W --seed N --dump-ops K\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v, &end, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v, &end);
    } else if (k == "--trace") {
      a->trace = static_cast<int>(std::strtol(v, &end, 10));
    } else if (k == "--dump-ops") {
      a->dump_ops = static_cast<int>(std::strtol(v, &end, 10));
    } else if (k == "--trace-out") {
      a->trace_out = v;
    } else {
      return false;
    }
    if (end != nullptr && (*end != '\0' || end == v)) {
      return false;
    }
  }
  if (argc % 2 == 0 || !IsWorkload(a->workload)) {
    return false;
  }
  if (a->dump_ops > 0) {
    return true;
  }
  return a->seconds > 0 && a->seconds <= 600 && (a->trace == 0 || a->trace == 1);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args a;
  if (!ParseArgs(argc, argv, &a)) {
    return Usage();
  }
  if (a.dump_ops > 0) {
    DumpOps(a.workload, PhaseSeed(a.seed, 0), a.dump_ops);
    return 0;
  }
  try {
    return a.trace ? RunLayers(a) : RunEndToEnd(a);
  } catch (const SetupError& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: setup failed: %s\n", e.what.c_str());
    return 1;
  }
}
