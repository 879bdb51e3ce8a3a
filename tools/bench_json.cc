// bench_json — multicore scalability sweep with machine-readable output.
//
// Usage: bench_json [output.json]
//   Writes the JSON document to the given path (default bench_scale.json in the
//   current directory) and echoes it to stdout.
//
// Environment overrides (all optional):
//   ZR_BENCH_OPS       ops per thread per datapoint   (default 2000)
//   ZR_BENCH_SEED      workload RNG seed              (default 42)
//   ZR_BENCH_MAXTHR    cap on the thread sweep        (default 8)
//   ZR_BENCH_FIG8      0 disables the fig8 section    (default 1)

#include <cstdio>
#include <string>

#include "src/harness/benchjson.h"
#include "src/harness/runner.h"

int main(int argc, char** argv) {
  harness::BenchJsonOptions opts;
  opts.ops_per_thread = harness::EnvOr("BENCH_OPS", opts.ops_per_thread);
  opts.seed = harness::EnvOr("BENCH_SEED", opts.seed);
  opts.run_fig8 = harness::EnvOr("BENCH_FIG8", 1) != 0;
  const uint64_t max_thr = harness::EnvOr("BENCH_MAXTHR", 8);
  std::vector<int> sweep;
  for (int t : opts.thread_counts) {
    if (static_cast<uint64_t>(t) <= max_thr) {
      sweep.push_back(t);
    }
  }
  if (sweep.empty()) {
    sweep.push_back(1);
  }
  opts.thread_counts = sweep;

  const std::string json = harness::RunBenchJson(opts);

  const char* path = argc > 1 ? argv[1] : "bench_scale.json";
  FILE* f = fopen(path, "w");
  if (f == nullptr) {
    fprintf(stderr, "bench_json: cannot open %s for writing\n", path);
    return 1;
  }
  fputs(json.c_str(), f);
  fclose(f);
  fputs(json.c_str(), stdout);
  fprintf(stderr, "bench_json: wrote %s\n", path);
  return 0;
}
