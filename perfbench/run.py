#!/usr/bin/env python3
"""Builds the ZoFS benchmark from the repository sources and runs one workload.

    python3 perfbench/run.py --workload meta --seed 1 --seconds 20 --trace 0

Run it from the repository root. The build goes to $CARGO_TARGET_DIR when set
(relative paths are taken from the current directory), else to .bench_build.
Build output goes to stderr; stdout is the benchmark's, and its last line is
the JSON result. Exits nonzero, without a result, if the build or the run
fails. --trace 1 also writes the traced phase's spans (first 50000 per client)
to <build dir>/traces/<workload>-seed<seed>.tsv.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BINARY = "zofs_perfbench"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configures and builds the benchmark; returns the binary path."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "--target", BINARY, "-j", jobs]]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))
    return os.path.join(out, BINARY)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=["meta", "data", "kv", "tenants"])
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    a = p.parse_args()
    if a.seed < 0 or not 0 < a.seconds <= 120:
        p.error("--seed must be >= 0 and --seconds in (0, 120]")

    binary = build()
    cmd = [binary, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", repr(a.seconds), "--trace", str(a.trace)]
    if a.trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, f"{a.workload}-seed{a.seed}.tsv")]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd)
    try:
        rc = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(rc)


if __name__ == "__main__":
    main()
