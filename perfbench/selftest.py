#!/usr/bin/env python3
"""Self-test of the benchmark. Run from the repository root:

    python3 perfbench/selftest.py

Builds the benchmark (as run.py does), then checks on short runs that:
  * every metric named in BENCHMARK.json prints, by name and with its unit,
    both as a text line and in the JSON result line, for every workload;
  * the correctness oracles pass (data, kv and tenants must also finish
    without a failed op; meta's failures are reported, not asserted, because
    they are how the shared-coffer lease race shows);
  * one seed generates a byte-identical op sequence, another seed a
    different one;
  * with only BENCHMARK.json and perfbench/ present, run.py exits nonzero
    without printing a result.
Exits 0 when every check passes.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

SHORT_SECONDS = "2"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

failures = []


def check(ok, what):
    print(("PASS " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def text_metrics(stdout):
    """Lines of the form '<name> <value> <unit> ...' -> {name: unit}."""
    out = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) >= 3 and not line.startswith(("#", "{")):
            try:
                float(parts[1])
            except ValueError:
                continue
            out[parts[0]] = parts[2]
    return out


def check_run(binary, workload, trace, wanted):
    proc = subprocess.run([binary, "--workload", workload, "--seed", "3", "--seconds",
                           SHORT_SECONDS, "--trace", str(trace)],
                          capture_output=True, text=True, timeout=180, check=False)
    tag = f"{workload} --trace {trace}"
    check(proc.returncode == 0, f"{tag}: exits 0")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        check(False, f"{tag}: last line is JSON")
        return
    check(set(result) == RESULT_KEYS, f"{tag}: result has exactly {sorted(RESULT_KEYS)}")
    metrics = result.get("metrics", {})
    printed = text_metrics(proc.stdout)
    check(set(metrics) == {m["name"] for m in wanted},
          f"{tag}: JSON metrics are exactly the BENCHMARK.json list")
    for m in wanted:
        got = metrics.get(m["name"], {})
        ok = got.get("unit") == m["unit"] and isinstance(got.get("value"), (int, float))
        ok = ok and printed.get(m["name"]) == m["unit"]
        if not ok:
            check(False, f"{tag}: {m['name']} printed with unit {m['unit']}")
    check(result.get("correct") is True, f"{tag}: correctness oracles pass")
    check(result.get("attempted", 0) >= 1, f"{tag}: attempted >= 1")
    if workload != "meta":
        check(result.get("failed") == 0, f"{tag}: no failed op")
    else:
        print(f"INFO {tag}: {result.get('failed')} failed of {result.get('attempted')}")
    if trace == 0:
        for probe in ("common.spin_ns.30", "common.spin_ns.100", "common.spin_ns.300"):
            check(f"# {probe} " in proc.stdout, f"{tag}: calibration probe {probe} printed")
        check("# host nproc=" in proc.stdout and "# settings dev_bytes=" in proc.stdout,
              f"{tag}: host and settings recorded")


def dump(binary, workload, seed):
    return subprocess.run([binary, "--workload", workload, "--seed", str(seed), "--dump-ops",
                           "300"], capture_output=True, timeout=60, check=True).stdout


def check_bare_checkout():
    bare = os.path.join(run.build_dir(), "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
    proc = subprocess.run(["python3", "perfbench/run.py", "--workload", "meta", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=bare, env=env,
                          capture_output=True, text=True, timeout=180, check=False)
    check(proc.returncode != 0 and "{" not in proc.stdout,
          "without the sources, run.py fails without a result")
    shutil.rmtree(bare, ignore_errors=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    binary = run.build()
    for w in bench["workloads"]:
        check_run(binary, w["name"], 0, bench["end_to_end"])
        check_run(binary, w["name"], 1, bench["per_layer"])
        a, b = dump(binary, w["name"], 7), dump(binary, w["name"], 7)
        check(a == b and len(a) > 0, f"{w['name']}: seed 7 gives a byte-identical op sequence")
        check(dump(binary, w["name"], 8) != a, f"{w['name']}: seed 8 gives another op sequence")
    check_bare_checkout()
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
