#!/usr/bin/env python3
"""Build and run the LZRQ service benchmark.

    python3 perfbench/run.py --workload compress_hw --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15
    python3 perfbench/run.py --test

Run from the root of a checkout. The benchmark (lzrq_bench) and the
libraries it links are built from source with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench). The last line
of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The line before it is the full record (failures by class, fingerprint);
append the output to a file (`>> base.txt`) to collect runs for compare.py.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ["compress_hw", "compress_sw", "decompress", "log"]
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir(suffix=""):
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / ("perfbench" + suffix)


def cmake(args):
    """Runs cmake with its output on stderr; exits on failure."""
    proc = subprocess.run(["cmake"] + args, stdout=sys.stderr, stderr=sys.stderr, cwd=ROOT)
    if proc.returncode != 0:
        log("perfbench: cmake %s failed" % " ".join(args[:2]))
        sys.exit(proc.returncode or 1)


def build(out, extra=()):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("perfbench: no library sources under %s/src; run from a full checkout" % ROOT)
        sys.exit(2)
    if not (out / "CMakeCache.txt").is_file():
        cmake(["-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE] + list(extra))
    cmake(["--build", str(out), "-j", str(min(4, os.cpu_count() or 1))])


def run_one(binary, workload, seed, seconds, trace):
    """Runs one benchmark process; returns (returncode, stdout)."""
    work = binary.parent.parent / "work" / ("%s-%d" % (workload, os.getpid()))
    cmd = [str(binary), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--workdir", str(work)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
        return proc.returncode, proc.stdout
    except subprocess.TimeoutExpired:
        log("perfbench: %s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
        return 1, ""
    finally:
        shutil.rmtree(work, ignore_errors=True)


def records(stdout):
    """The full-record lines of a benchmark's output."""
    out = []
    for line in stdout.splitlines():
        if line.startswith('{"benchmark"'):
            out.append(json.loads(line))
    return out


def run_all(binary, seed, seconds):
    """Every workload, untraced then traced: a table of all metrics with
    units, the tracing overhead, and a combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for workload in WORKLOADS:
        recs = {}
        for trace in (0, 1):
            code, stdout = run_one(binary, workload, seed, seconds, trace)
            got = records(stdout)
            if code != 0 or not got:
                log("perfbench: %s --trace %d failed" % (workload, trace))
                sys.exit(code or 1)
            recs[trace] = got[-1]
            combined["correct"] &= recs[trace]["failed"] == 0
            combined["attempted"] += recs[trace]["attempted"]
            combined["failed"] += recs[trace]["failed"]
        for name, m in recs[0]["metrics"].items():
            rows.append((workload, name, m["value"], m["unit"]))
            combined["metrics"]["%s.%s" % (workload, name)] = m
        for name in ("latency_p50_ms", "latency_p99_ms"):
            rows.append((workload, name, recs[0][name], "ms"))
        rows.append((workload, "error_rate", recs[0]["error_rate"], "ratio"))
        traced = recs[1]["metrics"]["trace.request_p50_ms"]["value"]
        untraced = recs[0]["latency_p50_ms"]
        rows.append((workload, "tracing_overhead_p50", 100.0 * (traced / untraced - 1.0), "%"))
        for name, m in recs[1]["metrics"].items():
            rows.append((workload, name, m["value"], m["unit"]))
    for workload, name, value, unit in rows:
        print("%-12s %-32s %16.6f %s" % (workload, name, value, unit))
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--test", action="store_true", help="build and run the benchmark's tests")
    args = ap.parse_args()

    if args.test:
        out = build_dir("-test")
        build(out, ["-DPERFBENCH_TESTS=ON"])
        return subprocess.run(["ctest", "--test-dir", str(out), "--output-on-failure"],
                              cwd=ROOT).returncode
    if args.workload is None:
        ap.error("--workload is required")

    out = build_dir()
    build(out)
    binary = out / "lzrq_bench"
    if args.workload == "all":
        return run_all(binary, args.seed, args.seconds)

    code, stdout = run_one(binary, args.workload, args.seed, args.seconds, args.trace)
    if code != 0:
        return code or 1
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
