#!/usr/bin/env python3
"""Compare two sets of LZRQ benchmark results.

    python3 perfbench/compare.py BASE CHANGE [--benchmark BENCHMARK.json]

BASE and CHANGE are files or directories of files holding benchmark output
(`python3 perfbench/run.py ... >> base.txt`): every line that is a full
record ({"benchmark": "lzrq", ...}, printed by run.py before its result
line) counts as one run. Untraced records only.

For each workload and end-to-end metric the tool prints both sides' median
and quartiles and a verdict:

  better      the change wins at least 9 in 10 of the pairs (ties count
              for neither side) and the medians differ by more than the
              base's own spread (the distance between its quartiles)
  worse       the change's median is worse than the base's by more than
              the metric's bound in BENCHMARK.json; and every metric of a
              workload where a larger share of the change's requests failed
              than of the base's, whatever its figures say
  unresolved  neither; "within bound" when the base's spread is inside the
              bound (the no-regression claim holds), "spread > bound" when
              the runs are too noisy to say

latency_p50_ms and latency_p99_ms, fields of the record rather than
metrics, are shown too. They have no bound, so "worse" for them is the
mirror of "better": the change loses 9 in 10 pairs and the medians differ
by more than the base's spread.

Runs pair up by seed where both sides ran a seed, otherwise in file order.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Record fields compared like metrics but without a bound (README.md, "Run-to-run
# spread"): "worse" for them mirrors "better".
RECORD_ONLY = [{"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": None},
               {"name": "latency_p99_ms", "unit": "ms", "better": "lower", "bound": None}]


def load(path):
    """{workload: [record, ...]} from a file or a directory of files."""
    path = Path(path)
    files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
    runs = {}
    for f in files:
        for line in f.read_text(errors="replace").splitlines():
            line = line.strip()
            if not line.startswith('{"benchmark"'):
                continue
            rec = json.loads(line)
            if rec.get("benchmark") == "lzrq" and rec.get("trace") == 0:
                runs.setdefault(rec["workload"], []).append(rec)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def pairs(base, change):
    """(base, change) record pairs: by seed where possible, else in order."""
    by_seed = {r["seed"]: r for r in change}
    matched = [(b, by_seed[b["seed"]]) for b in base if b["seed"] in by_seed]
    if len(matched) >= min(len(base), len(change)):
        return matched
    return list(zip(base, change))


def value(record, name):
    """A metric's value, or a record field of that name; None when absent."""
    if name in record["metrics"]:
        return record["metrics"][name]["value"]
    return record.get(name)


def error_rate(runs):
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def verdict(metric, base_vals, change_vals, paired, more_failures):
    higher = metric["better"] == "higher"
    q1, med_b, q3 = quartiles(base_vals)
    _, med_c, _ = quartiles(change_vals)
    sign = 1.0 if higher else -1.0
    wins = sum(1 for b, c in paired if sign * (c - b) > 0)
    gain = sign * (med_c - med_b)
    if more_failures:
        return "worse (more failed requests)", wins
    if paired and wins >= 0.9 * len(paired) and gain > (q3 - q1):
        return "better", wins
    if metric["bound"] is None:
        losses = sum(1 for b, c in paired if sign * (c - b) < 0)
        if paired and losses >= 0.9 * len(paired) and -gain > (q3 - q1):
            return "worse", wins
        return "unresolved (no bound)", wins
    if -gain > metric["bound"] * abs(med_b):
        return "worse", wins
    spread = (q3 - q1) / abs(med_b) if med_b else float("inf")
    return ("unresolved (within bound)" if spread <= metric["bound"]
            else "unresolved (spread > bound)"), wins


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("base")
    ap.add_argument("change")
    ap.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    args = ap.parse_args()

    metrics = json.loads(Path(args.benchmark).read_text())["end_to_end"] + RECORD_ONLY
    base, change = load(args.base), load(args.change)
    workloads = [w for w in base if w in change]
    if not workloads:
        print("no workload has untraced records on both sides", file=sys.stderr)
        return 1

    print("%-12s %-16s %-6s %28s %28s %8s %6s  %s" %
          ("workload", "metric", "unit", "base median [q1, q3]", "change median [q1, q3]",
           "change", "wins", "verdict"))
    for w in workloads:
        paired_runs = pairs(base[w], change[w])
        more_failures = error_rate(change[w]) > error_rate(base[w])
        for m in metrics:
            name = m["name"]
            b_vals = [v for v in (value(r, name) for r in base[w]) if v is not None]
            c_vals = [v for v in (value(r, name) for r in change[w]) if v is not None]
            if not b_vals or not c_vals:
                continue
            paired = [(value(b, name), value(c, name)) for b, c in paired_runs]
            bq, cq = quartiles(b_vals), quartiles(c_vals)
            v, wins = verdict(m, b_vals, c_vals, paired, more_failures)
            rel = (cq[1] / bq[1] - 1.0) * 100.0 if bq[1] else float("nan")
            print("%-12s %-16s %-6s %10.4g [%6.4g, %6.4g] %10.4g [%6.4g, %6.4g] %+7.1f%% %2d/%-3d  %s" %
                  (w, name, m["unit"], bq[1], bq[0], bq[2], cq[1], cq[0], cq[2], rel, wins,
                   len(paired), v))
    return 0


if __name__ == "__main__":
    sys.exit(main())
