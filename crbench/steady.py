#!/usr/bin/env python3
"""Steadiness report: runs each workload k times and judges every metric's
spread against its bound in BENCHMARK.json.

    python3 crbench/steady.py --runs 10 [--workloads uniform-grid,build-reload]
                              [--first-seed 1] [--sets 1]

Run from the repository root. Each run is `crbench/run.py` with its own seed
(first-seed, first-seed + 1, ...). For every end-to-end metric it prints the
median, the quartiles (statistics.quantiles(n=4)), the spread
(q3 - q1) / median, the max/min ratio, and the metric's bound; a metric whose
spread exceeds its bound is flagged FLAG, one above a third of its bound
WARN. With --sets 2 the whole sweep runs twice and each
metric's second median is compared with the first: a change worse than the
bound in the metric's "worse" direction is flagged too. Exit code 1 when
anything is flagged or a run failed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    result = json.loads(lines[-1]) if lines else None
    if proc.returncode != 0 or result is None or not result["correct"]:
        sys.stderr.write(proc.stderr[-4000:])
        return None
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def worse_by(first, second, better):
    """Relative change from first to second in the metric's worse direction."""
    if first == 0:
        return 0.0
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be >= 2 to have quartiles")

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    metrics = bench["end_to_end"]
    seconds = bench["run_seconds"]

    flagged = False
    report = {}
    for workload in names:
        medians = []
        for s in range(args.sets):
            values = {m["name"]: [] for m in metrics}
            for i in range(args.runs):
                seed = args.first_seed + s * args.runs + i
                result = run_once(workload, seed, seconds)
                if result is None:
                    print("%s seed %d: run FAILED" % (workload, seed))
                    flagged = True
                    continue
                for name in values:
                    values[name].append(result[name])
            print("\n%s, set %d: %d runs of %d s" % (workload, s + 1, args.runs, seconds))
            print("%-30s %13s %13s %13s %8s %8s %6s" % (
                "metric", "median", "q1", "q3", "spread", "max/min", "bound"))
            set_medians = {}
            for m in metrics:
                v = values[m["name"]]
                if len(v) < 2:
                    continue
                med, q1, q3, rel = spread(v)
                set_medians[m["name"]] = med
                bound = m["bound"]
                ratio = max(v) / min(v) if min(v) > 0 else float("inf")
                mark = ""
                if rel > bound:
                    mark, flagged = "FLAG", True
                elif rel > bound / 3:
                    mark = "WARN"
                print("%-30s %13.6g %13.6g %13.6g %8.4f %8.3f %6s %s" % (
                    m["name"], med, q1, q3, rel, ratio, bound, mark))
                report.setdefault(workload, {}).setdefault(m["name"], []).append(
                    {"median": med, "q1": q1, "q3": q3, "spread": rel, "values": v})
            medians.append(set_medians)
        if len(medians) == 2:
            print("\n%s: second set vs first" % workload)
            for m in metrics:
                if m["name"] not in medians[0] or m["name"] not in medians[1]:
                    continue
                worse = worse_by(medians[0][m["name"]], medians[1][m["name"]],
                                 m["better"])
                mark = "FLAG" if worse > m["bound"] else ""
                flagged = flagged or mark == "FLAG"
                print("%-30s worse by %8.4f (bound %s) %s" % (
                    m["name"], worse, m["bound"], mark))

    out_dir = os.path.join(ROOT, ".bench_build", "out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "steady-report.json"), "w", encoding="utf-8") as f:
        json.dump(report, f, indent=2)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
