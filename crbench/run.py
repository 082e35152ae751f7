#!/usr/bin/env python3
"""One benchmark run of one workload.

    python3 crbench/run.py --workload uniform-grid --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds crbench/ (and the library under src/)
into .bench_build/ on first use, runs the crbench binary with the workload's
parameters from crbench/workloads.json, prints a summary and a provenance
line, and prints as the last line of stdout one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end set, with
--trace 1 its per_layer set (the traced run also writes a Chrome trace and
prints a per-layer self-time table to stderr). Exit code 0 when every check
passed, 1 when a check failed or the build/run broke, 2 on bad arguments.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(BUILD_DIR, "out")
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def cpu_count():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build():
    """Configures (once) and builds the benchmark; returns the binary dir."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("library sources (src/) not found next to crbench/")
    os.makedirs(BUILD_DIR, exist_ok=True)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "-j", str(cpu_count()),
         "--target", "crbench", "crbench_selftest"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return BUILD_DIR


def workload_args(name, spec):
    args = ["--workload", name, "--graph", spec["graph"],
            "--traffic", spec["traffic"],
            "--offered-rps", str(spec["offered_rps"]),
            "--reload-every", str(spec["reload_every"])]
    return args


def source_digest():
    """sha256 over the library and benchmark sources: identifies the code
    measured even in a checkout without git metadata."""
    h = hashlib.sha256()
    for top in ("src", "crbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cpp", ".hpp", ".txt", ".py", ".json")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unavailable"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unavailable"


def run_binary(binary, argv):
    """Runs the benchmark binary; returns (exit code, parsed last line or None)."""
    proc = subprocess.Popen(argv, executable=binary, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True, cwd=ROOT)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log("crbench: run exceeded %d s and was stopped" % RUN_TIMEOUT_S)
        return 1, None
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        return proc.returncode or 1, None
    try:
        return proc.returncode, json.loads(lines[-1])
    except json.JSONDecodeError:
        return proc.returncode or 1, None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--inject", choices=("digest",),
                        help="deliberately corrupt one gate digest (self-test)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        workloads = load_json(os.path.join(BENCH_DIR, "workloads.json"))
        bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    except (OSError, ValueError) as e:
        log("crbench: cannot read benchmark configuration: %s" % e)
        return 1
    if args.workload not in workloads:
        parser.error("unknown workload %r (have: %s)"
                     % (args.workload, ", ".join(sorted(workloads))))

    try:
        build_dir = build()
    except (OSError, RuntimeError, subprocess.CalledProcessError) as e:
        log("crbench: build failed: %s" % e)
        return 1

    binary = os.path.join(build_dir, "crbench")
    argv = [binary] + workload_args(args.workload, workloads[args.workload]) + [
        "--seed", str(args.seed), "--seconds", repr(args.seconds),
        "--trace", str(args.trace), "--out-dir", OUT_DIR]
    if args.inject:
        argv += ["--inject", args.inject]
    code, doc = run_binary(binary, argv)
    if doc is None:
        log("crbench: the run produced no result (exit code %s)" % code)
        return 1

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics = {}
    errors = list(doc.get("errors", []))
    for m in wanted:
        value = doc["metrics"].get(m["name"])
        if not isinstance(value, (int, float)):
            errors.append("metric %s missing from the run" % m["name"])
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    correct = bool(doc.get("correct")) and code == 0 and not errors

    provenance = dict(doc.get("provenance", {}))
    provenance["commit"] = git_commit()
    provenance["source_digest"] = source_digest()
    doc["provenance"] = provenance
    os.makedirs(OUT_DIR, exist_ok=True)
    out_path = os.path.join(OUT_DIR, "%s-%d%s.json"
                            % (args.workload, args.seed, "-t" if args.trace else ""))
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2)

    for name, m in metrics.items():
        print("%-34s %18.6g %s" % (name, m["value"], m["unit"]))
    for name, count in sorted(doc.get("samples", {}).items()):
        print("%-34s %18d samples" % ("n(" + name + ")", count))
    for e in errors:
        print("ERROR: %s" % e)
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    print("digests: " + json.dumps(doc.get("digests", {}), sort_keys=True))
    failed = int(doc.get("failed", 0))
    if not correct:
        failed = max(failed, 1)
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, int(doc.get("attempted", 0))),
        "failed": failed,
        "metrics": metrics,
    }))
    sys.stdout.flush()
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
