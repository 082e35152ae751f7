#!/usr/bin/env python3
"""Self-tests of the benchmark harness.

    python3 -m unittest discover -s crbench/tests -v

Run from the repository root. Checks BENCHMARK.json against the benchmark
contract (keys, metric-name and unit charsets, bounds), runs the C++ harness
self-tests (percentile rule, open-loop due-time accounting under an injected
stall, thread budget, span self time), and drives the crbench binary on a
tiny input to prove the correctness gate passes on honest output and fails
on a deliberately mismatched digest.
"""

import json
import os
import re
import subprocess
import sys
import unittest

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(TESTS_DIR)
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402  (crbench/run.py)

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH_RE = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def load(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


class BenchmarkJsonContract(unittest.TestCase):
    def setUp(self):
        self.bench = load(os.path.join(ROOT, "BENCHMARK.json"))

    def test_top_level_keys(self):
        self.assertEqual(set(self.bench), {"command", "paths", "run_seconds", "workloads",
                                           "end_to_end", "per_layer"})
        self.assertLessEqual(os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")), 64 * 1024)

    def test_command_and_paths(self):
        cmd = self.bench["command"]
        self.assertTrue(1 <= len(cmd) <= 32)
        for arg in cmd:
            self.assertLessEqual(len(arg), 200)
            self.assertFalse(arg.startswith("/") or ".." in arg.split("/"))
        paths = self.bench["paths"]
        self.assertTrue(1 <= len(paths) <= 16)
        for p in paths:
            self.assertRegex(p, PATH_RE)
            self.assertFalse(p.startswith("/") or ".." in p.split("/"))
            self.assertTrue(os.path.isdir(os.path.join(ROOT, p)))
        for arg in cmd[1:]:
            if os.path.exists(os.path.join(ROOT, arg)):
                self.assertTrue(any(arg == p or arg.startswith(p + "/") for p in paths),
                                "%s lies outside the benchmark paths" % arg)
        self.assertIsInstance(self.bench["run_seconds"], int)
        self.assertTrue(1 <= self.bench["run_seconds"] <= 60)

    def test_metric_names_units_and_bounds(self):
        names = []
        for w in self.bench["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertRegex(w["name"], NAME_RE)
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
            names.append(w["name"])
        self.assertTrue(2 <= len(self.bench["workloads"]) <= 8)
        self.assertTrue(1 <= len(self.bench["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(self.bench["per_layer"]) <= 128)
        for m in self.bench["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25, m["name"])
        for m in self.bench["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in self.bench["end_to_end"] + self.bench["per_layer"]:
            self.assertRegex(m["name"], NAME_RE)
            self.assertRegex(m["unit"], UNIT_RE)
            self.assertIn(m["better"], ("lower", "higher"))
            names.append(m["name"])
        self.assertEqual(len(names), len(set(names)), "a name is used twice")

    def test_setup_metric(self):
        setup = [m for m in self.bench["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in self.bench["end_to_end"]))

    def test_every_workload_is_configured(self):
        workloads = load(os.path.join(BENCH_DIR, "workloads.json"))
        self.assertEqual(set(workloads), {w["name"] for w in self.bench["workloads"]})
        for name, spec in workloads.items():
            # Offered rates are absolute numbers, never derived from a
            # measured capacity.
            self.assertIsInstance(spec["offered_rps"], (int, float), name)
            self.assertGreater(spec["offered_rps"], 0, name)


class HarnessBinaries(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.build_dir = run.build()

    def test_cpp_selftests(self):
        proc = subprocess.run([os.path.join(self.build_dir, "crbench_selftest")],
                              capture_output=True, text=True, timeout=120)
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def tiny_run(self, *extra):
        argv = [os.path.join(self.build_dir, "crbench"), "--workload", "selftest",
                "--graph", "grid:8:8", "--offered-rps", "5000", "--seconds", "4",
                "--seed", "3", "--trace", "0", "--reload-every", "1000",
                "--out-dir", os.path.join(run.OUT_DIR, "selftest")] + list(extra)
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
        return proc.returncode, json.loads(proc.stdout.splitlines()[-1])

    def test_gate_passes_and_stays_within_thread_budget(self):
        code, doc = self.tiny_run()
        self.assertEqual(code, 0, doc["errors"])
        self.assertTrue(doc["correct"])
        self.assertEqual(doc["failed"], 0)
        prov = doc["provenance"]
        self.assertLessEqual(prov["thread_budget_used"], max(prov["nproc"], 3))
        if prov["nproc"] >= 3:
            self.assertLessEqual(prov["threads_seen"], prov["nproc"])
        for digest in doc["digests"].values():
            self.assertRegex(digest, r"^0x[0-9a-f]{16}$")

    def test_mismatched_digest_fails_the_run(self):
        code, doc = self.tiny_run("--inject", "digest")
        self.assertEqual(code, 1)
        self.assertFalse(doc["correct"])
        self.assertGreater(doc["failed"], 0)
        self.assertTrue(any("digest mismatch" in e for e in doc["errors"]), doc["errors"])
        self.assertLess(doc["metrics"]["delivered_frac"], 1.0)


if __name__ == "__main__":
    unittest.main()
