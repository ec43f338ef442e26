#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 qt8bench/test_bench.py

Checks that schedules are a pure function of the seed, that every metric
name qt8bench prints is declared in BENCHMARK.json and inside the
metric charset, that a minimal-length run of every workload passes all of
its checks, and that a wrong token, a non-finite loss or a workload that
misses its validity check fails the run. Builds qt8bench first (see
run.py); takes about three minutes.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
METRIC_LINE = re.compile(r"^(e2e|report|layer)\s+(\S+)\s")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
E2E = {m["name"] for m in BENCH["end_to_end"]}
LAYER = {m["name"] for m in BENCH["per_layer"]}


def run_bench(workload, seed=3, seconds=1, trace=0, inject=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if inject:
        cmd += ["--inject", inject]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.rstrip("\n").split("\n")
    return proc.returncode, lines[:-1], json.loads(lines[-1])


def fingerprint(workload, seed, seconds=10):
    exe = run.build(run.build_dir())
    out = subprocess.run(
        [exe, "--fingerprint", workload, "--seed", str(seed), "--seconds",
         str(seconds), "--config", os.path.join(HERE, "config.json")],
        stdout=subprocess.PIPE, text=True, check=True).stdout
    return out.strip()


class Schedule(unittest.TestCase):
    def test_same_seed_same_schedule_other_seed_differs(self):
        for w in WORKLOADS:
            a, b, c = fingerprint(w, 11), fingerprint(w, 11), fingerprint(w, 12)
            self.assertEqual(a, b, w)
            self.assertNotEqual(a, c, w)


class Declaration(unittest.TestCase):
    def test_benchmark_json_names(self):
        names = ([w["name"] for w in BENCH["workloads"]] +
                 [m["name"] for m in BENCH["end_to_end"]] +
                 [m["name"] for m in BENCH["per_layer"]])
        for n in names:
            self.assertRegex(n, NAME_RE)
        self.assertEqual(len(names), len(set(names)))
        self.assertIn("setup_s", E2E)


class MinimalRuns(unittest.TestCase):
    def check_names(self, report, e2e_seen, layer_seen):
        for line in report:
            m = METRIC_LINE.match(line)
            if not m:
                continue
            kind, name = m.groups()
            self.assertRegex(name, NAME_RE)
            if kind == "e2e":
                self.assertIn(name, E2E)
                e2e_seen.add(name)
            elif kind == "layer" and not name.startswith("span."):
                self.assertIn(name, LAYER)
                layer_seen.add(name)
            elif kind == "layer" and name in LAYER:
                layer_seen.add(name)

    def test_every_workload_passes_and_names_match(self):
        layer_seen = set()
        for w in WORKLOADS:
            for trace in (0, 1):
                rc, report, result = run_bench(w, trace=trace)
                self.assertEqual(rc, 0, "\n".join(report))
                self.assertTrue(result["correct"], w)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                want = LAYER if trace else E2E
                self.assertEqual(set(result["metrics"]), want)
                e2e_seen = set()
                self.check_names(report, e2e_seen, layer_seen)
                if not trace:
                    self.assertEqual(e2e_seen, E2E, w)
                    for v in result["metrics"].values():
                        self.assertGreater(v["value"], 0.0)
        # Every declared layer metric is produced by some workload.
        self.assertEqual(LAYER - layer_seen, set())


class FailingChecks(unittest.TestCase):
    def assert_fails(self, workload, inject):
        rc, report, result = run_bench(workload, inject=inject)
        self.assertNotEqual(rc, 0)
        self.assertFalse(result["correct"])
        self.assertTrue(any(l.startswith("FAILED") for l in report))

    def test_token_mismatch_fails(self):
        self.assert_fails("decode-solo", "mismatch")

    def test_nonfinite_loss_fails(self):
        self.assert_fails("lora-finetune", "nonfinite")

    def test_validity_miss_fails(self):
        self.assert_fails("decode-batch", "validity")
        self.assert_fails("chat-sessions", "validity")


if __name__ == "__main__":
    unittest.main(verbosity=2)
