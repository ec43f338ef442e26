#!/usr/bin/env python3
"""Run one workload of the repo benchmark.

    python3 qt8bench/run.py --workload decode-solo --seed 1 --seconds 10 --trace 0

Builds the qt8 libraries and the qt8bench program from source on first use
(CMake, into $CARGO_TARGET_DIR or .bench_build), runs the workload with the
kernel-thread pin from qt8bench/config.json, relays the program's report,
and prints as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding every end-to-end metric of BENCHMARK.json (--trace 0) or every
per-layer metric (--trace 1; a layer the workload does not run reports 0).
Exits non-zero when the build fails, a check fails, or a declared metric
is missing.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "qt8bench")


def build(bdir):
    """Configure (once) and build; returns the program path or None."""
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(bdir, ignore_errors=True)
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", bdir, "--target", "qt8bench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        return None
    return os.path.join(bdir, "qt8bench")


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return bench["end_to_end"], bench["per_layer"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject", default="",
                    help="test hook: mismatch | nonfinite | validity")
    args = ap.parse_args()

    end_to_end, per_layer = declared()
    bdir = build_dir()
    exe = build(bdir)
    if exe is None:
        log("run.py: build failed")
        return 1

    config = os.path.join(HERE, "config.json")
    with open(config) as f:
        threads = json.load(f)["threads"]["QT8_THREADS"]
    env = dict(os.environ, QT8_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
    env.pop("QT8_TRACE", None)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--config", config, "--work-dir", os.path.join(bdir, "work")]
    if args.inject:
        cmd += ["--inject", args.inject]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run.py: workload timed out")
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        log("run.py: qt8bench exited %d without a result" % proc.returncode)
        return 1

    want = per_layer if args.trace else end_to_end
    got = result["metrics"]
    metrics = {}
    for m in want:
        if m["name"] in got:
            metrics[m["name"]] = {"value": got[m["name"]]["value"],
                                  "unit": m["unit"]}
        elif args.trace:
            metrics[m["name"]] = {"value": 0.0, "unit": m["unit"]}
        else:
            log("run.py: workload printed no %s" % m["name"])
            return 1
    bad = [n for n in got if not NAME_RE.match(n)]
    if bad:
        log("run.py: metric names outside the charset: %s" % bad)
        return 1
    undeclared = sorted(set(got) - {m["name"] for m in want})
    if undeclared:
        print("undeclared metrics (report only): %s" % " ".join(undeclared))
    print(json.dumps({"correct": bool(result["correct"]) and proc.returncode == 0,
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    return 0 if proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
