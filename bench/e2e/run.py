#!/usr/bin/env python3
"""Builds fedbench and runs one benchmark workload.

    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; paths are resolved from this file. The first call
configures and builds bench/e2e into build/bench-e2e (later calls are
incremental no-ops). fedbench's metric lines are passed through, and the last
line printed is one JSON object with the keys correct, attempted, failed and
metrics: the end_to_end metrics of BENCHMARK.json with --trace 0, its
per_layer metrics with --trace 1. A trace run also writes
build/bench-e2e/<workload>.trace.json (Chrome trace-event format).

Exit status: 0 when every correctness check passed, 1 when one failed (the
JSON says correct=false), 2 when the build or the run broke (no JSON).
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / "build" / "bench-e2e"
RUN_TIMEOUT_S = 170


def die(message):
    print(message, file=sys.stderr)
    sys.exit(2)


def build():
    BUILD.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(BUILD / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in (["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"],
                    ["cmake", "--build", str(BUILD), "-j", jobs]):
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                die("building fedbench failed")


def parse_lines(text, workload):
    """Metric lines: '<workload> <name> <value> <unit> [n=<samples>]'."""
    metrics = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) >= 4 and parts[0] == workload:
            metrics[parts[1]] = (float(parts[2]), parts[3])
    return metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        die(f"unknown workload {args.workload}")
    build()

    cmd = [str(BUILD / "fedbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--state-dir", str(BUILD / "state")]
    if args.trace:
        cmd += ["--trace-out", str(BUILD / f"{args.workload}.trace.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"fedbench ran longer than {RUN_TIMEOUT_S} s")
    sys.stdout.write(proc.stdout)
    if proc.returncode not in (0, 1):
        die(f"fedbench exited with status {proc.returncode}")

    measured = parse_lines(proc.stdout, args.workload)
    correct = proc.returncode == 0
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        got = measured.get(m["name"])
        if got is None or got[1] != m["unit"]:
            print(f"missing metric {m['name']} [{m['unit']}]", file=sys.stderr)
            correct = False
            continue
        metrics[m["name"]] = {"value": got[0], "unit": m["unit"]}
    attempted = int(measured.get("rounds_attempted", (0, ""))[0])
    failed = int(measured.get("rounds_failed", (0, ""))[0])
    print(json.dumps({"correct": correct and attempted > 0,
                      "attempted": max(attempted, 1), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
