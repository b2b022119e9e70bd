#!/usr/bin/env python3
"""Prove the benchmark's output checks bite.

    python3 blapbench/selftest.py

Run from the repository root. Each workload first runs clean at its default
seed and must report correct=true with failed=0. Then each perturbation
corrupts one output on purpose — a flipped byte in an aggregate, a changed
per-operation count, a truncated capture in the fleet — and the run must
report correct=false with a non-zero failed count. Exits non-zero on any
check that does not bite.
"""

import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
DEFAULT_SEEDS = {"table2_sweep": 10000, "fuzz_stack": 1, "fleet_scan": 1, "lossy_attack": 77000}
PERTURBATIONS = [
    ("table2_sweep", "flip-byte"),
    ("table2_sweep", "op-count"),
    ("lossy_attack", "op-count"),
    ("fuzz_stack", "flip-byte"),
    ("fleet_scan", "truncate-capture"),
    ("fleet_scan", "flip-byte"),
]


def run(workload, perturb=None):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed",
           str(DEFAULT_SEEDS[workload]), "--seconds", "1", "--trace", "0"]
    if perturb:
        cmd += ["--perturb", perturb]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                         check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    bad = []
    for workload in DEFAULT_SEEDS:
        r = run(workload)
        ok = r["correct"] and r["failed"] == 0
        print(f"{'ok ' if ok else 'BAD'} {workload:14s} clean: correct={r['correct']} "
              f"failed={r['failed']}/{r['attempted']}")
        if not ok:
            bad.append(f"{workload} clean")
    for workload, perturb in PERTURBATIONS:
        r = run(workload, perturb)
        ok = not r["correct"] and r["failed"] > 0
        print(f"{'ok ' if ok else 'BAD'} {workload:14s} {perturb}: correct={r['correct']} "
              f"failed={r['failed']}/{r['attempted']}")
        if not ok:
            bad.append(f"{workload} {perturb}")
    if bad:
        print("checks that did not hold: " + ", ".join(bad))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
