#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 blapbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
`blapbench` binary (RelWithDebInfo) from this checkout's sources into
$CARGO_TARGET_DIR (default .bench_build); later runs only re-check the
build. The binary's last stdout line is the result JSON; build output and
the human-readable report go to stderr. Exits non-zero when the build or
the run fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("table2_sweep", "fuzz_stack", "fleet_scan", "lossy_attack")
RUN_TIMEOUT_S = 170


def build(src_dir, build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        subprocess.run(["cmake", "-S", src_dir, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target", "blapbench", "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "blapbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", default="0", choices=("0", "1"))
    ap.add_argument("--perturb", choices=("flip-byte", "op-count", "truncate-capture"),
                    help="corrupt an output on purpose (selftest.py)")
    args = ap.parse_args()

    src_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(src_dir)
    target = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(src_dir, os.path.join(target, "blapbench"))
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    workdir = os.path.join(target, f"work-{args.workload}-{os.getpid()}")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace, "--workdir", workdir]
    if args.perturb:
        cmd += ["--perturb", args.perturb]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {args.workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        # Keep the traced run's span dump; the rest (fleet files) is scratch.
        if os.path.isdir(workdir):
            for name in os.listdir(workdir):
                if name.startswith("spans-"):
                    os.replace(os.path.join(workdir, name), os.path.join(target, name))
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        print(f"run.py: blapbench exited {proc.returncode} without a result", file=sys.stderr)
        return proc.returncode or 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
