#!/usr/bin/env python3
"""Builds the benchmark binary from source and runs one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload q1_fire --seed 1 --seconds 10 --trace 0

Configures and builds perfbench/ (which compiles the library in ../src)
into .bench_build/perfbench, then runs the binary. Build output goes to
stderr; the binary's standard output is passed through unchanged, so the
last line of standard output is the result object. Any failure to find
the sources, build, or run exits non-zero without printing a result.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
# The measured run must finish well inside the 180 s a run is allowed.
RUN_TIMEOUT_S = 170
BUILD_JOBS = "3"


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "query", "planner.h")):
        log("library sources (src/) not found next to perfbench/; "
            "run from the root of a full checkout")
        return False
    os.makedirs(BUILD_DIR, exist_ok=True)
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "-j", BUILD_JOBS],
    ]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            log(f"build step failed ({proc.returncode}): {' '.join(cmd)}")
            return False
    return os.path.isfile(BINARY)


def stop(signum, _frame):
    # Unwinds through the finally blocks below, which stop the child.
    raise SystemExit(128 + signum)


def main():
    signal.signal(signal.SIGTERM, stop)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for checking the benchmark itself")
    args = parser.parse_args()

    if not build():
        return 2

    span_dir = os.path.join(BUILD_DIR, "spans")
    os.makedirs(span_dir, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--span-out",
           os.path.join(span_dir, f"{args.workload}-seed{args.seed}.jsonl")]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s; killed")
        return 3
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        log(f"benchmark exited with {code}")
    return code


if __name__ == "__main__":
    sys.exit(main())
