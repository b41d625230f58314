#!/usr/bin/env python3
"""Smoke test of the benchmark itself: every workload, both modes, tiny
inputs (--smoke). Checks that each run exits 0, reports correct results,
and prints exactly the metrics BENCHMARK.json names, each with its unit.

Run from the root of a checkout:  python3 perfbench/smoke_test.py
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = []
    for workload in bench["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            name = f"{workload['name']} --trace {trace}"
            before = len(failures)
            proc = subprocess.run(
                bench["command"] + ["--workload", workload["name"], "--seed",
                                    "1", "--seconds", "1", "--trace",
                                    str(trace), "--smoke"],
                cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                failures.append(f"{name}: exit {proc.returncode}")
                continue
            result = json.loads(lines[-1])
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{name}: result keys {sorted(result)}")
            elif not result["correct"] or result["failed"] != 0:
                failures.append(f"{name}: outputs not correct")
            elif got != want:
                failures.append(f"{name}: metrics differ: "
                                f"{sorted(set(got.items()) ^ set(want.items()))}")
            print(f"{name}: {'ok' if len(failures) == before else 'FAILED'}")
    for f in failures:
        print("FAIL", f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
