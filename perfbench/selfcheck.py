#!/usr/bin/env python3
"""Quick self-check of the benchmark: every workload end to end at tiny
sizes, untraced and traced, in well under a minute.

    python3 perfbench/selfcheck.py

Checks that each run exits 0, reports `correct: true`, fails the same share
of operations with and without tracing, and prints exactly the metrics of
BENCHMARK.json with their units; and that a copy of the benchmark without
the program's sources exits non-zero without printing a result.  Exits 1
on the first problem.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        shares = set()
        for trace in (0, 1):
            done = run(ROOT, workload, trace)
            label = f"{workload} trace={trace}"
            if done.returncode != 0:
                problems.append(f"{label}: exit {done.returncode}\n{done.stderr}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: keys {sorted(result)}")
            if result["correct"] is not True:
                problems.append(f"{label}: correct is false\n{done.stderr}")
            if units != expected[trace]:
                problems.append(f"{label}: metrics {units} != {expected[trace]}")
            if not result["attempted"] >= 1:
                problems.append(f"{label}: nothing attempted")
            shares.add(result["failed"] / result["attempted"])
            print(f"ok  {label}: {result['attempted']} attempted, {result['failed']} failed")
        if len(shares) > 1:
            problems.append(f"{workload}: failed shares differ {shares}")

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = run(bare, "cohort", 0)
    if done.returncode == 0 or done.stdout.strip():
        problems.append("run without the program's sources did not fail cleanly")
    else:
        print(f"ok  without sources: exit {done.returncode}, no result")
    shutil.rmtree(bare)

    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
