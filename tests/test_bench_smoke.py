"""The benchmark end to end at its self-check sizes: every workload fits,
predicts and scores, and the benchmark's own correctness checks pass (among
them: a one-onset dynamic prediction equals the Pk baseline, and evaluate
skips exactly the subjects whose dynamic prediction failed)."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["ex3-k7", "cohort", "predict-eval"])
def test_benchmark_tiny_run_is_correct(workload):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", "0", "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, done.stderr
    assert result["failed"] == 0, done.stderr
