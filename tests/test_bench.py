"""Smoke test of the benchmark harness: a short traced run of each gated
workload must pass its checks and reach every layer it requires, so a
renamed or bypassed traced function fails here."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["exhaustive-u8", "experiment-u6", "select-u12"])
def test_traced_run_reaches_every_layer(workload):
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", "1"]
    # a RuntimeWarning (a log of 0, an overflow) fails the run, as in CI
    env = dict(os.environ, PYTHONWARNINGS="error::RuntimeWarning")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    info, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    assert info["unreached_layers"] == []
    assert result["correct"] and result["failed"] == 0
