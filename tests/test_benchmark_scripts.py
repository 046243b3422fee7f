"""The scripts under benchmarks/ run to completion at their smallest sizes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["benchmarks/bench_kernels.py", "--repeat", "1"],
        ["benchmarks/scan_gradcheck.py", "1", "--ops", "1"],
    ],
)
def test_benchmark_script_exits_zero(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
