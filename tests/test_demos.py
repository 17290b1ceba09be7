"""The fast demos run to completion, each in a fresh interpreter.

Only the exit status and that something was printed are checked;
planner_scaling's timings are machine-dependent and not asserted.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

FAST_DEMOS = ["self_time_breakdown", "closed_loop_walkthrough", "budgeted_elimination", "canary_hunt",
              "planner_scaling"]


@pytest.mark.parametrize("demo", FAST_DEMOS)
def test_demo_runs(tmp_path, demo):
    out = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{demo}.py")],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip()
