"""Smoke test: every script in demos/ runs to completion.

Each demo runs as its own process in a fresh directory, since
04_synthetic_benchmark.py writes ./demo_output. This guards the public
names the demos import, and that the fitting demo's gradient fit reports
a certified convergence.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_four_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("script", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    result = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    if script.stem == "02_fitting_and_calibration":
        # The gradient fit must certify its optimum, not merely stop.
        fit_line = next(line for line in result.stdout.splitlines()
                        if line.startswith("gradient descent"))
        assert "converged=True" in fit_line, fit_line
