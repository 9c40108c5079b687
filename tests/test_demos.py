"""Smoke test: every script in demos/ and the README's library quick start
run to completion.

Each demo runs as its own process in a fresh directory, since
04_synthetic_benchmark.py writes ./demo_output. This guards the public
names the demos and the README import, and that the fitting demo's gradient
fit reports a certified convergence.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def test_all_four_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("script", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(script, tmp_path):
    result = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=_env(),
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    if script.stem == "02_fitting_and_calibration":
        # The gradient fit must certify its optimum, not merely stop.
        fit_line = next(line for line in result.stdout.splitlines()
                        if line.startswith("gradient descent"))
        assert "converged=True" in fit_line, fit_line


def test_readme_quick_start_runs(tmp_path):
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.M | re.S)
    assert len(blocks) == 1, "expected one python block in README.md"
    result = subprocess.run([sys.executable, "-c", blocks[0]], cwd=tmp_path, env=_env(),
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
