"""Smoke test: the demos run to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", [
    "01_betti_basics.py",
    "02_constants_and_bounds.py",
    "03_extremal_search.py",
    "04_hochster_and_duality.py",
])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    res = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)], env=env, capture_output=True, text=True
    )
    assert res.returncode == 0, res.stderr
