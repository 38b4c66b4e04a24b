"""What `import flagbetti.cli` loads, the options the CLI no longer has, and
that every name a module exports resolves."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import flagbetti
from flagbetti.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"


def test_cli_import_loads_no_numpy_or_process_pool():
    probe = (
        "import json, sys, flagbetti.cli; "
        "print(json.dumps(sorted({m.split('.')[0] for m in sys.modules})))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    loaded = set(json.loads(out))
    assert "flagbetti" in loaded
    assert not loaded & {"numpy", "concurrent", "multiprocessing"}


def test_beta_workers_is_a_usage_error():
    res = CliRunner().invoke(main, ["beta", "--graph6", "Bw", "--workers", "2"])
    assert res.exit_code == 2
    assert "No such option" in res.stderr


def test_hochster_cap_is_a_usage_error():
    res = CliRunner().invoke(main, ["--hochster-cap", "16", "beta", "--graph6", "Bw"])
    assert res.exit_code == 2
    assert "No such option" in res.stderr


@pytest.mark.parametrize(
    "module", [info.name for info in pkgutil.iter_modules(flagbetti.__path__)]
)
def test_every_public_name_resolves(module):
    # a name left in __all__ after its function is deleted breaks `import *`
    mod = importlib.import_module(f"flagbetti.{module}")
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []
