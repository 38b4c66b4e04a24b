"""What `import flagbetti.cli` loads, what the tests and demos import, the
options the CLI no longer has, and that every name a module exports
resolves."""

import ast
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

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


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


def test_tests_and_demos_import_only_stdlib_click_pytest():
    # parsed, not imported, so a module missing from the machine still shows
    allowed = {"pytest", "click", "flagbetti", "oracles", "conftest"}
    outside = []
    for path in sorted([*(ROOT / "tests").glob("*.py"), *(ROOT / "demos").glob("*.py")]):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                if top not in sys.stdlib_module_names and top not in allowed:
                    outside.append(f"{path.name}: {top}")
    assert outside == []


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
