"""What `import flagbetti.cli` loads, and the options the CLI no longer has."""

import json
import os
import subprocess
import sys
from pathlib import Path

from click.testing import CliRunner

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
