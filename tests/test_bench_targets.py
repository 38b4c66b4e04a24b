"""Every function the benchmark tracer wraps still exists in flagbetti."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "benchmarks" / "tracer.py"

# loaded from its file, not imported as a package, so sys.path stays as it is
_spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


@pytest.mark.parametrize("target", [target for target, _ in tracer.TARGETS])
def test_target_resolves(target):
    mod, _, path = target.partition(".")
    owner = importlib.import_module(f"{tracer.PACKAGE}.{mod}")
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)

