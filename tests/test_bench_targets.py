"""Every function the benchmark tracer wraps still exists in flagbetti."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "benchmarks" / "tracer.py"

# loaded from its file, not imported as a package, so sys.path stays as it is
_spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


def _resolve(target):
    mod, _, path = target.partition(".")
    owner = importlib.import_module(f"{tracer.PACKAGE}.{mod}")
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


@pytest.mark.parametrize("target", [target for target, _ in tracer.TARGETS])
def test_target_resolves(target):
    assert callable(_resolve(target))


@pytest.mark.parametrize("target, index", sorted(tracer.FIELD_KEYED.items()))
def test_field_keyed_parameter_is_field(target, index):
    # the tracer reads the field from args[index] or kwargs["field"]; a moved
    # or renamed parameter would mislabel the per-field spans without failing
    params = list(inspect.signature(_resolve(target)).parameters)
    assert params[index] == "field", params
