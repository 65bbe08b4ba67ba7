"""The benchmark tracer's targets must exist in the program.

bench/tracer.py skips a target it cannot find, so a renamed function would
silently read 0 in a traced run; this test turns that into a failure.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("target", load_tracer().TARGETS, ids=lambda t: f"{t[0]}.{t[1]}")
def test_target_resolves(target):
    module, path, _, _ = target
    owner = importlib.import_module(module)
    for attr in path.split("."):
        assert hasattr(owner, attr), f"{module} has no {path}"
        owner = getattr(owner, attr)
    assert callable(owner)
