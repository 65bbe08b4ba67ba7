"""The benchmark tracer's targets must exist in the program.

bench/tracer.py skips a target it cannot find, so a renamed function would
silently read 0 in a traced run; this test turns that into a failure.

RETIRED lists the targets of code the program has removed on purpose (the
dense LP simplex) that the tracer still names.  Each must still be listed
and must no longer resolve, so the list cannot hide a rename; drop an entry
once the tracer drops its target.
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


RETIRED = {
    ("acmdp.bellman", "build_bellman_lp"),
    ("acmdp.simplex", "simplex_solve"),
}
TARGETS = load_tracer().TARGETS


def resolve(module, path):
    """The traced callable, or None where the module or an attribute is missing."""
    try:
        owner = importlib.import_module(module)
    except ModuleNotFoundError:
        return None
    for attr in path.split("."):
        owner = getattr(owner, attr, None)
    return owner


@pytest.mark.parametrize(
    "target", [t for t in TARGETS if t[:2] not in RETIRED], ids=lambda t: f"{t[0]}.{t[1]}"
)
def test_target_resolves(target):
    module, path, _, _ = target
    assert callable(resolve(module, path)), f"{module} has no {path}"


@pytest.mark.parametrize("retired", sorted(RETIRED), ids=lambda t: f"{t[0]}.{t[1]}")
def test_retired_target_is_listed_but_gone(retired):
    assert retired in {t[:2] for t in TARGETS}
    assert resolve(*retired) is None
