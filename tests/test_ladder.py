"""tools/ladder.py still runs: one model's layers, timed in this process.

The script is loaded from its path, as `python3 tools/ladder.py --model` runs
it, with every layer called twice and for no least time, so that the check
is quick; the full ladder is not part of the tests.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

LADDER = Path(__file__).resolve().parent.parent / "tools" / "ladder.py"
LAYERS = (
    "compile",
    "solve_lp",
    "solve_vi",
    "sweep_lp",
    "sweep_vi",
    "policy_evaluate",
    "decision_values",
    "verify",
    "export",
    "import",
    "lookup",
)


@pytest.fixture
def ladder(monkeypatch):
    # the script sets the BLAS thread variables and puts src on sys.path when
    # loaded; both are put back after the test
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("ladder", LADDER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "SECONDS", 0)
    monkeypatch.setattr(module, "CALLS", 2)
    return module


def test_measure_times_every_layer_of_table2_once(ladder):
    result = ladder.measure("table2_once")
    assert result["states"] == 160
    assert result["lp_bases"] == 2
    assert set(result["layers"]) == set(LAYERS)
    for name in LAYERS:
        layer = result["layers"][name]
        assert layer["calls"] == 2
        assert layer["cpu_ms"] > 0, name
    assert result["peak_rss_mb"] > 0
    assert result["table_mib"] > 0
