"""The benchmark tracer still times the solvers that sweeps and solves run.

The tracer rebinds each traced function in the modules that hold it, so a
solver that a sweep or a solve looked up anywhere else would run untimed.
install() rebinds module globals for the rest of the process, so the traced
run is made in a subprocess, which prints its spans.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import importlib.util, json, sys
import acmdp
from acmdp import experiments, policy
spec = importlib.util.spec_from_file_location("bench_tracer", sys.argv[1])
tracer_module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer_module)
tracer = tracer_module.Tracer()
tracer.install()
experiments.run_sweep(
    experiments.SweepSpec(acmdp.builtin_scenario("table2_unique"), step=0.25), "vi"
)
policy.solve_scenario(acmdp.builtin_scenario("table1"), "vi")
print(json.dumps(tracer.spans))
"""


def ancestors(spans, index):
    """The names of the spans that enclose span index, innermost first."""
    names = []
    parent = spans[index][3]
    while parent >= 0:
        names.append(spans[parent][0])
        parent = spans[parent][3]
    return names


def test_vi_spans_sit_under_the_sweep_and_the_solve():
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "bench" / "tracer.py")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        check=False,
    )
    assert done.returncode == 0, done.stderr
    spans = json.loads(done.stdout)
    vi = [i for i, span in enumerate(spans) if span[0] == "vi"]
    assert any("sweep" in ancestors(spans, i) for i in vi)
    assert any("solve" in ancestors(spans, i) for i in vi)
    # the sweep's grid solve and each of its bisection batches is a vi span
    assert sum("sweep" in ancestors(spans, i) for i in vi) > 1
