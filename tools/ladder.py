"""The size ladder: time each layer of acmdp on models from 160 to 106,496 states.

    python3 tools/ladder.py                          # to BENCH_baseline.json
    python3 tools/ladder.py --out BENCH_new.json

The models are random 2x2, 2x3, 3x3 and 3x4 scenarios (users x resources)
under the once and all request behaviours, each seeded and with rates
(calm_to_alert, alert_to_alert) = (0.1, 1.0), and the paper's table2_once.
Each model runs in a fresh process of this script (--model), so that no
model's caches, heap or peak memory carry into the next.  There it times the
compile (compile_system), a solve by each solver (solve_system, which also
prices the values; lp_bases counts the LP's bases), a 101-point run_sweep by
each solver, and one policy_evaluate of the optimal policy and one
decision_values call alone.
Then the table layers of the lp solution: verify_solution, export_values to
a file, import_values of that file against the scenario, and a batch of
LOOKUPS seeded LoadedValues.lookup queries.  A model's table_mib is the
memory one more, untimed import_values retains once it returns, traced by
tracemalloc after peak_rss_mb is read, so that tracing cannot raise the peak.

Each layer is called until it has run for SECONDS, and at least CALLS times,
and is reported as CPU and wall milliseconds: its first call, which builds the
per-shape caches, and the median of the calls after it.  A model's peak_rss_mb
is its process's high-water resident set (VmHWM; ru_maxrss where /proc is
missing).  BLAS runs on one thread, as in bench/run.py.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from acmdp import (  # noqa: E402
    RequestBehavior,
    RewardVariant,
    Scenario,
    SweepSpec,
    builtin_scenario,
    compile_system,
    decision_values,
    export_values,
    import_values,
    policy_evaluate,
    run_sweep,
    verify_solution,
)
from acmdp.policy import solve_system  # noqa: E402

SHAPES = ((2, 2), (2, 3), (3, 3), (3, 4))
MODELS = [f"{u}x{r}-{b}" for u, r in SHAPES for b in ("once", "all")] + ["table2_once"]
RATES = (0.1, 1.0)
SEED = 1
SECONDS = 1.0  # least time each layer is called for
CALLS = 3  # least calls of each layer: the first is reported apart from the median
LOOKUPS = 1000  # queries of one lookup call


def scenario(name: str) -> Scenario:
    """A model by name: a builtin, or the seeded random <users>x<resources>-<behavior>."""
    if name == "table2_once":
        return builtin_scenario(name)
    shape, behavior = name.split("-")
    users, resources = map(int, shape.split("x"))
    rng = np.random.default_rng(SEED)
    return Scenario(
        user_names=tuple(f"u{i}" for i in range(users)),
        resource_names=tuple(f"r{i}" for i in range(resources)),
        reward_access=[float(x) / 10 for x in rng.integers(-100, 200, users * resources)],
        reward_resource=[float(x) / 10 for x in rng.integers(-300, 0, resources)],
        calm_to_alert=RATES[0],
        alert_to_alert=RATES[1],
        behavior=RequestBehavior(behavior),
        variant=RewardVariant.EPS_ZERO,
        beta=0.9,
    )


def timed(fn) -> dict:
    """fn's first call and the median of those after it, in CPU and wall ms."""
    cpu, wall = [], []
    began = time.perf_counter()
    while len(cpu) < CALLS or time.perf_counter() - began < SECONDS:
        c, w = time.process_time(), time.perf_counter()
        fn()
        cpu.append(1e3 * (time.process_time() - c))
        wall.append(1e3 * (time.perf_counter() - w))
    return {
        "calls": len(cpu),
        "first_cpu_ms": cpu[0],
        "first_wall_ms": wall[0],
        "cpu_ms": statistics.median(cpu[1:]),
        "wall_ms": statistics.median(wall[1:]),
    }


def peak_rss_mb() -> float:
    """This process's high-water resident set, in MiB."""
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(name: str) -> dict:
    """Every layer of one model, in this process."""
    sc = scenario(name)
    layers = {"compile": timed(lambda: compile_system(sc))}
    system = compile_system(sc)
    for solver in ("lp", "vi"):
        layers[f"solve_{solver}"] = timed(lambda: solve_system(system, solver))
    spec = SweepSpec(sc)
    for solver in ("lp", "vi"):
        layers[f"sweep_{solver}"] = timed(lambda: run_sweep(spec, solver))
    solution = solve_system(system, "lp")
    allow = solution.policy.actions.astype(bool)
    layers["policy_evaluate"] = timed(lambda: policy_evaluate(system, allow))
    values = solution.values
    layers["decision_values"] = timed(lambda: decision_values(system, values))
    layers["verify"] = timed(lambda: verify_solution(values, solution.dv))
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "values.txt"
        layers["export"] = timed(lambda: export_values(solution, path))
        layers["import"] = timed(lambda: import_values(path, scenario=sc))
        table = import_values(path, scenario=sc)
        picks = np.random.default_rng(SEED).integers(len(table.rows), size=LOOKUPS)
        queries = [table.rows[i][:4] for i in picks]
        layers["lookup"] = timed(lambda: [table.lookup(*query) for query in queries])
        peak = peak_rss_mb()
        # table is still held: freed, it would fill the interpreter's free lists,
        # and tracemalloc does not see an object taken from them
        tracemalloc.start()
        held = import_values(path, scenario=sc)
        table_mib = tracemalloc.get_traced_memory()[0] / 2**20
        tracemalloc.stop()
        del held, table
    return {
        "users": sc.dims.num_users,
        "resources": sc.dims.num_resources,
        "behavior": sc.behavior.value,
        "states": sc.dims.num_states,
        "grid_points": len(spec.grid()),
        "lp_bases": solution.iterations,
        "layers": layers,
        "peak_rss_mb": peak,
        "table_mib": table_mib,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_baseline.json")
    parser.add_argument("--model", choices=MODELS, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.model:  # the child: one model, as JSON on stdout
        print(json.dumps(measure(args.model)))
        return 0
    results = {}
    for name in MODELS:
        began = time.perf_counter()
        child = [sys.executable, __file__, "--model", name]
        out = subprocess.run(child, check=True, capture_output=True, text=True).stdout
        results[name] = json.loads(out)
        results[name]["process_s"] = time.perf_counter() - began
        print(f"{name}: {results[name]['states']} states, {results[name]['process_s']:.1f} s")
    report = {
        "command": " ".join(["python3", "tools/ladder.py", *sys.argv[1:]]),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
        "models": results,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
