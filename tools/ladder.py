"""The size ladder: time each layer of acmdp on models from 160 to 106,496 states.

    python3 tools/ladder.py                          # to BENCH_baseline.json
    python3 tools/ladder.py --out BENCH_new.json
    python3 tools/ladder.py --against ../parent --out BENCH_against.json

The models are random 2x2, 2x3, 3x3 and 3x4 scenarios (users x resources)
under the once and all request behaviours, each seeded and with rates
(calm_to_alert, alert_to_alert) = (0.1, 1.0), and the paper's table2_once.
Each model runs in a fresh process of this script (--model), so that no
model's caches, heap or peak memory carry into the next.  There it times the
compile (compile_system), a solve by each solver (solve_system, which also
prices the values; lp_bases counts the LP's bases and vi_sweeps value
iteration's sweeps), a 101-point run_sweep by
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

One full run measures the machine's state as much as the code, so only a
comparison made in one session supports a claim.  --against DIR runs each
model's processes in ROUNDS rounds, each a process importing DIR's src and
one importing this tree's, in alternating order; both run this script's
measure, each layer for AGAINST_SECONDS.  Each layer is reported by both
sides' medians and interquartile ranges of CPU ms over the rounds, and the
rounds whose change process read it faster, and each model by both sides'
lp_bases and vi_sweeps.  The two trees' paths must have
the same length: the length of the checkout's path has moved a benchmark's
timings.
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
# run_model names, in the environment, the src a --model process imports
# the package from (LADDER_SRC) and each layer's least time (LADDER_SECONDS)
sys.path.insert(0, os.environ.get("LADDER_SRC", str(ROOT / "src")))

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
ROUNDS = 5  # rounds of --against
AGAINST_SECONDS = 0.3  # least time each layer is called for in a round of --against
COUNTS = ("lp_bases", "vi_sweeps")  # what a solve counts, the same in every round


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


def timed(fn, seconds: float) -> dict:
    """fn's first call and the median of those after it, in CPU and wall ms."""
    cpu, wall = [], []
    began = time.perf_counter()
    while len(cpu) < CALLS or time.perf_counter() - began < seconds:
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


def measure(name: str, seconds: float) -> dict:
    """Every layer of one model, in this process, each called for at least seconds."""
    sc = scenario(name)
    layers = {"compile": timed(lambda: compile_system(sc), seconds)}
    system = compile_system(sc)
    for solver in ("lp", "vi"):
        layers[f"solve_{solver}"] = timed(lambda: solve_system(system, solver), seconds)
    spec = SweepSpec(sc)
    for solver in ("lp", "vi"):
        layers[f"sweep_{solver}"] = timed(lambda: run_sweep(spec, solver), seconds)
    solution = solve_system(system, "lp")
    vi_sweeps = solve_system(system, "vi").iterations
    allow = solution.policy.actions.astype(bool)
    layers["policy_evaluate"] = timed(lambda: policy_evaluate(system, allow), seconds)
    values = solution.values
    layers["decision_values"] = timed(lambda: decision_values(system, values), seconds)
    layers["verify"] = timed(lambda: verify_solution(values, solution.dv), seconds)
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "values.txt"
        layers["export"] = timed(lambda: export_values(solution, path), seconds)
        layers["import"] = timed(lambda: import_values(path, scenario=sc), seconds)
        table = import_values(path, scenario=sc)
        picks = np.random.default_rng(SEED).integers(len(table.rows), size=LOOKUPS)
        queries = [table.rows[i][:4] for i in picks]
        layers["lookup"] = timed(lambda: [table.lookup(*query) for query in queries], seconds)
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
        "vi_sweeps": vi_sweeps,
        "layers": layers,
        "peak_rss_mb": peak,
        "table_mib": table_mib,
    }


def run_model(name: str, src: Path, seconds: float) -> dict:
    """measure(name, seconds) in a fresh process that imports the package from src."""
    command = [sys.executable, __file__, "--model", name]
    env = {**os.environ, "LADDER_SRC": str(src), "LADDER_SECONDS": str(seconds)}
    began = time.perf_counter()
    out = subprocess.run(command, check=True, capture_output=True, text=True, env=env).stdout
    result = json.loads(out)
    result["process_s"] = time.perf_counter() - began
    return result


def quartiles(samples: list[float]) -> tuple[float, float, float]:
    """The first quartile, median and third quartile of two or more samples."""
    low, median, high = statistics.quantiles(samples, n=4, method="inclusive")
    return low, median, high


def compare(against: Path, models: list[str], rounds: int, seconds: float) -> dict:
    """Each layer of each model, by alternating fresh processes of against's src and ROOT's.

    Round r runs the parent first when r is even.  A layer's entry holds
    both sides' quartiles of CPU ms over the rounds and the rounds whose
    change process read it faster; each count, both sides' value.
    """
    trees = {"parent": Path(against).resolve(), "change": ROOT}
    if len(str(trees["parent"])) != len(str(ROOT)):
        raise ValueError(
            f"{trees['parent']} and {ROOT} differ in path length; "
            f"put the two trees in directories whose paths have the same length"
        )
    report = {}
    for name in models:
        runs = {"parent": [], "change": []}
        for r in range(rounds):
            for side in ("parent", "change")[:: 1 if r % 2 == 0 else -1]:
                runs[side].append(run_model(name, trees[side] / "src", seconds))
        layers = {}
        for layer in runs["change"][0]["layers"]:
            ms = {side: [run["layers"][layer]["cpu_ms"] for run in runs[side]] for side in runs}
            layers[layer] = {
                **{side: dict(zip(("q1", "median", "q3"), quartiles(ms[side]))) for side in ms},
                "won": sum(new < old for old, new in zip(ms["parent"], ms["change"])),
            }
        counts = {key: {side: runs[side][0][key] for side in runs} for key in COUNTS}
        report[name] = {
            "rounds": rounds,
            "states": runs["change"][0]["states"],
            **counts,
            "layers": layers,
        }
        print(
            f"{name}: {report[name]['states']} states, "
            + ", ".join(f"{key} {n['parent']} -> {n['change']}" for key, n in counts.items())
        )
        for layer, row in layers.items():
            parent, change = row["parent"], row["change"]
            print(
                f"  {layer:16} {parent['median']:10.4g} [{parent['q1']:.4g}, {parent['q3']:.4g}]"
                f" -> {change['median']:10.4g} [{change['q1']:.4g}, {change['q3']:.4g}] ms,"
                f" won {row['won']}/{rounds}"
            )
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, help="report path (default BENCH_baseline.json)")
    parser.add_argument("--against", type=Path, help="compare with the tree at this path")
    parser.add_argument("--model", choices=MODELS, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.model:  # a run_model process: one model, as JSON on stdout
        print(json.dumps(measure(args.model, float(os.environ.get("LADDER_SECONDS", SECONDS)))))
        return 0
    header = {
        "command": " ".join(["python3", "tools/ladder.py", *sys.argv[1:]]),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
    }
    if args.against:
        try:
            report = {**header, "models": compare(args.against, MODELS, ROUNDS, AGAINST_SECONDS)}
        except ValueError as error:
            parser.error(str(error))
        if args.out:
            args.out.write_text(json.dumps(report, indent=1) + "\n")
            print(f"written to {args.out}")
        return 0
    results = {}
    for name in MODELS:
        results[name] = run_model(name, ROOT / "src", SECONDS)
        print(f"{name}: {results[name]['states']} states, {results[name]['process_s']:.1f} s")
    out = args.out or ROOT / "BENCH_baseline.json"
    out.write_text(json.dumps({**header, "models": results}, indent=1) + "\n")
    print(f"written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
