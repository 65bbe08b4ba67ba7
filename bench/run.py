"""Benchmark of acmdp: three workloads, end-to-end metrics or a traced run.

    python3 bench/run.py --workload paper_lp --seed 1 --seconds 25 --trace 0

Inputs are generated from --seed before any clock starts.  The run's
operations are split over a few worker processes started one after
another (bench/worker.py), each a single client thread that waits for
every operation before starting the next; pooling them evens out the
process-to-process spread of CPU-bound Python.  The number of operations
is fixed by --seconds and the workload's nominal cost, so every run with
the same --seconds executes the same multiset of operations.  Times are
CPU time of the worker process, with BLAS pinned to one thread.

--trace 0 reports the end-to-end metrics; --trace 1 runs untraced and
traced workers alternately and reports the per-layer metrics and the
tracing overhead.  The last line of standard output is one JSON object.
--workload all runs the three in turn.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# single-threaded BLAS, so that a worker's CPU time is the time its operations take
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from checks import Model, render  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
DEADLINE_S = 170  # a run of one workload must end within 180 s

BUILTINS = (
    "table1", "table2_unique", "table2_once", "table2_all",
    "modified_unique", "modified_once", "modified_all",
)
BEHAVIORS = ("unique", "once", "all")
TAIL_MIN_SAMPLES = 100  # a 90th percentile needs ten samples beyond it


@dataclasses.dataclass(frozen=True)
class Workload:
    workers: int
    unit_ops: int  # operations in one unit of work
    unit_s: float  # nominal CPU seconds of one unit
    warmup: int  # operations each worker runs untimed before its first timed one
    pass_every: int  # operations between two rounds of calibration passes (see worker.py)


WORKLOADS = {  # units: the seven builtins, the three behaviours, 4000 queries
    "paper_lp": Workload(workers=3, unit_ops=7, unit_s=0.85, warmup=7, pass_every=7),
    "crossover_sweep": Workload(workers=3, unit_ops=3, unit_s=5.0, warmup=0, pass_every=1),
    "pdp_lookup": Workload(workers=3, unit_ops=4000, unit_s=1.2, warmup=1000, pass_every=4000),
}
END_TO_END_UNITS = {
    "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "compile.ms": "ms", "compile.calls": "count", "compile.nnz": "count",
    "build_lp.ms": "ms", "build_lp.lhs_mb": "MB",
    "simplex.ms": "ms", "simplex.pivots": "count", "simplex.tableau_mb": "MB",
    "vi.ms": "ms", "vi.sweeps": "count", "verify.ms": "ms", "policy.ms": "ms",
    "solve.ms": "ms", "sweep.solves": "count", "sweep.ms": "ms", "parse.ms": "ms",
    "export.ms": "ms", "export.bytes": "bytes", "import.ms": "ms", "import.rows": "count",
    "lookup.us": "us", "trace.overhead_pct": "%",
}


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def seeded_model(rng: random.Random) -> Model:
    """The 3 users x 3 resources scenario: all behaviour, rewards from the seed."""
    return Model(
        users=("ann", "bob", "cyd"),
        resources=("disk", "mail", "vault"),
        access_reward=tuple(tuple(rng.randint(-100, 200) / 10 for _ in range(3)) for _ in range(3)),
        resource_reward=tuple(rng.randint(-300, 0) / 10 for _ in range(3)),
        beta=0.9, behavior="all", variant="eps_zero", calm_to_alert=0.1, alert_to_alert=1.0,
    )


def make_inputs(name: str, seed: int, seconds: int, run_dir: Path, tracer=None) -> dict:
    """Write everything the workers need, made before any timing.

    inputs.json holds what a worker loads at set-up; ops-<worker>.json holds
    the operations it runs, read after its set-up clock stops.  Returns the
    report of the table build for pdp_lookup, else an empty dict.
    """
    spec = WORKLOADS[name]
    rng = random.Random(seed)
    per_worker = max(1, round(seconds / (spec.workers * spec.unit_s)))
    inputs = {"workload": name, "dir": str(run_dir), "warmup": spec.warmup,
              "pass_every": spec.pass_every}
    build = {}
    if name == "paper_lp":
        inputs["builtins"] = BUILTINS
        inputs["ops"] = [
            [b for _ in range(per_worker) for b in rng.sample(BUILTINS, len(BUILTINS))]
            for _ in range(spec.workers)
        ]
    elif name == "crossover_sweep":
        inputs["ops"] = [
            [b for _ in range(per_worker) for b in rng.sample(BEHAVIORS, len(BEHAVIORS))]
            for _ in range(spec.workers)
        ]
    else:
        model = seeded_model(rng)
        inputs["model"] = dataclasses.asdict(model)
        inputs["scenario"] = str(run_dir / "scenario.txt")
        Path(inputs["scenario"]).write_text(render(model))
        paths, build = make_table(inputs, tracer)
        inputs.update(paths)
        inputs["ops"] = [
            [
                (rng.choice(("calm", "alert")), rng.randrange(1 << model.bits),
                 rng.choice(model.users), rng.choice(model.resources))
                for _ in range(per_worker * spec.unit_ops)
            ]
            for _ in range(spec.workers)
        ]
    for worker, ops in enumerate(inputs.pop("ops")):
        (run_dir / f"ops-{worker}.json").write_text(json.dumps(ops))
    (run_dir / "inputs.json").write_text(json.dumps(inputs))
    return build


def make_table(inputs: dict, tracer=None) -> tuple[dict, dict]:
    """Parse, solve (VI) and export the scenario with the program, then check it.

    This is the table the lookups serve.  Returns the paths the workers load
    and a report of the build: its problems and, when traced, its export.
    """
    import numpy as np

    import checks
    import worker

    build = worker.Solve3x3(inputs)
    run = build.run if tracer is None else tracer.span("op", build.run)
    solution = run("table")
    out = build.capture("table", solution, True)
    run_dir = Path(inputs["dir"])
    paths = {name: str(run_dir / f"{name}.npy") for name in ("values", "dv")}
    paths["table"] = str(out["export"])
    np.save(paths["values"], solution.values)
    np.save(paths["dv"], solution.dv)
    report = {"problems": build.check(out, checks, checks.ModelCache())}
    if tracer is not None:
        layers = tracer.summary(1)
        report["layers"] = {k: layers[k] for k in ("parse.ms", "export.ms", "export.bytes")}
        tracer.write(run_dir / "trace-table.jsonl")
    return paths, report


def run_worker(run_dir: Path, worker: int, trace: bool, deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    cmd = [sys.executable, str(BENCH / "worker.py"), str(run_dir / "inputs.json"),
           str(worker), "1" if trace else "0"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {worker} did not finish in {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {worker} exited with {proc.returncode}:\n{proc.stderr}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    if Path(report["acmdp"]).resolve().parent.parent != ROOT / "src":
        raise BenchError(f"worker imported acmdp from {report['acmdp']}, not from this checkout")
    return report


def end_to_end(reports: list[dict]) -> dict[str, float]:
    latencies = [t for r in reports for t in r["latencies"]]
    p50 = statistics.median(latencies)
    # under 100 samples a 90th percentile is no tail: the median stands in for it
    p90 = statistics.quantiles(latencies, n=10)[-1] if len(latencies) >= TAIL_MIN_SAMPLES else p50
    return {
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": 1e3 * p50,
        "op_p90_ms": 1e3 * p90,
        "setup_s": statistics.median(r["setup_s"] for r in reports),
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] for r in reports) / 1024,
    }


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    spec = WORKLOADS[name]
    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    run_dir = OUT / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir()
    tracer = None
    if trace and name == "pdp_lookup":  # the export that makes its table is traced
        import worker
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(worker)
    build = make_inputs(name, seed, seconds, run_dir, tracer)
    plain, traced = [], []
    for w in range(spec.workers):
        plain.append(run_worker(run_dir, w, False, deadline))
        if trace:
            traced.append(run_worker(run_dir, w, True, deadline))
    reports = plain + traced
    for problem in [p for r in reports for p in r["problems"]] + build.get("problems", []):
        print(f"{name}: {problem}", file=sys.stderr)
    values, units = end_to_end(plain), END_TO_END_UNITS
    if trace:
        untraced_rate = values["ops_per_s"]
        values = {k: statistics.fmean(r["layers"][k] for r in traced) for k in traced[0]["layers"]}
        values.update(build.get("layers", {}))
        values["trace.overhead_pct"] = 100 * (untraced_rate / end_to_end(traced)["ops_per_s"] - 1)
        units = PER_LAYER_UNITS
    for path in run_dir.glob("*"):
        if path.suffix != ".jsonl":  # keep the traces, drop tables and exports
            path.unlink()
    if not trace:
        run_dir.rmdir()
    samples = sum(len(r["latencies"]) for r in plain)
    table_wrong = int(bool(build.get("problems")))  # the table build counts as one operation
    result = {
        "correct": all(r["wrong"] == 0 for r in reports) and not table_wrong,
        "attempted": sum(r["attempted"] for r in reports) + int(bool(build)),
        "failed": sum(r["failed"] for r in reports) + table_wrong,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    for key, metric in result["metrics"].items():
        print(f"{name} {key} = {metric['value']:.6g} {metric['unit']}")
    raw = [t for r in plain for t in r["raw_latencies"]]
    passes = [c for r in plain for c in r["calibration_s"]]
    unscaled = {
        "ops_per_cpu_s": samples / sum(raw),
        "ops_per_wall_s": samples / sum(r["wall_s"] for r in plain),
        "op_p50_cpu_ms": 1e3 * statistics.median(raw),
        "setup_cpu_s": statistics.median(r["raw_setup_s"] for r in plain),
        "calibration_ms": [1e3 * min(passes), 1e3 * statistics.median(passes), 1e3 * max(passes)],
    }
    print(f"{name}: {samples} timed operations in {spec.workers} processes, "
          f"{result['failed']} of {result['attempted']} failed")
    print(f"{name} unscaled: " + ", ".join(
        f"{k} = {v:.6g}" if not isinstance(v, list) else f"{k} min/median/max = "
        + "/".join(f"{x:.4g}" for x in v) for k, v in unscaled.items()))
    (OUT / f"result-{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(dict(result, unscaled=unscaled)))
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "acmdp" / "__init__.py").is_file():
        print(f"error: no acmdp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
