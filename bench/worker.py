"""One workload process: set up, run the timed operations, then check them.

Started by run.py as `python3 bench/worker.py INPUTS WORKER TRACE`, where
INPUTS is the inputs.json run.py wrote, WORKER picks this process's
operations (ops-WORKER.json beside it) and TRACE is 0 or 1.  Prints one
JSON line: set-up seconds, each operation's latency, attempted/failed
counts, peak RSS and, when traced, the per-layer summary.

Every time is CPU time of this process (time.process_time).  The program
runs single-threaded (run.py pins BLAS to one thread), so on an idle core
this is its wall time; unlike wall time it leaves out the time the core
was given to other processes or, on a VM, taken back by the host.

On a shared host the CPU time of the same work still moves by up to 1.5x
from one stretch of seconds to the next.  So the worker runs PASSES short
calibration passes after set-up and again after every pass_every
operations (a round of the seven builtins, one sweep, 4,000 queries).  A
pass runs fixed kernels that do the kind of work the workload's
operations do (the workload's `kernels`).  The worker reports each time
scaled to a machine on which the kernels take KERNEL_S: an operation's
CPU time is multiplied by their KERNEL_S sum over the median of the
passes just before and just after it, and the set-up time by that sum
over the median of the first passes.  The raw CPU times are reported
beside the scaled ones.
"""

import functools
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import acmdp  # noqa: E402
import numpy as np  # noqa: E402
from acmdp import (  # noqa: E402
    Emergency,
    State,
    builtin_scenario,
    export_values,
    import_values,
    parse_scenario,
    run_sweep,
    solve_scenario,
)
from acmdp.experiments import SweepSpec  # noqa: E402

PASSES = 4  # calibration passes after set-up and after every pass_every operations


def dict_work() -> None:
    """Tuple keys counted into a dict, like the compile step."""
    counts: dict = {}
    for i in range(14000):
        key = (i % 89, i % 7)
        counts[key] = counts.get(key, 0.0) + i * 0.5


def dense_work() -> None:
    """Rank-1 updates of a dense array, like the simplex pivots."""
    table = np.ones((320, 640))
    col, row = np.linspace(0, 1, 320), np.linspace(0, 1, 640)
    for _ in range(6):
        table -= 1e-6 * np.outer(col, row)
        np.flatnonzero(table[0] < 0.5)


class _Row:
    def __init__(self, i: int) -> None:
        self.emergency, self.set_index = ("calm", "alert")[i % 2], i // 20
        self.user, self.resource = ("ann", "bob")[i // 2 % 2], ("disk", "mail")[i // 4 % 5 > 2]


_ROWS: list = []


def scan_work() -> None:
    """Linear scans of 10,240 objects comparing four attributes, like the table lookups."""
    if not _ROWS:
        _ROWS.extend(_Row(i) for i in range(10240))
    for target in range(14):
        for row in _ROWS:
            if (row.emergency == "alert" and row.set_index == 511 and row.user == "bob"
                    and row.resource == target):
                break


# CPU seconds of each kernel on the reference VM at its usual speed
KERNEL_S = {dict_work: 0.006, dense_work: 0.006, scan_work: 0.006}


def calibrate(kernels) -> float:
    """CPU seconds of one pass of the workload's calibration kernels.

    The garbage collector is off during the pass, so that its time does not
    depend on how many objects the workload holds.
    """
    if scan_work in kernels and not _ROWS:
        scan_work()  # builds the rows outside the clock
    gc.disable()
    try:
        start = time.process_time()
        for kernel in kernels:
            kernel()
        return time.process_time() - start
    finally:
        gc.enable()


class PaperLp:
    """The paper's seven builtins solved by the LP, then the empty-set grid read."""

    kernels = (dense_work, dict_work, scan_work)  # no one kernel tracks the simplex alone

    def __init__(self, inputs: dict) -> None:
        self.scenarios = {name: builtin_scenario(name) for name in inputs["builtins"]}

    def run(self, name):
        solution = solve_scenario(self.scenarios[name], "lp")
        space = solution.system.space
        accesses = list(solution.scenario.dims.accesses())
        grid = {
            (e.label, action): [
                solution.dv[a, space.state_index(State(e, 0, acc))] for acc in accesses
            ]
            for e in (Emergency.CALM, Emergency.ALERT)
            for a, action in enumerate(("deny", "allow"))
        }
        return solution, grid

    def capture(self, name, result, last):
        solution, grid = result
        return {
            "name": name,
            "values": solution.values,
            "dv": solution.dv,
            "actions": solution.policy.actions,
            "grid": grid,
        }

    def check(self, out, checks, cache):
        return checks.check_paper_lp(out, cache)


class CrossoverSweep:
    """The calm-to-alert sweep of table2_<behavior>, by value iteration."""

    kernels = (dict_work,)

    def __init__(self, inputs: dict) -> None:
        self.scenarios = {b: builtin_scenario(f"table2_{b}") for b in ("unique", "once", "all")}

    def run(self, behavior):
        return run_sweep(SweepSpec(self.scenarios[behavior]), solver="vi")

    def capture(self, behavior, sweep, last):
        crossover = sweep.crossovers[3]
        return {
            "behavior": behavior,
            "access": (crossover.access.user, crossover.access.resource),
            "root": crossover.root,
            "bracket": crossover.bracket,
            "diffs": [(pt.probability, pt.dv[1, 3] - pt.dv[0, 3]) for pt in sweep.points],
        }

    def check(self, record, checks, cache):
        return checks.check_crossover(record, cache)


class Solve3x3:
    """Parse the rendered 3x3 scenario, solve it by value iteration, export it.

    run.py runs this once before timing to make the table pdp_lookup serves.
    """

    def __init__(self, inputs: dict) -> None:
        self.text = Path(inputs["scenario"]).read_text()
        self.export_dir = Path(inputs["dir"])
        self.model = inputs["model"]

    def run(self, i):
        solution = solve_scenario(parse_scenario(self.text), "vi")
        export_values(solution, self.export_dir / f"export-{i}.txt")
        return solution

    def capture(self, i, solution, last):
        mats = solution.system.transitions
        out = {
            "values": solution.values,
            "dv": solution.dv,
            "actions": solution.policy.actions,
            "row_sum_error": max(float(abs(m.sum(axis=1) - 1).max()) for m in mats),
            "export": self.export_dir / f"export-{i}.txt",
        }
        if last:  # the compiled system of one operation is compared entry by entry
            out["transitions"], out["q"] = mats, solution.system.q
        return out

    def check(self, out, checks, cache):
        return checks.check_solve(out, checks.Model.from_dict(self.model), cache)


class PdpLookup:
    """Decision-point queries against a value table loaded at start-up."""

    kernels = (scan_work,)

    def __init__(self, inputs: dict) -> None:
        self.inputs = inputs
        scenario = parse_scenario(Path(inputs["scenario"]).read_text())
        self.table = import_values(inputs["table"], scenario=scenario)

    def run(self, query):
        row = self.table.lookup(*query)
        return row, row.action == "allow"

    def capture(self, query, result, last):
        return query, result

    @functools.cached_property
    def reference(self):
        """The model and the solution the table was exported from, for checking."""
        import checks
        import numpy as np

        model = checks.Model.from_dict(self.inputs["model"])
        return model, np.load(self.inputs["values"]), np.load(self.inputs["dv"])

    def check(self, out, checks, cache):
        query, (row, decision) = out
        fields = (row.emergency, row.set_index, row.req_user, row.req_resource,
                  row.value, row.action, row.dv_deny, row.dv_allow)
        return checks.check_lookup((tuple(query), fields, decision), *self.reference)


WORKLOADS = {
    "paper_lp": PaperLp,
    "crossover_sweep": CrossoverSweep,
    "pdp_lookup": PdpLookup,
}


def check_outputs(workload, outputs: list) -> tuple[int, list[str]]:
    """Check each captured (item, output); None marks an operation that raised.

    Returns the number of operations whose output is wrong and their problems.
    """
    import checks

    cache = checks.ModelCache()
    wrong, problems = 0, []
    for n, entry in enumerate(outputs):
        if entry is None:
            continue
        found = workload.check(entry[1], checks, cache)
        if found:
            wrong += 1
            problems.append(f"op {n} ({entry[0]}): " + "; ".join(found))
    return wrong, problems


def main(argv: list[str]) -> int:
    inputs_path, worker, trace = argv[0], int(argv[1]), argv[2] == "1"
    inputs = json.loads(Path(inputs_path).read_text())
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(sys.modules[__name__])
    workload = WORKLOADS[inputs["workload"]](inputs)
    setup_s = time.process_time()  # CPU time from the start of the process
    ops = json.loads((Path(inputs["dir"]) / f"ops-{worker}.json").read_text())
    for item in ops[: inputs["warmup"]]:  # untimed and unchecked: fills caches, ends lazy set-up
        workload.run(item)
    pass_every = inputs["pass_every"]
    passes = [[calibrate(workload.kernels) for _ in range(PASSES)]]

    run = workload.run if tracer is None else tracer.span("op", workload.run)
    latencies, outputs, problems = [], [], []
    failed = 0
    wall_start = time.perf_counter()
    for n, item in enumerate(ops):
        start = time.process_time()
        try:
            result = run(item)
        except Exception as exc:  # a failing operation is counted, not fatal
            latencies.append(time.process_time() - start)
            failed += 1
            problems.append(f"op {n} raised {exc!r}")
            outputs.append(None)
        else:
            latencies.append(time.process_time() - start)
            outputs.append((item, workload.capture(item, result, n == len(ops) - 1)))
            del result
        if (n + 1) % pass_every == 0:
            passes.append([calibrate(workload.kernels) for _ in range(PASSES)])
    wall_s = time.perf_counter() - wall_start
    reference = sum(KERNEL_S[k] for k in workload.kernels)
    # the operations of group k ran between the passes passes[k] and passes[k + 1]
    scale = [reference / statistics.median(a + b) for a, b in zip(passes, passes[1:])]
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    wrong, found = check_outputs(workload, outputs)
    problems += found
    report = {
        "setup_s": setup_s * reference / statistics.median(passes[0]),
        "latencies": [t * scale[n // pass_every] for n, t in enumerate(latencies)],
        "raw_setup_s": setup_s,
        "raw_latencies": latencies,
        "calibration_s": [t for group in passes for t in group],
        "wall_s": wall_s,
        "attempted": len(ops),
        "failed": failed + wrong,
        "wrong": wrong,
        "problems": problems[:5],
        "peak_rss_kb": peak_rss_kb,
        "acmdp": acmdp.__file__,
    }
    if tracer is not None:
        report["layers"] = tracer.summary(len(ops))
        tracer.write(Path(inputs["dir"]) / f"trace-{worker}.jsonl")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
