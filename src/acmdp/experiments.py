"""Parameter sweeps, crossover detection, and the solver self-check.

The sweep varies the calm-to-alert probability while keeping the alert
status absorbing, solves the model at each grid point, and tracks the
decision values of every access from the calm, nothing-granted states.
Crossovers (where allow overtakes deny) are bracketed on the grid and then
pinned down by bisection.  Only the emergency matrix E changes along a
sweep, so the scenario is compiled once and every point mixes its E into
the E-free parts, which can change nothing else.

Both solvers solve a batch of such systems (bellman.SystemParts.mix_batch),
so one path serves both.  The grid is solved in chunks whose width
CHUNK_BYTES caps, so a sweep's memory does not grow with its grid.  Of a
bisection point only the sign of one access's gap allow - deny is read, so
it is solved as a batch of one down a ladder of tolerances, each rung from
the last one's values: SIGN_TOLS for value iteration, VERIFY_TOL alone for
the LP.  Value iteration's values lie within tol of the optimum V*, which
moves each decision value q^a + beta P^a V by at most beta tol from its
optimal one, so a gap whose size exceeds 2 beta (tol + rounding_allowance)
has the sign of the optimal gap, and the point stops there.  The LP's tol
bounds a Bellman residual instead, placing its values within tol / (1 - beta)
of V*, so the proof does not cover it.  At the last rung, the LP's only one,
the sign is taken as computed.

self_check compiles a scenario once and runs five checks on that system:
stochasticity of its factors, the LP's feasibility and tightness, and the
LP's agreement with value iteration on values and on decisions.  The LP
needs no second exact solver beside it: verify_solution's certificate
bounds the distance of any solver's values from the optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bellman import (
    VERIFY_TOL,
    SystemParts,
    build_parts,
    compile_system,
    decision_values,
    rounding_allowance,
    validate_stochastic,
)
from .dynamics import EmergencyMatrix
from .policy import TIE_TOL, solve_system, solver_function
from .rewards import Scenario
from .states import Access, Action, Emergency
from .value_iteration import DEFAULT_TOL as VI_TOL, ConvergenceError

CROSSOVER_WIDTH = 1e-4
GRID_SLACK = 1e-9
# the most points a sweep grid may have; the grid is solved in chunks, so
# this bounds only the sweep's per-point lists and its run time
MAX_GRID_POINTS = 100_001
# the bytes of (states, columns) arrays a sweep may hold to solve a chunk of its grid
CHUNK_BYTES = 16 * 2**20
# such arrays a chunk's mix, solve and pricing hold at their peak: traced with
# tracemalloc on the second solve of the first and last chunks of a 101-point
# grid at run_sweep's width, on random 2x2, 2x3 and 3x3 models under once and
# all, at most 11.8 for the LP and 8.6 for value iteration
SOLVER_ARRAYS = 16
# the tolerances a bisection point is solved to by value iteration, in turn,
# until the sign of its gap is proven; the last one takes it as computed
SIGN_TOLS = (1e-3, 1e-6, VI_TOL)


@dataclass(frozen=True)
class SweepSpec:
    scenario: Scenario
    start: float = 0.0
    stop: float = 1.0
    step: float = 0.01

    def __post_init__(self) -> None:
        if not 0.0 <= self.start <= self.stop <= 1.0:
            raise ValueError(f"grid [{self.start}, {self.stop}] must sit inside [0, 1]")
        if not 0.0 < self.step < math.inf:
            raise ValueError(f"step must be positive and finite, got {self.step}")
        # a float count, so that a step far below the span refuses rather than overflows
        points = (self.stop - self.start) / self.step - GRID_SLACK + 1.0
        if points > MAX_GRID_POINTS:
            raise ValueError(
                f"step {self.step} makes a grid of {points:.4g} points, "
                f"more than the {MAX_GRID_POINTS} a sweep may have"
            )

    def grid(self) -> list[float]:
        """start, start + step, ... below stop, then stop itself."""
        # a step count within GRID_SLACK of a whole number is that number,
        # but never zero while start lies below stop
        steps = math.ceil((self.stop - self.start) / self.step - GRID_SLACK)
        if self.start < self.stop:
            steps = max(steps, 1)
        return [self.start + i * self.step for i in range(steps)] + [self.stop]


@dataclass
class SweepPoint:
    probability: float
    dv: np.ndarray  # (2, num_accesses): rows deny/allow, columns bit order


@dataclass
class CrossoverResult:
    access: Access
    root: float | None
    bracket: tuple[float, float] | None
    width: float | None


@dataclass
class SweepResult:
    spec: SweepSpec
    points: list[SweepPoint]
    crossovers: list[CrossoverResult]


def _first_crossing(gaps: np.ndarray) -> int | None:
    """The first grid index where allow - deny (gaps, one per grid point) is
    exactly zero or changes sign before the next point, or None."""
    negative = gaps < 0.0
    crossing = gaps == 0.0
    crossing[:-1] |= negative[:-1] != negative[1:]
    return int(np.argmax(crossing)) if crossing.any() else None


def _bisect(
    parts: SystemParts,
    solve: Callable[..., tuple[np.ndarray, int]],
    rungs: tuple[float, ...],
    state: int,
    lo: float,
    hi: float,
    f_lo: float,
) -> tuple[float, tuple[float, float]]:
    """Halve [lo, hi] to CROSSOVER_WIDTH; allow - deny at state differs in sign at its ends.

    f_lo is the gap at lo; where it is zero, lo = hi and the bracket is
    returned as it is.  Each point is a batch of one, solved by solve down
    rungs until its gap's sign is proven (see the module docstring): the
    bracket's first point from start None, each later solve from the last values.
    """
    beta = parts.scenario.beta
    alert_to_alert = parts.scenario.emergency.prob_alert_to_alert
    values = None
    while hi - lo > CROSSOVER_WIDTH:
        mid = 0.5 * (lo + hi)
        point = parts.mix_batch([EmergencyMatrix(mid, alert_to_alert)])
        for tol in rungs:
            values, _ = solve(point, tol=tol, start=values)
            dv = decision_values(point, values)[:, state, 0]
            f_mid = float(dv[Action.ALLOW] - dv[Action.DENY])
            # value iteration's values lie within tol + rounding of the optimum,
            # and each decision value q^a + beta P^a V within beta times that of
            # its own; the LP's one rung is the last, its sign taken as computed
            if abs(f_mid) > 2.0 * beta * (tol + rounding_allowance(values, beta)):
                break
        if f_mid == 0.0:
            return mid, (lo, hi)
        if (f_lo < 0) == (f_mid < 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi), (lo, hi)


def run_sweep(spec: SweepSpec, solver: str = "lp") -> SweepResult:
    """Solve every grid point, then bisect each bracketed crossover.

    The scenario is compiled once.  The grid is mixed (SystemParts.mix_batch)
    in chunks of at most CHUNK_BYTES // (8 n SOLVER_ARRAYS) columns, each
    solved by the named solver and priced with one kernel call, of which
    only the (2, accesses, columns) decision values are kept.  A crossover
    is bracketed by the first grid point p where allow - deny is exactly
    zero, as [p, p], or else by the first pair of neighbours whose gaps
    differ in sign, and bisected (_bisect).
    """
    solve = solver_function(solver)
    rungs = SIGN_TOLS if solver == "vi" else (VERIFY_TOL,)
    grid = spec.grid()
    alert_to_alert = spec.scenario.emergency.prob_alert_to_alert
    parts = build_parts(spec.scenario)
    # the (calm, nothing granted, access) states; accesses are requests 0.. in bit order
    calm_empty = parts.space.position(
        int(Emergency.CALM), 0, np.arange(spec.scenario.dims.num_access_bits)
    )
    width = max(1, CHUNK_BYTES // (8 * len(parts.space) * SOLVER_ARRAYS))
    chunks = []
    for first in range(0, len(grid), width):
        chunk = grid[first : first + width]
        batch = parts.mix_batch([EmergencyMatrix(p, alert_to_alert) for p in chunk])
        values, _ = solve(batch)
        chunks.append(decision_values(batch, values)[:, calm_empty])
    dvs = np.concatenate(chunks, axis=-1)
    points = [SweepPoint(p, dvs[..., g]) for g, p in enumerate(grid)]

    gaps = dvs[Action.ALLOW] - dvs[Action.DENY]  # (accesses, G)
    crossovers = []
    for pos, access in enumerate(spec.scenario.dims.accesses()):
        g = _first_crossing(gaps[pos])
        if g is None:
            crossovers.append(CrossoverResult(access, None, None, None))
        else:
            hi = grid[g] if gaps[pos, g] == 0.0 else grid[g + 1]
            root, bracket = _bisect(
                parts, solve, rungs, calm_empty[pos], grid[g], hi, float(gaps[pos, g])
            )
            crossovers.append(CrossoverResult(access, root, bracket, bracket[1] - bracket[0]))
    return SweepResult(spec, points, crossovers)


def sweep_series_names(sc: Scenario) -> list[str]:
    return [
        f"dv_{sc.user_names[access.user]}_{sc.resource_names[access.resource]}_{act.label}"
        for access in sc.dims.accesses()
        for act in (Action.DENY, Action.ALLOW)
    ]


def sweep_csv(result: SweepResult) -> str:
    header = ["probability"] + sweep_series_names(result.spec.scenario)
    lines = [",".join(header)]
    for pt in result.points:
        # per access, its deny then its allow decision value
        lines.append(",".join(f"{x:.12g}" for x in (pt.probability, *pt.dv.T.ravel())))
    return "\n".join(lines) + "\n"


@dataclass
class CheckResult:
    name: str
    passed: bool | None  # None: skipped, with the reason in detail
    detail: str


def self_check(sc: Scenario) -> list[CheckResult]:
    """Cross-validate the whole pipeline on one compiled system.

    Five checks: the factors of the system are stochastic; the LP's values
    are feasible and tight (the verify_solution report that solve_system
    keeps, which places them within residual / (1 - beta) of the optimum,
    Puterman 1994, sections 6.2-6.3);
    and value iteration, a global solve that shares only the kernel with
    the LP's back-substitution, agrees with the LP on the values and on
    every confident decision.  Every bound an agreement check applies is
    derived from proven ones, and printed.  If value iteration does not
    converge, both agreement checks are skipped (passed None), with its error.
    """
    system = compile_system(sc)
    problems = validate_stochastic(system)
    if problems:
        detail = f"{len(problems)} violations, first: {problems[0]}"
        return [CheckResult("stochasticity", False, detail)]
    checks = [CheckResult("stochasticity", True, "all successor distributions sum to 1")]

    lp = solve_system(system, "lp")
    checks += [
        CheckResult(
            "lp_feasibility",
            lp.report.feasible(),
            f"max residual {lp.report.max_violation:.3g} after {lp.iterations} policy bases",
        ),
        CheckResult(
            "lp_tightness",
            lp.report.all_tight(),
            f"worst minimum slack {lp.report.max_min_slack:.3g}",
        ),
    ]

    try:
        vi = solve_system(system, "vi")
    except ConvergenceError as exc:
        why = f"skipped, value iteration stopped: {exc}"
        return checks + [CheckResult(n, None, why) for n in ("lp_vi_agreement", "policy_agreement")]
    allowance = rounding_allowance(lp.values, sc.beta)
    # value iteration stops within VI_TOL of the optimum; a final LP violation
    # of at most VERIFY_TOL leaves the LP within VERIFY_TOL / (1 - beta) of it.
    # The LP's measured residual r would not do in place of VERIFY_TOL: values
    # shifted by c have r = c (1 - beta), so r / (1 - beta) = c admits the shift
    vi_bound = VI_TOL + VERIFY_TOL / (1.0 - sc.beta) + allowance
    gap = float(np.max(np.abs(lp.values - vi.values)))
    detail = f"sup-norm gap {gap:.3g} (bound {vi_bound:.3g}) after {vi.iterations} sweeps"
    checks.append(CheckResult("lp_vi_agreement", gap <= vi_bound, detail))

    # a decision value q^a + beta P^a V moves by at most beta ||V_lp - V_vi||,
    # so a gap above floor keeps its sign beyond TIE_TOL under both solves
    floor = TIE_TOL + 2.0 * sc.beta * vi_bound
    disagreements = int(np.sum((lp.policy.actions != vi.policy.actions) & (lp.policy.gaps > floor)))
    checks.append(
        CheckResult(
            "policy_agreement",
            disagreements == 0,
            f"{disagreements} disagreements where the LP's gap exceeds {floor:.3g}",
        )
    )
    return checks
