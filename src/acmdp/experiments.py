"""Parameter sweeps, crossover detection, and the solver self-check.

The sweep varies the calm-to-alert probability (the alert-to-alert one
stays the scenario's), solves the model at each grid point, and tracks
every access's decision values from the calm, nothing-granted states.
Crossovers (where allow overtakes deny) are bracketed on the grid and then
pinned down by bisection.  Only the emergency matrix E changes along a
sweep, so the scenario is compiled once and every point p mixes the rates
(p, alert_to_alert) into the E-free parts, which can change nothing else.

Both solvers solve a batch of such systems (bellman.SystemParts.mix_batch),
so one path serves both.  The grid is solved in chunks whose width
CHUNK_BYTES caps, so a sweep's memory does not grow with its grid, and each
access's first crossing is bisected as soon as the chunk that holds it is
solved.  Of a bisection point only the sign of one access's gap
allow - deny is read, so it is solved once, as a batch of one, from the mean
of the values at its bracket's two ends.  Value iteration solves it
with value_iterate's sign_of, which stops as soon as the sign is proven, or
else at its DEFAULT_TOL with the sign taken as computed; the LP solves
it exactly, to VERIFY_TOL, and takes the sign as computed.

self_check compiles a scenario once and runs five checks on that system:
stochasticity of its factors, the LP's feasibility and tightness, and the
LP's agreement with value iteration on values and on decisions.  The LP
needs no second exact solver beside it: verify_solution's certificate
bounds the distance of any solver's values from the optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
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
from .policy import solve_system, solver_function
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
# such arrays a chunk's mix, solve and pricing hold at their peak, per solver,
# traced with tracemalloc on the second call: on the default 101-point grid,
# the first and last chunks at run_sweep's width of random 2x2, 2x3 and 3x3
# models under once and all, at most 11.8 for the LP and 8.7 for value
# iteration; on 101 points over p in [0, 0.2] of modified_once and table2_all,
# as the tests trace them, at most 13.2 and 7.1; each count leaves a fifth more
SOLVER_ARRAYS = {"lp": 16, "vi": 12}


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
    bracket: tuple[float, float] | None  # None where the grid shows no crossing

    @property
    def root(self) -> float | None:
        """The bracket's midpoint."""
        return None if self.bracket is None else 0.5 * (self.bracket[0] + self.bracket[1])

    @property
    def width(self) -> float | None:
        """The bracket's width."""
        return None if self.bracket is None else self.bracket[1] - self.bracket[0]


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
    state: int,
    lo: float,
    hi: float,
    f_lo: float,
    ends: np.ndarray,
) -> tuple[float, float]:
    """Halve [lo, hi] to CROSSOVER_WIDTH; allow - deny at state differs in sign at its ends.

    f_lo is the gap at lo; where it is zero, lo = hi and the bracket is
    returned as it is.  A midpoint whose gap is exactly zero closes the
    bracket there, as [mid, mid].  ends, overwritten here, holds the (n, 2)
    values solved at lo and at hi.  Each point is a batch of one, solved
    once by solve(point, start=...) from the mean of ends' columns, and its
    own values then take the column of the end it replaces.
    """
    while hi - lo > CROSSOVER_WIDTH:
        mid = 0.5 * (lo + hi)
        point = parts.mix_batch([(mid, parts.scenario.alert_to_alert)])
        values, _ = solve(point, start=0.5 * (ends[:, :1] + ends[:, 1:]))
        dv = decision_values(point, values)[:, state, 0]
        f_mid = float(dv[Action.ALLOW] - dv[Action.DENY])
        if f_mid == 0.0:
            lo = hi = mid
        elif (f_lo < 0) == (f_mid < 0):
            lo, f_lo, ends[:, :1] = mid, f_mid, values
        else:
            hi, ends[:, 1:] = mid, values
    return lo, hi


def run_sweep(spec: SweepSpec, solver: str = "lp") -> SweepResult:
    """Solve every grid point, bisecting each access's first crossing as it is found.

    The scenario is compiled once.  The grid is mixed (SystemParts.mix_batch)
    in chunks of at most CHUNK_BYTES // (8 n SOLVER_ARRAYS[solver]) columns,
    each solved by the named solver and priced with one kernel call, of which
    only the (2, accesses, columns) decision values outlive the chunk.  A
    chunk's window is its columns, after the first chunk led by the previous
    chunk's last, so that a bracket across two chunks is found.  A crossover
    is bracketed at the window's earliest column g (_first_crossing) where
    the gap allow - deny is exactly zero, as [p_g, p_g], or where it is
    negative at p_g and not at p_g+1 or the other way round, as [p_g, p_g+1],
    and bisected (_bisect) from the values solved at both ends, before the
    next chunk is solved.  Zero counts as not negative, so a step from a
    negative gap into an exact zero is a flip: it is bisected from the point
    before the zero rather than reported at the zero.
    """
    solve = solver_function(solver)
    grid = spec.grid()
    parts = build_parts(spec.scenario)
    dims = spec.scenario.dims
    accesses = list(dims.accesses())
    # the (calm, nothing granted, access) states; accesses are requests 0.. in bit order
    calm_empty = dims.position(int(Emergency.CALM), 0, np.arange(len(accesses)))
    width = max(1, CHUNK_BYTES // (8 * dims.num_states * SOLVER_ARRAYS[solver]))
    chunks = []
    crossovers = [CrossoverResult(access, None) for access in accesses]
    for first in range(0, len(grid), width):
        chunk = grid[first : first + width]
        batch = parts.mix_batch([(p, spec.scenario.alert_to_alert) for p in chunk])
        values, _ = solve(batch)
        chunks.append(decision_values(batch, values)[:, calm_empty])
        gaps = chunks[-1][Action.ALLOW] - chunks[-1][Action.DENY]  # (accesses, columns)
        if first:  # the window: the previous chunk's last column, then this chunk's
            gaps = np.concatenate([last_gaps, gaps], axis=1)
            values = np.concatenate([last_values, values], axis=1)
        window = grid[max(first - 1, 0) : first + width]
        for pos, state in enumerate(calm_empty):
            g = None if crossovers[pos].bracket else _first_crossing(gaps[pos])
            if g is None:
                continue
            h = g if gaps[pos, g] == 0.0 else g + 1
            sign_solve = partial(solve, sign_of=state) if solver == "vi" else solve
            bracket = _bisect(
                parts, sign_solve, state, window[g], window[h], float(gaps[pos, g]),
                values[:, [g, h]],
            )
            crossovers[pos] = CrossoverResult(accesses[pos], bracket)
        last_gaps, last_values = gaps[:, -1:], values[:, -1:].copy()
        del batch, values  # a sweep holds one chunk at a time
    dvs = np.concatenate(chunks, axis=-1)
    points = [SweepPoint(p, dvs[..., g]) for g, p in enumerate(grid)]
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
    Puterman 1994, sections 6.2-6.3), each half judged by VERIFY_TOL plus
    twice A = rounding_allowance(V, beta): V lies within A of the exact
    values, which moves a row's slack V - (q + beta P V) by at most
    (1 + beta) A, and the kernel rounds a row by a few ulps of max|V|,
    within (1 - beta) A = ROUNDING_ULPS ulps;
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
    allowance = rounding_allowance(lp.values, sc.beta)
    rounding = 2.0 * allowance  # (1 + beta) A for V's error, (1 - beta) A for the kernel's
    checks += [
        CheckResult(
            "lp_feasibility",
            lp.report.feasible(rounding),
            f"max violation {lp.report.max_violation:.3g} after {lp.iterations} policy bases",
        ),
        CheckResult(
            "lp_tightness",
            lp.report.all_tight(rounding),
            f"worst minimum slack {lp.report.max_min_slack:.3g}",
        ),
    ]

    try:
        vi = solve_system(system, "vi")
    except ConvergenceError as exc:
        why = f"skipped, value iteration stopped: {exc}"
        return checks + [CheckResult(n, None, why) for n in ("lp_vi_agreement", "policy_agreement")]
    # value iteration stops within VI_TOL of the optimum; a final LP violation
    # of at most VERIFY_TOL leaves the LP within VERIFY_TOL / (1 - beta) of it.
    # The LP's measured residual r would not do in place of VERIFY_TOL: values
    # shifted by c have r = c (1 - beta), so r / (1 - beta) = c admits the shift
    vi_bound = VI_TOL + VERIFY_TOL / (1.0 - sc.beta) + allowance
    gap = float(np.max(np.abs(lp.values - vi.values)))
    detail = f"sup-norm gap {gap:.3g} (bound {vi_bound:.3g}) after {vi.iterations} sweeps"
    checks.append(CheckResult("lp_vi_agreement", gap <= vi_bound, detail))

    # a decision value q^a + beta P^a V moves by at most beta ||V_lp - V_vi||,
    # so a gap above floor keeps its sign beyond VERIFY_TOL under both solves
    floor = VERIFY_TOL + 2.0 * sc.beta * vi_bound
    disagreements = int(np.sum((lp.policy.actions != vi.policy.actions) & (lp.policy.gaps > floor)))
    checks.append(
        CheckResult(
            "policy_agreement",
            disagreements == 0,
            f"{disagreements} disagreements where the LP's gap exceeds {floor:.3g}",
        )
    )
    return checks
