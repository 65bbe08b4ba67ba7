"""Parameter sweeps, crossover detection, and the solver self-check.

The sweep varies the calm-to-alert probability while keeping the alert
status absorbing, solves the model at each grid point, and tracks the
decision values of every access from the calm, nothing-granted states.
Crossovers (where allow overtakes deny) are bracketed on the grid and then
pinned down by bisection.  Only the emergency matrix E changes along a
sweep, so the scenario is compiled once and every point mixes its E into
the E-free parts, which can change nothing else.

The LP (policy.policy_iterate) solves every point, of the grid and of a
bisection, exactly and on its own (bellman.SystemParts.mix), so an LP
sweep holds one system's arrays however long its grid, and its bisection
costs one exact solve per point at any discount.  Value iteration solves
the whole grid as one batch (bellman.SystemParts.mix_batch) to the
solver's default tolerance, since its decision values are reported.  Of
a bisection point only the sign of one access's gap allow - deny is read,
so value iteration solves it as a batch of one down the SIGN_TOLS ladder
instead, each rung starting from the last one's values.  Values within
tol of the optimum V* move each decision value q^a + beta P^a V by at
most beta tol from its optimal one, so a gap whose size exceeds
2 beta (tol + rounding_allowance) has the sign of the optimal gap, and
the point stops there.  At the last rung, VI_TOL, the sign is taken as
computed, as the LP takes its own.

self_check compiles a scenario once and runs five checks on that system:
stochasticity of its factors, the LP's feasibility and tightness, and the
LP's agreement with value iteration on values and on decisions.  The LP
needs no second exact solver beside it: verify_solution's certificate
bounds the distance of any solver's values from the optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bellman import (
    VERIFY_TOL,
    SystemParts,
    build_parts,
    compile_system,
    decision_values,
    rounding_allowance,
    validate_stochastic,
    verify_solution,
)
from .dynamics import EmergencyMatrix
from .policy import TIE_TOL, check_solver, policy_iterate, solve_system
from .rewards import Scenario
from .states import Access, Action, Emergency
from .value_iteration import DEFAULT_TOL as VI_TOL, ConvergenceError, value_iterate

CROSSOVER_WIDTH = 1e-4
GRID_SLACK = 1e-9
# the most points a sweep grid may have: a value-iteration sweep holds a few
# (states, points) arrays, about 128 MB each at 160 states and this cap
MAX_GRID_POINTS = 100_001
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


def _lp_decision_values(parts: SystemParts, emergency: EmergencyMatrix) -> np.ndarray:
    """The (2, n) decision values of parts mixed with emergency, at the LP's exact values."""
    system = parts.mix(emergency)
    return decision_values(system, policy_iterate(system)[0])


def _bisect(
    parts: SystemParts,
    solver: str,
    state: int,
    lo: float,
    hi: float,
    f_lo: float,
    values: np.ndarray | None,
) -> tuple[float, tuple[float, float]]:
    """Halve [lo, hi] to CROSSOVER_WIDTH; allow - deny at state differs in sign at its ends.

    f_lo is the gap at lo.  The LP solves each point exactly.  Value
    iteration solves each as a batch of one down SIGN_TOLS until the sign
    of its gap is proven (see the module docstring), the first from values,
    (n, 1), its values at lo, and each later one from the last values
    solved.  The LP reads no values, and takes None.
    """
    beta = parts.scenario.beta
    alert_to_alert = parts.scenario.emergency.prob_alert_to_alert
    while hi - lo > CROSSOVER_WIDTH:
        mid = 0.5 * (lo + hi)
        emergency = EmergencyMatrix.from_rates(mid, alert_to_alert)
        if solver == "lp":
            dv = _lp_decision_values(parts, emergency)[:, state]
            f_mid = float(dv[Action.ALLOW] - dv[Action.DENY])
        else:
            point = parts.mix_batch([emergency])
            for tol in SIGN_TOLS:
                values, _ = value_iterate(point, tol=tol, start=values)
                dv = decision_values(point, values)[:, state, 0]
                f_mid = float(dv[Action.ALLOW] - dv[Action.DENY])
                # the values lie within tol + rounding of the optimum, and each
                # decision value q^a + beta P^a V within beta times that of its own
                if abs(f_mid) > 2.0 * beta * (tol + rounding_allowance(values, beta)):
                    break
        if f_mid == 0.0:
            return mid, (lo, hi)
        if (f_lo < 0) == (f_mid < 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi), (lo, hi)


def run_sweep(spec: SweepSpec, solver: str = "vi") -> SweepResult:
    """Solve every grid point, then bisect each bracketed crossover.

    The scenario is compiled once.  The LP solves and prices each grid
    point on its own; value iteration solves the grid as one batch
    (SystemParts.mix_batch) to VI_TOL and prices it with one kernel call.
    A crossover is the first grid point where allow - deny is exactly zero,
    or else the first pair of neighbours whose gaps differ in sign, which
    is then bisected (_bisect) with the same solver.  Value iteration's
    bisection starts from its values at the lower grid point of the bracket.
    """
    check_solver(solver)
    grid = spec.grid()
    alert_to_alert = spec.scenario.emergency.prob_alert_to_alert
    parts = build_parts(spec.scenario)
    # the (calm, nothing granted, access) states; accesses are requests 0.. in bit order
    calm_empty = parts.space.position(
        int(Emergency.CALM), 0, np.arange(spec.scenario.dims.num_access_bits)
    )
    emergencies = (EmergencyMatrix.from_rates(p, alert_to_alert) for p in grid)
    if solver == "lp":
        # one point at a time, so the sweep's memory does not grow with its grid
        values = None
        dvs = np.stack([_lp_decision_values(parts, e)[:, calm_empty] for e in emergencies], -1)
    else:
        batch = parts.mix_batch(list(emergencies))
        values, _ = value_iterate(batch)
        dvs = decision_values(batch, values)[:, calm_empty]
    points = [SweepPoint(p, dvs[..., g]) for g, p in enumerate(grid)]

    gaps = dvs[Action.ALLOW] - dvs[Action.DENY]  # (accesses, G)
    crossovers = []
    for pos, access in enumerate(spec.scenario.dims.accesses()):
        g = _first_crossing(gaps[pos])
        if g is None:
            crossovers.append(CrossoverResult(access, None, None, None))
            continue
        if gaps[pos, g] == 0.0:
            crossovers.append(CrossoverResult(access, grid[g], (grid[g], grid[g]), 0.0))
            continue
        start = None if solver == "lp" else values[:, g : g + 1]
        root, bracket = _bisect(
            parts, solver, calm_empty[pos], grid[g], grid[g + 1], float(gaps[pos, g]), start
        )
        crossovers.append(CrossoverResult(access, root, bracket, bracket[1] - bracket[0]))
    return SweepResult(spec, points, crossovers)


def sweep_series_names(sc: Scenario) -> list[str]:
    names = []
    for access in sc.dims.accesses():
        user = sc.user_names[access.user]
        resource = sc.resource_names[access.resource]
        for act in (Action.DENY, Action.ALLOW):
            names.append(f"dv_{user}_{resource}_{act.label}")
    return names


def sweep_csv(result: SweepResult) -> str:
    header = ["probability"] + sweep_series_names(result.spec.scenario)
    lines = [",".join(header)]
    for pt in result.points:
        cells = [f"{pt.probability:.12g}"]
        for pos in range(result.spec.scenario.dims.num_access_bits):
            cells.append(f"{pt.dv[int(Action.DENY), pos]:.12g}")
            cells.append(f"{pt.dv[int(Action.ALLOW), pos]:.12g}")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


@dataclass
class CheckResult:
    name: str
    passed: bool | None  # None: skipped, with the reason in detail
    detail: str


def self_check(sc: Scenario) -> list[CheckResult]:
    """Cross-validate the whole pipeline on one compiled system.

    Five checks: the factors of the system are stochastic; the LP's values
    are feasible and tight (verify_solution, which places them within
    residual / (1 - beta) of the optimum, Puterman 1994, sections 6.2-6.3);
    and value iteration, a global solve that shares only the kernel with
    the LP's back-substitution, agrees with the LP on the values and on
    every confident decision.  Every bound an agreement check applies is
    derived from proven ones, and printed.  If value iteration does not
    converge, both agreement checks are skipped (passed None), with its error.
    """
    system = compile_system(sc)
    violations = validate_stochastic(system)
    if violations:
        detail = f"{len(violations)} violations, first: {violations[0].detail}"
        return [CheckResult("stochasticity", False, detail)]
    checks = [CheckResult("stochasticity", True, "all successor distributions sum to 1")]

    lp = solve_system(system, "lp")
    lp_report = verify_solution(lp.values, lp.dv)
    checks += [
        CheckResult(
            "lp_feasibility",
            lp_report.feasible(),
            f"max residual {lp_report.max_violation:.3g} after {lp.iterations} policy bases",
        ),
        CheckResult(
            "lp_tightness",
            lp_report.all_tight(),
            f"worst minimum slack {lp_report.max_min_slack:.3g}",
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
