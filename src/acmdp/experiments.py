"""Parameter sweeps, crossover detection, and the solver self-check.

The sweep varies the calm-to-alert probability while keeping the alert
status absorbing, solves the model at each grid point, and tracks the
decision values of every access from the calm, nothing-granted states.
Crossovers (where allow overtakes deny) are bracketed on the grid and then
pinned down by bisection.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .bellman import verify_solution
from .dynamics import EmergencyMatrix, validate_stochastic
from .policy import Solution, extract_policy, solve_scenario
from .rewards import Scenario
from .states import Access, Action, Emergency, State
from .value_iteration import value_iterate

CROSSOVER_WIDTH = 1e-4


def scenario_at_probability(sc: Scenario, calm_to_alert: float) -> Scenario:
    """Same scenario with the calm-to-alert probability replaced."""
    return replace(
        sc,
        emergency=EmergencyMatrix.from_rates(
            calm_to_alert, sc.emergency.prob_alert_to_alert
        ),
    )


@dataclass(frozen=True)
class SweepSpec:
    scenario: Scenario
    start: float = 0.0
    stop: float = 1.0
    step: float = 0.01

    def __post_init__(self) -> None:
        if not 0.0 <= self.start <= self.stop <= 1.0:
            raise ValueError(f"grid [{self.start}, {self.stop}] must sit inside [0, 1]")
        if self.step <= 0.0:
            raise ValueError("step must be positive")

    def grid(self) -> list[float]:
        count = int(round((self.stop - self.start) / self.step)) + 1
        return [min(self.start + i * self.step, self.stop) for i in range(count)]


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


def _calm_empty_dv(solution: Solution) -> np.ndarray:
    """Decision values of every access from (calm, no grants) as (2, n)."""
    space = solution.system.space
    idx = [
        space.state_index(State(Emergency.CALM, 0, a))
        for a in solution.scenario.dims.accesses()
    ]
    return solution.dv[:, idx]


def _allow_minus_deny(dv: np.ndarray, access_pos: int) -> float:
    return float(dv[int(Action.ALLOW), access_pos] - dv[int(Action.DENY), access_pos])


def _bisect(
    dv_at: Callable[[float], np.ndarray],
    access_pos: int,
    lo: float,
    hi: float,
    f_lo: float,
) -> tuple[float, tuple[float, float]]:
    while hi - lo > CROSSOVER_WIDTH:
        mid = 0.5 * (lo + hi)
        f_mid = _allow_minus_deny(dv_at(mid), access_pos)
        if f_mid == 0.0:
            return mid, (lo, hi)
        if (f_lo < 0) == (f_mid < 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi), (lo, hi)


def run_sweep(spec: SweepSpec, solver: str = "vi") -> SweepResult:
    """Solve every grid point, then bisect each bracketed crossover.

    Value iteration is warm-started from the previous solve: grid point to
    grid point, then bisection step to bisection step.
    """
    grid = spec.grid()
    values = None

    def dv_at(probability: float) -> np.ndarray:
        nonlocal values
        solution = solve_scenario(
            scenario_at_probability(spec.scenario, probability), solver=solver, start=values
        )
        values = solution.values
        return _calm_empty_dv(solution)

    points = [SweepPoint(p, dv_at(p)) for p in grid]
    crossovers = []
    for pos, access in enumerate(spec.scenario.dims.accesses()):
        diffs = [_allow_minus_deny(pt.dv, pos) for pt in points]
        found = None
        for (p0, f0), (p1, f1) in zip(zip(grid, diffs), zip(grid[1:], diffs[1:])):
            if f0 == 0.0:
                found = CrossoverResult(access, p0, (p0, p0), 0.0)
                break
            if (f0 < 0) != (f1 < 0):
                root, bracket = _bisect(dv_at, pos, p0, p1, f0)
                found = CrossoverResult(access, root, bracket, bracket[1] - bracket[0])
                break
        if found is None:
            found = CrossoverResult(access, None, None, None)
        crossovers.append(found)
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
    passed: bool
    detail: str


def self_check(
    sc: Scenario,
    lp_tol: float = 1e-9,
    tight_tol: float = 1e-7,
    agreement_tol: float = 1e-6,
    gap_floor: float = 1e-5,
) -> list[CheckResult]:
    """Cross-validate the whole pipeline on one scenario."""
    checks: list[CheckResult] = []

    violations = validate_stochastic(sc.transition_model())
    checks.append(
        CheckResult(
            "stochasticity",
            not violations,
            "all successor distributions sum to 1"
            if not violations
            else f"{len(violations)} violations, first: {violations[0].detail}",
        )
    )
    if violations:
        return checks

    lp_solution = solve_scenario(sc, solver="lp", tol=lp_tol)
    checks.append(
        CheckResult(
            "lp_feasibility",
            lp_solution.max_residual <= lp_tol,
            f"max residual {lp_solution.max_residual:.3g} "
            f"after {lp_solution.iterations} pivots",
        )
    )

    system = lp_solution.system
    report = verify_solution(system, lp_solution.values)
    checks.append(
        CheckResult(
            "lp_tightness",
            report.all_tight(tight_tol),
            f"worst minimum slack {report.max_min_slack:.3g}",
        )
    )

    vi_values, sweeps = value_iterate(system)
    gap = float(np.max(np.abs(lp_solution.values - vi_values)))
    checks.append(
        CheckResult(
            "lp_vi_agreement",
            gap <= agreement_tol,
            f"sup-norm gap {gap:.3g} after {sweeps} sweeps",
        )
    )

    vi_actions = extract_policy(system, vi_values).actions
    confident = lp_solution.policy.gaps > gap_floor
    disagreements = int(
        np.sum((lp_solution.policy.actions != vi_actions) & confident)
    )
    checks.append(
        CheckResult(
            "policy_agreement",
            disagreements == 0,
            f"{disagreements} confident disagreements",
        )
    )
    return checks
