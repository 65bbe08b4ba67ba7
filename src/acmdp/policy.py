"""Decision values, policy extraction, and the value-table file format.

The decision value of (state, action) is the immediate reward plus the
discounted expected optimal value of the successors; the policy picks the
action with the higher decision value, breaking ties toward deny.  Solved
tables can be exported to a line-oriented text file and reloaded for use as
a lightweight policy decision point.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bellman import BellmanSystem, build_bellman_lp, compile_system, verify_solution
from .config import scenario_fingerprint
from .rewards import Scenario
from .simplex import SimplexStatus, simplex_solve
from .states import ACTIONS, Action, State
from .value_iteration import value_iterate

TIE_TOL = 1e-9
FILE_HEADER = "ACMDP-VALUES v1"


class SolverError(RuntimeError):
    """The LP solver failed on a scenario that should be feasible and bounded."""


def decision_values(system: BellmanSystem, values: np.ndarray) -> np.ndarray:
    """(2, num_states) array of q + beta * P V, indexed by Action."""
    beta = system.beta
    out = np.empty((2, system.num_states))
    for act in ACTIONS:
        out[int(act)] = system.q[int(act)] + beta * (system.transitions[int(act)] @ values)
    return out


def decision_value(
    system: BellmanSystem, values: np.ndarray, s: State, act: Action
) -> float:
    return float(decision_values(system, values)[int(act), system.space.state_index(s)])


@dataclass
class PolicyMap:
    """Chosen action per state plus the absolute decision-value gap."""

    actions: np.ndarray  # (num_states,) of Action integer values
    gaps: np.ndarray  # (num_states,) |DV(allow) - DV(deny)|

    def action(self, index: int) -> Action:
        return Action(int(self.actions[index]))


def extract_policy(system: BellmanSystem, values: np.ndarray) -> PolicyMap:
    dv = decision_values(system, values)
    gaps = np.abs(dv[1] - dv[0])
    # allow only when it beats deny by more than the tie tolerance
    actions = np.where(dv[1] > dv[0] + TIE_TOL, int(Action.ALLOW), int(Action.DENY))
    return PolicyMap(actions=actions, gaps=gaps)


@dataclass
class Solution:
    """A solved scenario: values, decision values, policy, solver stats."""

    scenario: Scenario
    system: BellmanSystem
    values: np.ndarray
    dv: np.ndarray  # (2, num_states)
    policy: PolicyMap
    solver: str
    iterations: int  # simplex pivots or value-iteration sweeps
    max_residual: float


def solve_scenario(
    sc: Scenario,
    solver: str = "lp",
    tol: float | None = None,
    start: np.ndarray | None = None,
) -> Solution:
    """Solve a scenario with the LP or the value-iteration solver.

    tol defaults to each solver's own tolerance.  start seeds value
    iteration (see value_iterate); the LP does not use it.
    """
    system = compile_system(sc)
    tol_arg = {} if tol is None else {"tol": tol}
    if solver == "lp":
        lp = build_bellman_lp(system)
        result = simplex_solve(lp, **tol_arg)
        if result.status is not SimplexStatus.OPTIMAL:
            raise SolverError(
                f"simplex returned {result.status.value} on a discounted Bellman LP; "
                f"this indicates an internal error"
            )
        values = result.values
        iterations = result.pivots
    elif solver == "vi":
        values, iterations = value_iterate(system, start=start, **tol_arg)
    else:
        raise ValueError(f"unknown solver {solver!r}; expected 'lp' or 'vi'")
    report = verify_solution(system, values)
    return Solution(
        scenario=sc,
        system=system,
        values=values,
        dv=decision_values(system, values),
        policy=extract_policy(system, values),
        solver=solver,
        iterations=iterations,
        max_residual=report.max_violation,
    )


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def export_values(solution: Solution, destination: str | Path) -> None:
    """Write the solved value table in the versioned text format."""
    sc = solution.scenario
    space = solution.system.space
    lines = [FILE_HEADER, scenario_fingerprint(sc)]
    for i, s in enumerate(space):
        if s.request is None:
            req_user = req_resource = "eps"
        else:
            req_user = sc.user_names[s.request.user]
            req_resource = sc.resource_names[s.request.resource]
        lines.append(
            ",".join(
                [
                    s.emergency.label,
                    str(s.granted),
                    req_user,
                    req_resource,
                    _fmt(solution.values[i]),
                    solution.policy.action(i).label,
                    _fmt(solution.dv[0, i]),
                    _fmt(solution.dv[1, i]),
                ]
            )
        )
    Path(destination).write_text("\n".join(lines) + "\n")


class ValueFileError(ValueError):
    """Malformed value-table file; message carries the offending line number."""

    def __init__(self, line: int, msg: str):
        self.line = line
        super().__init__(f"line {line}: {msg}")


@dataclass(frozen=True)
class ValueRow:
    emergency: str
    set_index: int
    req_user: str  # "eps" for the empty request
    req_resource: str
    value: float
    action: str
    dv_deny: float
    dv_allow: float


@dataclass
class LoadedValues:
    """A reloaded value table, queryable by state description."""

    fingerprint: str
    user_names: tuple[str, ...]
    resource_names: tuple[str, ...]
    rows: list[ValueRow]

    def lookup(
        self, emergency: str, set_index: int, req_user: str, req_resource: str
    ) -> ValueRow:
        for row in self.rows:
            if (
                row.emergency == emergency
                and row.set_index == set_index
                and row.req_user == req_user
                and row.req_resource == req_resource
            ):
                return row
        raise KeyError(
            f"no state ({emergency}, {set_index}, {req_user}, {req_resource}) in table"
        )


def import_values(source: str | Path, scenario: Scenario | None = None) -> LoadedValues:
    """Parse and validate a value-table file.

    When a scenario is supplied, its fingerprint and dimensions must match.
    """
    lines = Path(source).read_text().splitlines()
    if not lines or lines[0] != FILE_HEADER:
        found = lines[0] if lines else "<empty file>"
        raise ValueFileError(1, f"expected header {FILE_HEADER!r}, found {found!r}")
    if len(lines) < 2 or not lines[1].strip():
        raise ValueFileError(2, "missing scenario fingerprint")
    fingerprint = lines[1].strip()

    rows: list[ValueRow] = []
    users: list[str] = []
    resources: list[str] = []
    for lineno, raw in enumerate(lines[2:], start=3):
        if not raw.strip():
            continue
        fields = raw.split(",")
        if len(fields) != 8:
            raise ValueFileError(lineno, f"expected 8 fields, found {len(fields)}")
        emergency, set_text, req_user, req_resource, value_t, action, dv_d, dv_a = (
            f.strip() for f in fields
        )
        if emergency not in ("calm", "alert"):
            raise ValueFileError(lineno, f"bad emergency label {emergency!r}")
        if action not in ("deny", "allow"):
            raise ValueFileError(lineno, f"bad action label {action!r}")
        try:
            set_index = int(set_text)
            value, dv_deny, dv_allow = float(value_t), float(dv_d), float(dv_a)
        except ValueError:
            raise ValueFileError(lineno, f"malformed row {raw!r}") from None
        if (req_user == "eps") != (req_resource == "eps"):
            raise ValueFileError(lineno, "eps must appear in both request fields")
        if req_user != "eps":
            if req_user not in users:
                users.append(req_user)
            if req_resource not in resources:
                resources.append(req_resource)
        rows.append(
            ValueRow(emergency, set_index, req_user, req_resource, value, action, dv_deny, dv_allow)
        )

    if not users or not resources:
        raise ValueFileError(3, "no concrete requests found; cannot infer dimensions")
    n_bits = len(users) * len(resources)
    expected = 2 * (1 << n_bits) * (n_bits + 1)
    if len(rows) != expected:
        raise ValueFileError(
            len(lines),
            f"incomplete table: {len(rows)} rows for a {expected}-state model "
            f"({len(users)} users x {len(resources)} resources)",
        )
    for row in rows:
        if not 0 <= row.set_index < (1 << n_bits):
            raise ValueFileError(3, f"set index {row.set_index} out of range")

    loaded = LoadedValues(fingerprint, tuple(users), tuple(resources), rows)
    if scenario is not None:
        if scenario_fingerprint(scenario) != fingerprint:
            raise ValueFileError(2, "scenario fingerprint does not match")
        if (
            scenario.user_names != loaded.user_names
            or scenario.resource_names != loaded.resource_names
        ):
            raise ValueFileError(3, "scenario labels do not match the table")
    return loaded
