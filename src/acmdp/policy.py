"""The LP solve, policy extraction, and the value-table file format.

The decision value of (state, action) is the immediate reward plus the
discounted expected optimal value of the successors, q^a + beta P^a V
(bellman.decision_values); the policy picks the action with the higher
decision value, breaking ties toward deny.

The Bellman LP (min sum V s.t. V >= q^a + beta P^a V for every state and
action) is solved by policy_iterate: Howard's policy iteration, which is
the simplex method on the dual of this LP with block pivots.  Each basis
is a policy, whose values policy_evaluate solves exactly with no assembled
P.  It is the one exact solver.

Solved tables can be exported to a line-oriented text file and reloaded for
use as a lightweight policy decision point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from .bellman import (
    VERIFY_TOL,
    BellmanSystem,
    VerificationReport,
    compile_system,
    decision_values,
    draw_table,
    price_table,
    verify_solution,
)
from .config import scenario_fingerprint
from .rewards import Scenario, check_labels
from .states import Action, CapacityError, Emergency, ModelDims, StateSpace
from .value_iteration import Columns, solve_columns, value_iterate

TIE_TOL = 1e-9
MAX_BASES = 1000
FILE_HEADER = "ACMDP-VALUES v1"
SOLVERS = ("lp", "vi")


def policy_evaluate(system: BellmanSystem, policy: np.ndarray) -> np.ndarray:
    """The exact decision values of one fixed policy, shaped as decision_values'.

    policy is an allow mask: (n,) for one system, or (n, G) for a batch of G
    (bellman.SystemParts.mix_batch), one policy per column.  Its values V
    solve (I - beta P_pi) V = q_pi, and V = np.where(policy, dv[1], dv[0]).
    No step mixes columns.

    Every transition keeps the granted set or reaches a strict superset, so
    the system is solved a popcount level of sets at a time from the full
    set down (RequestDynamics.lattice, planned once per shape).  A state of
    set k reads a solved superset's entry or one of k's own four draw-table
    entries T_k (bellman.draw_table), so T_k = draw_table(b)_k + beta M_k T_k:
    b is the policy's decision values with this level's entries zero, and
    M_k, E times draw_table of the indicator "reads its own set's entry of
    this kind", has row sums at most 1, so I - beta M_k is regular.  A level
    is one batched 4 x 4 solve per set and column; price_table of the
    entries solved so far gives the decision values.
    """
    batch, dynamics = system.as_batch(), system.parts.dynamics
    policy = system.as_columns("policy", policy)
    sets = len(dynamics.weights)
    own, levels = dynamics.lattice
    # shares[k, g, e, kind, ., c]: the draw table of own under pi
    shares = np.where(policy[..., None], own[1, :, None], own[0, :, None])
    shares = draw_table(batch, shares.reshape(system.num_states, -1))
    shares = shares.reshape(2, 2, sets, -1, 2).transpose(2, 3, 0, 1, 4)
    mixing = batch.beta * batch.emergency.transpose(2, 0, 1)[:, :, None, :, None]
    blocks = np.eye(4) - (mixing * shares[..., None, :]).reshape(sets, -1, 4, 4)
    entries = np.zeros((4, sets, policy.shape[1]))  # V's draw table, (status, kind) by set
    dv = batch.q
    for level in levels:
        rhs = draw_table(batch, np.where(policy, dv[1], dv[0])).reshape(4, sets, -1)
        solved = np.linalg.solve(blocks[level], rhs[:, level].transpose(1, 2, 0)[..., None])
        entries[:, level] = solved[..., 0].transpose(2, 0, 1)
        dv = price_table(batch, entries.reshape(2, 2, sets, -1))
    return dv.reshape(system.q.shape)


def policy_iterate(
    system: BellmanSystem,
    tol: float = VERIFY_TOL,
    start: np.ndarray | None = None,
) -> tuple[np.ndarray, int]:
    """Solve the Bellman LP, one policy per simplex basis, at most MAX_BASES.

    system and start are value_iterate's, and so is the loop
    (value_iteration.solve_columns).  The first policy is greedy on
    decision_values(system, start); start None is zero, giving the myopic
    policy (allow where q[allow] > q[deny]).  Each basis pi is solved
    exactly by policy_evaluate, and every state whose other action beats
    its current one by more than tol pivots at once.  A column stops at a
    basis where none does, which violates no Bellman row by more than tol.
    Returns the values and the most bases a column solved.
    """
    failure = "no optimal policy basis within {budget} bases (beta={beta}, tol={tol})"
    return solve_columns(system, tol, start, MAX_BASES, _first_policy, _pivot, failure)


def _first_policy(batch: BellmanSystem, start: np.ndarray | None) -> Columns:
    dv = batch.q if start is None else decision_values(batch, start)
    return (dv[1] > dv[0],)  # (n, G): allow


def _pivot(
    batch: BellmanSystem, state: Columns, tol: float
) -> tuple[Columns, np.ndarray, np.ndarray | None]:
    """Solve the basis; where no state pivots the column stops, elsewhere they pivot."""
    (policy,) = state
    dv = policy_evaluate(batch, policy)
    values = np.where(policy, dv[1], dv[0])
    better = np.where(policy, dv[0], dv[1]) > values + tol
    stop = ~better.any(axis=0)
    policy ^= better  # no state of a stopped column pivots
    return (policy,), stop, values[:, stop] if stop.any() else None


@dataclass
class PolicyMap:
    """Chosen action per state plus the absolute decision-value gap."""

    actions: np.ndarray  # (num_states,) of Action integer values
    gaps: np.ndarray  # (num_states,) |DV(allow) - DV(deny)|

    def action(self, index: int) -> Action:
        return Action(int(self.actions[index]))


def extract_policy(dv: np.ndarray) -> PolicyMap:
    """The policy of a (2, num_states) decision-value array."""
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
    iterations: int  # lp: policy bases solved; vi: value-iteration sweeps
    report: VerificationReport  # verify_solution of values and dv


def solver_function(solver: str) -> Callable[..., tuple[np.ndarray, int]]:
    """The solve function of a name in SOLVERS: policy_iterate or value_iterate.

    Both are solve(system, tol=<own default>, start=None) -> (values, count),
    and raise ConvergenceError when out of budget.  The names are looked up
    at each call, so that a function rebound in this module is the one run.
    """
    if solver not in SOLVERS:
        raise ValueError(f"unknown solver {solver!r}; expected 'lp' or 'vi'")
    return policy_iterate if solver == "lp" else value_iterate


def solve_scenario(sc: Scenario, solver: str = "lp", tol: float | None = None) -> Solution:
    """Compile a scenario and solve it with the LP (policy_iterate) or value iteration.

    tol defaults to each solver's own tolerance: for the LP, the largest
    Bellman-row violation the final basis may leave (1e-9); for value
    iteration, the bound on the distance of its values from the optimum
    (1e-10).
    """
    return solve_system(compile_system(sc), solver, tol)


def solve_system(system: BellmanSystem, solver: str = "lp", tol: float | None = None) -> Solution:
    """Solve a compiled system; solver and tol are solve_scenario's.

    The solution's dv, policy and report come from one decision_values call.
    """
    solve = solver_function(solver)
    values, iterations = solve(system, **({} if tol is None else {"tol": tol}))
    dv = decision_values(system, values)
    return Solution(
        scenario=system.parts.scenario,
        system=system,
        values=values,
        dv=dv,
        policy=extract_policy(dv),
        iterations=iterations,
        report=verify_solution(values, dv),
    )


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _request_labels(
    space: StateSpace, user_names: Sequence[str], resource_names: Sequence[str]
) -> list[tuple[str, str]]:
    """(user, resource) of each request in request-index order; ("eps", "eps") if empty."""
    return [
        ("eps", "eps") if req is None else (user_names[req.user], resource_names[req.resource])
        for req in space.requests
    ]


def state_labels(
    space: StateSpace, user_names: Sequence[str], resource_names: Sequence[str]
) -> Iterator[tuple[str, int, str, str]]:
    """(emergency, granted set, request user, request resource) of every state.

    The labels come in state-index order (StateSpace.index_state), which is
    the row order of a value-table file.
    """
    requests = _request_labels(space, user_names, resource_names)
    for emergency in Emergency:
        for k in range(space.dims.num_sets):
            for user, resource in requests:
                yield emergency.label, k, user, resource


def export_values(solution: Solution, destination: str | Path) -> None:
    """Write the solved value table in the versioned text format, rows in state order."""
    sc = solution.scenario
    space = solution.system.space
    lines = [FILE_HEADER, scenario_fingerprint(sc)]
    for i, (emergency, k, req_user, req_resource) in enumerate(
        state_labels(space, sc.user_names, sc.resource_names)
    ):
        lines.append(
            ",".join(
                [
                    emergency,
                    str(k),
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


_EMERGENCY_LABELS = frozenset(e.label for e in Emergency)


@dataclass
class LoadedValues:
    """A reloaded value table, queryable by state description.

    rows[i] is the row of state i in the StateSpace order of a model with
    these users and resources; import_values refuses a file that breaks it.
    lookup finds a row by its own labels, one probe of a dict built here.
    """

    fingerprint: str
    user_names: tuple[str, ...]
    resource_names: tuple[str, ...]
    rows: list[ValueRow]
    dims: ModelDims = field(init=False)  # the table's shape, from its labels

    def __post_init__(self) -> None:
        self.dims = ModelDims(len(self.user_names), len(self.resource_names))
        self._index = {
            (row.emergency, row.set_index, row.req_user, row.req_resource): row
            for row in self.rows
        }

    def lookup(
        self, emergency: str, set_index: int, req_user: str, req_resource: str
    ) -> ValueRow:
        try:
            return self._index[emergency, set_index, req_user, req_resource]
        except KeyError:
            raise KeyError(
                f"no state ({emergency}, {set_index}, {req_user}, {req_resource}) in table"
            ) from None


def import_values(source: str | Path, scenario: Scenario | None = None) -> LoadedValues:
    """Parse and validate a value-table file.

    The rows must list every state once, in state order (state_labels),
    with finite numbers.  The user and resource order is the scenario's
    when one is supplied, and its fingerprint must match; otherwise it is
    the order of first appearance in the rows, and each label must pass
    rewards.check_labels at the line that first names it.
    """
    lines = Path(source).read_text().splitlines()
    if not lines or lines[0] != FILE_HEADER:
        found = lines[0] if lines else "<empty file>"
        raise ValueFileError(1, f"expected header {FILE_HEADER!r}, found {found!r}")
    if len(lines) < 2 or not lines[1].strip():
        raise ValueFileError(2, "missing scenario fingerprint")
    fingerprint = lines[1].strip()
    if scenario is not None and scenario_fingerprint(scenario) != fingerprint:
        raise ValueFileError(2, "scenario fingerprint does not match")

    rows: list[ValueRow] = []
    linenos: list[int] = []
    users: dict[str, None] = {}  # insertion-ordered sets
    resources: dict[str, None] = {}
    for lineno, raw in enumerate(lines[2:], start=3):
        if not raw.strip():
            continue
        fields = raw.split(",")
        if len(fields) != 8:
            raise ValueFileError(lineno, f"expected 8 fields, found {len(fields)}")
        emergency, set_text, req_user, req_resource, value_t, action, dv_d, dv_a = (
            f.strip() for f in fields
        )
        if emergency not in _EMERGENCY_LABELS:
            raise ValueFileError(lineno, f"bad emergency label {emergency!r}")
        if action not in ("deny", "allow"):
            raise ValueFileError(lineno, f"bad action label {action!r}")
        try:
            set_index = int(set_text)
            value, dv_deny, dv_allow = float(value_t), float(dv_d), float(dv_a)
        except ValueError:
            raise ValueFileError(lineno, f"malformed row {raw!r}") from None
        if not all(map(math.isfinite, (value, dv_deny, dv_allow))):
            raise ValueFileError(lineno, f"non-finite number in row {raw!r}")
        # export_values writes allow exactly when dv_allow - dv_deny > TIE_TOL.  Printing
        # to 12 significant digits moves each value by at most 5e-12 of its printed size,
        # so the gap by 5e-12 (|dv_deny| + |dv_allow|); twice that also covers the float
        # rounding of both comparisons, a few parts in 1e16 of the same sum
        gap = dv_allow - dv_deny
        margin = 1e-11 * (abs(dv_deny) + abs(dv_allow))
        if (gap > TIE_TOL) != (action == "allow") and abs(gap - TIE_TOL) > margin:
            raise ValueFileError(
                lineno, f"action {action} contradicts dv_deny {dv_d} and dv_allow {dv_a}"
            )
        if (req_user == "eps") != (req_resource == "eps"):
            raise ValueFileError(lineno, "eps must appear in both request fields")
        if req_user != "eps":
            if req_user not in users or req_resource not in resources:
                try:
                    check_labels("user", (req_user,))
                    check_labels("resource", (req_resource,))
                except ValueError as exc:
                    raise ValueFileError(lineno, str(exc)) from None
            users[req_user] = resources[req_resource] = None
        rows.append(
            ValueRow(emergency, set_index, req_user, req_resource, value, action, dv_deny, dv_allow)
        )
        linenos.append(lineno)

    if scenario is not None:
        user_names, resource_names = scenario.user_names, scenario.resource_names
    else:
        user_names, resource_names = tuple(users), tuple(resources)
    if not user_names or not resource_names:
        raise ValueFileError(3, "no concrete requests found; cannot infer dimensions")
    try:
        space = StateSpace(ModelDims(len(user_names), len(resource_names)))
    except CapacityError as exc:
        raise ValueFileError(3, str(exc)) from None
    for row, lineno, want in zip(
        rows, linenos, state_labels(space, user_names, resource_names)
    ):
        found = (row.emergency, row.set_index, row.req_user, row.req_resource)
        if found != want:
            raise ValueFileError(
                lineno,
                f"expected state {_show(want)}, found {_show(found)}: "
                f"rows must list every state once, in state order",
            )
    if len(rows) < len(space):
        raise ValueFileError(
            len(lines),
            f"incomplete table: {len(rows)} rows for a {len(space)}-state model "
            f"({len(user_names)} users x {len(resource_names)} resources)",
        )
    if len(rows) > len(space):
        raise ValueFileError(
            linenos[len(space)], f"extra row after the last of {len(space)} states"
        )
    return LoadedValues(fingerprint, user_names, resource_names, rows)


def _show(labels: tuple[str, int, str, str]) -> str:
    return "(" + ", ".join(map(str, labels)) + ")"
