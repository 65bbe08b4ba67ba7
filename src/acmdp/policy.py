"""The LP solve, policy extraction, and the value-table file format.

The decision value of (state, action) is the immediate reward plus the
discounted expected optimal value of the successors, q^a + beta P^a V
(bellman.decision_values); the policy picks the action with the higher
decision value, breaking ties toward deny.

The Bellman LP (min sum V s.t. V >= q^a + beta P^a V for every state and
action) is solved by policy_iterate: Howard's policy iteration, which is
the simplex method on the dual of this LP with block pivots.  Each basis
is a policy, whose values policy_evaluate solves exactly with no assembled
P.  It is the one exact solver, and stops at VERIFY_TOL as value iteration
stops at its DEFAULT_TOL: each reads its constant when it runs.

Solved tables can be exported to a line-oriented text file and reloaded for
use as a lightweight policy decision point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .bellman import (
    VERIFY_TOL,
    BellmanSystem,
    VerificationReport,
    compile_system,
    decision_values,
    price_table,
    rounding_allowance,
    verify_solution,
)
from .config import scenario_fingerprint
from .rewards import Scenario
from .states import ACTIONS, Action, Emergency
from .value_iteration import Columns, reduce_columns, solve_columns, value_iterate

PRINT_TOL = 1e-11  # twice the relative error of a number printed to 12 digits, to cover rounding
MAX_BASES = 1000
FILE_HEADER = "ACMDP-VALUES v1"
SOLVERS = ("lp", "vi")


def policy_evaluate(system: BellmanSystem, policy: np.ndarray) -> np.ndarray:
    """The exact decision values of one fixed policy, shaped as decision_values'.

    policy is an allow mask: (n,) for one system, or (n, G) for a batch of G
    (BellmanSystem.mix_batch), one policy per column.  Its values V
    solve (I - beta P_pi) V = q_pi, and V = np.where(policy, dv[1], dv[0]).
    No step mixes columns.

    Every transition keeps the granted set or reaches a strict superset, so
    the system is solved a popcount level of sets at a time from the full
    set down, each level on its own cells (RequestDynamics.lattice, planned
    once per shape, lays the cells out level by level).  A cell of set k
    reads one of k's own four draw-table entries T_k (bellman.draw_table),
    or, where the policy allows an access k lacks, the kind-0 entry of a
    set of the level just solved.  So T_k = b_k + beta M_k T_k, where b_k
    is the draw table of q_pi plus what the cells that move read.  In the
    order (kind, status), I - beta M_k is [[A, 0], [-beta E, I]], or under
    once [[A, -w beta E], [0, I - beta E]], with w the empty request's
    weight and A = I - diag(s) beta E, s the share of each status's
    weights that reads its own kind-0 entry.  diag(s) beta E and beta E are
    nonnegative with rows that sum to at most beta < 1, so A and
    I - beta E are strictly diagonally dominant, and each 2 x 2 inverse is
    its adjugate over its determinant, with no pivot (_resolvent).  Once
    per basis the solve builds every set's and column's (6, 4) operator
    (_operator): four rows give T_k from b_k, and two give beta E times
    T_k's kind-0 entries, which the level below reads.  A level then makes
    four numpy calls: it gathers what its cells read, adds q_pi, and
    applies its sets' draw matrices (RequestDynamics.lattice), which give
    each status's two entries of b_k, and then their operators, each a
    stacked matmul per column.
    After the last level, one price_table of the solved entries gives the
    decision values.  The closed form rounds differently from an LU solve
    of each block: it agrees with tests/oracle.py's reference within
    rounding_allowance.
    """
    batch, plan = system.as_batch(), system.dynamics.lattice
    policy = system.as_columns("policy", policy)
    columns, sets = policy.shape[1], len(plan.order)
    # per column and cell, laid out [g, set, status, request]: q_pi, and where
    # its value reads the solved table, made a flat index into it below
    q = np.where(policy, batch.q[1], batch.q[0]).T.take(plan.cells, axis=1)
    reads = np.where(policy.T.take(plan.cells, axis=1), plan.reads[1], plan.reads[0])
    shape = (columns, sets, 2, -1)
    own = (reads == 6 * sets).reshape(shape)
    # s, [g, t, e], and after the last set s = (1, 1): that A is I - beta E, once's kind-1 block
    shares = np.ones((columns, sets + 1, 2, 1))
    np.matmul(own, plan.draw[..., :1], out=shares[:, :sets])
    # w: the weight of the empty request, the last cell of each status
    exits = plan.draw[:, -1, 0] if system.dynamics.terminal else None
    operator = _operator(batch.mixing[:, :, 0].transpose(2, 0, 1), shares[..., 0], exits)
    solved = np.zeros((columns, sets + 1, 6))
    reads += np.arange(0, solved.size, solved[0].size)[:, None]
    reads, q, flat = reads.reshape(shape), q.reshape(shape), solved.ravel()
    stop = 0
    for level in plan.levels:
        here = slice(stop, stop := stop + len(level))
        values = flat.take(reads[:, here])
        values += q[:, here]
        rhs = np.matmul(values, plan.draw[here])  # b, [g, t, e, kind]
        np.matmul(operator[:, here], rhs.reshape(columns, -1, 4, 1), out=solved[:, here, :, None])
    table = np.empty((2, 2, sets, columns))  # [e, kind, set, g], as draw_table's
    table[:, :, plan.order] = solved[:, :sets].reshape(columns, sets, 3, 2)[:, :, ::2].T
    return price_table(batch, table).reshape(system.q.shape)


def _operator(mixing: np.ndarray, shares: np.ndarray, exits: np.ndarray | None) -> np.ndarray:
    """Each set's solve operator per column, (G, sets + 1, 6, 4): see policy_evaluate.

    mixing is beta E, (G, 2, 2); shares is s, (G, sets + 1, 2), (1, 1) after
    the last set; exits is w per set under once, else None.  Row blocks: T's
    kind-0 entries, beta E times them, T's kind-1 entries; columns: b's
    entries in the order (status, kind), as the draw matrices give them.
    The last row is no set's: it holds (I - beta E)^-1 and beta E times
    that, which under once give every set's kind 1.
    """
    operator = np.zeros((*shares.shape[:2], 6, 2, 2))
    kinds = operator.swapaxes(-1, -2)  # its column blocks: b's kind 0, kind 1
    inverse, mixed = kinds[..., :2, 0, :], kinds[..., 2:4, 0, :]
    _resolvent(shares[..., None] * mixing[:, None], out=inverse)
    np.matmul(mixing[:, None], inverse, out=mixed)
    if exits is None:  # T's kind 1 is b's plus beta E times T's kind 0
        kinds[..., 4:, 0, :] = mixed
        kinds[..., 4:, 1, :] = _IDENTITY
    else:  # T's kind 1 solves alone, and kind 0 reads it through w beta E
        sets = kinds[:, :-1]
        np.matmul(sets[..., :4, 0, :], mixed[:, -1:], out=sets[..., :4, 1, :])
        sets[..., :4, 1, :] *= exits[:, None, None]
        sets[..., 4:, 1, :] = inverse[:, -1:]
    return operator.reshape(*shares.shape[:2], 6, 4)


_IDENTITY = np.eye(2)


def _resolvent(matrices: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """(I - M)^-1 of each 2 x 2 M stacked on the leading axes: its adjugate over its determinant.

    Every M here is nonnegative with rows that sum to at most beta < 1, so
    I - M is strictly diagonally dominant and its determinant positive.
    """
    adjugate = 1.0 - matrices[..., ::-1, ::-1]  # its diagonal: 1 - m11, 1 - m00
    adjugate[..., 0, 1] = matrices[..., 0, 1]
    adjugate[..., 1, 0] = matrices[..., 1, 0]
    determinant = adjugate[..., 0, 0] * adjugate[..., 1, 1]
    determinant -= adjugate[..., 0, 1] * adjugate[..., 1, 0]
    return np.divide(adjugate, determinant[..., None, None], out=out)


def policy_iterate(
    system: BellmanSystem, start: np.ndarray | None = None
) -> tuple[np.ndarray, int]:
    """Solve the Bellman LP, one policy per simplex basis, at most MAX_BASES.

    system and start are value_iterate's, and so is the loop
    (value_iteration.solve_columns).  The first policy is greedy on
    decision_values(system, start).  With start None it is greedy on the
    fail-safe lookahead q + beta P q[deny] / (1 - beta): the state each
    action reaches is valued as its deny reward recurring forever.  That
    start is optimal on six of the seven builtins; the myopic policy
    (allow where q[allow] > q[deny]), which start zero gives, misses the
    later alert penalties a grant changes and was not optimal on four.
    Each basis pi is solved exactly by policy_evaluate, and every state
    whose other action beats its current one by more than VERIFY_TOL
    pivots at once.  A column stops at a basis where none does, which
    violates no Bellman row by more than VERIFY_TOL.  Returns the values
    and the most bases a column solved.
    """
    failure = f"no optimal policy basis within {{budget}} bases (beta={{beta}}, tol={VERIFY_TOL})"
    return solve_columns(system, start, MAX_BASES, _first_policy, _pivot, failure)


def _first_policy(batch: BellmanSystem, start: np.ndarray | None) -> Columns:
    if start is not None:
        dv = decision_values(batch, start)
    else:  # the fail-safe lookahead times 1 - beta > 0, so that no huge reward overflows
        dv = decision_values(batch, batch.q[0]) - batch.beta * batch.q
    return (dv[1] > dv[0],)  # (n, G): allow


def _pivot(batch: BellmanSystem, state: Columns) -> tuple[Columns, np.ndarray, np.ndarray | None]:
    """Solve the basis; where no state pivots the column stops, elsewhere they pivot."""
    (policy,) = state
    dv = policy_evaluate(batch, policy)
    values = np.where(policy, dv[1], dv[0])
    better = np.where(policy, dv[0], dv[1]) > values + VERIFY_TOL
    stop = ~reduce_columns(np.logical_or, better)
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
    """The policy of a (2, num_states) decision-value array; allow must win by over VERIFY_TOL."""
    gaps = np.abs(dv[1] - dv[0])
    actions = np.where(dv[1] > dv[0] + VERIFY_TOL, int(Action.ALLOW), int(Action.DENY))
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

    Both are solve(system, start=None) -> (values, count), stop at their own
    tolerance (VERIFY_TOL, value_iteration.DEFAULT_TOL) and raise
    ConvergenceError when out of budget.  The names are looked up
    at each call, so that a function rebound in this module is the one run.
    """
    if solver not in SOLVERS:
        raise ValueError(f"unknown solver {solver!r}; expected 'lp' or 'vi'")
    return policy_iterate if solver == "lp" else value_iterate


def solve_scenario(sc: Scenario, solver: str = "lp") -> Solution:
    """Compile a scenario and solve it with the LP (policy_iterate) or value iteration.

    Each stops at its own tolerance, VERIFY_TOL or value_iteration.DEFAULT_TOL.
    """
    return solve_system(compile_system(sc), solver)


def solve_system(system: BellmanSystem, solver: str = "lp") -> Solution:
    """Solve a compiled system by solve_scenario's solver, then price its values once."""
    values, iterations = solver_function(solver)(system)
    dv = decision_values(system, values)
    return Solution(
        scenario=system.scenario,
        system=system,
        values=values,
        dv=dv,
        policy=extract_policy(dv),
        iterations=iterations,
        report=verify_solution(values, dv),
    )


def state_labels(sc: Scenario) -> Iterator[tuple[str, int, str, str]]:
    """(emergency, granted set, request user, request resource) of every state of sc.

    The labels come in state-index order (ModelDims.index_state), which is
    the row order of a value-table file; the empty request is ("eps", "eps").
    """
    users, resources = sc.user_names, sc.resource_names
    requests = [
        ("eps", "eps") if req is None else (users[req.user], resources[req.resource])
        for req in sc.dims.requests
    ]
    for emergency in Emergency:
        for k in range(sc.dims.num_sets):
            for user, resource in requests:
                yield emergency.label, k, user, resource


def _state_text(labels: tuple[str, int, str, str]) -> str:
    """A row's text up to its value: its state's four fields as export_values writes them."""
    return "%s,%s,%s,%s," % labels


def export_values(solution: Solution, destination: str | Path) -> None:
    """Write the solved value table in the versioned text format, rows in state order."""
    sc, dv = solution.scenario, solution.dv
    states = map(_state_text, state_labels(sc))
    labels = [action.label for action in ACTIONS]  # indexed by Action value
    actions = map(labels.__getitem__, solution.policy.actions.tolist())
    rows = map(
        "{}{:.12g},{},{:.12g},{:.12g}".format,
        states, solution.values.tolist(), actions, dv[0].tolist(), dv[1].tolist(),
    )
    text = "\n".join([FILE_HEADER, scenario_fingerprint(sc), *rows]) + "\n"
    Path(destination).write_text(text, encoding="utf-8")


class ValueFileError(ValueError):
    """Malformed value-table file; message carries the offending line number."""

    def __init__(self, line: int, msg: str):
        self.line = line
        super().__init__(f"line {line}: {msg}")


class ValueRow(NamedTuple):
    """One value-table row, its fields in file order: row[:4] is its state."""

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
    """A reloaded value table, queryable by state description.

    scenario is the one import_values checked the table against: rows[i] is
    the row of its state ModelDims.index_state(i).  lookup finds a row by its
    state, row[:4], one probe of a dict built here.
    """

    scenario: Scenario
    rows: list[ValueRow]

    def __post_init__(self) -> None:
        self._index = {row[:4]: row for row in self.rows}

    def lookup(
        self, emergency: str, set_index: int, req_user: str, req_resource: str
    ) -> ValueRow:
        try:
            return self._index[emergency, set_index, req_user, req_resource]
        except KeyError:
            raise KeyError(
                f"no state ({emergency}, {set_index}, {req_user}, {req_resource}) in table"
            ) from None


def import_values(source: str | Path, scenario: Scenario) -> LoadedValues:
    """Parse a value-table file and check it against the scenario it was solved from.

    Its fingerprint must be the scenario's.  Row i must be state i of the
    scenario's users and resources (state_labels), its state fields and
    action the very text export_values writes; its numbers are read by
    float() from ASCII text without '_', must be finite, and must not rule
    out its action.  _certify then checks the numbers against the model.
    """
    lines = Path(source).read_text(encoding="utf-8-sig").splitlines()
    if not lines or lines[0] != FILE_HEADER:
        found = lines[0] if lines else "<empty file>"
        raise ValueFileError(1, f"expected header {FILE_HEADER!r}, found {found!r}")
    if len(lines) < 2 or not lines[1].strip():
        raise ValueFileError(2, "missing scenario fingerprint")
    if scenario_fingerprint(scenario) != lines[1].strip():
        raise ValueFileError(2, "scenario fingerprint does not match")
    dims = scenario.dims

    rows: list[ValueRow] = []
    numbered = ((n, raw) for n, raw in enumerate(lines[2:], start=3) if raw.strip())
    # the states come first, so that zip stops before it takes a row past the last
    for want, (lineno, raw) in zip(state_labels(scenario), numbered):
        fields = raw.split(",")
        if len(fields) != 8:
            raise ValueFileError(lineno, f"expected 8 fields, found {len(fields)}")
        if not raw.startswith(_state_text(want)):  # the row's first 4 fields, exactly
            raise ValueFileError(
                lineno,
                f"expected state {_show(want)}, found {_show(fields[:4])}: "
                f"rows must list every state once, in state order",
            )
        value_t, action, dv_d, dv_a = fields[4:]
        if action not in ("deny", "allow"):
            raise ValueFileError(lineno, f"bad action label {action!r}")
        numbers = value_t + dv_d + dv_a
        # float() also reads '_' and non-ASCII digits, which export_values never writes
        try:
            if not numbers.isascii() or "_" in numbers:
                raise ValueError
            value, dv_deny, dv_allow = float(value_t), float(dv_d), float(dv_a)
        except ValueError:
            raise ValueFileError(lineno, f"malformed row {raw!r}") from None
        if not all(map(math.isfinite, (value, dv_deny, dv_allow))):
            raise ValueFileError(lineno, f"non-finite number in row {raw!r}")
        # export_values writes allow exactly when dv_allow - dv_deny > VERIFY_TOL; printing
        # moves the gap by at most PRINT_TOL / 2 (|dv_deny| + |dv_allow|)
        gap = dv_allow - dv_deny
        margin = PRINT_TOL * (abs(dv_deny) + abs(dv_allow))
        if (gap > VERIFY_TOL) != (action == "allow") and abs(gap - VERIFY_TOL) > margin:
            raise ValueFileError(
                lineno, f"action {action} contradicts dv_deny {dv_d} and dv_allow {dv_a}"
            )
        rows.append(ValueRow(*want, value, action, dv_deny, dv_allow))

    if len(rows) < dims.num_states:
        raise ValueFileError(
            len(lines),
            f"incomplete table: {len(rows)} rows for a {dims.num_states}-state model "
            f"({dims.num_users} users x {dims.num_resources} resources)",
        )
    extra = next(numbered, None)
    if extra is not None:
        raise ValueFileError(extra[0], f"extra row after the last of {dims.num_states} states")
    _certify(rows, scenario, lines)
    return LoadedValues(scenario, rows)


def _certify(rows: list[ValueRow], sc: Scenario, lines: list[str]) -> None:
    """Refuse the row whose decision values, else whose value, stray furthest past a bound.

    Printing moves each dv by PRINT_TOL / 2 |dv| at most and each V_j by PRINT_TOL / 2
    |V_j|, so a row's beta P V by PRINT_TOL / 2 beta P |V|: each row's bound is its own.
    Either solver leaves V within VERIFY_TOL and the dvs' rounding_allowance of its
    larger dv.  A table that meets both bounds has a Bellman residual of at most their
    sum, so its values lie within that over 1 - beta of the optimum (Puterman 1994,
    sections 6.2-6.3).  The allowance reads the dvs, so an unread huge V_j widens none.
    """
    system = compile_system(sc)
    values = np.array([row.value for row in rows])
    written = np.array([[row.dv_deny for row in rows], [row.dv_allow for row in rows]])
    priced = decision_values(system, values)
    reach = decision_values(system, np.abs(values)) - system.q  # beta P |V|
    strays = (np.abs(priced - written) - PRINT_TOL * (np.abs(written) + reach)).max(0)
    bound = VERIFY_TOL + PRINT_TOL * (np.abs(values) + np.abs(written).max(0) + reach.max(0))
    residual = np.abs(values - written.max(0)) - bound - rounding_allowance(written, sc.beta)
    for excess, says in (
        (strays, "the table's values give dv_deny {:.12g} and dv_allow {:.12g}, but its row has"),
        (residual, "its value {2:.12g} is not the larger of its decision values"),
    ):
        i = int(excess.argmax())
        if excess[i] > 0:  # of the lines that are not blank, the header's two come before row i
            lineno = [n for n, raw in enumerate(lines, start=1) if raw.strip()][i + 2]
            shown = says.format(*priced[:, i], values[i])
            shown += f" {written[0, i]:.12g} and {written[1, i]:.12g}"
            raise ValueFileError(lineno, f"state {_show(rows[i][:4])}: {shown}")


def _show(labels: Sequence[object]) -> str:
    return "(" + ", ".join(map(str, labels)) + ")"
