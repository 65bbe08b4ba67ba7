"""Assembly of the Bellman system, its one evaluation kernel, and its checks.

compile_system turns a scenario into one BellmanSystem: the factors of its
transition matrices and its immediate rewards q.  Of these, only E, the 2x2
emergency matrix, and q depend on the rates (calm_to_alert,
alert_to_alert): the request draws of both R^a (dynamics.request_dynamics,
shared by every system of one shape) and the reward of every (action, next
status, row) (rewards.reward_parts) do not.  BellmanSystem.mix_batch mixes
a batch of one pair of rates per trailing grid column from them, so a sweep
over the rates compiles once; compile_system takes column 0 of the mix of
the scenario's own rates.  The per-state reference build the tests compare
against is tests/oracle.py.

decision_values is the one kernel that evaluates q^a + beta P^a V, on the
factors P^a = E (x) R^a.  It composes two halves, each O(n) work per value
column: draw_table averages every set's cells by its weights and takes its
empty-request cell, per status (the draw table), and price_table mixes the
statuses' tables by beta E, gathers each (action, state)'s entry with
RequestDynamics.draw_index, and adds q.  Value iteration, policy extraction
and verify_solution call decision_values; the LP's basis solve
(policy.policy_evaluate) solves for a policy's draw table itself and prices
it with price_table.  validate_stochastic checks the factors row by row.
No solver or check assembles P: BellmanSystem.transitions builds it on
first use, for comparisons with other builds of the model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .dynamics import ROW_SUM_TOL, RequestDynamics, request_dynamics
from .rewards import Scenario, reward_parts
from .states import ACTIONS, Emergency, ModelDims

if TYPE_CHECKING:
    from scipy import sparse

VERIFY_TOL = 1e-9  # how far a Bellman row may be off: its violation, its slack, a tie
EPS = float(np.finfo(float).eps)
TINY = float(np.finfo(float).tiny)  # the least normal float; below it floats are EPS * TINY apart
ROUNDING_ULPS = 4  # rounding_allowance, in units of eps * max(max|V|, TINY) / (1 - beta)


@dataclass
class BellmanSystem:
    """One compiled system, or a batch of G that differ only in E.

    A batch carries a trailing grid axis: one E per column, q of shape
    (2, n, G), values (n, G).  It has no transitions; it serves
    decision_values and both solvers.  Every system mixed from another
    (mix_batch, as_batch, columns) shares its scenario, dynamics and rewards.
    """

    scenario: Scenario
    dynamics: RequestDynamics  # shared by every system of its shape
    rewards: np.ndarray  # (action, next status, row): see rewards.reward_parts
    emergency: np.ndarray  # E, (2, 2); for a batch, (2, 2, G)
    q: np.ndarray  # (2, n) immediate rewards indexed by Action; (2, n, G) for a batch

    @property
    def space(self) -> ModelDims:
        return self.scenario.dims

    @property
    def num_states(self) -> int:
        return self.space.num_states

    @property
    def beta(self) -> float:
        return self.scenario.beta

    @cached_property
    def transitions(self) -> tuple[sparse.csr_matrix, ...]:
        """(P^deny, P^allow), indexed by Action: P^a = E (x) R^a, assembled on first use.

        Row x of R^a is the row of the draw table that its calm state reads
        (RequestDynamics.draw_index): set k's weights at set k's cells, or
        a 1 at set k's empty-request cell.  E's zeros and the weights' are
        dropped, so every entry is a positive-probability successor.  No solver
        or command reads it, only comparisons with other builds of the model (the
        tests, the benchmark's checks); it needs scipy, a test dependency, loaded here.
        """
        from scipy import sparse

        dynamics = self.dynamics
        sets, per_set = dynamics.weights.shape
        k, j = np.nonzero(dynamics.weights)
        table = sparse.csr_matrix(
            (
                np.concatenate([dynamics.weights[k, j], np.ones(sets)]),
                (
                    np.concatenate([k, sets + np.arange(sets)]),
                    np.concatenate([k * per_set + j, np.arange(sets) * per_set + per_set - 1]),
                ),
            ),
            shape=(2 * sets, dynamics.size),
        )
        emergency = sparse.csr_matrix(self.emergency)
        index = dynamics.draw_index.reshape(2, -1)[:, : dynamics.size]
        return tuple(sparse.kron(emergency, table[index[a]], format="csr") for a in ACTIONS)

    @cached_property
    def mixing(self) -> np.ndarray:
        """beta E as (2, 2, 1, G), G = 1 for one system: price_table's factor, built once."""
        mixing = self.beta * self.emergency.reshape(2, 2, 1, -1)
        mixing.flags.writeable = False
        return mixing

    def mix_batch(self, rates: np.ndarray | Sequence[tuple[float, float]]) -> BellmanSystem:
        """The batch of this scenario's systems, one per (calm_to_alert, alert_to_alert) (_mix)."""
        return self._with(*_mix(self.rewards, rates))

    def as_batch(self) -> BellmanSystem:
        """This batch, or this single system as a batch of one (views, no copy)."""
        if self.q.ndim == 3:
            return self
        return self._with(self.emergency[..., None], self.q[..., None])

    def columns(self, keep: np.ndarray) -> BellmanSystem:
        """The batch of this batch's columns where keep is true, in order."""
        return self._with(self.emergency.compress(keep, -1), self.q.compress(keep, -1))

    def as_columns(self, name: str, array: np.ndarray) -> np.ndarray:
        """array, one entry per state of each system ((n,), or (n, G) as q[0]), as (n, G)."""
        array = np.asarray(array)
        if array.shape != self.q.shape[1:]:
            raise ValueError(f"{name} has shape {array.shape}, expected {self.q.shape[1:]}")
        return array.reshape(len(array), -1)

    def _with(self, emergency: np.ndarray, q: np.ndarray) -> BellmanSystem:
        return BellmanSystem(self.scenario, self.dynamics, self.rewards, emergency, q)


def _mix(
    rewards: np.ndarray, rates: np.ndarray | Sequence[tuple[float, float]]
) -> tuple[np.ndarray, np.ndarray]:
    """E and q of the systems of rewards, one per (calm_to_alert, alert_to_alert).

    Column g's E is ((1 - c, c), (1 - a, a)) of rates[g] = (c, a), each
    rate in [0, 1]; rates that are not one or more such pairs, or a rate
    outside [0, 1], raise ValueError.  A (G, 2) float array is read as it
    is, with no conversion of G pairs.  E is C-contiguous (2, 2, G) and q,
    C-contiguous (2, n, G), is q[a, (e, x), g] = sum_e2 E_g[e, e2] rewards[a, e2, x].
    """
    try:
        rates = np.asarray(rates, dtype=float)
    except ValueError:  # ragged pairs, which numpy's message names no shape for
        rates = np.asarray(rates, dtype=object)  # shaped up to where the pairs differ
    if rates.shape[1:] != (2,) or not rates.size:
        raise ValueError(
            "rates must be a non-empty sequence of (calm_to_alert, alert_to_alert) pairs, "
            f"got shape {rates.shape}"
        )
    rates = rates.astype(float, copy=False)  # a pair's entry that is not a number raises
    if not (rates.min() >= 0.0 and rates.max() <= 1.0):  # written so that NaN fails
        g, k = np.argwhere(~((rates >= 0.0) & (rates <= 1.0)))[0]
        name = ("calm_to_alert", "alert_to_alert")[k]
        raise ValueError(f"column {g}: {name} {rates[g, k]} outside [0, 1]")
    matrices = np.empty((2, 2, len(rates)))  # [e, e2, g]: column g's (1 - c, c), (1 - a, a)
    matrices[:, 1] = rates.T
    np.subtract(1.0, rates.T, out=matrices[:, 0])
    rewards = rewards[:, None, :, :, None]
    q = np.multiply(matrices[:, 0, None], rewards[:, :, 0])
    q += matrices[:, 1, None] * rewards[:, :, 1]
    return matrices, q.reshape(2, -1, len(rates))


def compile_system(sc: Scenario) -> BellmanSystem:
    """Transition matrices and immediate rewards of every action: the mix of sc's E, column 0."""
    rewards = reward_parts(sc)
    emergency, q = _mix(rewards, [(sc.calm_to_alert, sc.alert_to_alert)])
    dynamics = request_dynamics(sc.dims, sc.behavior)
    return BellmanSystem(sc, dynamics, rewards, emergency[..., 0], q[..., 0])


def decision_values(system: BellmanSystem, values: np.ndarray) -> np.ndarray:
    """q^a + beta P^a V, indexed by Action: (2, n), or (2, n, G) for a batch and (n, G) values.

    price_table of draw_table.  No step mixes value columns, so a column's
    result does not depend on the other columns of its batch.
    """
    return price_table(system, draw_table(system, values))


def draw_table(system: BellmanSystem, values: np.ndarray) -> np.ndarray:
    """The draw table of values, (n,) or (n, G): (2, 2, sets, G), [status, kind, set, column].

    Kind 0 averages the set's cells by its weights; kind 1 is its empty-request cell.
    """
    dynamics = system.dynamics
    sets, per_set = dynamics.weights.shape
    cells = values.reshape(2, sets, per_set, -1).transpose(2, 0, 1, 3)  # [j, e, k, column]
    table = np.empty((2, 2, sets, cells.shape[-1]))
    # with drawn_weights C-contiguous the product is laid out [e][j][k][column] in
    # memory: the request axis is outside the set axis, so the sum below runs
    # along it in request order, for any number of columns
    terms = dynamics.drawn_weights * cells[dynamics.drawn]
    np.add.reduce(terms, axis=0, out=table[:, 0])
    table[:, 1] = cells[-1]
    return table


def price_table(system: BellmanSystem, table: np.ndarray) -> np.ndarray:
    """decision_values from V's draw table: mix by beta E, gather by draw_index, add q."""
    _, _, sets, columns = table.shape
    table = table.reshape(2, 2 * sets, columns)
    # mixed[e] = sum_e2 beta E[e, e2] table[e2], per column
    mixed = system.mixing[:, 0] * table[0]
    mixed += system.mixing[:, 1] * table[1]
    index = system.dynamics.draw_index
    out = mixed.reshape(-1, columns).take(index, axis=0).reshape(system.q.shape)
    out += system.q
    return out


def rounding_allowance(values: np.ndarray, beta: float) -> float:
    """Distance a computed solution may lie from its exact one by rounding alone.

    A kernel evaluation or a basis solve is exact up to a few units in the
    last place of the largest value, and a beta-contraction amplifies such
    an error by up to 1 / (1 - beta).  Measured in these units against values
    refined in np.longdouble, on two samples of 900 random 1x1 to 2x2
    scenarios with beta up to 0.999, rewards scaled up to 100-fold and a
    fifth solved by value iteration with a DEFAULT_TOL of 0: value iteration,
    with its span stop and the shift to the bounds' midpoint, exceeded its
    DEFAULT_TOL by at most 1.85 (its rounding-level stop accounts for up to
    1), policy iteration erred by at most 0.75, and the two differed by at
    most 1.94 beyond DEFAULT_TOL.
    A value-iteration sign test needs the first, an LP-VI comparison the
    last.  The allowance covers the sum of the first two, 2.58 and 2.47 on
    the two samples.  Priced exactly in Fraction arithmetic instead
    (tests/oracle.py), on 1,000 such scenarios with beta up to 0.999, the
    values of policy iteration's last basis erred by at most 0.96, as with
    an LU solve of each block: at small beta the rounding of q and of the
    pricing dominates.  On 1,000 with beta from 0.9 to 0.999 the closed-form
    block solve erred by at most 0.51, and the LU solve by 0.71.
    A unit is never taken below EPS * TINY, the spacing of the subnormal
    floats, which is what an underflowing product of a tiny rate loses.
    """
    return float(ROUNDING_ULPS * EPS * max(np.abs(values).max(), TINY) / (1.0 - beta))


@dataclass
class VerificationReport:
    """How far a value vector's Bellman rows are off, each half judged by VERIFY_TOL.

    A caller that knows how far rounding alone can move a row passes that as
    rounding, and each half is then judged by VERIFY_TOL plus it.
    """

    max_violation: float  # largest amount any Bellman constraint is broken by
    max_min_slack: float  # worst tightness: 0 when every state has a tight row

    @property
    def residual(self) -> float:
        """||V - TV||: V is within residual / (1 - beta) of the optimum, plus this float's rounding."""
        return max(self.max_violation, self.max_min_slack)

    def feasible(self, rounding: float = 0.0) -> bool:
        """No row is broken by more than VERIFY_TOL plus rounding."""
        return self.max_violation <= VERIFY_TOL + rounding

    def all_tight(self, rounding: float = 0.0) -> bool:
        """Every state has a row within VERIFY_TOL plus rounding of tight."""
        return self.max_min_slack <= VERIFY_TOL + rounding


def verify_solution(values: np.ndarray, dv: np.ndarray) -> VerificationReport:
    """Slack analysis of a value vector against the Bellman rows, given its decision values.

    A slack that is not finite, as of values or decision values that overflowed,
    reports both halves as infinite, since a NaN would compare as within VERIFY_TOL.
    """
    slacks = values - dv
    if not np.isfinite(slacks).all():
        return VerificationReport(max_violation=math.inf, max_min_slack=math.inf)
    return VerificationReport(
        max_violation=float(max(0.0, -slacks.min())),
        max_min_slack=float(slacks.min(axis=0).max()),
    )


def validate_stochastic(system: BellmanSystem) -> list[str]:
    """One problem per row of E, set's weights or draw index that leaves P^a not stochastic.

    Row (e, x) of P^a = E (x) R^a is row e of E times the table entry that
    draw_index gives (a, (e, x)): a set's weights, or a 1 at its
    empty-request cell.  Every row of E is read by its status's states,
    every set's weights by deny from that set's concrete-request rows and
    every index by its own (action, state), so P^a is stochastic exactly
    when every row of E and of the weights has entries in [0, 1] and mass
    within ROW_SUM_TOL of 1, and every index reads its own status's block.
    Only a hand-built system breaks E: a mix refuses a rate outside [0, 1]
    before it forms E, and each row (1 - c, c) then sums to 1 within an ulp.
    """
    dynamics = system.dynamics
    problems = []
    for factor, rows, names in (
        ("emergency row", system.emergency, [e.label for e in Emergency]),
        ("request weights of set", dynamics.weights, range(len(dynamics.weights))),
    ):
        mass = rows.sum(axis=1)
        # written so that a NaN fails both tests
        fine = ((rows >= 0.0) & (rows <= 1.0)).all(axis=1) & (np.abs(mass - 1.0) <= ROW_SUM_TOL)
        problems += [
            f"{factor} {names[i]} {rows[i].tolist()} has mass {mass[i]}"
            for i in np.flatnonzero(~fine)
        ]
    index, n = dynamics.draw_index, system.num_states
    status = np.arange(len(index)) % n // dynamics.size
    problems += [
        f"draw_index[{i}] = {index[i]} reads outside the {Emergency(status[i]).label} block"
        for i in np.flatnonzero(index // (2 * len(dynamics.weights)) != status)
    ]
    return problems
