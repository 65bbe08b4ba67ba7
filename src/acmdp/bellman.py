"""Assembly of the Bellman system, its one evaluation kernel, and its checks.

compile_system turns a scenario into the factors of its transition matrices
and the immediate-reward vectors, in two steps.  build_parts builds the
part that does not depend on the 2x2 emergency matrix E: the request-draw
structure of both R^a (dynamics.request_dynamics), with both R^a written
once per emergency status as one (2n, n) matrix, and the reward of every
(action, next status, row) (rewards.reward_parts), all by array arithmetic
with no Python loop per state.  SystemParts.mix(E) then returns the system
of the built scenario with its emergency matrix replaced by E, with q
weighted by E's rows; SystemParts.mix_batch returns G such systems at once,
one E per trailing grid column.  A mix can change nothing but E, so a sweep
over E builds the parts once.  The per-state reference build the tests
compare against is tests/oracle.py.

decision_values is the only code that evaluates q^a + beta P^a V.  It
works on the factors, P^a = (I (x) R^a)(E (x) I): it mixes V's two status
halves by beta E, backs up both actions, both statuses and every grid
column with one product with RequestDynamics.requests, and adds q.  The LP
solve (policy.policy_iterate), value iteration's backup, policy extraction
and verify_solution all read its (2, n) output; a batch reads (2, n, G).
validate_stochastic checks the factors, since every row of P^a is a row of
E times a row of R^a.  No solver and no check assembles P:
BellmanSystem.transitions builds each P^a = E (x) R^a on first use, for
comparisons with other builds of the model.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence

import numpy as np
from scipy import sparse

from .dynamics import ROW_SUM_TOL, EmergencyMatrix, RequestDynamics, request_dynamics
from .rewards import Scenario, reward_parts
from .states import ACTIONS, Action, State, StateSpace

VERIFY_TOL = 1e-9  # largest Bellman-row violation a feasible solution may leave
TIGHT_TOL = 1e-7  # largest slack of a tight state's tightest row
ROUNDING_ULPS = 4  # rounding_allowance, in units of eps * max|V| / (1 - beta)


@dataclass
class BellmanSystem:
    """One compiled system, or a batch of G that differ only in E.

    A batch carries a trailing grid axis: one E per column, q of shape
    (2, n, G), values (n, G).  It has no scenario of its own and no
    transitions; value iteration and decision_values are all it serves.
    """

    scenario: Scenario | None  # None for a batch
    parts: SystemParts  # the E-free part it was mixed from
    emergency: np.ndarray  # E, (2, 2); for a batch, (2, 2, G)
    q: np.ndarray  # (2, n) immediate rewards indexed by Action; (2, n, G) for a batch

    @property
    def space(self) -> StateSpace:
        return self.parts.space

    @property
    def num_states(self) -> int:
        return len(self.parts.space)

    @property
    def beta(self) -> float:
        return self.parts.scenario.beta

    @cached_property
    def transitions(self) -> tuple[sparse.csr_matrix, ...]:
        """(P^deny, P^allow), indexed by Action: P^a = E (x) R^a, assembled on first use.

        R^a is the calm copy of its rows in RequestDynamics.requests; E's
        zeros are dropped, so every entry is a positive-probability successor.
        No solver reads it.
        """
        requests, size, n = self.parts.dynamics.requests, self.parts.dynamics.size, self.num_states
        emergency = sparse.csr_matrix(self.emergency)
        return tuple(
            sparse.kron(emergency, requests[a * n : a * n + size, :size], format="csr")
            for a in ACTIONS
        )


@dataclass(frozen=True)
class SystemParts:
    """The part of a compiled system that does not depend on the emergency matrix E."""

    scenario: Scenario
    space: StateSpace
    dynamics: RequestDynamics
    rewards: np.ndarray  # (action, next status, row): see rewards.reward_parts

    def mix(self, emergency: EmergencyMatrix) -> BellmanSystem:
        """The system of the built scenario with its emergency matrix replaced by emergency."""
        matrix = np.array(emergency.rows, dtype=float)
        return BellmanSystem(
            replace(self.scenario, emergency=emergency),
            self,
            matrix,
            (matrix @ self.rewards).reshape(2, -1),
        )

    def mix_batch(self, emergencies: Sequence[EmergencyMatrix]) -> BellmanSystem:
        """The batch of the built scenario's systems with each of emergencies as E, in order."""
        matrices = np.array([e.rows for e in emergencies], dtype=float)
        # q[a, (e, x), g] = sum_e2 E_g[e, e2] rewards[a, e2, x]
        q = (matrices[None] @ self.rewards[:, None]).transpose(0, 2, 3, 1)
        return BellmanSystem(
            None,
            self,
            np.ascontiguousarray(matrices.transpose(1, 2, 0)),
            q.reshape(2, -1, len(matrices)),
        )


def build_parts(sc: Scenario) -> SystemParts:
    """The E-free part of sc's system, to be mixed with E by SystemParts.mix."""
    return SystemParts(
        sc, StateSpace(sc.dims), request_dynamics(sc.dims, sc.behavior), reward_parts(sc)
    )


def compile_system(sc: Scenario) -> BellmanSystem:
    """Transition matrices and immediate rewards of every action."""
    return build_parts(sc).mix(sc.emergency)


def decision_values(system: BellmanSystem, values: np.ndarray) -> np.ndarray:
    """q^a + beta P^a V, indexed by Action: (2, n), or (2, n, G) for a batch and (n, G) values.

    P^a = E (x) R^a = (I (x) R^a)(E (x) I): V's two status halves are mixed
    by beta E, then one product with RequestDynamics.requests backs up both
    actions, both statuses and every column, and q is added.
    """
    halves = values.reshape((2, -1) + values.shape[1:])
    # (E (x) I) V scaled by beta: status e's half is sum_e2 beta E[e, e2] V_e2
    mixing = system.beta * system.emergency
    mixed = mixing[:, 0, None] * halves[0] + mixing[:, 1, None] * halves[1]
    out = system.parts.dynamics.requests @ mixed.reshape(values.shape)
    out = out.reshape((2,) + values.shape)
    out += system.q
    return out


def rounding_allowance(values: np.ndarray, beta: float) -> float:
    """Distance a computed solution may lie from its exact one by rounding alone.

    A kernel evaluation or an LU solve is exact up to a few units in the last
    place of the largest value, and a beta-contraction amplifies such an
    error by up to 1 / (1 - beta).  Measured in these units against values
    refined in extended precision, on 900 random 1x1 to 2x2 scenarios with
    beta up to 0.999 and rewards scaled up to 100-fold (185 of them with
    tol below one unit in the last place of max|V|): value iteration, with
    its span stop and the shift to the bounds' midpoint, exceeded its tol
    by at most 2.09 (its stop at a rounding-level span accounts for up to
    1), policy iteration's block solves erred by at most 1.86, and the two
    differed by at most 2.02 beyond tol.  The allowance covers the sum of
    both worst cases.
    """
    return float(ROUNDING_ULPS * np.finfo(float).eps * np.abs(values).max() / (1.0 - beta))


@dataclass
class VerificationReport:
    max_violation: float  # largest amount any Bellman constraint is broken by
    min_slack: np.ndarray  # per state, the smallest slack over both actions
    max_min_slack: float  # worst tightness: 0 when every state has a tight row

    @property
    def residual(self) -> float:
        """||V - TV||: V lies within residual / (1 - beta) of the optimum."""
        return max(self.max_violation, self.max_min_slack)

    def feasible(self) -> bool:
        return self.max_violation <= VERIFY_TOL

    def all_tight(self) -> bool:
        return self.max_min_slack <= TIGHT_TOL


def verify_solution(values: np.ndarray, dv: np.ndarray) -> VerificationReport:
    """Slack analysis of a value vector against the Bellman rows, given its decision values."""
    slacks = values - dv
    min_slack = slacks.min(axis=0)
    return VerificationReport(
        max_violation=float(max(0.0, -slacks.min())),
        min_slack=min_slack,
        max_min_slack=float(min_slack.max()),
    )


@dataclass(frozen=True)
class StochasticityViolation:
    state: State
    action: Action
    total_mass: float
    detail: str


def validate_stochastic(system: BellmanSystem) -> list[StochasticityViolation]:
    """Check that every (state, action) row of a compiled system is a distribution.

    Row (e, x) of P^a is row e of E times the row of RequestDynamics.requests
    that backs up state (e, x) under action a, so it is a distribution when
    both factors' rows are: E's rows sum to 1 with entries in [0, 1] (its
    zeros are dropped), and requests' rows sum to 1 with entries in (0, 1].
    A (state, action) is flagged when either of its rows is, with the
    product of their sums as its mass.  Returns the violations in
    state-major, action-minor order; empty means the model is well-formed.
    """
    emergency, requests = system.emergency, system.parts.dynamics.requests
    n = system.num_states
    status = np.arange(n) // system.parts.dynamics.size
    e_mass = emergency.sum(axis=1)
    e_range = (emergency >= 0.0) & (emergency <= 1.0)
    e_flagged = (np.abs(e_mass - 1.0) > ROW_SUM_TOL) | ~e_range.all(axis=1)
    # requests' row a * n + i backs up state i under action a
    r_mass = np.asarray(requests.sum(axis=1)).ravel()
    r_flagged = np.abs(r_mass - 1.0) > ROW_SUM_TOL
    r_range = (requests.data > 0.0) & (requests.data <= 1.0)
    r_flagged[np.repeat(np.arange(2 * n), np.diff(requests.indptr))[~r_range]] = True
    flagged = e_flagged[status, None] | r_flagged.reshape(2, n).T
    found = []
    for i, act in np.argwhere(flagged).tolist():
        e, row = status[i], act * n + i
        bad_e = [p for p in emergency[e].tolist() if not 0.0 <= p <= 1.0]
        probs = requests.data[requests.indptr[row] : requests.indptr[row + 1]].tolist()
        bad_r = [p for p in probs if not 0.0 < p <= 1.0]
        total = float(e_mass[e] * r_mass[row])
        if bad_e:
            detail = f"emergency probabilities {bad_e} outside [0, 1]"
        elif bad_r:
            detail = f"request probabilities {bad_r} outside (0, 1]"
        else:
            detail = f"mass {total} != 1"
        found.append(
            StochasticityViolation(system.space.index_state(i), Action(act), total, detail)
        )
    return found
