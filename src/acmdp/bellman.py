"""Assembly of the Bellman system and its linear program.

compile_system turns a scenario into sparse per-action transition matrices
and immediate-reward vectors; both solvers and the decision-value code work
from this shared representation.  The build is factored and vectorized:
each P^a is the Kronecker product of the 2x2 emergency matrix with a
(granted set, request) matrix made by bitmask arithmetic
(dynamics.transition_matrices), and q^a has a closed form
(rewards.expected_rewards), so no Python loop runs per state.

The dense LP grows as the square of the state count; build_bellman_lp
refuses a model whose constraint matrix or simplex tableau would exceed
LP_MAX_BYTES.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .dynamics import transition_matrices
from .rewards import Scenario, expected_rewards
from .simplex import LinearProgram
from .states import ACTIONS, CapacityError, StateSpace

VERIFY_TOL = 1e-9
TIGHT_TOL = 1e-7
LP_MAX_BYTES = 1 << 30  # largest dense LHS or simplex tableau build_bellman_lp allows


@dataclass
class BellmanSystem:
    scenario: Scenario
    space: StateSpace
    transitions: tuple[sparse.csr_matrix, sparse.csr_matrix]  # indexed by Action
    q: np.ndarray  # (2, num_states) immediate rewards, indexed by Action

    @property
    def num_states(self) -> int:
        return len(self.space)

    @property
    def beta(self) -> float:
        return self.scenario.beta


def compile_system(sc: Scenario) -> BellmanSystem:
    """Transition matrices and immediate rewards of every action."""
    q = np.stack([expected_rewards(sc, act) for act in ACTIONS])
    return BellmanSystem(sc, StateSpace(sc.dims), transition_matrices(sc.transition_model()), q)


def build_bellman_lp(system: BellmanSystem) -> LinearProgram:
    """One >= constraint per (state, action), objective min sum of values.

    Constraints are emitted state-major, action-minor (deny first) so solver
    runs are reproducible.  Raises CapacityError, before allocating, when the
    LHS or the tableau simplex_solve would build exceeds LP_MAX_BYTES.
    """
    n = system.num_states
    beta = system.beta
    # simplex_solve's tableau, larger than the 2n x n LHS: 2n + 1 rows and
    # columns for x split in two, a surplus per row, an artificial per row
    # with a nonnegative rhs and the rhs itself
    artificial = int(np.count_nonzero(system.q >= 0))
    needed = 8 * (2 * n + 1) * (4 * n + artificial + 1)
    if needed > LP_MAX_BYTES:
        raise CapacityError(
            f"the dense LP of {n} states needs about {needed / 1e9:.1f} GB "
            f"for its simplex tableau, over the {LP_MAX_BYTES / 1e9:.1f} GB limit; "
            f"use --solver vi"
        )
    lhs = np.zeros((2 * n, n))
    rhs = np.zeros(2 * n)
    for act in ACTIONS:
        block = -beta * system.transitions[int(act)].toarray()
        block[np.arange(n), np.arange(n)] += 1.0
        lhs[2 * np.arange(n) + int(act)] = block
        rhs[2 * np.arange(n) + int(act)] = system.q[int(act)]
    return LinearProgram(np.ones(n), lhs, rhs)


@dataclass
class VerificationReport:
    max_violation: float  # largest amount any Bellman constraint is broken by
    min_slack: np.ndarray  # per state, the smallest slack over both actions
    max_min_slack: float  # worst tightness: 0 when every state has a tight row

    def feasible(self, tol: float = VERIFY_TOL) -> bool:
        return self.max_violation <= tol

    def all_tight(self, tol: float = TIGHT_TOL) -> bool:
        return self.max_min_slack <= tol


def verify_solution(system: BellmanSystem, values: np.ndarray) -> VerificationReport:
    """Slack analysis of a candidate value vector against the Bellman rows."""
    beta = system.beta
    slacks = np.empty((2, system.num_states))
    for act in ACTIONS:
        backup = system.q[int(act)] + beta * (system.transitions[int(act)] @ values)
        slacks[int(act)] = values - backup
    min_slack = slacks.min(axis=0)
    return VerificationReport(
        max_violation=float(max(0.0, -slacks.min())),
        min_slack=min_slack,
        max_min_slack=float(min_slack.max()),
    )
