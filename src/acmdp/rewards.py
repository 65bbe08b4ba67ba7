"""Reward structure of the decision process.

Granting an access yields its configured utility; in an alert status every
resource that nobody is accessing incurs its (typically negative) resource
reward.  Two variants govern states with the empty pending request: the
transition reward is either forced to zero or keeps accruing the resource
penalty of the reached state.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dynamics import (
    EmergencyMatrix,
    RequestBehavior,
    TransitionModel,
    next_access_sets,
    set_request_rows,
    successors,
)
from .states import (
    Action,
    Emergency,
    ModelDims,
    State,
)


class RewardVariant(str, Enum):
    # eps_zero: transitions out of an empty-request state are worth nothing.
    # eps_accrues: the resource penalty of the reached state always applies.
    EPS_ZERO = "eps_zero"
    EPS_ACCRUES = "eps_accrues"


@dataclass(frozen=True)
class RewardTables:
    """Per-access grant utilities and per-resource alert penalties.

    reward_access is keyed by (user, resource) index pairs and must be total.
    """

    reward_access: dict[tuple[int, int], float]
    reward_resource: tuple[float, ...]

    def check(self, dims: ModelDims) -> None:
        expected = {(a.user, a.resource) for a in dims.accesses()}
        if set(self.reward_access) != expected:
            missing = sorted(expected - set(self.reward_access))
            extra = sorted(set(self.reward_access) - expected)
            raise ValueError(
                f"reward_access is not total: missing {missing}, extraneous {extra}"
            )
        if len(self.reward_resource) != dims.num_resources:
            raise ValueError(
                f"reward_resource has {len(self.reward_resource)} entries, "
                f"expected {dims.num_resources}"
            )


@dataclass(frozen=True)
class Scenario:
    """Full parameterization of one access control decision process."""

    dims: ModelDims
    user_names: tuple[str, ...]
    resource_names: tuple[str, ...]
    rewards: RewardTables
    emergency: EmergencyMatrix
    behavior: RequestBehavior
    variant: RewardVariant
    beta: float

    def __post_init__(self) -> None:
        if len(self.user_names) != self.dims.num_users:
            raise ValueError("user label count does not match dimensions")
        if len(self.resource_names) != self.dims.num_resources:
            raise ValueError("resource label count does not match dimensions")
        if len(set(self.user_names)) != len(self.user_names):
            raise ValueError("duplicate user labels")
        if len(set(self.resource_names)) != len(self.resource_names):
            raise ValueError("duplicate resource labels")
        if not 0.0 <= self.beta < 1.0:
            raise ValueError(f"beta {self.beta} outside [0, 1)")
        self.rewards.check(self.dims)

    def transition_model(self) -> TransitionModel:
        return TransitionModel(self.dims, self.emergency, self.behavior)

    def user_index(self, name: str) -> int:
        try:
            return self.user_names.index(name)
        except ValueError:
            raise KeyError(f"unknown user {name!r}") from None

    def resource_index(self, name: str) -> int:
        try:
            return self.resource_names.index(name)
        except ValueError:
            raise KeyError(f"unknown resource {name!r}") from None


def reward_emresource(sc: Scenario, e: Emergency, k: int) -> float:
    """Alert-status penalty: sum of resource rewards nobody is accessing."""
    if e is Emergency.CALM:
        return 0.0
    d = sc.dims
    total = 0.0
    for r in range(d.num_resources):
        accessed = any(
            (k >> (u * d.num_resources + r)) & 1 for u in range(d.num_users)
        )
        if not accessed:
            total += sc.rewards.reward_resource[r]
    return total


def alert_penalties(sc: Scenario) -> np.ndarray:
    """reward_emresource(sc, ALERT, k) for every granted-set index k."""
    d = sc.dims
    k = np.arange(d.num_sets)
    total = np.zeros(d.num_sets)
    for r, penalty in enumerate(sc.rewards.reward_resource):
        column = sum(1 << (u * d.num_resources + r) for u in range(d.num_users))
        total += np.where(k & column, 0.0, penalty)
    return total


def reward_transition(sc: Scenario, s: State, act: Action, s2: State) -> float:
    """Reward of one transition, per the configured variant."""
    if sc.variant is RewardVariant.EPS_ZERO and s.request is None:
        return 0.0
    gain = 0.0
    if act is Action.ALLOW and s.request is not None:
        gain = sc.rewards.reward_access[(s.request.user, s.request.resource)]
    return gain + reward_emresource(sc, s2.emergency, s2.granted)


def immediate_reward(sc: Scenario, m: TransitionModel, s: State, act: Action) -> float:
    """Expected one-step reward of an action from a state."""
    return sum(
        p * reward_transition(sc, s, act, s2) for s2, p in successors(m, s, act)
    )


def expected_rewards(sc: Scenario, act: Action) -> np.ndarray:
    """immediate_reward of one action from every state, in StateSpace order.

    The reward of a transition depends on the next status e2 and granted set
    k', not on the next request, so q[e, x] over the (granted set, request)
    rows x is sum_e2 E[e, e2] * (gain(act, x) + penalty(e2, k'(x))).
    """
    d = sc.dims
    _, r = set_request_rows(d)
    gain = np.zeros(len(r))
    if act is Action.ALLOW:
        grants = [sc.rewards.reward_access[(a.user, a.resource)] for a in d.accesses()]
        gain = np.array(grants + [0.0])[r]
    penalty = np.stack((np.zeros(d.num_sets), alert_penalties(sc)))[:, next_access_sets(d, act)]
    q = np.array(sc.emergency.rows, dtype=float) @ (gain + penalty)
    if sc.variant is RewardVariant.EPS_ZERO:
        q[:, r == d.num_access_bits] = 0.0
    return q.ravel()
