"""Reward structure of the decision process.

Granting an access yields its configured utility; in an alert status every
resource that nobody is accessing incurs its (typically negative) resource
reward.  Two variants govern states with the empty pending request: the
transition reward is either forced to zero or keeps accruing the resource
penalty of the reached state.  reward_parts gives, in closed form, the
E-free part of each action's expected one-step reward: the reward of every
(granted set, request) row for either next emergency status, with the
variant's rule already applied, which the compile
(bellman.SystemParts.mix_batch) weights by the rows of E.  tests/oracle.py
sums the same rewards transition by transition (reward_transition,
immediate_reward) as the reference.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .dynamics import EmergencyMatrix, RequestBehavior, next_access_sets, set_request_rows
from .states import ACTIONS, Action, ModelDims


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
        rewards = (*self.reward_access.values(), *self.reward_resource)
        if not all(map(math.isfinite, rewards)):
            raise ValueError(f"rewards must be finite, got {rewards}")


# Labels are written into both file formats: scenario lines split on whitespace and
# read '#', '=' and brackets as syntax; value-table rows split on ',' and name the
# empty request 'eps'; and eval names an access 'user:resource'.
_LABEL_RE = re.compile(r"[^\s#=,:\[\]]+")


def check_labels(kind: str, names: tuple[str, ...]) -> tuple[str, ...]:
    """names, if they can be a scenario's user or resource labels (kind says which)."""
    if not names:
        raise ValueError(f"no {kind} labels")
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate {kind} labels")
    for name in names:
        if name == "eps" or not _LABEL_RE.fullmatch(name):
            raise ValueError(
                f"bad {kind} label {name!r}: a label is not 'eps' and has no whitespace "
                f"and none of # = , : [ ]"
            )
    return names


@dataclass(frozen=True)
class Scenario:
    """Full parameterization of one access control decision process."""

    user_names: tuple[str, ...]
    resource_names: tuple[str, ...]
    rewards: RewardTables
    emergency: EmergencyMatrix
    behavior: RequestBehavior
    variant: RewardVariant
    beta: float
    dims: ModelDims = field(init=False)  # the model's shape, from the labels

    def __post_init__(self) -> None:
        object.__setattr__(self, "behavior", RequestBehavior(self.behavior))
        object.__setattr__(self, "variant", RewardVariant(self.variant))
        object.__setattr__(self, "dims", ModelDims(len(self.user_names), len(self.resource_names)))
        check_labels("user", self.user_names)
        check_labels("resource", self.resource_names)
        if not 0.0 <= self.beta < 1.0:
            raise ValueError(f"beta {self.beta} outside [0, 1)")
        self.rewards.check(self.dims)


def alert_penalties(sc: Scenario) -> np.ndarray:
    """Alert penalty of every granted-set index: the rewards of resources nobody accesses."""
    d = sc.dims
    k = np.arange(d.num_sets)
    total = np.zeros(d.num_sets)
    for r, penalty in enumerate(sc.rewards.reward_resource):
        column = sum(1 << (u * d.num_resources + r) for u in range(d.num_users))
        total += np.where(k & column, 0.0, penalty)
    return total


def reward_parts(sc: Scenario) -> np.ndarray:
    """Reward of every (action, next status e2, (granted set, request) row x).

    The reward of a transition depends on the next status e2 and granted set
    k', not on the next request, so it is gain(act, x) + penalty(e2, k'(x));
    the expected reward from (e, x) is sum_e2 E[e, e2] times it.  Under
    eps_zero the empty-request rows are worth 0 for both next statuses.
    Shape (2, 2, rows per status), indexed by Action, then Emergency.
    """
    d = sc.dims
    _, r = set_request_rows(d)
    grants = [sc.rewards.reward_access[(a.user, a.resource)] for a in d.accesses()]
    penalties = np.stack((np.zeros(d.num_sets), alert_penalties(sc)))
    parts = []
    for act in ACTIONS:
        gain = np.array(grants + [0.0])[r] if act is Action.ALLOW else np.zeros(len(r))
        parts.append(gain + penalties[:, next_access_sets(d, act)])
    out = np.stack(parts)
    if sc.variant is RewardVariant.EPS_ZERO:
        out[:, :, r == d.num_access_bits] = 0.0
    return out
