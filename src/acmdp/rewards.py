"""Reward structure of the decision process.

Granting an access yields its configured utility; in an alert status every
resource that nobody is accessing incurs its (typically negative) resource
reward.  Two variants govern states with the empty pending request: the
transition reward is either forced to zero or keeps accruing the resource
penalty of the reached state.  reward_parts gives, in closed form, the
E-free part of each action's expected one-step reward: the reward of every
(granted set, request) row for either next emergency status, with the
variant's rule already applied, which the compile
(bellman.SystemParts.mix_batch) weights by the rows of E.  It is array
arithmetic with no Python loop: each resource's bit column (its accesses'
bits, one per user), every granted set's unheld resources by one & with
those columns, their penalties summed in resource order, and then both
actions' gains plus the penalty of each row's next set (dynamics.row_moves)
in one expression.  tests/oracle.py sums the same rewards transition by
transition (reward_transition, immediate_reward) as the reference.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .dynamics import RequestBehavior, row_moves
from .states import ModelDims


class RewardVariant(str, Enum):
    # eps_zero: transitions out of an empty-request state are worth nothing.
    # eps_accrues: the resource penalty of the reached state always applies.
    EPS_ZERO = "eps_zero"
    EPS_ACCRUES = "eps_accrues"


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
    # reward_access[u * len(resource_names) + r] is the utility of granting (u, r),
    # in access-bit order; reward_resource[r] is resource r's alert penalty
    reward_access: tuple[float, ...]
    reward_resource: tuple[float, ...]
    # the emergency chain E = ((1 - c, c), (1 - a, a)) of c = calm_to_alert, a = alert_to_alert
    calm_to_alert: float
    alert_to_alert: float
    behavior: RequestBehavior
    variant: RewardVariant
    beta: float
    dims: ModelDims = field(init=False)  # the model's shape, from the labels

    def __post_init__(self) -> None:
        object.__setattr__(self, "behavior", RequestBehavior(self.behavior))
        object.__setattr__(self, "variant", RewardVariant(self.variant))
        # float() would read "1.5" or True as a number, and a string as its characters;
        # stored as floats, an np.float32 rate renders, parses back and hashes as itself
        for name in ("reward_access", "reward_resource"):
            entries = getattr(self, name)
            if any(isinstance(x, (str, bool, np.bool_)) for x in entries):
                raise TypeError(f"{name} entries must be numbers, got {entries!r}")
            object.__setattr__(self, name, tuple(map(float, entries)))
        for name in ("beta", "calm_to_alert", "alert_to_alert"):
            x = getattr(self, name)
            if isinstance(x, (str, bool, np.bool_)):
                raise TypeError(f"{name} must be a number, got {x!r}")
            object.__setattr__(self, name, float(x))
        for name in ("user_names", "resource_names"):
            labels = getattr(self, name)
            # tuple() would read a string as its characters, each a label
            if isinstance(labels, str):
                raise TypeError(f"{name} must be a sequence of labels, got the string {labels!r}")
            object.__setattr__(self, name, tuple(labels))
        object.__setattr__(self, "dims", ModelDims(len(self.user_names), len(self.resource_names)))
        check_labels("user", self.user_names)
        check_labels("resource", self.resource_names)
        if not 0.0 <= self.beta < 1.0:
            raise ValueError(f"beta {self.beta} outside [0, 1)")
        for name in ("calm_to_alert", "alert_to_alert"):
            if not 0.0 <= getattr(self, name) <= 1.0:  # false for NaN
                raise ValueError(f"{name} {getattr(self, name)} outside [0, 1]")
        d = self.dims
        for name, size in (("reward_access", d.num_access_bits), ("reward_resource", d.num_resources)):
            if len(getattr(self, name)) != size:
                raise ValueError(f"{name} has {len(getattr(self, name))} entries, expected {size}")
        rewards = self.reward_access + self.reward_resource
        if not all(map(math.isfinite, rewards)):
            raise ValueError(f"rewards must be finite, got {rewards}")


def reward_parts(sc: Scenario) -> np.ndarray:
    """Reward of every (action, next status e2, (granted set, request) row x).

    The reward of a transition depends on the next status e2 and granted set
    k', not on the next request, so it is gain(a, x) + penalty(e2, k'(x));
    the expected reward from (e, x) is sum_e2 E[e, e2] times it.  Under
    eps_zero the empty-request rows are worth 0 for both next statuses.
    Shape (2, 2, rows per status), indexed by Action, then Emergency.
    """
    d = sc.dims
    r, moves = row_moves(d)
    # columns[r]: the bits of resource r's accesses, one per user
    columns = (1 << np.arange(d.num_access_bits)).reshape(d.num_users, d.num_resources).sum(0)
    penalty = np.array(sc.reward_resource)[:, None]
    # unheld[r, k]: resource r's penalty where set k holds none of its accesses, else 0
    unheld = np.where(np.arange(d.num_sets) & columns[:, None], 0.0, penalty)
    # an outer-axis sum adds the terms in resource order, for any number of resources
    penalties = np.stack((np.zeros(d.num_sets), unheld.sum(axis=0)))
    gain = np.array([[0.0] * (d.num_access_bits + 1), [*sc.reward_access, 0.0]])[:, r]
    # out[a, e2, x] = gain[a, x] + penalties[e2, moves[a, x]]
    out = gain[:, None] + penalties[np.arange(2)[:, None], moves[:, None]]
    if sc.variant is RewardVariant.EPS_ZERO:
        out[:, :, r == d.num_access_bits] = 0.0
    return out
