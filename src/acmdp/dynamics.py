"""Transition dynamics: the product of three independent factors.

The emergency status evolves by a 2x2 stochastic matrix (EmergencyMatrix, set
by its two rates of turning and of staying alert), the granted set changes
deterministically (allow inserts the pending access, deny keeps the set), and
the next pending request is drawn according to the configured request behaviour.

Because the emergency chain is independent of the (granted set, request)
part and states are ordered emergency-major, each action's transition
matrix is the Kronecker product E (x) R^a of the 2x2 emergency matrix with a
matrix R^a over (granted set, request) rows.  Each row of R^a leads to one
granted set and draws the next request uniformly from the requests that
set's rows can draw, unless it can draw only the empty request (once's,
after the empty request).  request_dynamics builds that structure with
array arithmetic on the set bitmasks: RequestDynamics.weights holds each
set's draw probabilities (sets x requests), and RequestDynamics.draw_index
says, for every (action, state), whether it averages its next set's cells
by those weights or reads that set's empty-request cell.  The Bellman
kernel (bellman.decision_values) backs up through these draws in O(n) work
per value column, and both solvers read only these two arrays.  bellman
checks them row by row (validate_stochastic) and builds P^a = E (x) R^a
only on request (BellmanSystem.transitions).  tests/oracle.py describes the same
process one state at a time (successors), the reference for this build.
All of it depends on (dims, behaviour) alone: request_dynamics,
set_request_rows, next_access_sets and RequestDynamics.lattice are cached,
so every system of one shape shares them, and their arrays are read-only.
CAP_BITS bounds the keys to 35 dims x 3 behaviours; one 12-bit dims holds
9.0 MB (8.6 MiB) of them with all three behaviours built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cache, cached_property

import numpy as np

from .states import ACTIONS, Action, ModelDims

ROW_SUM_TOL = 1e-9  # largest amount a probability row may miss 1 by


class RequestBehavior(str, Enum):
    # unique: a single request is controlled, then only the empty request.
    # once: each access can be granted at most once; the next request is
    #       uniform over the non-granted accesses and the empty request,
    #       and the empty request ends the sequence for good.
    # all: every concrete access stays requestable forever, uniformly.
    UNIQUE = "unique"
    ONCE = "once"
    ALL = "all"


@dataclass(frozen=True)
class EmergencyMatrix:
    """The 2x2 chain over (calm, alert), held as its two rates of turning alert.

    c = prob_calm_to_alert and a = prob_alert_to_alert lie in [0, 1], NaN refused;
    rows, derived once, is the row-stochastic matrix ((1 - c, c), (1 - a, a)).
    """

    prob_calm_to_alert: float
    prob_alert_to_alert: float
    rows: tuple[tuple[float, float], tuple[float, float]] = field(init=False)

    def __post_init__(self) -> None:
        c, a = self.prob_calm_to_alert, self.prob_alert_to_alert
        for p in (c, a):
            if not 0.0 <= p <= 1.0:  # false for NaN
                raise ValueError(f"emergency probability {p} outside [0, 1]")
        object.__setattr__(self, "rows", ((1.0 - c, c), (1.0 - a, a)))

    @classmethod
    def identity(cls) -> "EmergencyMatrix":
        return cls(0.0, 1.0)


def _shared(array: np.ndarray) -> np.ndarray:
    """array, made read-only: the cached builders hand the same array to every caller."""
    array.flags.writeable = False
    return array


@cache
def set_request_rows(d: ModelDims) -> tuple[np.ndarray, np.ndarray]:
    """Granted set and request position of every (granted set, request) row.

    Rows follow the StateSpace order within one emergency status; request
    position num_access_bits is the empty request.
    """
    return tuple(map(_shared, np.divmod(np.arange(d.num_states // 2), d.num_access_bits + 1)))


@cache
def next_access_sets(d: ModelDims, act: Action) -> np.ndarray:
    """The next granted set of every (granted set, request) row: allow inserts, deny keeps."""
    k, r = set_request_rows(d)
    if Action(act) is Action.DENY:
        return k
    return _shared(k | np.where(r < d.num_access_bits, 1 << r, 0))


@dataclass(frozen=True)
class RequestDynamics:
    """The E-free part of both actions' transition matrices, as request draws.

    Row x of R^a leads to the granted set k2 = next_access_sets(d, a)[x] and
    draws the next request from those that set's rows can draw, with
    probabilities weights[k2]; a row that can draw only the empty request
    (once's, after the empty request) draws it for sure.  So (R^a W)[x] is
    the weights[k2]-average of W's cells of set k2, or W's empty-request
    cell of k2.  The Bellman kernel's first half (bellman.draw_table) builds,
    per emergency status e, a table of every set's average followed by every
    set's empty-request cell; (action a, state (e, x)) reads its entry
    draw_index[a * n + e * size + x], which is e * 2 * sets + k2 or
    e * 2 * sets + sets + k2.  Shared by every system of its shape: read-only.
    """

    size: int  # (granted set, request) rows per emergency status
    weights: np.ndarray  # [k, j]: probability that a row reaching set k draws request j
    draw_index: np.ndarray  # (2n,): the table entry each (action, state) reads

    @cached_property
    def drawn(self) -> slice:
        """The span of requests that some set draws: weights is zero outside it."""
        j = np.flatnonzero(self.weights.any(axis=0))
        return slice(j[0], j[-1] + 1)

    @cached_property
    def lattice(self) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        """policy.policy_evaluate's plan of the granted-set lattice, (own, levels)."""
        sets, per_set = self.weights.shape
        states = np.arange(len(self.draw_index) // 2)[:, None]
        # own[a, x, c]: (action a, state x) reads its own set's kind-c entry
        kind, reached = np.divmod(self.draw_index.reshape(2, -1, 1) % (2 * sets), sets)
        own = (reached == states // per_set % sets) & (kind == (0, 1))
        # the sets of each popcount level, largest first, each level in ascending order
        popcount = ((np.arange(sets)[:, None] >> np.arange(per_set - 1)) & 1).sum(axis=1)
        levels = (np.flatnonzero(popcount == c) for c in range(per_set - 1, -1, -1))
        return _shared(own), tuple(map(_shared, levels))


@cache
def request_dynamics(d: ModelDims, behavior: RequestBehavior) -> RequestDynamics:
    """Where each row leads under each action and what it draws: cached, shared, read-only."""
    behavior = RequestBehavior(behavior)
    bits, sets = d.num_access_bits, d.num_sets
    per_set = bits + 1
    _, r = set_request_rows(d)
    # drawable[k, j]: a row reaching set k can draw request j (j = bits is the
    # empty request), as the RequestBehavior comments describe
    drawable = np.zeros((sets, per_set), dtype=bool)
    if behavior is RequestBehavior.UNIQUE:
        drawable[:, bits] = True
    elif behavior is RequestBehavior.ALL:
        drawable[:, :bits] = True
    else:
        drawable[:, :bits] = (np.arange(sets)[:, None] >> np.arange(bits)) & 1 == 0
        drawable[:, bits] = True
    weights = np.where(drawable, 1.0 / drawable.sum(axis=1)[:, None], 0.0)
    # once's empty request is terminal: such a row draws it again, whatever its set
    terminal = (r == bits) & (behavior is RequestBehavior.ONCE)
    entries = [np.where(terminal, sets, 0) + next_access_sets(d, act) for act in ACTIONS]
    # entry (a, e, x) reads status e's block of the table
    draw_index = np.stack(entries)[:, None] + 2 * sets * np.arange(2)[:, None]
    return RequestDynamics(len(r), _shared(weights), _shared(draw_index.ravel().astype(np.intp)))
