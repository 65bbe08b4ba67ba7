"""Transition dynamics: the product of three independent factors.

The emergency status evolves by a 2x2 stochastic matrix, the granted set
changes deterministically (allow inserts the pending access, deny keeps the
set), and the next pending request is drawn according to the configured
request behaviour.

Because the emergency chain is independent of the (granted set, request)
part and states are ordered emergency-major, each action's transition
matrix is the Kronecker product E (x) R^a of the 2x2 emergency matrix with a
matrix R^a over (granted set, request) rows; transition_matrices builds it
with array arithmetic on the set bitmasks.  successors() describes the same
process one state at a time and serves as the readable reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy import sparse

from .states import (
    ACTIONS,
    Action,
    Emergency,
    ModelDims,
    Request,
    State,
    StateSpace,
    access_bit_index,
    set_insert,
)

ROW_SUM_TOL = 1e-9


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
    """Row-stochastic 2x2 matrix over (calm, alert)."""

    rows: tuple[tuple[float, float], tuple[float, float]]

    def __post_init__(self) -> None:
        for row in self.rows:
            for p in row:
                if not 0.0 <= p <= 1.0:
                    raise ValueError(f"emergency probability {p} outside [0, 1]")
            if abs(sum(row) - 1.0) > ROW_SUM_TOL:
                raise ValueError(f"emergency row {row} does not sum to 1")

    def prob(self, src: Emergency, dst: Emergency) -> float:
        return self.rows[int(src)][int(dst)]

    @property
    def prob_calm_to_alert(self) -> float:
        return self.rows[0][1]

    @property
    def prob_alert_to_alert(self) -> float:
        return self.rows[1][1]

    @classmethod
    def from_rates(cls, calm_to_alert: float, alert_to_alert: float) -> "EmergencyMatrix":
        return cls(
            (
                (1.0 - calm_to_alert, calm_to_alert),
                (1.0 - alert_to_alert, alert_to_alert),
            )
        )

    @classmethod
    def identity(cls) -> "EmergencyMatrix":
        return cls(((1.0, 0.0), (0.0, 1.0)))


@dataclass(frozen=True)
class TransitionModel:
    dims: ModelDims
    emergency: EmergencyMatrix
    behavior: RequestBehavior


def next_access_set(k: int, req: Request, act: Action, d: ModelDims) -> int:
    """Deterministic granted-set transition: allow inserts, deny keeps."""
    if act is Action.DENY or req is None:
        return k
    return set_insert(k, req, d)


def request_distribution(
    b: RequestBehavior, k_next: int, d: ModelDims, current: Request
) -> list[tuple[Request, float]]:
    """Distribution of the next pending request.

    Conditions on the post-decision granted set and, for the once
    behaviour, on the current request: after the empty request has been
    reached, no further requests arrive.
    """
    if b is RequestBehavior.UNIQUE:
        return [(None, 1.0)]
    if b is RequestBehavior.ALL:
        p = 1.0 / d.num_access_bits
        return [(a, p) for a in d.accesses()]
    # once: the empty request is terminal; otherwise draw uniformly among
    # the not-yet-granted accesses and the empty request
    if current is None:
        return [(None, 1.0)]
    pending = [a for a in d.accesses() if not (k_next >> access_bit_index(a, d)) & 1]
    p = 1.0 / (len(pending) + 1)
    return [(a, p) for a in pending] + [(None, p)]


def set_request_rows(d: ModelDims) -> tuple[np.ndarray, np.ndarray]:
    """Granted set and request position of every (granted set, request) row.

    Rows follow the StateSpace order within one emergency status; request
    position num_access_bits is the empty request.
    """
    return np.divmod(np.arange(d.num_sets * (d.num_access_bits + 1)), d.num_access_bits + 1)


def next_access_sets(d: ModelDims, act: Action) -> np.ndarray:
    """next_access_set of every (granted set, request) row."""
    k, r = set_request_rows(d)
    if act is Action.DENY:
        return k
    return k | np.where(r < d.num_access_bits, 1 << r, 0)


def request_draws(m: TransitionModel, act: Action) -> tuple[np.ndarray, np.ndarray]:
    """Next granted set of every (granted set, request) row, and the requests it can draw.

    drawable[x, j] is true when row x draws next request j (j = num_access_bits
    is the empty request); each row draws uniformly, as in request_distribution.
    """
    d = m.dims
    bits = d.num_access_bits
    _, r = set_request_rows(d)
    k2 = next_access_sets(d, act)
    drawable = np.zeros((len(r), bits + 1), dtype=bool)
    if m.behavior is RequestBehavior.UNIQUE:
        drawable[:, bits] = True
    elif m.behavior is RequestBehavior.ALL:
        drawable[:, :bits] = True
    else:
        drawable[:, :bits] = (k2[:, None] >> np.arange(bits)) & 1 == 0
        drawable[:, bits] = True
        drawable[r == bits, :bits] = False  # the empty request is terminal
    return k2, drawable


def transition_matrices(m: TransitionModel) -> tuple[sparse.csr_matrix, sparse.csr_matrix]:
    """Per-action state transition matrices P^a = E (x) R^a, indexed by Action.

    The Kronecker product is built by broadcasting, with E's zero entries
    dropped, so every stored entry is a positive-probability successor of a
    well-formed model and each entry equals successors()'s pe * pr.
    """
    d = m.dims
    per_set = d.num_access_bits + 1
    size = d.num_sets * per_set
    emergency = np.array(m.emergency.rows, dtype=float)
    mats = []
    for act in ACTIONS:
        k2, drawable = request_draws(m, act)
        # stored[e, x, e2, j]: (e, x) moves to (e2, k2[x], j); C order is CSR order
        stored = (emergency != 0.0)[:, None, :, None] & drawable[None, :, None, :]
        cols = (
            (np.arange(2) * size)[:, None]
            + (k2 * per_set)[:, None, None]
            + np.arange(per_set)
        )  # shape (x, e2, j)
        data = emergency[:, None, :, None] * (1.0 / drawable.sum(axis=1))[:, None, None]
        indptr = np.concatenate(([0], np.cumsum(stored.sum(axis=(2, 3)).ravel())))
        mats.append(
            sparse.csr_matrix(
                (
                    np.broadcast_to(data, stored.shape)[stored],
                    np.broadcast_to(cols, stored.shape)[stored],
                    indptr,
                ),
                shape=(2 * size, 2 * size),
            )
        )
    return mats[0], mats[1]


def successors(m: TransitionModel, s: State, act: Action) -> list[tuple[State, float]]:
    """All positive-probability successor states of (s, act)."""
    k2 = next_access_set(s.granted, s.request, act, m.dims)
    requests = request_distribution(m.behavior, k2, m.dims, s.request)
    out: list[tuple[State, float]] = []
    for e2 in (Emergency.CALM, Emergency.ALERT):
        pe = m.emergency.prob(s.emergency, e2)
        if pe == 0.0:
            continue
        for req2, pr in requests:
            out.append((State(e2, k2, req2), pe * pr))
    return out


@dataclass(frozen=True)
class StochasticityViolation:
    state: State
    action: Action
    total_mass: float
    detail: str


def validate_stochastic(
    m: TransitionModel, tol: float = ROW_SUM_TOL
) -> list[StochasticityViolation]:
    """Check that every (state, action) row of transition_matrices is a distribution.

    Returns the list of violations in state-major, action-minor order; empty
    means the model is well-formed.
    """
    found: list[tuple[int, Action, float, str]] = []
    for act, mat in zip(ACTIONS, transition_matrices(m)):
        mass = np.asarray(mat.sum(axis=1)).ravel()
        flagged = np.abs(mass - 1.0) > tol
        out_of_range = ~((mat.data > 0.0) & (mat.data <= 1.0))
        flagged[np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr))[out_of_range]] = True
        for i in np.flatnonzero(flagged).tolist():
            total = float(mass[i])
            row = mat.data[mat.indptr[i]:mat.indptr[i + 1]].tolist()
            bad_probs = [p for p in row if not 0.0 < p <= 1.0]
            if bad_probs:
                detail = f"probabilities {bad_probs} outside (0, 1]"
            else:
                detail = f"mass {total} != 1"
            found.append((i, act, total, detail))
    found.sort(key=lambda v: (v[0], v[1]))
    space = StateSpace(m.dims)
    return [
        StochasticityViolation(space.index_state(i), act, total, detail)
        for i, act, total, detail in found
    ]
