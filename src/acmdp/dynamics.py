"""Transition dynamics: the product of three independent factors.

The emergency status evolves by a 2x2 stochastic matrix, the granted set
changes deterministically (allow inserts the pending access, deny keeps the
set), and the next pending request is drawn according to the configured
request behaviour.

Because the emergency chain is independent of the (granted set, request)
part and states are ordered emergency-major, each action's transition
matrix is the Kronecker product E (x) R^a of the 2x2 emergency matrix with a
matrix R^a over (granted set, request) rows.  request_dynamics builds the
E-free part once, with array arithmetic on the set bitmasks: where each row
of R^a leads and how many requests it draws.  RequestDynamics.requests
holds both R^a, once per emergency status, as one (2n, n) matrix: the
factor the Bellman kernel (bellman.decision_values) multiplies by, since
P^a = (I (x) R^a)(E (x) I).  RequestDynamics.in_set holds the draws that
keep the granted set, the LP solve's diagonal blocks.  P is never
assembled for a solve: bellman assembles the compiled system from these
factors, checks their rows (bellman.validate_stochastic), and builds
P^a = E (x) R^a only on request (BellmanSystem.transitions).
tests/oracle.py describes the same process one state at a time
(successors) and is the reference the tests compare this build against.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy import sparse

from .states import ACTIONS, Action, ModelDims

ROW_SUM_TOL = 1e-9  # largest amount a probability row may miss 1 by
# the 12-bit cap (states.CAP_BITS) keeps every column, entry count and row
# offset far below 2**31
INDEX_DTYPE = np.int32


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


def set_request_rows(d: ModelDims) -> tuple[np.ndarray, np.ndarray]:
    """Granted set and request position of every (granted set, request) row.

    Rows follow the StateSpace order within one emergency status; request
    position num_access_bits is the empty request.
    """
    return np.divmod(np.arange(d.num_sets * (d.num_access_bits + 1)), d.num_access_bits + 1)


def next_access_sets(d: ModelDims, act: Action) -> np.ndarray:
    """The next granted set of every (granted set, request) row: allow inserts, deny keeps."""
    k, r = set_request_rows(d)
    if act is Action.DENY:
        return k
    return k | np.where(r < d.num_access_bits, 1 << r, 0)


def request_draws(
    d: ModelDims, behavior: RequestBehavior, act: Action
) -> tuple[np.ndarray, np.ndarray]:
    """Next granted set of every (granted set, request) row, and the requests it can draw.

    drawable[x, j] is true when row x draws next request j (j = num_access_bits
    is the empty request); each row draws uniformly among them, as the
    RequestBehavior comments describe.
    """
    bits = d.num_access_bits
    _, r = set_request_rows(d)
    k2 = next_access_sets(d, act)
    drawable = np.zeros((len(r), bits + 1), dtype=bool)
    if behavior is RequestBehavior.UNIQUE:
        drawable[:, bits] = True
    elif behavior is RequestBehavior.ALL:
        drawable[:, :bits] = True
    else:
        drawable[:, :bits] = (k2[:, None] >> np.arange(bits)) & 1 == 0
        drawable[:, bits] = True
        drawable[r == bits, :bits] = False  # the empty request is terminal
    return k2, drawable


@dataclass(frozen=True)
class RequestDynamics:
    """The E-free part of both actions' transition matrices.

    requests holds R^deny over R^allow, each written once per emergency
    status: row a * n + e * size + x is row x of R^a, at the columns of
    status e, so requests = (I (x) R^deny) over (I (x) R^allow).  Since
    P^a = E (x) R^a = (I (x) R^a)(E (x) I), the Bellman kernel
    (bellman.decision_values) applies P^a as requests times V's status
    halves mixed by E, with no E-dependent matrix.
    """

    size: int  # (granted set, request) rows per emergency status
    requests: sparse.csr_matrix  # (2n, n): (I (x) R^deny) over (I (x) R^allow)
    in_set: np.ndarray  # [a, k, r, j]: row (k, r) of R^a's draw of j, if it keeps set k


def request_dynamics(d: ModelDims, behavior: RequestBehavior) -> RequestDynamics:
    """Where each (granted set, request) row leads under each action, and what it draws."""
    per_set = d.num_access_bits + 1
    size = d.num_sets * per_set
    k, _ = set_request_rows(d)
    j_col = np.arange(per_set, dtype=INDEX_DTYPE)
    draws, req_cols, in_set = [], [], []
    for act in ACTIONS:
        k2, drawable = request_draws(d, behavior, act)
        count = drawable.sum(axis=1)
        draws.append(count)
        # [x, j]: the (granted set, request) row k2[x], j that row x can draw
        targets = (k2 * per_set).astype(INDEX_DTYPE)[:, None] + j_col
        # R^a's entries, at the calm columns, then at the alert columns
        r_cols = targets[drawable]
        req_cols += [r_cols, r_cols + size]
        in_set.append(np.where((k2 == k)[:, None] & drawable, 1.0 / count[:, None], 0.0))
    draws = np.stack(draws).astype(INDEX_DTYPE)
    # requests' rows (action, e, x): each row of R^a once per status
    row_draws = np.repeat(draws, 2, axis=0).ravel()
    indptr = np.zeros(len(row_draws) + 1, dtype=INDEX_DTYPE)
    np.cumsum(row_draws, out=indptr[1:])
    n = 2 * size
    requests = sparse.csr_matrix(
        (np.repeat(1.0 / row_draws, row_draws), np.concatenate(req_cols), indptr),
        shape=(2 * n, n),
    )
    in_set = np.stack(in_set).reshape(2, d.num_sets, per_set, per_set)
    return RequestDynamics(size, requests, in_set)
