"""Transition dynamics: the product of three independent factors.

The emergency status evolves by a 2x2 stochastic matrix E, set by the
scenario's rates of turning and of staying alert (Scenario.calm_to_alert and
Scenario.alert_to_alert, from which bellman.compile_system forms E),
the granted set changes deterministically (allow inserts the pending access,
deny keeps the set), and the next pending request is drawn according to the
configured request behaviour.

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
per value column, and the LP's basis solve through a plan of them
(RequestDynamics.lattice).  bellman checks them row by row
(validate_stochastic) and builds P^a = E (x) R^a only on request
(BellmanSystem.transitions).  tests/oracle.py describes the same process
one state at a time (successors), the reference for this build.
All of it depends on (dims, behaviour) alone and is cached, so every system
of one shape shares it, and its arrays are read-only: row_moves and
held_resources per dims, request_dynamics and its cached properties per
(dims, behaviour).  states.CAP_BITS bounds the keys to 35 dims (users x
resources with at most 12 access bits) x 3 behaviours.  Traced with
tracemalloc, a 12-bit dims holds 18.97 MB of arrays once all three
behaviours, their lattice plans and drawn weights are built, and a 2x2 dims
43 kB.  Of a 12-bit plan, the cells and reads, three integers per state,
take 2.56 MB, the draw matrices, 13 x 2 floats per set, 0.85 MB, and the
level order one integer per set.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cache, cached_property
from typing import NamedTuple

import numpy as np

from .states import ModelDims

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


def _shared(array: np.ndarray) -> np.ndarray:
    """array, made read-only: the cached builders hand the same array to every caller."""
    array.flags.writeable = False
    return array


@cache
def row_moves(d: ModelDims) -> tuple[np.ndarray, np.ndarray]:
    """Request position of every (granted set, request) row, and its next granted sets.

    Rows follow the state order (ModelDims.index_state) within one emergency
    status; request position num_access_bits is the empty request.
    moves[a] is each row's next granted set under action a: deny keeps the
    set, allow inserts the row's access.
    """
    k, r = np.divmod(np.arange(d.num_states // 2), d.num_access_bits + 1)
    return _shared(r), _shared(np.stack((k, k | np.where(r < d.num_access_bits, 1 << r, 0))))


@cache
def held_resources(d: ModelDims) -> np.ndarray:
    """held[r, k]: granted set k holds some access of resource r, one access per user."""
    columns = (1 << np.arange(d.num_access_bits)).reshape(d.num_users, d.num_resources).sum(0)
    return _shared(np.arange(d.num_sets) & columns[:, None] != 0)


class Lattice(NamedTuple):
    """policy.policy_evaluate's plan of the granted-set lattice, one per (dims, behaviour).

    The basis solve works on cells, each a state; they are laid out by set
    in level order, then status, then request, so that a level's cells are
    one slice and a set's 2 (B + 1) cells one row.  Per column, the solve
    fills a (sets + 1, 6) table: for the set of level-order position t,
    row t holds its kind-0 entries, beta E times them, and its kind-1
    entries, each for status 0 then 1; row sets holds zeros.  reads[a, c]
    is where action a's value at cell c reads that table: 6 t + 2 + e, the
    mixed kind-0 entry at status e of the set t the action moves the cell
    to, which lies in the level just above; else 6 sets, a zero, for a
    cell that reads its own set's kind-0 entries, or 6 sets + 1, a zero,
    for one that reads its own kind-1 entries (once's empty request).
    """

    cells: np.ndarray  # (n,): the state of each cell
    reads: np.ndarray  # (2, n), by action
    levels: tuple[np.ndarray, ...]  # the sets of each popcount level, the full set's first
    order: np.ndarray  # their concatenation, the level order
    draw: np.ndarray  # [t, request, kind]: kind 0 t's weights, kind 1 picks the empty request


@dataclass(frozen=True)
class RequestDynamics:
    """The E-free part of both actions' transition matrices, as request draws.

    Row x of R^a leads to the granted set k2 = moves[a, x] (row_moves) and
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
    def drawn_weights(self) -> np.ndarray:
        """weights.T over the drawn span, [j, 1, k, 1]: the factor bellman.draw_table's cells take.

        A C-contiguous copy, so that the product with the cells is laid out
        request-major inside each status (see draw_table).
        """
        return _shared(np.ascontiguousarray(self.weights.T[self.drawn, None, :, None]))

    @cached_property
    def terminal(self) -> int:
        """1 if the empty request, the last drawn, reads its set's kind-1 entry (once), else 0."""
        sets, per_set = self.weights.shape
        return int(self.draw_index[per_set - 1] >= sets)

    @cached_property
    def lattice(self) -> Lattice:
        """policy.policy_evaluate's plan of the granted-set lattice: see Lattice."""
        sets, per_set = self.weights.shape
        popcount = ((np.arange(sets)[:, None] >> np.arange(per_set - 1)) & 1).sum(axis=1)
        levels = [np.flatnonzero(popcount == c) for c in range(per_set - 1, -1, -1)]
        order = np.concatenate(levels)
        # kind[a, e, s, j] and reached[a, e, s, j]: the entry action a reads at status e,
        # set order[s] and request j
        entry = self.draw_index.reshape(2, 2, sets, per_set)[:, :, order] % (2 * sets)
        kind, reached = np.divmod(entry, sets)
        status = np.arange(2)[:, None, None]
        reads = np.where(
            reached != order[:, None], 6 * np.argsort(order)[reached] + 2 + status, 6 * sets + kind
        )
        states = (status[..., 0] * sets + order) * per_set  # [e, s]: each cell's first state
        cells = states.T[..., None] + np.arange(per_set)
        draw = np.zeros((sets, per_set, 2))
        draw[..., 0] = self.weights[order]
        draw[:, -1, 1] = 1.0
        return Lattice(
            _shared(cells.ravel()),
            _shared(reads.transpose(0, 2, 1, 3).reshape(2, -1)),
            tuple(map(_shared, levels)),
            _shared(order),
            _shared(draw),
        )


@cache
def request_dynamics(d: ModelDims, behavior: RequestBehavior) -> RequestDynamics:
    """Where each row leads under each action and what it draws: cached, shared, read-only."""
    behavior = RequestBehavior(behavior)
    bits, sets = d.num_access_bits, d.num_sets
    per_set = bits + 1
    r, moves = row_moves(d)
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
    # entry (a, e, x) reads status e's block of the table, at set moves[a, x]
    draw_index = moves[:, None] + np.where(terminal, sets, 0) + 2 * sets * np.arange(2)[:, None]
    return RequestDynamics(len(r), _shared(weights), _shared(draw_index.ravel().astype(np.intp)))
