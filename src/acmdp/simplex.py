"""Dense two-phase primal simplex: the independent LP oracle for small models.

The program solves the Bellman LP with policy.policy_iterate; this solver
shares none of its code, reads the assembled P (bellman.build_bellman_lp)
and serves tests and experiments.self_check as a reference on small models.

Problems are stated as: minimize c.x subject to A x >= b, x free.  Free
variables are split into positive parts, >= rows get surplus columns, and
phase one drives an artificial basis to feasibility.  Entering columns are
picked by the most negative reduced cost and leaving rows by Harris's
ratio test; after a run of degenerate pivots both switch to Bland's rule,
which guarantees termination.  A phase ends only on a tableau rebuilt at
its last basis from the original constraints, and a small pivot element
is taken only from such a tableau, so round-off of the pivots cannot
decide the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.linalg.blas import dger

PIVOT_TOL = 1e-10  # reduced costs and relative column entries below this are round-off
FEAS_TOL = 1e-9  # artificial mass at which phase one counts as feasible
BLAND_AFTER_DEGENERATE = 40
HARRIS_TOL = 1e-12  # how far below zero a ratio-test step may push a basic variable
SMALL_PIVOT = 1e-4  # a pivot element below this is taken only from a rebuilt tableau


class SimplexStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ITERATION_LIMIT = "iteration_limit"


@dataclass
class LinearProgram:
    """min objective.x  s.t.  lhs @ x >= rhs, x free."""

    objective: np.ndarray  # (n,)
    lhs: np.ndarray  # (m, n)
    rhs: np.ndarray  # (m,)

    @property
    def num_vars(self) -> int:
        return self.objective.shape[0]

    @property
    def num_constraints(self) -> int:
        return self.rhs.shape[0]


@dataclass
class LpSolution:
    status: SimplexStatus
    values: np.ndarray | None
    objective: float | None
    pivots: int


def _pivot(T: np.ndarray, row: int, col: int) -> None:
    T[row] /= T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    # rank-1 update in place; T is Fortran-ordered so BLAS can work directly
    dger(-1.0, factors, np.ascontiguousarray(T[row]), a=T, overwrite_a=1)


def _reinvert(
    T: np.ndarray, lp: LinearProgram, basis: list[int], art_rows: list[int], cost: np.ndarray
) -> None:
    """Rebuild the tableau at this basis from the original constraints.

    cost is the phase's objective over every column.  Each pivot adds
    round-off to the tableau, and a small pivot element amplifies it.
    """
    m, n = lp.lhs.shape
    columns = np.zeros((m, m))
    for k, j in enumerate(basis):
        if j < 2 * n:
            columns[:, k] = lp.lhs[:, j] if j < n else -lp.lhs[:, j - n]
        elif j < 2 * n + m:
            columns[j - 2 * n, k] = -1.0  # surplus
        else:
            columns[art_rows[j - 2 * n - m], k] = 1.0  # artificial
    inverse = np.linalg.inv(columns)
    T[:m, :n] = inverse @ lp.lhs
    T[:m, n:2 * n] = -T[:m, :n]
    T[:m, 2 * n:2 * n + m] = -inverse
    T[:m, 2 * n + m:-1] = inverse[:, art_rows]
    T[:m, -1] = inverse @ lp.rhs
    T[-1, :-1] = cost - cost[basis] @ T[:m, :-1]
    T[-1, -1] = -cost[basis] @ T[:m, -1]


def _run_phase(
    T: np.ndarray,
    lp: LinearProgram,
    basis: list[int],
    art_rows: list[int],
    cost: np.ndarray,
    allowed: np.ndarray,
    max_iter: int,
    floor: float = -np.inf,
) -> tuple[SimplexStatus, int]:
    """Pivot until no reduced cost is below -PIVOT_TOL or the objective reaches floor.

    A verdict (optimal or unbounded) stands only on a tableau just rebuilt
    from the original constraints (_reinvert), and so does a pivot element
    below SMALL_PIVOT.  On Bellman LPs with transition probabilities near
    1e-9, a small element taken from a stale tableau can be round-off:
    pivoting on one moved values by 1e-9, reported feasible LPs as
    infeasible or unbounded, or made the basis singular.
    """
    m = T.shape[0] - 1
    pivots = 0
    degenerate_run = 0
    fresh = False  # rebuilt since the last pivot

    def rebuild() -> None:
        nonlocal fresh
        _reinvert(T, lp, basis, art_rows, cost)
        fresh = True

    while True:
        z = T[-1, :-1]
        candidates = np.flatnonzero(allowed & (z < -PIVOT_TOL))
        if candidates.size == 0 or -T[-1, -1] <= floor:
            if fresh:
                return SimplexStatus.OPTIMAL, pivots
            rebuild()
            continue
        if pivots >= max_iter:
            return SimplexStatus.ITERATION_LIMIT, pivots
        if degenerate_run > BLAND_AFTER_DEGENERATE:
            col = int(candidates[0])
        else:
            col = int(candidates[np.argmin(z[candidates])])
        coefs = T[:m, col]
        # an entry at the column's round-off level is not a pivot
        rows = np.flatnonzero(coefs > PIVOT_TOL * max(1.0, np.abs(coefs).max()))
        if rows.size == 0:
            if fresh:
                return SimplexStatus.UNBOUNDED, pivots
            rebuild()
            continue
        ratios = T[rows, -1] / coefs[rows]
        best = ratios.min()
        if degenerate_run > BLAND_AFTER_DEGENERATE:
            # Bland: the smallest basis index leaves, which rules out cycling
            tied = rows[ratios <= best + PIVOT_TOL]
            row = int(min(tied, key=lambda i: basis[i]))
        else:
            # Harris: of the rows that may leave if basic variables can dip
            # HARRIS_TOL below zero, the one with the largest pivot element
            bound = ((T[rows, -1] + HARRIS_TOL) / coefs[rows]).min()
            within = rows[ratios <= bound]
            row = int(within[np.argmax(coefs[within])])
        if T[row, col] < SMALL_PIVOT and not fresh:
            rebuild()
            continue
        degenerate_run = degenerate_run + 1 if best <= PIVOT_TOL else 0
        _pivot(T, row, col)
        basis[row] = col
        pivots += 1
        fresh = False


def simplex_solve(lp: LinearProgram, max_iter: int | None = None) -> LpSolution:
    m, n = lp.lhs.shape
    if max_iter is None:
        max_iter = 100 * (m + n)

    n2 = 2 * n  # x = x_pos - x_neg
    art_rows = [i for i in range(m) if lp.rhs[i] >= 0]
    n_art = len(art_rows)
    total = n2 + m + n_art

    T = np.zeros((m + 1, total + 1), order="F")
    basis = [0] * m
    art_cols: list[int] = []
    next_art = n2 + m
    for i in range(m):
        row = lp.lhs[i]
        b = lp.rhs[i]
        if b < 0:
            # negate so the rhs is nonnegative; the surplus becomes a slack
            T[i, :n] = -row
            T[i, n:n2] = row
            T[i, n2 + i] = 1.0
            T[i, -1] = -b
            basis[i] = n2 + i
        else:
            T[i, :n] = row
            T[i, n:n2] = -row
            T[i, n2 + i] = -1.0
            T[i, -1] = b
            T[i, next_art] = 1.0
            basis[i] = next_art
            art_cols.append(next_art)
            next_art += 1

    allowed = np.ones(total, dtype=bool)
    is_art = np.zeros(total, dtype=bool)
    is_art[art_cols] = True

    # phase one: minimize the artificial mass
    for i in range(m):
        if is_art[basis[i]]:
            T[-1] -= T[i]
    T[-1, art_cols] = 0.0

    # the artificial mass cannot go below zero: once within FEAS_TOL of it,
    # the basis is feasible, and pivoting on further round-off reduced costs
    # can pick a pivot element near PIVOT_TOL and wreck the tableau
    status, pivots = _run_phase(
        T, lp, basis, art_rows, is_art.astype(float), allowed, max_iter, floor=FEAS_TOL
    )
    if status is not SimplexStatus.OPTIMAL:
        return LpSolution(status, None, None, pivots)
    if -T[-1, -1] > FEAS_TOL:
        return LpSolution(SimplexStatus.INFEASIBLE, None, None, pivots)

    # drive any remaining artificials out of the basis
    for i in range(m):
        if is_art[basis[i]]:
            nz = np.flatnonzero(np.abs(T[i, :n2 + m]) > PIVOT_TOL)
            if nz.size:
                _pivot(T, i, int(nz[0]))
                basis[i] = int(nz[0])
                pivots += 1
            # else: redundant row, the artificial stays basic at level zero
    allowed &= ~is_art

    # phase two: the real objective in terms of the current basis
    c_full = np.zeros(total)
    c_full[:n] = lp.objective
    c_full[n:n2] = -lp.objective
    T[-1, :-1] = c_full
    T[-1, -1] = 0.0
    for i in range(m):
        if c_full[basis[i]] != 0.0:
            T[-1] -= c_full[basis[i]] * T[i]

    status, p2 = _run_phase(T, lp, basis, art_rows, c_full, allowed, max_iter - pivots)
    pivots += p2
    if status is not SimplexStatus.OPTIMAL:
        return LpSolution(status, None, None, pivots)

    full = np.zeros(total)
    for i in range(m):
        full[basis[i]] = T[i, -1]
    x = full[:n] - full[n:n2]
    return LpSolution(SimplexStatus.OPTIMAL, x, float(lp.objective @ x), pivots)
