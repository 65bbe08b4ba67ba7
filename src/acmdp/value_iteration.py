"""Fixed-point value iteration, used as an independent check on the LP.

Each sweep is one call of the Bellman kernel (bellman.decision_values).  The
kernel takes a trailing grid axis, so one loop solves a batch of systems
that differ only in E (bellman.SystemParts.mix_batch), every column at
once; a single system runs as a batch of one.  solve_columns is that loop,
for policy.policy_iterate too: it retires stopped columns and keeps the
budget.  The kernel works on each column apart, so a column's values do
not depend on the batch it was solved in.

Iteration stops on a proven error bound, per column.  With d = TV - V,
M = max d and m = min d, the optimal values lie between TV + beta / (1 - beta) m
and TV + beta / (1 - beta) M (MacQueen 1966, Porteus 1971; Puterman 1994,
section 6.6), so the midpoint TV + beta / (1 - beta) (M + m) / 2 is within
beta / (1 - beta) (M - m) / 2 of them.  A column stops once that is at most
tol and returns the midpoint.  Since M - m <= 2 ||d||, this stops no later
than the sup-norm rule (Puterman 1994, Theorem 6.3.1), and far sooner where
the values still drift by a near-constant step, as a cold start at high
beta does.  Where the bound lies below the rounding of the values (high
beta, large values), a column stops instead once (M - m) / 2 is at most
eps max|V|, about one unit in the last place of its largest value;
bellman.rounding_allowance covers the extra error.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .bellman import BellmanSystem, decision_values

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 100_000
EPS = float(np.finfo(float).eps)
# a solver's state between steps: arrays with a column per column of the batch, last axis
Columns = tuple[np.ndarray, ...]


class ConvergenceError(RuntimeError):
    """A solver ran out of the step budget it gave solve_columns."""


def solve_columns(
    system: BellmanSystem,
    tol: float,
    start: np.ndarray | None,
    budget: int,
    first: Callable[[BellmanSystem, np.ndarray | None], Columns],
    step: Callable[[BellmanSystem, Columns, float], tuple[Columns, np.ndarray, np.ndarray | None]],
    failure: str,
) -> tuple[np.ndarray, int]:
    """The fixed-point loop of both solvers; returns the values and the step count.

    first(batch, start) gives the state from start's (n, G) columns or None.
    step(batch, state, tol) gives the next state, the columns that stop and
    their values, or None if none does.  A stopped column keeps them and
    leaves the batch and the state, so later steps take only the columns
    still running.  After budget steps it raises ConvergenceError with
    failure, formatted with tol, budget and beta.
    """
    if not tol >= 0.0:
        raise ValueError(f"tol must be zero or positive, got {tol}")
    if start is not None:
        start = system.as_columns("start", start)
        if not np.isfinite(start).all():
            raise ValueError("start has a non-finite value")
    batch = system.as_batch()
    state = first(batch, start)
    del start  # the state keeps what it needs of it, and no more
    result = np.empty(batch.q.shape[1:])
    running = np.arange(result.shape[1])  # the result column of each column of the batch
    for count in range(1, budget + 1):
        state, stop, values = step(batch, state, tol)
        if values is not None:
            result[:, running[stop]] = values
            if stop.all():
                return result.reshape(system.q.shape[1:]), count
            keep = ~stop
            running, batch = running[keep], batch.columns(keep)
            state = tuple(array.compress(keep, -1) for array in state)
    raise ConvergenceError(failure.format(tol=tol, budget=budget, beta=system.beta))


def bellman_backup(system: BellmanSystem, values: np.ndarray) -> np.ndarray:
    """One synchronous application of max_a [q + beta * P V]."""
    dv = decision_values(system, values)
    # equal to dv.max(axis=0), which took about 1 us longer at 160 states
    return np.maximum(dv[0], dv[1])


def value_iterate(
    system: BellmanSystem,
    tol: float = DEFAULT_TOL,
    start: np.ndarray | None = None,
) -> tuple[np.ndarray, int]:
    """Iterate from start (default zero) until the values are within tol of the optimum.

    The values have shape (n,), or (n, G) for a batch of G systems, each
    column of which stops on its own bound (see the module docstring).  A
    rounding-level stop leaves an error of at most beta / (1 - beta) eps
    max|V|, inside bellman.rounding_allowance.  Any start converges to the
    same fixed point; a start near it only saves sweeps.  The count is of
    backups, at most DEFAULT_MAX_ITER.
    """
    failure = "no convergence to {tol} within {budget} iterations (beta={beta})"
    return solve_columns(system, tol, start, DEFAULT_MAX_ITER, _first_values, _sweep, failure)


def _first_values(batch: BellmanSystem, start: np.ndarray | None) -> Columns:
    values = np.zeros(batch.q.shape[1:]) if start is None else start.astype(float, copy=False)
    # scale bounds max|V| per column from above; a column's is evaluated afresh
    # only once its span is small enough to be rounding, which spares that cost
    # per sweep and leaves each column's stop to its own values
    return values, np.abs(values).max(axis=0)


def _sweep(
    batch: BellmanSystem, state: Columns, tol: float
) -> tuple[Columns, np.ndarray, np.ndarray | None]:
    """One backup and the span stop; a stopped column's values are its bounds' midpoint."""
    values, scale = state
    factor = batch.beta / (1.0 - batch.beta)
    updated = bellman_backup(batch, values)
    step = updated - values
    top, bottom = step.max(axis=0), step.min(axis=0)
    del step  # free it before the stopped columns' values are formed
    half_span = 0.5 * (top - bottom)
    scale += np.maximum(top, -bottom)
    stop = factor * half_span <= tol
    rounding = (half_span <= EPS * scale) & ~stop
    if rounding.any():
        scale[rounding] = np.abs(updated[:, rounding]).max(axis=0)
        stop |= half_span <= EPS * scale
    midpoints = None
    if stop.any():
        midpoints = updated[:, stop]  # in place below: a second copy would set the peak
        midpoints += factor * 0.5 * (top[stop] + bottom[stop])
    return (updated, scale), stop, midpoints
