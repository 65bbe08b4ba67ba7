"""Fixed-point value iteration, used as an independent check on the LP.

Each sweep is one call of the Bellman kernel (bellman.decision_values).  The
kernel takes a trailing grid axis, so one loop solves a batch of systems
that differ only in E (bellman.SystemParts.mix_batch), every column at
once; a single system runs as a batch of one.  A column that has stopped
leaves the batch (BellmanSystem.columns), so each sweep backs up only the
columns still running.  The kernel works on each column apart, so a
column's values do not depend on the batch it was solved in.

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

import numpy as np

from .bellman import BellmanSystem, decision_values

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 100_000
EPS = float(np.finfo(float).eps)


class ConvergenceError(RuntimeError):
    """A solver ran out of budget: DEFAULT_MAX_ITER sweeps or policy.MAX_BASES bases."""


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

    The values have shape (n,), or (n, G) for a batch of G systems.  Each
    column stops on its own bound (see the module docstring) and keeps the
    values it stopped with, while the others go on.  A rounding-level stop
    leaves an error of at most beta / (1 - beta) eps max|V|, inside
    bellman.rounding_allowance.  Any start converges to the same fixed
    point; a start near it only saves sweeps.
    Returns the values and the number of backups, at most DEFAULT_MAX_ITER.
    """
    if not tol >= 0.0:
        raise ValueError(f"tol must be zero or positive, got {tol}")
    shape = system.q.shape[1:]
    values = system.as_columns("start", np.zeros(shape) if start is None else start)
    values = values.astype(float, copy=False)
    factor = system.beta / (1.0 - system.beta)
    batch = system.as_batch()
    result = np.empty(values.shape)
    running = np.arange(values.shape[1])  # the result column of each column of the batch
    # scale bounds max|V| per column from above; a column's is evaluated afresh
    # only once its span is small enough to be rounding, which spares that cost
    # per sweep and leaves each column's stop to its own values
    scale = np.abs(values).max(axis=0)
    for iteration in range(1, DEFAULT_MAX_ITER + 1):
        updated = bellman_backup(batch, values)
        step = updated - values
        top, bottom = step.max(axis=0), step.min(axis=0)
        half_span = 0.5 * (top - bottom)
        scale += np.maximum(top, -bottom)
        stop = factor * half_span <= tol
        rounding = (half_span <= EPS * scale) & ~stop
        if rounding.any():
            scale[rounding] = np.abs(updated[:, rounding]).max(axis=0)
            stop |= half_span <= EPS * scale
        values = updated
        if stop.any():
            midpoint = factor * 0.5 * (top + bottom)
            result[:, running[stop]] = updated[:, stop] + midpoint[stop]
            if stop.all():
                return result.reshape(shape), iteration
            # stopped columns leave the batch: later sweeps back up only the others
            keep = ~stop
            running, values, scale = running[keep], updated.compress(keep, 1), scale[keep]
            batch = batch.columns(keep)
    raise ConvergenceError(
        f"no convergence to {tol} within {DEFAULT_MAX_ITER} iterations (beta={system.beta})"
    )
