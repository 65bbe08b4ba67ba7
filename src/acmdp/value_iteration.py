"""Fixed-point value iteration, used as an independent check on the LP.

Each sweep is one step, _sweep: one call of the Bellman kernel
(bellman.decision_values) gives the backup TV and the gap at sign_of, and
every stop below is read from the one span of TV - V.  The kernel takes a
trailing grid axis, so one loop solves a batch of systems that differ
only in E (bellman.SystemParts.mix_batch), every column at once; a single
system runs as a batch of one.  solve_columns is that loop, for
policy.policy_iterate too: it retires stopped columns and keeps the
budget, and each step stops at its solver's one tolerance, a module
constant read when it runs.  The kernel works on each column apart, so a
column's values do not depend on the batch it was solved in.

Iteration stops on a proven error bound, per column.  With d = TV - V,
M = max d and m = min d, the optimal values lie between TV + beta / (1 - beta) m
and TV + beta / (1 - beta) M (MacQueen 1966, Porteus 1971; Puterman 1994,
section 6.6), so the midpoint TV + beta / (1 - beta) (M + m) / 2 is within
beta / (1 - beta) (M - m) / 2 of them.  A column stops once that is at most
DEFAULT_TOL, which each sweep reads when it runs, and returns the midpoint.
Since M - m <= 2 ||d||, this stops no later than the sup-norm rule
(Puterman 1994, Theorem 6.3.1), and far sooner where the values still
drift by a near-constant step, as a cold start at high beta does.  Where
the bound lies below the rounding of the values (high beta, large values),
a column stops instead once (M - m) / 2 is at most eps max|V|, about one
unit in the last place of its largest value; bellman.rounding_allowance
covers the extra error.

value_iterate's sign_of stops a column sooner where only the sign of
allow - deny at one state is wanted.  The same bounds put V* - V between
m / (1 - beta) and M / (1 - beta) in every state, and each row of P^a sums
to 1, so each optimal decision value q^a + beta P^a V* lies within
[m, M] beta / (1 - beta) of the one V gives, and the optimal gap within
beta / (1 - beta) (M - m) of V's.  Once V's gap exceeds that plus
2 beta rounding_allowance(V, beta) in size, its sign is the optimal gap's.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

import numpy as np

from .bellman import EPS, ROUNDING_ULPS, TINY, BellmanSystem, decision_values
from .states import Action

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 100_000
# a solver's state between steps: arrays with a column per column of the batch, last axis
Columns = tuple[np.ndarray, ...]


class ConvergenceError(RuntimeError):
    """A solver ran out of the step budget it gave solve_columns."""


def solve_columns(
    system: BellmanSystem,
    start: np.ndarray | None,
    budget: int,
    first: Callable[[BellmanSystem, np.ndarray | None], Columns],
    step: Callable[[BellmanSystem, Columns], tuple[Columns, np.ndarray, np.ndarray | None]],
    failure: str,
) -> tuple[np.ndarray, int]:
    """The fixed-point loop of both solvers; returns the values and the step count.

    first(batch, start) gives the state from start's (n, G) columns or None.
    step(batch, state) gives the next state, the columns that stop at the
    solver's own tolerance and their values, or None if none does.  A
    stopped column keeps them and leaves the batch and the state, so later
    steps take only the columns still running.  After budget steps it
    raises ConvergenceError with failure, formatted with budget and beta.
    Values that are not finite (rewards so large that they overflow) stop
    their column, and once every column has stopped raise ValueError.
    """
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
        state, stop, values = step(batch, state)
        if values is not None:
            result[:, running[stop]] = values
            if stop.all():
                if not np.isfinite(result).all():
                    sc = system.parts.scenario
                    scale = max(map(abs, sc.reward_access + sc.reward_resource))
                    raise ValueError(
                        f"the solved values are not finite: rewards up to {scale:.4g} in size "
                        f"overflow a float at beta={system.beta}"
                    )
                return result.reshape(system.q.shape[1:]), count
            keep = ~stop
            running, batch = running[keep], batch.columns(keep)
            state = tuple(array.compress(keep, -1) for array in state)
    raise ConvergenceError(failure.format(budget=budget, beta=system.beta))


def value_iterate(
    system: BellmanSystem, start: np.ndarray | None = None, sign_of: int | None = None
) -> tuple[np.ndarray, int]:
    """Iterate from start (default zero) until the values are within DEFAULT_TOL of the optimum.

    The values have shape (n,), or (n, G) for a batch of G systems, each
    column of which stops on its own bound (see the module docstring).  A
    rounding-level stop leaves an error of at most beta / (1 - beta) eps
    max|V|, inside bellman.rounding_allowance.  Any start converges to the
    same fixed point; a start near it only saves sweeps.  The count is of
    backups, at most DEFAULT_MAX_ITER.

    With sign_of, a state, a column also stops once the sign of its
    allow - deny at that state is proven: once the gap, read from the
    decision values each sweep computes of its values V, is larger in size
    than beta / (1 - beta) (M - m) plus 2 beta rounding_allowance(V, beta)
    (see the module docstring).  Such a column returns V itself, so
    decision_values of the result gives the proven gap to the last bit.  A
    column whose sign is never proven stops within DEFAULT_TOL, its sign
    taken as computed.
    """
    failure = f"no convergence to {DEFAULT_TOL} within {{budget}} iterations (beta={{beta}})"
    step = partial(_sweep, sign_of=sign_of)
    return solve_columns(system, start, DEFAULT_MAX_ITER, _first_values, step, failure)


def _first_values(batch: BellmanSystem, start: np.ndarray | None) -> Columns:
    values = np.zeros(batch.q.shape[1:]) if start is None else start.astype(float, copy=False)
    # scale bounds max(max|V|, TINY) per column from above, as rounding_allowance
    # takes it; a column's is evaluated afresh only once its span is small enough
    # to be rounding, which spares that cost per sweep and leaves each column's
    # stop to its own values
    return values, np.maximum(np.abs(values).max(axis=0), TINY)


def _sweep(
    batch: BellmanSystem, state: Columns, sign_of: int | None
) -> tuple[Columns, np.ndarray, np.ndarray | None]:
    """One kernel call and every stop (see the module docstring), as a solve_columns step.

    A stopped column returns its bounds' midpoint, or values if its sign is proven.
    """
    values, scale = state
    dv = decision_values(batch, values)
    if sign_of is not None:
        gap = dv[Action.ALLOW, sign_of] - dv[Action.DENY, sign_of]
    updated = np.maximum(dv[0], dv[1])  # the backup; dv.max(axis=0) took about 1 us longer
    del dv  # free it before the step is formed
    factor = batch.beta / (1.0 - batch.beta)
    step = updated - values
    top, bottom = step.max(axis=0), step.min(axis=0)
    del step  # free it before the stopped columns' values are formed
    half_span = 0.5 * (top - bottom)
    stop = ~(factor * half_span > DEFAULT_TOL)  # NaN stops, for solve_columns to refuse
    proven = np.zeros_like(stop)
    if sign_of is not None:
        # scale bounds max(max|values|, TINY) from above, so this bounds rounding_allowance
        allowance = ROUNDING_ULPS * EPS * scale / (1.0 - batch.beta)
        proven = np.abs(gap) > 2.0 * (factor * half_span + batch.beta * allowance)
        stop |= proven
    scale += np.maximum(top, -bottom)
    rounding = (half_span <= EPS * scale) & ~stop
    if rounding.any():
        scale[rounding] = np.maximum(np.abs(updated[:, rounding]).max(axis=0), TINY)
        stop |= half_span <= EPS * scale
    midpoints = None
    if stop.any():
        midpoints = updated[:, stop]  # in place below: a second copy would set the peak
        midpoints += factor * 0.5 * (top[stop] + bottom[stop])
        midpoints[:, proven[stop]] = values[:, proven]
    return (updated, scale), stop, midpoints
