"""Fixed-point value iteration, used as an independent check on the LP.

Each sweep is one step, _sweep: one call of the Bellman kernel
(bellman.decision_values) gives the backup TV and the gap at sign_of, and
every stop below is read from the one span of TV - V.  The kernel takes a
trailing grid axis, so one loop solves a batch of systems that differ
only in E (bellman.BellmanSystem.mix_batch), every column at once; a single
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
Since M - m <= 2 ||d||, on the same iterates this stops no later than the
sup-norm rule (Puterman 1994, Theorem 6.3.1), and far sooner where the
values still drift by a near-constant step, as a cold start at high beta
does.  Where
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

A column's span M - m often falls by a steady ratio long before it stops
(0.45 a sweep on table2_all, 0.32 on table2_once), the geometric decay of
one mode of V* - V.  Where a column's span ratio r, its span over the last
sweep's, is within STEADY_TOL r of the ratio before it and r <= beta, the
column jumps to that mode's limit (Porteus and Totten 1978; Puterman 1994,
section 6.6): its next V is TV + r / (1 - r) (TV - V), not TV, and its
scale grows by r / (1 - r) max|TV - V|, so it still bounds max|V|.  None
of the stops above assumes V came from a backup: their bounds hold for
whatever V a sweep prices, so a jump changes how many sweeps a column
takes and nothing it returns is proven differently.  A mode whose sign
alternates keeps a steady span ratio too, and a jump along it moves away
from V*.  So where the sweep after a jump finds a span no smaller than
the one before it, the column goes back to the plain iterate TV, kept for
that sweep, and jumps again once two fresh ratios agree: a failed jump
costs one sweep, and an alternating mode may fail one every few sweeps.
The test starts once a column has two ratios, in its third sweep.  A
column jumps on its own ratios alone, and a column that does not jump
keeps TV to the bit, so its values stay independent of its batch.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

import numpy as np

from .bellman import EPS, ROUNDING_ULPS, TINY, BellmanSystem, decision_values
from .states import Action

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 100_000
# how far, as a share of the newer, two successive span ratios of a column
# may differ for it to jump (see the module docstring)
STEADY_TOL = 0.05
# a solver's state between steps: arrays with a column per column of the batch,
# last axis, or None
Columns = tuple[np.ndarray | None, ...]
# the elements of a row block that reduce_columns reduces as one row, and the
# fewest rows of an array that it reduces by blocks
BLOCK = 1024


class ConvergenceError(RuntimeError):
    """A solver ran out of the step budget it gave solve_columns."""


def reduce_columns(ufunc: np.ufunc, array: np.ndarray) -> np.ndarray:
    """ufunc.reduce(array, axis=0) of an (n, G) array, by blocks of rows where n is large.

    numpy reduces axis 0 of a C-ordered (n, G) array a row at a time, which
    with few columns costs as much as 10 to 20 elementwise passes: on 10,240
    rows and 15 columns a maximum took 341 us.  Blocks of BLOCK // G rows,
    read as rows of about BLOCK elements, reduce to one such row, which then
    reduces as (BLOCK // G, G), with the rows past the last whole block
    reduced apart: 36 us there.  ufunc is np.maximum, np.minimum or
    np.logical_or, exact in any order, so the result is the plain
    reduction's; only a zero's sign may differ where +0 and -0 tie.
    Below BLOCK rows, and for one column or more than BLOCK // 2, it is the
    plain reduction, which is no slower there.
    """
    rows, columns = array.shape
    if rows < BLOCK or not 2 <= columns <= BLOCK // 2:
        return ufunc.reduce(array, axis=0)
    block = BLOCK // columns
    whole = rows - rows % block
    out = ufunc.reduce(array[:whole].reshape(-1, block * columns), axis=0)
    out = ufunc.reduce(out.reshape(block, columns), axis=0)
    if whole < rows:
        ufunc(out, ufunc.reduce(array[whole:], axis=0), out=out)
    return out


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
    solver's own tolerance and their values, or None if none does; an
    entry of the state may be None, for none yet.  A
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
                    sc = system.scenario
                    scale = max(map(abs, sc.reward_access + sc.reward_resource))
                    raise ValueError(
                        f"the solved values are not finite: rewards up to {scale:.4g} in size "
                        f"overflow a float at beta={system.beta}"
                    )
                return result.reshape(system.q.shape[1:]), count
            keep = ~stop
            running, batch = running[keep], batch.columns(keep)
            state = tuple(a if a is None else a.compress(keep, -1) for a in state)
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
    backups, at most DEFAULT_MAX_ITER; a jump (see the module docstring)
    makes none of its own.

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
    scale = np.maximum(reduce_columns(np.maximum, np.abs(values)), TINY)
    # no half span, span ratio, plain iterate or jump yet
    return values, scale, None, None, None, None


def _sweep(
    batch: BellmanSystem, state: Columns, sign_of: int | None
) -> tuple[Columns, np.ndarray, np.ndarray | None]:
    """One kernel call, every stop and the jump (see the module docstring), as a solve_columns step.

    A stopped column returns its bounds' midpoint, or values if its sign is proven.
    Besides values and scale, the state holds each column's last half span
    and span ratio, and for one sweep after a jump the plain iterate and
    each column's half span before it (inf where it did not jump).
    """
    values, scale, spans, ratios, plain, ceiling = state
    dv = decision_values(batch, values)
    if sign_of is not None:
        gap = dv[Action.ALLOW, sign_of] - dv[Action.DENY, sign_of]
    updated = np.maximum(dv[0], dv[1])  # the backup; dv.max(axis=0) took about 1 us longer
    del dv  # free it before the step is formed
    factor = batch.beta / (1.0 - batch.beta)
    step = updated - values
    top, bottom = reduce_columns(np.maximum, step), reduce_columns(np.minimum, step)
    half_span = 0.5 * (top - bottom)
    stop = ~(factor * half_span > DEFAULT_TOL)  # NaN stops, for solve_columns to refuse
    proven = None
    if sign_of is not None:
        # scale bounds max(max|values|, TINY) from above, so this bounds rounding_allowance
        allowance = ROUNDING_ULPS * EPS * scale / (1.0 - batch.beta)
        proven = np.abs(gap) > 2.0 * (factor * half_span + batch.beta * allowance)
        stop |= proven
    norm = np.maximum(top, -bottom)
    scale += norm
    rounding = (half_span <= EPS * scale) & ~stop
    if rounding.any():
        scale[rounding] = np.maximum(reduce_columns(np.maximum, np.abs(updated[:, rounding])), TINY)
        stop |= half_span <= EPS * scale
    ratio = None if spans is None else half_span / spans
    jump = None
    if ratios is not None:  # a column that goes back below has ratio >= 1 > beta
        jump = (np.abs(ratio - ratios) <= STEADY_TOL * ratio) & (ratio <= batch.beta) & ~stop
        if not jump.any():
            jump = None
    if jump is None:
        del step  # free it before the stopped columns' values are formed
    midpoints = None
    if stop.any():
        midpoints = updated[:, stop]  # in place below: a second copy would set the peak
        midpoints += factor * 0.5 * (top[stop] + bottom[stop])
        if proven is not None:
            midpoints[:, proven[stop]] = values[:, proven]
    if ceiling is not None:
        # a jump whose span did not fall goes back to its plain iterate; a
        # stopped column's values are formed above
        undo = half_span >= ceiling
        if undo.any():
            updated[:, undo] = plain[:, undo]
            scale[undo] = np.maximum(reduce_columns(np.maximum, np.abs(updated[:, undo])), TINY)
    if jump is None:
        return (updated, scale, half_span, ratio, None, None), stop, midpoints
    # -r / (1 - r) where a column jumps and -0 elsewhere, made +0, so that
    # updated - step is TV + r / (1 - r) (TV - V) where it jumps and, to the
    # bit, TV elsewhere; a jump needs two ratios, so values is an array an
    # earlier sweep made, and its buffer takes the result
    shrink = np.where(jump, ratio, 0.0)
    shrink /= shrink - 1.0
    scale -= shrink * norm  # scale still bounds max|V|
    step *= shrink
    step += 0.0
    np.subtract(updated, step, out=values)
    ceiling = np.where(jump, half_span, np.inf)
    return (values, scale, half_span, ratio, updated, ceiling), stop, midpoints
