"""Fixed-point value iteration, used as an independent check on the LP.

Each sweep is one call of the Bellman kernel (bellman.decision_values, one
matvec with the stacked transition matrix).  Iteration stops on a proven
error bound: once successive sweeps differ by less than tol (1 - beta) /
beta, the last sweep is within tol of the optimal values (Puterman 1994,
Theorem 6.3.1).  Where that step lies below the rounding of the values
(high beta, large values), iteration stops instead once a step is at
most eps max|V|, about one unit in the last place of the largest value;
bellman.rounding_allowance covers the extra error.
"""

from __future__ import annotations

import numpy as np

from .bellman import BellmanSystem, decision_values

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 100_000
EPS = float(np.finfo(float).eps)


class ConvergenceError(RuntimeError):
    """Value iteration did not converge within the iteration budget."""


def bellman_backup(system: BellmanSystem, values: np.ndarray) -> np.ndarray:
    """One synchronous application of max_a [q + beta * P V]."""
    dv = decision_values(system, values)
    # equal to dv.max(axis=0), which took about 1 us longer at 160 states
    return np.maximum(dv[0], dv[1])


def value_iterate(
    system: BellmanSystem,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    start: np.ndarray | None = None,
) -> tuple[np.ndarray, int]:
    """Iterate from start (default zero) until the values are within tol of the optimum.

    The backup T is a beta-contraction, so ||V_{k+1} - V*|| <= beta / (1 - beta)
    ||V_{k+1} - V_k||: stopping once sweeps differ by less than
    tol (1 - beta) / beta leaves an error of at most tol.  A step of at
    most eps max|V| also stops it, since rounding can keep the steps from
    falling further; that leaves an error of at most
    beta / (1 - beta) eps max|V|, inside bellman.rounding_allowance.  Any
    start converges to the same fixed point; a start near it only saves
    sweeps.
    Returns the value vector and the number of backups performed.
    """
    if start is None:
        values = np.zeros(system.num_states)
    else:
        values = np.asarray(start, dtype=float)
        if values.shape != (system.num_states,):
            raise ValueError(
                f"start has shape {values.shape}, expected ({system.num_states},)"
            )
    if system.beta == 0.0:
        # the backup ignores V entirely; one sweep is exact
        return bellman_backup(system, values), 1
    step_tol = tol * (1.0 - system.beta) / system.beta
    # scale bounds max|V| from above; it is evaluated afresh only once a
    # step is small enough to be rounding, which spares that cost per sweep
    scale = float(np.abs(values).max())
    for iteration in range(1, max_iter + 1):
        updated = bellman_backup(system, values)
        step = np.abs(updated - values).max()
        if step < step_tol:
            return updated, iteration
        scale += step
        if step <= EPS * scale:
            scale = float(np.abs(updated).max())
            if step <= EPS * scale:
                return updated, iteration
        values = updated
    raise ConvergenceError(
        f"no convergence to {tol} within {max_iter} iterations (beta={system.beta})"
    )
