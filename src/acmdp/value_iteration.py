"""Fixed-point value iteration, used as an independent check on the LP."""

from __future__ import annotations

import numpy as np

from .bellman import BellmanSystem

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 100_000


class ConvergenceError(RuntimeError):
    """Value iteration did not converge within the iteration budget."""


def bellman_backup(system: BellmanSystem, values: np.ndarray) -> np.ndarray:
    """One synchronous application of max_a [q + beta * P V]."""
    beta = system.beta
    deny = system.q[0] + beta * (system.transitions[0] @ values)
    allow = system.q[1] + beta * (system.transitions[1] @ values)
    return np.maximum(deny, allow)


def value_iterate(
    system: BellmanSystem,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    start: np.ndarray | None = None,
) -> tuple[np.ndarray, int]:
    """Iterate from start (default zero) until successive sweeps differ by less than tol.

    The backup is a beta-contraction, so any start converges to the same
    fixed point; a start near it only saves sweeps.  Returns the value
    vector and the number of backups performed.
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
    for iteration in range(1, max_iter + 1):
        updated = bellman_backup(system, values)
        if np.max(np.abs(updated - values)) < tol:
            return updated, iteration
        values = updated
    raise ConvergenceError(
        f"no convergence to {tol} within {max_iter} iterations (beta={system.beta})"
    )
