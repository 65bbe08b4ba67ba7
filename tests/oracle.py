"""The per-state reference model the tests compare the package against.

The package builds each transition matrix P^a and reward vector q^a with
array arithmetic over the set bitmasks (dynamics.request_dynamics,
rewards.reward_parts).  This module describes the same process one
state at a time, as the model is written down: the granted set changes
deterministically (next_access_set), the next request is drawn by the
request behaviour (request_distribution), the emergency status moves by
its 2x2 matrix, and each transition earns its grant utility plus the alert
penalty of the state it reaches (reward_transition).  oracle_compile turns
it into the matrices compile_system must reproduce.

lattice_solve solves the MDP exactly from that per-state build, without
the package's compile or solvers: the granted set only grows, so the
values of the larger sets are found first and are constants for the
smaller ones.

exact_decision_values prices one fixed policy exactly, in fractions.Fraction:
the helpers above take a number type, and with Fraction they read each
stored float as the rational it is and draw each of m requests with
probability exactly 1/m, so no step rounds.

basis_blocks assembles each granted set's 4 x 4 block of a policy's basis,
I - beta M_k, and reference_policy_evaluate solves the basis a popcount
level at a time by np.linalg.inv of those blocks, on the whole draw table
at every level.  policy.policy_evaluate solves each block by a closed form
instead, which rounds differently: it must agree with the reference within
rounding_allowance, and its operators with np.linalg.inv of the blocks.

plain_value_iterate is value iteration without its jumps: every sweep's
next values are its backup, and each column stops on value_iterate's span
bound or rounding stop, at the same midpoint.  value_iterate must take no
more sweeps than it on the grids the tests pin, and agree with its values
within the bound both prove.

reference_bisect is run_sweep's bisection as it was before it solved its
midpoints in batches: one midpoint at a time, each a batch of one started
from the mean of the values at its bracket's ends.  experiments._bisect
must report the same brackets, to the bit.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

import numpy as np
from scipy import sparse

from acmdp.bellman import EPS, TINY, BellmanSystem, decision_values, draw_table, price_table
from acmdp.dynamics import RequestBehavior
from acmdp.experiments import CROSSOVER_WIDTH
from acmdp.rewards import RewardVariant, Scenario
from acmdp.states import (
    ACTIONS,
    Action,
    Emergency,
    ModelDims,
    Request,
    State,
    access_bit_index,
    set_insert,
)
from acmdp.value_iteration import DEFAULT_MAX_ITER, DEFAULT_TOL, solve_columns


def all_states(dims: ModelDims) -> list[State]:
    """Every state of a model of this shape, in index order."""
    return [dims.index_state(i) for i in range(dims.num_states)]


def emergency_prob(
    sc: Scenario, src: Emergency, dst: Emergency, number: type = float
) -> float:
    """E[src, dst]: the rate of turning alert from src, or its complement for calm."""
    alert = number(sc.calm_to_alert if src is Emergency.CALM else sc.alert_to_alert)
    return alert if dst is Emergency.ALERT else 1 - alert


def next_access_set(k: int, req: Request, act: Action, d: ModelDims) -> int:
    """Deterministic granted-set transition: allow inserts, deny keeps."""
    if act is Action.DENY or req is None:
        return k
    return set_insert(k, req, d)


def request_distribution(
    b: RequestBehavior, k_next: int, d: ModelDims, current: Request, number: type = float
) -> list[tuple[Request, float]]:
    """Distribution of the next pending request.

    Conditions on the post-decision granted set and, for the once
    behaviour, on the current request: after the empty request has been
    reached, no further requests arrive.
    """
    if b is RequestBehavior.UNIQUE:
        return [(None, number(1))]
    if b is RequestBehavior.ALL:
        p = number(1) / d.num_access_bits
        return [(a, p) for a in d.accesses()]
    # once: the empty request is terminal; otherwise draw uniformly among
    # the not-yet-granted accesses and the empty request
    if current is None:
        return [(None, number(1))]
    pending = [a for a in d.accesses() if not (k_next >> access_bit_index(a, d)) & 1]
    p = number(1) / (len(pending) + 1)
    return [(a, p) for a in pending] + [(None, p)]


def successors(
    sc: Scenario, s: State, act: Action, number: type = float
) -> list[tuple[State, float]]:
    """All positive-probability successor states of (s, act) under sc's dynamics."""
    k2 = next_access_set(s.granted, s.request, act, sc.dims)
    requests = request_distribution(sc.behavior, k2, sc.dims, s.request, number)
    out: list[tuple[State, float]] = []
    for e2 in (Emergency.CALM, Emergency.ALERT):
        pe = emergency_prob(sc, s.emergency, e2, number)
        if pe == 0.0:
            continue
        for req2, pr in requests:
            out.append((State(e2, k2, req2), pe * pr))
    return out


def reward_emresource(sc: Scenario, e: Emergency, k: int, number: type = float) -> float:
    """Alert-status penalty: sum of resource rewards nobody is accessing."""
    if e is Emergency.CALM:
        return number(0)
    d = sc.dims
    total = number(0)
    for r in range(d.num_resources):
        accessed = any(
            (k >> (u * d.num_resources + r)) & 1 for u in range(d.num_users)
        )
        if not accessed:
            total += number(sc.reward_resource[r])
    return total


def reward_transition(
    sc: Scenario, s: State, act: Action, s2: State, number: type = float
) -> float:
    """Reward of one transition, per the configured variant."""
    if sc.variant is RewardVariant.EPS_ZERO and s.request is None:
        return number(0)
    gain = number(0)
    if act is Action.ALLOW and s.request is not None:
        gain = number(sc.reward_access[access_bit_index(s.request, sc.dims)])
    return gain + reward_emresource(sc, s2.emergency, s2.granted, number)


def immediate_reward(sc: Scenario, s: State, act: Action) -> float:
    """Expected one-step reward of an action from a state."""
    return sum(
        p * reward_transition(sc, s, act, s2) for s2, p in successors(sc, s, act)
    )


def oracle_compile(sc: Scenario) -> tuple[list[sparse.csr_matrix], np.ndarray]:
    """The per-state build: walk successors() and reward_transition()."""
    n = sc.dims.num_states
    q = np.zeros((2, n))
    mats = []
    for act in ACTIONS:
        rows, cols, data = [], [], []
        for i, s in enumerate(all_states(sc.dims)):
            total = 0.0
            for s2, p in successors(sc, s, act):
                rows.append(i)
                cols.append(sc.dims.state_index(s2))
                data.append(p)
                total += p * reward_transition(sc, s, act, s2)
            q[int(act), i] = total
        mats.append(sparse.csr_matrix((data, (rows, cols)), shape=(n, n)))
    return mats, q


def lattice_solve(sc: Scenario) -> np.ndarray:
    """Optimal values by backward induction over the lattice of granted sets.

    Every transition lands on a superset of its granted set (asserted), so
    the states of one popcount level reach only their own level and the
    levels above it, and the states of different sets in one level never
    reach each other.  Levels are solved from the full set down.  Each
    runs Howard policy iteration on its own states, dense, with the values
    of the levels above as constants, until no state improves by more than
    1e-12.
    """
    mats, q = oracle_compile(sc)
    dense = [m.toarray() for m in mats]
    granted = np.array([s.granted for s in all_states(sc.dims)])
    for m in mats:
        rows, cols = m.nonzero()
        assert np.all(granted[cols] & granted[rows] == granted[rows])
    level = np.array([bin(k).count("1") for k in granted])
    values = np.zeros(len(granted))
    for bits in range(sc.dims.num_access_bits, -1, -1):
        here, above = level == bits, level > bits
        own = [p[np.ix_(here, here)] for p in dense]
        # each action's reward plus the discounted values of the levels above
        const = q[:, here] + sc.beta * np.stack(
            [p[np.ix_(here, above)] @ values[above] for p in dense]
        )
        idx = np.arange(np.count_nonzero(here))
        policy = np.zeros(len(idx), dtype=int)
        while True:
            chosen = np.where(policy[:, None] == 1, own[1], own[0])
            v = np.linalg.solve(np.eye(len(idx)) - sc.beta * chosen, const[policy, idx])
            dv = const + sc.beta * np.stack([p @ v for p in own])
            switch = dv[1 - policy, idx] - dv[policy, idx] > 1e-12
            if not switch.any():
                break
            policy[switch] = 1 - policy[switch]
        values[here] = v
    return values


def exact_decision_values(sc: Scenario, policy: np.ndarray) -> np.ndarray:
    """The exact q^a + beta P^a V_pi of an allow mask pi, a (2, n) object array of Fractions.

    V_pi solves (I - beta P_pi) V = q_pi one granted set at a time, from the
    full set down: each set's states reach only their own set and its strict
    supersets, whose values are solved by then.  Each set's block is solved
    by Gauss-Jordan elimination, exactly.
    """
    beta, states = Fraction(sc.beta), all_states(sc.dims)
    moves = [[successors(sc, s, act, Fraction) for s in states] for act in ACTIONS]
    q = [
        [
            sum(p * reward_transition(sc, s, act, s2, Fraction) for s2, p in moves[act][i])
            for i, s in enumerate(states)
        ]
        for act in ACTIONS
    ]
    values: dict[State, Fraction] = {}
    for k in sorted(range(sc.dims.num_sets), key=lambda k: -bin(k).count("1")):
        block = [(i, s) for i, s in enumerate(states) if s.granted == k]
        column = {s: c for c, (_, s) in enumerate(block)}
        rows = []
        for c, (i, s) in enumerate(block):
            act = int(policy[i])
            row = [Fraction(int(c == j)) for j in range(len(block))] + [q[act][i]]
            for s2, p in moves[act][i]:
                if s2 in column:
                    row[column[s2]] -= beta * p
                else:
                    row[-1] += beta * p * values[s2]
            rows.append(row)
        values.update(zip(column, _gauss_jordan(rows)))
    dv = [
        [q[act][i] + beta * sum(p * values[s2] for s2, p in row) for i, row in enumerate(rows)]
        for act, rows in enumerate(moves)
    ]
    return np.array(dv, dtype=object)


def _gauss_jordan(rows: list[list[Fraction]]) -> list[Fraction]:
    """x with A x = b, for the rows [A | b] of a regular A, in exact arithmetic."""
    for c in range(len(rows)):
        pivot = next(r for r in range(c, len(rows)) if rows[r][c] != 0)
        rows[c], rows[pivot] = rows[pivot], rows[c]
        lead = rows[c][c]
        rows[c] = [x / lead for x in rows[c]]
        for r, row in enumerate(rows):
            if r != c and row[c] != 0:
                rows[r] = [x - row[c] * y for x, y in zip(row, rows[c])]
    return [row[-1] for row in rows]


def basis_blocks(system: BellmanSystem, policy: np.ndarray) -> np.ndarray:
    """I - beta M_k of every set k and column of an allow mask, (sets, G, 4, 4).

    A state of set k reads a solved superset's entry or one of k's own four
    draw-table entries T_k, so T_k = draw_table(b)_k + beta M_k T_k, where b
    is what the states read beyond T_k and M_k is E times draw_table of the
    indicator "reads its own set's entry of this kind".  Rows and columns
    are ordered (status, kind), as draw_table's entries.
    """
    batch, dynamics = system.as_batch(), system.dynamics
    policy = system.as_columns("policy", policy)
    sets, per_set = dynamics.weights.shape
    states = np.arange(len(dynamics.draw_index) // 2)[:, None]
    # own[a, x, c]: (action a, state x) reads its own set's kind-c entry
    kind, reached = np.divmod(dynamics.draw_index.reshape(2, -1, 1) % (2 * sets), sets)
    own = (reached == states // per_set % sets) & (kind == (0, 1))
    # shares[k, g, e, kind, ., c]: the draw table of own under pi
    shares = own[0, :, None] ^ (policy[..., None] & (own[0] ^ own[1])[:, None])
    shares = draw_table(batch, shares.reshape(system.num_states, -1))
    shares = shares.reshape(2, 2, sets, -1, 2).transpose(2, 3, 0, 1, 4)
    mixing = batch.mixing.transpose(3, 0, 2, 1)[..., None]  # [g, e, ., e2, .]
    return np.eye(4) - (mixing * shares[..., None, :]).reshape(sets, -1, 4, 4)


def reference_policy_evaluate(system: BellmanSystem, policy: np.ndarray) -> np.ndarray:
    """policy_evaluate's decision values, by LAPACK and one popcount level at a time on every state.

    Every transition keeps the granted set or reaches a strict superset, so
    the levels are solved from the full set down.  Each set's block
    (basis_blocks) is inverted by np.linalg.inv.  Each level takes a
    draw_table of every state, with this level's entries zero, and a
    price_table of every set.
    """
    batch, dynamics = system.as_batch(), system.dynamics
    policy = system.as_columns("policy", policy)
    sets, per_set = dynamics.weights.shape
    # the sets of each popcount level, largest first, each level in ascending order
    popcount = ((np.arange(sets)[:, None] >> np.arange(per_set - 1)) & 1).sum(axis=1)
    levels = [np.flatnonzero(popcount == c) for c in range(per_set - 1, -1, -1)]
    inverse = np.linalg.inv(basis_blocks(batch, policy))
    entries = np.zeros((4, sets, policy.shape[1]))  # V's draw table, (status, kind) by set
    dv = batch.q
    for level in levels:
        rhs = draw_table(batch, np.where(policy, dv[1], dv[0])).reshape(4, sets, -1)
        solved = np.matmul(inverse[level], rhs[:, level].transpose(1, 2, 0)[..., None])
        entries[:, level] = solved[..., 0].transpose(2, 0, 1)
        dv = price_table(batch, entries.reshape(2, 2, sets, -1))
    return dv.reshape(system.q.shape)


def plain_value_iterate(system: BellmanSystem) -> tuple[np.ndarray, int]:
    """value_iterate from zero without its jumps: its values and its sweep count."""

    def first(batch, start):
        values = np.zeros(batch.q.shape[1:])
        return values, np.full(values.shape[1], TINY)

    def sweep(batch, state):
        values, scale = state
        updated = decision_values(batch, values).max(axis=0)
        step = updated - values
        top, bottom = step.max(axis=0), step.min(axis=0)
        factor = batch.beta / (1.0 - batch.beta)
        half_span = 0.5 * (top - bottom)
        stop = ~(factor * half_span > DEFAULT_TOL)
        scale += np.maximum(top, -bottom)
        rounding = (half_span <= EPS * scale) & ~stop
        scale[rounding] = np.maximum(np.abs(updated[:, rounding]).max(axis=0), TINY)
        stop |= half_span <= EPS * scale
        midpoints = updated[:, stop] + factor * 0.5 * (top[stop] + bottom[stop])
        return (updated, scale), stop, midpoints

    failure = "no convergence within {budget} sweeps (beta={beta})"
    return solve_columns(system, None, DEFAULT_MAX_ITER, first, sweep, failure)


def reference_bisect(
    system: BellmanSystem,
    solve: Callable[..., tuple[np.ndarray, int]],
    state: int,
    lo: float,
    hi: float,
    f_lo: float,
    ends: np.ndarray,
) -> tuple[float, float]:
    """Halve [lo, hi] to CROSSOVER_WIDTH; allow - deny at state differs in sign at its ends.

    f_lo is the gap at lo; where it is zero, lo = hi and the bracket is
    returned as it is.  A midpoint whose gap is exactly zero closes the
    bracket there, as [mid, mid].  ends, overwritten here, holds the (n, 2)
    values solved at lo and at hi.  Each point is a batch of one, solved
    once by solve(point, start=...) from the mean of ends' columns, and its
    own values then take the column of the end it replaces.
    """
    while hi - lo > CROSSOVER_WIDTH:
        mid = 0.5 * (lo + hi)
        point = system.mix_batch([(mid, system.scenario.alert_to_alert)])
        values, _ = solve(point, start=0.5 * (ends[:, :1] + ends[:, 1:]))
        dv = decision_values(point, values)[:, state, 0]
        f_mid = float(dv[Action.ALLOW] - dv[Action.DENY])
        if f_mid == 0.0:
            lo = hi = mid
        elif (f_lo < 0) == (f_mid < 0):
            lo, f_lo, ends[:, :1] = mid, f_mid, values
        else:
            hi, ends[:, 1:] = mid, values
    return lo, hi
