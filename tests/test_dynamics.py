import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import (
    all_states,
    emergency_prob,
    next_access_set,
    request_distribution,
    successors,
)
from test_bellman import small_scenario

from acmdp import (
    BUILTIN_NAMES,
    Access,
    Action,
    Emergency,
    EmergencyMatrix,
    ModelDims,
    RequestBehavior,
    State,
    StateSpace,
    builtin_scenario,
    compile_system,
    validate_stochastic,
)
from acmdp.bellman import build_parts
from acmdp.dynamics import ROW_SUM_TOL, next_access_sets, request_dynamics, set_request_rows
from acmdp.states import ACTIONS

D22 = ModelDims(2, 2)
DRIFT = EmergencyMatrix(0.1, 1.0)


def model(emergency, behavior):
    """A 2x2 scenario with these dynamics."""
    return replace(builtin_scenario("table2_unique"), emergency=emergency, behavior=behavior)


def dist_as_dict(pairs):
    return {key: p for key, p in pairs}


class TestEmergencyMatrix:
    def test_range_enforced(self):
        # a NaN rate fails the range test as well
        for rate in (1.5, -0.5, math.nan):
            for rates in ((rate, 1.0), (0.1, rate)):
                with pytest.raises(ValueError, match="outside \\[0, 1\\]"):
                    EmergencyMatrix(*rates)

    def test_rates(self):
        m = EmergencyMatrix(0.1, 1.0)
        assert emergency_prob(m, Emergency.CALM, Emergency.ALERT) == pytest.approx(0.1)
        assert emergency_prob(m, Emergency.CALM, Emergency.CALM) == pytest.approx(0.9)
        assert emergency_prob(m, Emergency.ALERT, Emergency.CALM) == 0.0
        assert EmergencyMatrix(0.25, 0.5).rows == ((0.75, 0.25), (0.5, 0.5))
        assert EmergencyMatrix.identity().rows == ((1.0, 0.0), (0.0, 1.0))


class TestNextAccessSet:
    def test_allow_inserts(self):
        assert next_access_set(0, Access(0, 0), Action.ALLOW, D22) == 1

    def test_deny_keeps(self):
        assert next_access_set(0, Access(0, 0), Action.DENY, D22) == 0

    def test_empty_request_never_modifies(self):
        assert next_access_set(3, None, Action.ALLOW, D22) == 3
        assert next_access_set(3, None, Action.DENY, D22) == 3


class TestGrantedSetLattice:
    """The granted set only grows: the LP's back-substitution over the sets relies on it."""

    @pytest.mark.parametrize("users", [1, 2, 3])
    @pytest.mark.parametrize("resources", [1, 2, 3])
    @pytest.mark.parametrize("act", ACTIONS)
    def test_next_set_contains_the_set(self, users, resources, act):
        d = ModelDims(users, resources)
        k, _ = set_request_rows(d)
        assert np.array_equal(next_access_sets(d, act) & k, k)

    @pytest.mark.parametrize("behavior", list(RequestBehavior))
    @pytest.mark.parametrize("users, resources", [(1, 1), (2, 2), (1, 3)])
    def test_in_set_holds_the_draws_that_keep_the_set(self, users, resources, behavior):
        # the in-set draws of a row are those that keep its granted set k:
        # the LP solves them as k's own draw-table entries.  Read them from
        # weights and draw_index, in both statuses, and compare with the oracle
        d = ModelDims(users, resources)
        space = StateSpace(d)
        dynamics = request_dynamics(d, behavior)
        sets, size = d.num_sets, dynamics.size
        empty = np.zeros(len(space.requests))
        empty[-1] = 1.0
        for act in ACTIONS:
            for k in range(sets):
                for r, req in enumerate(space.requests):
                    want = np.zeros(len(space.requests))
                    k2 = next_access_set(k, req, act, d)
                    if k2 == k:
                        for req2, p in request_distribution(behavior, k2, d, req):
                            want[space.requests.index(req2)] = p
                    x = k * len(space.requests) + r
                    for e in range(2):
                        entry = dynamics.draw_index[int(act) * 2 * size + e * size + x]
                        kind, k_read = divmod(entry - e * 2 * sets, sets)
                        got = np.zeros(len(space.requests))
                        if k_read == k:
                            got = empty if kind else dynamics.weights[k]
                        assert np.array_equal(got, want), (act, e, k, req)


def clear_shape_caches():
    for builder in (request_dynamics, next_access_sets, set_request_rows):
        builder.cache_clear()


class TestSharedShapeBuild:
    """The shape-only builders are cached: one read-only build per (dims, behaviour)."""

    @pytest.mark.parametrize("act", ACTIONS)
    def test_plain_action_values_build_the_actions_sets(self, act):
        # built first from the plain int, then from the enum, each on an empty cache
        clear_shape_caches()
        plain = next_access_sets(D22, int(act))
        clear_shape_caches()
        assert np.array_equal(plain, next_access_sets(D22, act))

    @pytest.mark.parametrize("behavior", list(RequestBehavior))
    def test_plain_behaviour_values_build_the_behaviours_dynamics(self, behavior):
        clear_shape_caches()
        plain = request_dynamics(D22, behavior.value)
        clear_shape_caches()
        dynamics = request_dynamics(D22, behavior)
        assert np.array_equal(plain.weights, dynamics.weights)
        assert np.array_equal(plain.draw_index, dynamics.draw_index)

    def test_invalid_plain_values_are_refused(self):
        with pytest.raises(ValueError):
            next_access_sets(D22, 2)
        with pytest.raises(ValueError):
            request_dynamics(D22, "twice")

    def test_one_shape_shares_one_dynamics(self):
        # rewards, E, beta and variant differ; dims and behaviour do not
        a = small_scenario(2, 2, "once", "eps_zero", rates=(0.1, 1.0), beta=0.5, seed=1)
        b = small_scenario(2, 2, "once", "eps_accrues", rates=(0.7, 0.2), beta=0.99, seed=2)
        assert build_parts(a).dynamics is build_parts(b).dynamics
        assert compile_system(a).parts.dynamics is compile_system(b).parts.dynamics

    @pytest.mark.parametrize(
        "other", [(2, 2, "all"), (2, 2, "unique"), (1, 2, "once"), (2, 1, "once"), (1, 4, "once")]
    )
    def test_another_shape_gets_another_dynamics(self, other):
        users, resources, behavior = other
        once = build_parts(small_scenario(2, 2, "once", "eps_zero")).dynamics
        dynamics = build_parts(small_scenario(users, resources, behavior, "eps_zero")).dynamics
        assert dynamics is not once

    @pytest.mark.parametrize("behavior", list(RequestBehavior))
    def test_cached_arrays_are_read_only(self, behavior):
        dynamics = request_dynamics(D22, behavior)
        own, levels = dynamics.lattice
        arrays = [*set_request_rows(D22), *(next_access_sets(D22, act) for act in ACTIONS)]
        arrays += [dynamics.weights, dynamics.draw_index, own, *levels]
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = array[0]
            with pytest.raises(ValueError, match="read-only"):
                array += 0


class TestRequestDistribution:
    def test_unique_is_always_empty(self):
        for k in range(D22.num_sets):
            assert request_distribution(RequestBehavior.UNIQUE, k, D22, Access(0, 0)) == [
                (None, 1.0)
            ]

    def test_all_is_uniform_over_accesses(self):
        dist = dist_as_dict(request_distribution(RequestBehavior.ALL, 0, D22, Access(0, 0)))
        assert dist == {a: 0.25 for a in D22.accesses()}
        assert None not in dist

    def test_once_draws_pending_or_empty(self):
        # only (1,1) granted: three pending accesses plus the empty request
        dist = dist_as_dict(
            request_distribution(RequestBehavior.ONCE, 1 << 3, D22, Access(1, 1))
        )
        assert dist == {
            Access(0, 0): 0.25,
            Access(0, 1): 0.25,
            Access(1, 0): 0.25,
            None: 0.25,
        }

    def test_once_empty_request_is_terminal(self):
        assert request_distribution(RequestBehavior.ONCE, 0, D22, None) == [(None, 1.0)]

    def test_once_full_set_forces_empty(self):
        dist = request_distribution(RequestBehavior.ONCE, D22.num_sets - 1, D22, Access(0, 0))
        assert dist == [(None, 1.0)]

    @pytest.mark.parametrize("behavior", list(RequestBehavior))
    def test_mass_sums_to_one(self, behavior):
        for k in range(D22.num_sets):
            total = sum(p for _, p in request_distribution(behavior, k, D22, Access(0, 0)))
            assert math.isclose(total, 1.0, abs_tol=1e-12)


class TestSuccessors:
    def test_fully_deterministic_case(self):
        m = model(EmergencyMatrix.identity(), RequestBehavior.UNIQUE)
        succ = successors(m, State(Emergency.CALM, 0, Access(0, 0)), Action.ALLOW)
        assert succ == [(State(Emergency.CALM, 1, None), 1.0)]

    def test_emergency_split(self):
        m = model(DRIFT, RequestBehavior.UNIQUE)
        succ = dist_as_dict(successors(m, State(Emergency.CALM, 0, Access(0, 0)), Action.DENY))
        assert succ == {
            State(Emergency.CALM, 0, None): pytest.approx(0.9),
            State(Emergency.ALERT, 0, None): pytest.approx(0.1),
        }

    def test_product_of_factors(self):
        m = model(DRIFT, RequestBehavior.ALL)
        succ = successors(m, State(Emergency.CALM, 0, Access(0, 1)), Action.ALLOW)
        assert len(succ) == 8  # 2 emergency outcomes x 4 requests
        probs = sorted(p for _, p in succ)
        assert probs == pytest.approx([0.025] * 4 + [0.225] * 4)
        assert all(s.granted == 2 for s, _ in succ)

    def test_no_zero_probability_entries(self):
        m = model(EmergencyMatrix.identity(), RequestBehavior.ONCE)
        for s in all_states(StateSpace(D22)):
            for act in (Action.DENY, Action.ALLOW):
                assert all(p > 0.0 for _, p in successors(m, s, act))

    def test_unique_successors_all_empty_request(self):
        m = model(DRIFT, RequestBehavior.UNIQUE)
        for s in all_states(StateSpace(D22)):
            for act in (Action.DENY, Action.ALLOW):
                assert all(s2.request is None for s2, _ in successors(m, s, act))

    def test_all_successors_never_empty_request(self):
        m = model(DRIFT, RequestBehavior.ALL)
        for s in all_states(StateSpace(D22)):
            for act in (Action.DENY, Action.ALLOW):
                assert all(s2.request is not None for s2, _ in successors(m, s, act))

    def test_granted_component_is_deterministic(self):
        m = model(DRIFT, RequestBehavior.ONCE)
        for s in all_states(StateSpace(D22)):
            for act in (Action.DENY, Action.ALLOW):
                grants = {s2.granted for s2, _ in successors(m, s, act)}
                assert grants == {next_access_set(s.granted, s.request, act, D22)}


def halve(dynamics, k, x):
    weights = dynamics.weights.copy()
    weights[k] *= 0.5
    return replace(dynamics, weights=weights)


def overfill(dynamics, k, x):
    weights = dynamics.weights.copy()
    weights[k, 0] = 1.25  # of four entries of 0.25
    return replace(dynamics, weights=weights)


def with_dynamics(system, dynamics):
    """system with its request dynamics replaced, as a corrupted build would leave them."""
    return replace(system, parts=replace(system.parts, dynamics=dynamics))


def alert_entry(dynamics, x):
    """Position in draw_index of the alert state (alert, x) under allow."""
    return int(Action.ALLOW) * 2 * dynamics.size + dynamics.size + x


def read_calm_block(dynamics, k, x):
    # the alert state (alert, x) under allow reads the calm block's entry
    draw_index = dynamics.draw_index.copy()
    draw_index[alert_entry(dynamics, x)] -= 2 * len(dynamics.weights)
    return replace(dynamics, draw_index=draw_index)


def read_past_table(dynamics, k, x):
    draw_index = dynamics.draw_index.copy()
    draw_index[alert_entry(dynamics, x)] = 4 * len(dynamics.weights)
    return replace(dynamics, draw_index=draw_index)


class TestValidateStochastic:
    @pytest.mark.parametrize("behavior", list(RequestBehavior))
    def test_well_formed_models_pass(self, behavior):
        assert validate_stochastic(compile_system(model(DRIFT, behavior))) == []

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_builtins_pass_at_extreme_rates(self, name):
        # rates of 0 and 1 leave zeros in E, which the check accepts
        sc = builtin_scenario(name)
        emergencies = [sc.emergency] + [
            EmergencyMatrix(p, q) for p in (0.0, 1.0) for q in (0.0, 1.0)
        ]
        for emergency in emergencies:
            assert validate_stochastic(compile_system(replace(sc, emergency=emergency))) == []

    @pytest.mark.parametrize(
        "rows, problem",
        [
            (
                ((0.7, 0.1), (0.0, 1.0)),
                "emergency row calm [0.7, 0.1] has mass 0.7999999999999999",
            ),
            (((0.9, 0.1), (0.3, 0.2)), "emergency row alert [0.3, 0.2] has mass 0.5"),
            (((1.25, -0.25), (0.0, 1.0)), "emergency row calm [1.25, -0.25] has mass 1.0"),
            (((0.9, 0.1), (-0.5, 1.5)), "emergency row alert [-0.5, 1.5] has mass 1.0"),
            (((0.9, math.nan), (0.0, 1.0)), "emergency row calm [0.9, nan] has mass nan"),
        ],
        ids=[
            "calm row short",
            "alert row halved",
            "calm row out of range",
            "alert row out of range",
            "nan entry",
        ],
    )
    def test_broken_emergency_row_reported_once(self, rows, problem):
        # bypass the constructor check to simulate a corrupted model
        broken = EmergencyMatrix.__new__(EmergencyMatrix)
        object.__setattr__(broken, "rows", rows)
        assert validate_stochastic(compile_system(model(broken, RequestBehavior.ONCE))) == [problem]

    @pytest.mark.parametrize(
        "corrupt, problem",
        [
            (halve, "request weights of set 1 [0.125, 0.125, 0.125, 0.125, 0.0] has mass 0.5"),
            (overfill, "request weights of set 1 [1.25, 0.25, 0.25, 0.25, 0.0] has mass 2.0"),
            (read_calm_block, "draw_index[245] = 1 reads outside the alert block"),
            (read_past_table, "draw_index[245] = 64 reads outside the alert block"),
        ],
        ids=["halved", "out of range", "alert row reads calm block", "reads past the table"],
    )
    def test_broken_request_row_reported_once(self, corrupt, problem):
        # set k's weights are one row of the factor however many states read
        # them; a draw index is read by its own (action, state) alone
        system = compile_system(model(DRIFT, RequestBehavior.ALL))
        x = 5  # (calm, {(0, 0)}, (0, 0)): allow keeps set 1
        state = system.space.index_state(x)
        k = next_access_set(state.granted, state.request, Action.ALLOW, D22)
        broken = with_dynamics(system, corrupt(system.parts.dynamics, k, x))
        assert validate_stochastic(broken) == [problem]

    def test_problems_are_listed_by_factor(self):
        broken = EmergencyMatrix.__new__(EmergencyMatrix)
        object.__setattr__(broken, "rows", ((0.9, 0.1), (0.3, 0.2)))
        system = compile_system(model(broken, RequestBehavior.ALL))
        dynamics = read_past_table(halve(overfill(system.parts.dynamics, 3, 0), 2, 0), 0, 7)
        assert validate_stochastic(with_dynamics(system, dynamics)) == [
            "emergency row alert [0.3, 0.2] has mass 0.5",
            "request weights of set 2 [0.125, 0.125, 0.125, 0.125, 0.0] has mass 0.5",
            "request weights of set 3 [1.25, 0.25, 0.25, 0.25, 0.0] has mass 2.0",
            "draw_index[247] = 64 reads outside the alert block",
        ]

    @pytest.mark.parametrize("miss, flagged", [(0.5 * ROW_SUM_TOL, False), (2 * ROW_SUM_TOL, True)])
    def test_mass_may_miss_1_by_row_sum_tol(self, miss, flagged):
        system = compile_system(model(DRIFT, RequestBehavior.ONCE))
        dynamics = system.parts.dynamics
        for broken in (
            replace(system, emergency=system.emergency * (1.0 - miss)),
            with_dynamics(system, replace(dynamics, weights=dynamics.weights * (1.0 - miss))),
        ):
            assert bool(validate_stochastic(broken)) == flagged

    @settings(max_examples=60, deadline=None)
    @given(
        users=st.integers(1, 2),
        resources=st.integers(1, 3),
        behavior=st.sampled_from(list(RequestBehavior)),
        rates=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
        corruptions=st.lists(
            st.tuples(
                st.integers(0, 2**16),
                st.integers(0, 2**16),
                st.one_of(st.just(1.0), st.floats(0.0, 1.0 - 2.0 * ROW_SUM_TOL)),
                st.one_of(st.just(0.0), st.floats(-2.0, 2.0)),
            ),
            max_size=4,
        ),
    )
    def test_flags_exactly_the_models_with_a_broken_row(
        self, users, resources, behavior, rates, corruptions
    ):
        # each corruption picks a row of E or of the weights, scales it by
        # s = 1 or s < 1 - ROW_SUM_TOL, and moves mass t from one of its
        # entries to the next: no row's mass grows, so a row of P^a misses 1
        # by more than ROW_SUM_TOL exactly when a row of E or weights it reads does
        system = compile_system(small_scenario(users, resources, behavior, "eps_zero", rates))
        emergency, weights = system.emergency.copy(), system.parts.dynamics.weights.copy()
        names = set()
        for row, entry, scale, shift in corruptions:
            row %= 2 + len(weights)
            target, i = (emergency, row) if row < 2 else (weights, row - 2)
            j = entry % target.shape[1]
            target[i] *= scale
            target[i, j] -= shift
            target[i, (j + 1) % target.shape[1]] += shift
            names.add(
                f"emergency row {Emergency(i).label}" if row < 2 else f"request weights of set {i}"
            )
        broken = with_dynamics(
            replace(system, emergency=emergency), replace(system.parts.dynamics, weights=weights)
        )
        masses = np.concatenate([np.asarray(m.sum(axis=1)).ravel() for m in broken.transitions])
        out_of_range = any(((f < 0.0) | (f > 1.0)).any() for f in (emergency, weights))
        problems = validate_stochastic(broken)
        assert bool(problems) == (np.any(np.abs(masses - 1.0) > ROW_SUM_TOL) or out_of_range)
        # only corrupted rows are named, and each once
        named = [p[: p.index(" [")] for p in problems]
        assert len(set(named)) == len(named) and set(named) <= names
