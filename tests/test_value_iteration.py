import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_bellman import small_scenario

import acmdp.value_iteration
from acmdp import (
    Access,
    ConvergenceError,
    Emergency,
    EmergencyMatrix,
    RequestBehavior,
    RewardVariant,
    State,
    bellman_backup,
    builtin_scenario,
    compile_system,
    decision_values,
    policy_iterate,
    value_iterate,
)
from acmdp.bellman import VERIFY_TOL, build_parts, rounding_allowance
from acmdp.value_iteration import DEFAULT_TOL


@pytest.fixture(scope="module")
def table2_system():
    return compile_system(builtin_scenario("table2_unique"))


@pytest.fixture(scope="module")
def modified_system():
    return compile_system(builtin_scenario("modified_unique"))


class TestBackup:
    def test_beta_zero_is_max_q(self):
        system = compile_system(builtin_scenario("table1"))
        start = np.full(system.num_states, 123.0)  # ignored when beta = 0
        assert np.array_equal(bellman_backup(system, start), system.q.max(axis=0))

    def test_is_max_of_decision_values(self, table2_system):
        values = np.random.default_rng(5).normal(scale=50, size=160)
        expected = decision_values(table2_system, values).max(axis=0)
        assert np.array_equal(bellman_backup(table2_system, values), expected)

    def test_first_backup_from_zero(self, table2_system):
        backed = bellman_backup(table2_system, np.zeros(160))
        i = table2_system.space.state_index(State(Emergency.CALM, 0, Access(0, 0)))
        # max(deny -2, allow 4)
        assert backed[i] == pytest.approx(4.0)

    def test_contraction(self, table2_system):
        rng = np.random.default_rng(3)
        beta = table2_system.beta
        for _ in range(20):
            v1 = rng.normal(scale=50, size=160)
            v2 = rng.normal(scale=50, size=160)
            lhs = np.max(np.abs(bellman_backup(table2_system, v1) - bellman_backup(table2_system, v2)))
            assert lhs <= beta * np.max(np.abs(v1 - v2)) + 1e-9

    def test_monotone(self, table2_system):
        rng = np.random.default_rng(4)
        for _ in range(20):
            v1 = rng.normal(scale=50, size=160)
            v2 = v1 + rng.uniform(0, 10, size=160)
            assert np.all(
                bellman_backup(table2_system, v1) <= bellman_backup(table2_system, v2) + 1e-12
            )


class TestValueIterate:
    def test_beta_zero_single_sweep(self):
        system = compile_system(builtin_scenario("table1"))
        values, iterations = value_iterate(system)
        assert iterations == 1
        assert np.array_equal(values, system.q.max(axis=0))

    def test_successive_distances_nonincreasing(self, table2_system):
        values = np.zeros(160)
        last = np.inf
        for _ in range(30):
            updated = bellman_backup(table2_system, values)
            dist = np.max(np.abs(updated - values))
            assert dist <= last + 1e-12
            values, last = updated, dist

    def test_eps_accrues_alert_geometric_series(self, modified_system):
        values, _ = value_iterate(modified_system)
        i = modified_system.space.state_index(State(Emergency.ALERT, 0, None))
        assert values[i] == pytest.approx(-200.0, abs=1e-6)

    def test_eps_accrues_calm_empty_value(self, modified_system):
        values, _ = value_iterate(modified_system)
        i = modified_system.space.state_index(State(Emergency.CALM, 0, None))
        assert values[i] == pytest.approx(-105.26, abs=0.01)

    def test_nonconvergence_raises(self, monkeypatch, table2_system):
        monkeypatch.setattr(acmdp.value_iteration, "DEFAULT_MAX_ITER", 1)
        with pytest.raises(ConvergenceError):
            value_iterate(table2_system)

    @pytest.mark.parametrize("tol", [math.nan, -1.0])
    def test_nan_or_negative_tol_raises(self, table2_system, tol):
        with pytest.raises(ValueError, match=f"tol must be zero or positive, got {tol}"):
            value_iterate(table2_system, tol=tol)

    def test_warm_start_reaches_same_fixed_point_sooner(self):
        system = compile_system(builtin_scenario("table2_all"))
        cold, cold_sweeps = value_iterate(system)
        warm, warm_sweeps = value_iterate(system, start=cold + 1e-6)
        assert warm_sweeps < cold_sweeps
        assert np.max(np.abs(warm - cold)) <= 1e-8


# E as a rate pair: drawn, or with zero entries (identity, absorbing, swapping)
RATES = st.one_of(
    st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    st.sampled_from([(0.0, 1.0), (1.0, 0.0), (0.0, 0.0), (1.0, 1.0)]),
)


class TestBatch:
    """One value_iterate call on a batch of systems that differ only in E."""

    @settings(max_examples=40, deadline=None)
    @given(
        users=st.integers(1, 2),
        resources=st.integers(1, 2),
        behavior=st.sampled_from(list(RequestBehavior)),
        variant=st.sampled_from(list(RewardVariant)),
        beta=st.one_of(st.just(0.0), st.floats(0.0, 0.99)),
        seed=st.integers(0, 2**16),
        rates=st.lists(RATES, min_size=1, max_size=5),
    )
    def test_each_column_is_its_own_systems_solution(
        self, users, resources, behavior, variant, beta, seed, rates
    ):
        sc = small_scenario(users, resources, behavior, variant, beta=beta, seed=seed)
        parts = build_parts(sc)
        emergencies = [EmergencyMatrix(*r) for r in rates]
        batch = parts.mix_batch(emergencies)
        values, sweeps = value_iterate(batch)
        assert values.shape == (batch.num_states, len(rates))
        if beta == 0.0:
            assert sweeps == 1
            assert np.array_equal(values, batch.q.max(axis=0))
        for column, emergency in zip(values.T, emergencies):
            exact, _ = policy_iterate(compile_system(dataclasses.replace(sc, emergency=emergency)))
            bound = DEFAULT_TOL + VERIFY_TOL / (1 - beta) + rounding_allowance(exact, beta)
            assert np.max(np.abs(column - exact)) <= bound

    def test_a_column_solves_as_a_batch_of_one(self):
        # columns do not mix: each stops on its own bound with the values a
        # batch of it alone returns
        sc = builtin_scenario("table2_all")
        parts = build_parts(sc)
        emergencies = [EmergencyMatrix(p, 1.0) for p in (0.0, 0.05, 0.6, 1.0)]
        values, sweeps = value_iterate(parts.mix_batch(emergencies))
        alone = [value_iterate(parts.mix_batch([e])) for e in emergencies]
        assert sweeps == max(s for _, s in alone)
        assert len({s for _, s in alone}) > 1
        for column, (want, _), emergency in zip(values.T, alone, emergencies):
            assert np.array_equal(column, want[:, 0])
            # and a single system is that batch of one
            single = compile_system(dataclasses.replace(sc, emergency=emergency))
            assert np.array_equal(value_iterate(single)[0], want[:, 0])

    def test_stopped_columns_leave_the_batch(self, monkeypatch):
        # each backup takes only the columns still running, and a column
        # returns the values it would return alone
        parts = build_parts(builtin_scenario("table2_all"))
        emergencies = [EmergencyMatrix(p, 1.0) for p in (0.0, 0.05, 0.6, 1.0)]
        alone = [value_iterate(parts.mix_batch([e])) for e in emergencies]
        stops = sorted(s for _, s in alone)
        assert stops[0] < stops[-1]
        backup, widths = acmdp.value_iteration.bellman_backup, []

        def recorded(system, values):
            widths.append(values.shape[1])
            return backup(system, values)

        monkeypatch.setattr(acmdp.value_iteration, "bellman_backup", recorded)
        values, sweeps = value_iterate(parts.mix_batch(emergencies))
        assert sweeps == stops[-1]
        # all four columns until the first stops, then only those still running
        assert widths == [sum(s >= i for s in stops) for i in range(1, sweeps + 1)]
        assert widths[stops[0] - 1] == 4 > widths[stops[0]]
        for column, (want, _) in zip(values.T, alone):
            assert np.array_equal(column, want[:, 0])
