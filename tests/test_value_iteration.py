import numpy as np
import pytest

from acmdp import (
    Access,
    ConvergenceError,
    Emergency,
    State,
    bellman_backup,
    builtin_scenario,
    compile_system,
    value_iterate,
)


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

    def test_nonconvergence_raises(self, table2_system):
        with pytest.raises(ConvergenceError):
            value_iterate(table2_system, max_iter=1)

    def test_warm_start_reaches_same_fixed_point_sooner(self):
        system = compile_system(builtin_scenario("table2_all"))
        cold, cold_sweeps = value_iterate(system)
        warm, warm_sweeps = value_iterate(system, start=cold + 1e-6)
        assert warm_sweeps < cold_sweeps
        assert np.max(np.abs(warm - cold)) <= 1e-8

    def test_start_of_wrong_shape_raises(self, table2_system):
        with pytest.raises(ValueError, match="shape"):
            value_iterate(table2_system, start=np.zeros(3))
