import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

import acmdp.dynamics
import acmdp.rewards
from acmdp import (
    BUILTIN_NAMES,
    CapacityError,
    EmergencyMatrix,
    ModelDims,
    RequestBehavior,
    RewardTables,
    RewardVariant,
    Scenario,
    StateSpace,
    build_bellman_lp,
    builtin_scenario,
    compile_system,
    reward_transition,
    simplex_solve,
    solve_scenario,
    successors,
    validate_stochastic,
    verify_solution,
)
from acmdp.experiments import scenario_at_probability
from acmdp.simplex import SimplexStatus
from acmdp.states import ACTIONS


def oracle_compile(sc):
    """The per-state reference build: walk successors() and reward_transition()."""
    space = StateSpace(sc.dims)
    model = sc.transition_model()
    n = len(space)
    q = np.zeros((2, n))
    mats = []
    for act in ACTIONS:
        rows, cols, data = [], [], []
        for i, s in enumerate(space):
            total = 0.0
            for s2, p in successors(model, s, act):
                rows.append(i)
                cols.append(space.state_index(s2))
                data.append(p)
                total += p * reward_transition(sc, s, act, s2)
            q[int(act), i] = total
        mats.append(sparse.csr_matrix((data, (rows, cols)), shape=(n, n)))
    return mats, q


def assert_matches_oracle(sc):
    system = compile_system(sc)
    mats, q = oracle_compile(sc)
    for got, want in zip(system.transitions, mats):
        assert got.shape == want.shape
        assert got.nnz == want.nnz
        assert abs(got - want).max() <= 1e-15
    assert system.q.shape == q.shape
    assert np.max(np.abs(system.q - q)) <= 1e-12


def small_scenario(users, resources, behavior, variant, rates=(0.3, 0.8), beta=0.9, seed=0):
    rng = np.random.default_rng(seed)
    dims = ModelDims(users, resources)
    return Scenario(
        dims=dims,
        user_names=tuple(f"u{i}" for i in range(users)),
        resource_names=tuple(f"r{i}" for i in range(resources)),
        rewards=RewardTables(
            {(a.user, a.resource): float(rng.integers(-100, 200)) / 10 for a in dims.accesses()},
            tuple(float(rng.integers(-300, 0)) / 10 for _ in range(resources)),
        ),
        emergency=EmergencyMatrix.from_rates(*rates),
        behavior=RequestBehavior(behavior),
        variant=RewardVariant(variant),
        beta=beta,
    )


@pytest.fixture(scope="module")
def table1_system():
    return compile_system(builtin_scenario("table1"))


@pytest.fixture(scope="module")
def table2_system():
    return compile_system(builtin_scenario("table2_unique"))


class TestCompile:
    def test_transition_rows_are_distributions(self, table2_system):
        for mat in table2_system.transitions:
            sums = np.asarray(mat.sum(axis=1)).ravel()
            assert np.allclose(sums, 1.0, atol=1e-9)

    def test_immediate_rewards_shape(self, table2_system):
        assert table2_system.q.shape == (2, 160)


class TestFactoredCompile:
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    @pytest.mark.parametrize("calm_to_alert", [0.0, 0.37, 1.0])
    def test_builtins_match_oracle(self, name, calm_to_alert):
        assert_matches_oracle(scenario_at_probability(builtin_scenario(name), calm_to_alert))

    @pytest.mark.parametrize("behavior", [b.value for b in RequestBehavior])
    @pytest.mark.parametrize("variant", [v.value for v in RewardVariant])
    def test_2x3_matches_oracle(self, behavior, variant):
        assert_matches_oracle(small_scenario(2, 3, behavior, variant))

    @settings(max_examples=40, deadline=None)
    @given(
        users=st.integers(1, 2),
        resources=st.integers(1, 2),
        behavior=st.sampled_from(list(RequestBehavior)),
        variant=st.sampled_from(list(RewardVariant)),
        rates=st.tuples(
            st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
            st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
        ),
        beta=st.floats(0.0, 0.99),
        seed=st.integers(0, 2**16),
    )
    def test_random_scenarios_match_oracle(
        self, users, resources, behavior, variant, rates, beta, seed
    ):
        assert_matches_oracle(
            small_scenario(users, resources, behavior, variant, rates, beta, seed)
        )

    def test_corrupted_emergency_matrix_matches_oracle(self):
        # bypass the constructor check: q must still follow the per-state sums
        broken = EmergencyMatrix.__new__(EmergencyMatrix)
        object.__setattr__(broken, "rows", ((0.7, 0.1), (0.0, 1.0)))
        for behavior in RequestBehavior:
            sc = small_scenario(2, 2, behavior.value, "eps_accrues")
            assert_matches_oracle(dataclasses.replace(sc, emergency=broken))

    def test_production_path_never_walks_successors(self, monkeypatch):
        def walk(*args):
            raise AssertionError("per-state walk on a production path")

        for module in (acmdp.dynamics, acmdp.rewards):
            monkeypatch.setattr(module, "successors", walk)
        monkeypatch.setattr(acmdp.rewards, "reward_transition", walk)
        sc = builtin_scenario("table2_once")
        compile_system(sc)
        assert validate_stochastic(sc.transition_model()) == []


class TestBuildLp:
    def test_dimensions(self, table2_system):
        lp = build_bellman_lp(table2_system)
        assert lp.num_vars == 160
        assert lp.num_constraints == 320

    def test_beta_zero_reduces_to_identity_rows(self, table1_system):
        lp = build_bellman_lp(table1_system)
        n = lp.num_vars
        expected = np.zeros_like(lp.lhs)
        expected[2 * np.arange(n), np.arange(n)] = 1.0
        expected[2 * np.arange(n) + 1, np.arange(n)] = 1.0
        assert np.array_equal(lp.lhs, expected)
        # constraints collapse to V_i >= q_i^a
        assert np.array_equal(lp.rhs[0::2], table1_system.q[0])
        assert np.array_equal(lp.rhs[1::2], table1_system.q[1])

    def test_constraint_order_is_state_major_deny_first(self, table2_system):
        lp = build_bellman_lp(table2_system)
        assert lp.rhs[0] == table2_system.q[0, 0]
        assert lp.rhs[1] == table2_system.q[1, 0]

    def test_2x3_within_size_limit(self):
        lp = build_bellman_lp(compile_system(small_scenario(2, 3, "once", "eps_zero")))
        assert lp.lhs.shape == (1792, 896)

    def test_3x3_refused_before_allocating(self):
        sc = small_scenario(3, 3, "all", "eps_zero", rates=(0.1, 1.0))
        with pytest.raises(CapacityError, match=r"10240 states.*GB.*--solver vi"):
            build_bellman_lp(compile_system(sc))
        with pytest.raises(CapacityError):
            solve_scenario(sc, "lp")


class TestVerifySolution:
    def test_lp_optimum_is_feasible_and_tight(self, table1_system):
        result = simplex_solve(build_bellman_lp(table1_system))
        assert result.status is SimplexStatus.OPTIMAL
        report = verify_solution(table1_system, result.values)
        assert report.max_violation <= 1e-9
        assert report.all_tight(1e-7)

    def test_inflated_values_feasible_but_slack(self, table1_system):
        optimal = simplex_solve(build_bellman_lp(table1_system)).values
        report = verify_solution(table1_system, optimal + 1.0)
        assert report.feasible()
        # beta = 0: inflating leaves every constraint with slack exactly 1
        assert np.all(report.min_slack >= 1.0 - 1e-12)
        assert not report.all_tight()

    def test_deflated_values_violate(self, table1_system):
        optimal = simplex_solve(build_bellman_lp(table1_system)).values
        report = verify_solution(table1_system, optimal - 1.0)
        assert not report.feasible()
        assert report.max_violation == pytest.approx(1.0)
