import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import lattice_solve, oracle_compile

from acmdp import (
    BUILTIN_NAMES,
    EmergencyMatrix,
    ModelDims,
    RequestBehavior,
    RewardTables,
    RewardVariant,
    Scenario,
    builtin_scenario,
    compile_system,
    decision_values,
    verify_solution,
)
from acmdp.bellman import build_parts


def assert_matches_oracle(sc):
    system = compile_system(sc)
    mats, q = oracle_compile(sc)
    for got, want in zip(system.transitions, mats):
        assert got.shape == want.shape
        assert got.nnz == want.nnz
        assert abs(got - want).max() <= 1e-15
    assert system.q.shape == q.shape
    assert np.max(np.abs(system.q - q)) <= 1e-12


def at_rate(sc, calm_to_alert):
    """sc with its calm-to-alert probability replaced."""
    emergency = EmergencyMatrix(calm_to_alert, sc.emergency.prob_alert_to_alert)
    return dataclasses.replace(sc, emergency=emergency)


def small_scenario(users, resources, behavior, variant, rates=(0.3, 0.8), beta=0.9, seed=0):
    rng = np.random.default_rng(seed)
    dims = ModelDims(users, resources)
    return Scenario(
        user_names=tuple(f"u{i}" for i in range(users)),
        resource_names=tuple(f"r{i}" for i in range(resources)),
        rewards=RewardTables(
            {(a.user, a.resource): float(rng.integers(-100, 200)) / 10 for a in dims.accesses()},
            tuple(float(rng.integers(-300, 0)) / 10 for _ in range(resources)),
        ),
        emergency=EmergencyMatrix(*rates),
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

    def test_transitions_are_assembled_on_first_use_and_kept(self):
        system = compile_system(builtin_scenario("table2_once"))
        assert "transitions" not in vars(system)
        first = system.transitions
        assert system.transitions is first


class TestFactoredCompile:
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    @pytest.mark.parametrize("calm_to_alert", [0.0, 0.37, 1.0])
    def test_builtins_match_oracle(self, name, calm_to_alert):
        assert_matches_oracle(at_rate(builtin_scenario(name), calm_to_alert))

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


def assert_same_column(batch, g, want):
    """Column g of a batch is the system want, bit for bit.

    A system is its E, its q and the arrays of its E-free parts, from which
    BellmanSystem.transitions is built.
    """
    assert np.array_equal(batch.emergency[..., g], want.emergency)
    assert np.array_equal(batch.q[..., g], want.q)
    assert np.array_equal(batch.parts.rewards, want.parts.rewards)
    got, expected = batch.parts.dynamics, want.parts.dynamics
    assert got.size == expected.size
    assert np.array_equal(got.weights, expected.weights)
    assert np.array_equal(got.draw_index, expected.draw_index)


MIX_SCENARIOS = list(BUILTIN_NAMES) + [
    f"2x3-{b.value}-{v.value}" for b in RequestBehavior for v in RewardVariant
]


def mix_scenario(name):
    """A builtin by name, or the seeded 2x3 scenario named 2x3-<behavior>-<variant>."""
    if name.startswith("2x3-"):
        _, behavior, variant = name.split("-")
        return small_scenario(2, 3, behavior, variant)
    return builtin_scenario(name)


class TestMixEmergency:
    """compile_system is build_parts then mix_batch; a sweep builds once and mixes per point."""

    @pytest.mark.parametrize("name", MIX_SCENARIOS)
    def test_one_build_mixed_anywhere_matches_a_fresh_compile(self, name):
        sc = mix_scenario(name)
        at_p = [at_rate(sc, p) for p in (0.0, 0.37, 1.0)]
        batch = build_parts(sc).mix_batch([point.emergency for point in at_p])
        for g, point in enumerate(at_p):
            assert_same_column(batch, g, compile_system(point))

    def test_zero_emergency_entries_are_dropped(self):
        sc = builtin_scenario("table2_all")  # alert -> alert = 1
        inside = compile_system(at_rate(sc, 0.37))
        at_zero = compile_system(at_rate(sc, 0.0))
        n = at_zero.num_states
        for kept, dropped in zip(inside.transitions, at_zero.transitions):
            assert np.all(kept.data > 0.0) and np.all(dropped.data > 0.0)
            # calm rows lose their alert successors, alert rows never had calm ones
            assert dropped.nnz * 3 == kept.nnz * 2
            assert dropped[: n // 2, n // 2 :].nnz == 0

    @pytest.mark.parametrize("name", ["table1", "table2_once", "modified_all"])
    def test_kernel_is_q_plus_beta_times_each_action_matvec(self, name):
        system = compile_system(at_rate(builtin_scenario(name), 0.37))
        values = np.random.default_rng(7).normal(scale=10.0, size=system.num_states)
        dv = decision_values(system, values)
        # the factored kernel sums in another order: a few units in the last
        # place of the largest term
        ulps = 4 * np.finfo(float).eps * (np.abs(system.q).max() + np.abs(values).max())
        for act, mat in enumerate(system.transitions):
            want = system.q[act] + system.beta * (mat @ values)
            assert np.max(np.abs(dv[act] - want)) <= ulps

    @pytest.mark.parametrize(
        "change",
        [
            {"beta": 0.5},
            {"behavior": RequestBehavior.ONCE},
            {"variant": RewardVariant.EPS_ACCRUES},
            {"user_names": ("ann", "bob")},
            {"rewards": RewardTables({(u, r): 1.0 for u in range(2) for r in range(2)}, (0, -5))},
        ],
        ids=lambda change: next(iter(change)),
    )
    def test_mix_keeps_each_other_field_as_built(self, change):
        # every field but E comes from the build: the mixed system is the
        # changed scenario's own compile, not the builtin it was derived from
        sc = builtin_scenario("table2_all")
        field = next(iter(change))
        assert getattr(sc, field) != change[field]
        built = dataclasses.replace(sc, **change)
        emergency = EmergencyMatrix(0.37, 0.6)
        mixed = build_parts(built).mix_batch([emergency])
        at_e = dataclasses.replace(built, emergency=emergency)
        assert_same_column(mixed, 0, compile_system(at_e))


KERNEL_DIMS = [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (2, 3)]


class TestKernel:
    """decision_values against q + beta P^a V with P^a assembled (BellmanSystem.transitions)."""

    @pytest.mark.parametrize("behavior", [b.value for b in RequestBehavior])
    @pytest.mark.parametrize("variant", [v.value for v in RewardVariant])
    def test_single_systems_and_batches_match_the_assembled_product(self, behavior, variant):
        rng = np.random.default_rng(list(map(ord, behavior + variant)))
        eps = np.finfo(float).eps
        for users, resources in KERNEL_DIMS:
            beta = float(rng.uniform(0.0, 0.999))
            sc = small_scenario(
                users, resources, behavior, variant, beta=beta, seed=int(rng.integers(2**16))
            )
            parts = build_parts(sc)
            emergencies = [EmergencyMatrix(*rng.uniform(0.0, 1.0, 2)) for _ in range(3)]
            batch = parts.mix_batch(emergencies)
            assert batch.q.flags.c_contiguous
            values = rng.normal(scale=100.0, size=batch.q.shape[1:])
            dv = decision_values(batch, values)
            for g, emergency in enumerate(emergencies):
                single = compile_system(dataclasses.replace(sc, emergency=emergency))
                column = values[:, g]
                bound = 8 * eps * (np.abs(single.q).max() + beta * np.abs(column).max())
                for got in (dv[..., g], decision_values(single, column)):
                    for act, mat in enumerate(single.transitions):
                        want = single.q[act] + beta * (mat @ column)
                        assert np.max(np.abs(got[act] - want)) <= bound


class TestVerifySolution:
    def test_lp_optimum_is_feasible_and_tight(self, table1_system):
        optimal = lattice_solve(table1_system.parts.scenario)
        report = verify_solution(optimal, decision_values(table1_system, optimal))
        assert report.max_violation <= 1e-9
        assert report.all_tight()

    def test_inflated_values_feasible_but_slack(self, table1_system):
        optimal = lattice_solve(table1_system.parts.scenario)
        inflated = optimal + 1.0
        dv = decision_values(table1_system, inflated)
        report = verify_solution(inflated, dv)
        assert report.feasible()
        # beta = 0: inflating leaves every constraint with slack exactly 1
        assert np.all(inflated - dv >= 1.0 - 1e-12)
        assert not report.all_tight()

    @pytest.mark.parametrize("name", ["table2_unique", "table2_all", "modified_once"])
    def test_residual_bounds_the_distance_to_the_optimum(self, name):
        # contraction: ||V - V*|| <= ||V - TV|| / (1 - beta) for any V, the
        # bound that lets the certificate stand in for a second exact solver;
        # 1e-10 covers the oracle's own error and the kernel's rounding
        system = compile_system(builtin_scenario(name))
        optimal = lattice_solve(system.parts.scenario)
        rng = np.random.default_rng(11)
        for scale in (1e-6, 1e-2, 10.0):
            # a uniform shift is slack everywhere and meets the bound exactly
            for values in (optimal + rng.normal(scale=scale, size=optimal.shape), optimal + scale):
                report = verify_solution(values, decision_values(system, values))
                distance = np.max(np.abs(values - optimal))
                assert 0.0 < distance <= report.residual / (1 - system.beta) + 1e-10

    def test_deflated_values_violate(self, table1_system):
        optimal = lattice_solve(table1_system.parts.scenario)
        report = verify_solution(optimal - 1.0, decision_values(table1_system, optimal - 1.0))
        assert not report.feasible()
        assert report.max_violation == pytest.approx(1.0)
