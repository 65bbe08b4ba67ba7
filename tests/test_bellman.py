import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import lattice_solve, oracle_compile

from acmdp import (
    BUILTIN_NAMES,
    ModelDims,
    RequestBehavior,
    RewardVariant,
    Scenario,
    builtin_scenario,
    compile_system,
    decision_values,
    verify_solution,
)
from acmdp.bellman import VERIFY_TOL, draw_table


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
    return dataclasses.replace(sc, calm_to_alert=calm_to_alert)


def with_rates(sc, rates):
    """sc with its (calm_to_alert, alert_to_alert) replaced by rates."""
    calm_to_alert, alert_to_alert = rates
    return dataclasses.replace(sc, calm_to_alert=calm_to_alert, alert_to_alert=alert_to_alert)


def small_scenario(users, resources, behavior, variant, rates=(0.3, 0.8), beta=0.9, seed=0):
    rng = np.random.default_rng(seed)
    dims = ModelDims(users, resources)
    return Scenario(
        user_names=tuple(f"u{i}" for i in range(users)),
        resource_names=tuple(f"r{i}" for i in range(resources)),
        reward_access=tuple(float(rng.integers(-100, 200)) / 10 for _ in dims.accesses()),
        reward_resource=tuple(float(rng.integers(-300, 0)) / 10 for _ in range(resources)),
        calm_to_alert=rates[0],
        alert_to_alert=rates[1],
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

    def test_corrupted_emergency_matrix_is_refused(self):
        # bypass the constructor check: the compile refuses the calm row (-0.5, 1.5)
        for behavior in RequestBehavior:
            sc = small_scenario(2, 2, behavior.value, "eps_accrues")
            object.__setattr__(sc, "calm_to_alert", 1.5)
            with pytest.raises(ValueError, match=re.escape("calm_to_alert 1.5 outside [0, 1]")):
                compile_system(sc)


def assert_same_column(batch, g, want):
    """Column g of a batch is the system want, bit for bit.

    A system is its E, its q and the arrays of its E-free rewards and
    dynamics, from which BellmanSystem.transitions is built.
    """
    assert batch.emergency[..., g].tobytes() == want.emergency.tobytes()
    assert batch.q[..., g].tobytes() == want.q.tobytes()
    assert np.array_equal(batch.rewards, want.rewards)
    got, expected = batch.dynamics, want.dynamics
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
    """A compiled system mixes any rates; a sweep compiles once and mixes per point."""

    @pytest.mark.parametrize("name", MIX_SCENARIOS)
    def test_one_build_mixed_anywhere_matches_a_fresh_compile(self, name):
        # the scenario's compile, a compile at other rates, a batch mixed from
        # it, a batch of one and a batch's columns all mix the same systems,
        # and every system mixed from one compile reads its dynamics and rewards
        sc = mix_scenario(name)
        rates = [(0.0, 0.6), (0.37, 1.0), (1.0, 0.0)]
        other = compile_system(with_rates(sc, (0.9, 0.1)))
        batch = other.mix_batch([(0.5, 0.5), (0.2, 0.3)])
        sources = [other, batch, other.as_batch(), batch.columns(np.array([False, True]))]
        for source in [compile_system(sc), *sources]:
            mixed = source.mix_batch(rates)
            assert mixed.dynamics is source.dynamics and mixed.rewards is source.rewards
            for g, pair in enumerate(rates):
                assert_same_column(mixed, g, compile_system(with_rates(sc, pair)))
        for system in sources:
            assert system.dynamics is other.dynamics and system.rewards is other.rewards

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
            {"reward_access": (1.0, 1.0, 1.0, 1.0), "reward_resource": (0, -5)},
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
        mixed = compile_system(built).mix_batch([(0.37, 0.6)])
        assert_same_column(mixed, 0, compile_system(with_rates(built, (0.37, 0.6))))

    @pytest.mark.parametrize(
        "rates, message",
        [
            ([(1.5, -0.2)], "column 0: calm_to_alert 1.5 outside [0, 1]"),
            ([(0.1, 1.0), (0.2, -1e-300)], "column 1: alert_to_alert -1e-300 outside [0, 1]"),
            ([(0.1, 1.0), (0.2, 0.5), (float("nan"), 0.5)], "column 2: calm_to_alert nan"),
        ],
    )
    def test_a_rate_outside_0_1_is_refused(self, rates, message):
        # such a rate makes E, and so P, not stochastic, which neither solver would notice
        with pytest.raises(ValueError, match=re.escape(message)):
            compile_system(builtin_scenario("table2_once")).mix_batch(rates)

    @pytest.mark.parametrize(
        "rates, shape",
        [
            ([], "(0,)"),
            ([(0.1, 0.2, 0.3)], "(1, 3)"),
            ((0.1, 0.2), "(2,)"),
            ([(0.1, 0.2), (0.3,)], "(2,)"),
        ],
    )
    def test_rates_that_are_not_pairs_are_refused(self, rates, shape):
        # before the range check, which would fail inside numpy on each of them; ragged
        # pairs are shaped up to where they differ, as numpy would not name them
        pairs = "rates must be a non-empty sequence of (calm_to_alert, alert_to_alert) pairs"
        with pytest.raises(ValueError, match=re.escape(f"{pairs}, got shape {shape}")):
            compile_system(builtin_scenario("table2_once")).mix_batch(rates)


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
            rates = [tuple(rng.uniform(0.0, 1.0, 2)) for _ in range(3)]
            batch = compile_system(sc).mix_batch(rates)
            assert batch.q.flags.c_contiguous
            values = rng.normal(scale=100.0, size=batch.q.shape[1:])
            dv = decision_values(batch, values)
            for g, pair in enumerate(rates):
                single = compile_system(with_rates(sc, pair))
                column = values[:, g]
                bound = 8 * eps * (np.abs(single.q).max() + beta * np.abs(column).max())
                for got in (dv[..., g], decision_values(single, column)):
                    for act, mat in enumerate(single.transitions):
                        want = single.q[act] + beta * (mat @ column)
                        assert np.max(np.abs(got[act] - want)) <= bound

    @pytest.mark.parametrize("shape", [(1, 1), (2, 2), (3, 3), (1, 9)])
    @pytest.mark.parametrize("columns", [1, 3])
    def test_draw_table_adds_the_requests_in_order(self, shape, columns):
        # the weights-average of every set sums its terms one request after
        # another, also past 8 requests, where a sum along the innermost axis
        # would pair them: so a column's entry does not depend on its batch
        rng = np.random.default_rng(columns)
        for behavior in RequestBehavior:
            system = compile_system(small_scenario(*shape, behavior, "eps_zero"))
            batch = system.mix_batch([(0.3, 0.8)] * columns)
            weights, drawn = system.dynamics.weights, system.dynamics.drawn
            values = rng.normal(scale=100.0, size=batch.q.shape[1:])
            cells = values.reshape(2, *weights.shape, columns)  # [e, k, j, column]
            want = weights[:, drawn.start, None] * cells[:, :, drawn.start]
            for j in range(drawn.start + 1, drawn.stop):
                want = want + weights[:, j, None] * cells[:, :, j]
            table = draw_table(batch, values)
            assert table[:, 0].tobytes() == want.tobytes()
            assert table[:, 1].tobytes() == cells[:, :, -1].tobytes()


class TestVerifySolution:
    def test_lp_optimum_is_feasible_and_tight(self, table1_system):
        optimal = lattice_solve(table1_system.scenario)
        report = verify_solution(optimal, decision_values(table1_system, optimal))
        assert report.max_violation <= 1e-9
        assert report.all_tight()

    def test_inflated_values_feasible_but_slack(self, table1_system):
        optimal = lattice_solve(table1_system.scenario)
        # a slack of twice VERIFY_TOL is not tight: all_tight reads the same tolerance
        for inflation in (1.0, 2 * VERIFY_TOL):
            inflated = optimal + inflation
            dv = decision_values(table1_system, inflated)
            report = verify_solution(inflated, dv)
            assert report.feasible()
            # beta = 0: inflating leaves every constraint with slack exactly the inflation
            assert np.all(inflated - dv >= inflation - 1e-12)
            assert not report.all_tight(), inflation

    @pytest.mark.parametrize("name", ["table2_unique", "table2_all", "modified_once"])
    def test_residual_bounds_the_distance_to_the_optimum(self, name):
        # contraction: ||V - V*|| <= ||V - TV|| / (1 - beta) for any V, the
        # bound that lets the certificate stand in for a second exact solver;
        # 1e-10 covers the oracle's own error and the kernel's rounding
        system = compile_system(builtin_scenario(name))
        optimal = lattice_solve(system.scenario)
        rng = np.random.default_rng(11)
        for scale in (1e-6, 1e-2, 10.0):
            # a uniform shift is slack everywhere and meets the bound exactly
            for values in (optimal + rng.normal(scale=scale, size=optimal.shape), optimal + scale):
                report = verify_solution(values, decision_values(system, values))
                distance = np.max(np.abs(values - optimal))
                assert 0.0 < distance <= report.residual / (1 - system.beta) + 1e-10

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_values_that_are_not_finite_are_neither_feasible_nor_tight(self, bad):
        # max(0.0, nan) is 0.0: a NaN slack once read as no violation and a residual of 0
        system = compile_system(builtin_scenario("table2_once"))
        values = lattice_solve(system.scenario)
        values[7] = bad
        report = verify_solution(values, decision_values(system, values))
        assert not report.feasible()
        assert not report.all_tight()
        assert report.residual == math.inf

    def test_deflated_values_violate(self, table1_system):
        optimal = lattice_solve(table1_system.scenario)
        report = verify_solution(optimal - 1.0, decision_values(table1_system, optimal - 1.0))
        assert not report.feasible()
        assert report.max_violation == pytest.approx(1.0)
