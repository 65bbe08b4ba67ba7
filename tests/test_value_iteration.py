import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import plain_value_iterate
from test_bellman import at_rate, small_scenario, with_rates
from test_policy import dv_bound, random_scenarios

import acmdp.value_iteration
from acmdp import (
    Access,
    ConvergenceError,
    Emergency,
    RequestBehavior,
    RewardVariant,
    State,
    builtin_scenario,
    compile_system,
    decision_values,
    policy_iterate,
    value_iterate,
)
from acmdp.bellman import VERIFY_TOL, rounding_allowance
from acmdp.experiments import SweepSpec
from acmdp.policy import solve_system
from acmdp.value_iteration import DEFAULT_TOL


def backup(system, values):
    """One synchronous application of max_a [q + beta * P V]."""
    return decision_values(system, values).max(axis=0)


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
        assert np.array_equal(backup(system, start), system.q.max(axis=0))

    def test_first_backup_from_zero(self, table2_system):
        backed = backup(table2_system, np.zeros(160))
        i = table2_system.space.state_index(State(Emergency.CALM, 0, Access(0, 0)))
        # max(deny -2, allow 4)
        assert backed[i] == pytest.approx(4.0)

    def test_contraction(self, table2_system):
        rng = np.random.default_rng(3)
        beta = table2_system.beta
        for _ in range(20):
            v1 = rng.normal(scale=50, size=160)
            v2 = rng.normal(scale=50, size=160)
            lhs = np.max(np.abs(backup(table2_system, v1) - backup(table2_system, v2)))
            assert lhs <= beta * np.max(np.abs(v1 - v2)) + 1e-9

    def test_monotone(self, table2_system):
        rng = np.random.default_rng(4)
        for _ in range(20):
            v1 = rng.normal(scale=50, size=160)
            v2 = v1 + rng.uniform(0, 10, size=160)
            assert np.all(backup(table2_system, v1) <= backup(table2_system, v2) + 1e-12)


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
            updated = backup(table2_system, values)
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

    def test_nonconvergence_names_the_tolerance_read_when_it_runs(self, monkeypatch, table2_system):
        # the text keeps its form and names DEFAULT_TOL as it stands at the solve
        monkeypatch.setattr(acmdp.value_iteration, "DEFAULT_MAX_ITER", 1)
        monkeypatch.setattr(acmdp.value_iteration, "DEFAULT_TOL", 1e-3)
        text = f"no convergence to 0.001 within 1 iterations (beta={table2_system.beta})"
        with pytest.raises(ConvergenceError, match=re.escape(text)):
            value_iterate(table2_system)

    def test_a_looser_tol_stops_sooner_and_within_it(self, monkeypatch):
        # each sweep reads DEFAULT_TOL when it runs, so setting it sets the stop
        system = compile_system(builtin_scenario("table2_once"))
        exact, _ = policy_iterate(system)
        default_sweeps = value_iterate(system)[1]
        monkeypatch.setattr(acmdp.value_iteration, "DEFAULT_TOL", 1e-3)
        values, sweeps = value_iterate(system)
        assert sweeps < default_sweeps
        # the LP's values lie within VERIFY_TOL / (1 - beta) of the optimum
        bound = 1e-3 + VERIFY_TOL / (1 - system.beta) + rounding_allowance(exact, system.beta)
        assert np.max(np.abs(values - exact)) <= bound

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
        system = compile_system(sc)
        batch = system.mix_batch(rates)
        values, sweeps = value_iterate(batch)
        assert values.shape == (batch.num_states, len(rates))
        if beta == 0.0:
            assert sweeps == 1
            assert np.array_equal(values, batch.q.max(axis=0))
        for column, pair in zip(values.T, rates):
            exact, _ = policy_iterate(compile_system(with_rates(sc, pair)))
            bound = DEFAULT_TOL + VERIFY_TOL / (1 - beta) + rounding_allowance(exact, beta)
            assert np.max(np.abs(column - exact)) <= bound

    def test_a_column_solves_as_a_batch_of_one(self):
        # columns do not mix: each stops on its own bound with the values a
        # batch of it alone returns
        sc = builtin_scenario("table2_all")
        system = compile_system(sc)
        rates = [(p, 1.0) for p in (0.0, 0.05, 0.6, 1.0)]
        values, sweeps = value_iterate(system.mix_batch(rates))
        alone = [value_iterate(system.mix_batch([pair])) for pair in rates]
        assert sweeps == max(s for _, s in alone)
        assert len({s for _, s in alone}) > 1
        for column, (want, _), pair in zip(values.T, alone, rates):
            assert np.array_equal(column, want[:, 0])
            # and a single system is that batch of one
            single = compile_system(with_rates(sc, pair))
            assert np.array_equal(value_iterate(single)[0], want[:, 0])

    @pytest.mark.parametrize(
        "sign_of", [None, State(Emergency.CALM, 0, Access(1, 1))], ids=["none", "calm_bob_high"]
    )
    def test_stopped_columns_leave_the_batch(self, monkeypatch, sign_of):
        # each sweep prices only the columns still running, once, with or
        # without a sign to prove, and a column returns the values it would
        # return alone
        system = compile_system(builtin_scenario("table2_once"))
        state = None if sign_of is None else system.scenario.dims.state_index(sign_of)
        rates = [(p, 1.0) for p in (0.0, 0.05, 0.6, 1.0)]
        alone = [value_iterate(system.mix_batch([pair]), sign_of=state) for pair in rates]
        stops = sorted(s for _, s in alone)
        assert stops[0] < stops[-1]
        price, widths = acmdp.value_iteration.decision_values, []

        def recorded(system, values):
            widths.append(values.shape[1])
            return price(system, values)

        monkeypatch.setattr(acmdp.value_iteration, "decision_values", recorded)
        values, sweeps = value_iterate(system.mix_batch(rates), sign_of=state)
        assert sweeps == stops[-1]
        # all four columns until the first stops, then only those still running
        assert widths == [sum(s >= i for s in stops) for i in range(1, sweeps + 1)]
        assert widths[stops[0] - 1] == 4 > widths[stops[0]]
        for column, (want, _) in zip(values.T, alone):
            assert np.array_equal(column, want[:, 0])


class TestJump:
    """A column jumps along a steady span ratio, and goes back where a jump fails."""

    @settings(max_examples=30, deadline=None)
    @given(
        users=st.integers(1, 2),
        resources=st.integers(1, 2),
        behavior=st.sampled_from(list(RequestBehavior)),
        variant=st.sampled_from(list(RewardVariant)),
        beta=st.floats(0.9, 0.999),
        seed=st.integers(0, 2**16),
        drawn=st.lists(RATES, max_size=2),
    )
    def test_a_failed_jump_goes_back_and_every_column_is_its_own(
        self, users, resources, behavior, variant, beta, seed, drawn
    ):
        # E that swaps the statuses every step, (1, 0), gives a mode whose sign
        # alternates under a steady span ratio: a jump along it moves away
        # from V*, and without going back it overflows
        sc = small_scenario(users, resources, behavior, variant, beta=beta, seed=seed)
        system = compile_system(sc)
        rates = [(1.0, 0.0), (0.0, 1.0), *drawn]
        with np.errstate(over="raise", invalid="raise"):
            values, _ = value_iterate(system.mix_batch(rates))
            alone = [value_iterate(system.mix_batch([pair]))[0] for pair in rates]
        for column, own, pair in zip(values.T, alone, rates):
            assert column.tobytes() == own[:, 0].tobytes()
            exact, _ = policy_iterate(compile_system(with_rates(sc, pair)))
            bound = DEFAULT_TOL + VERIFY_TOL / (1 - beta) + rounding_allowance(exact, beta)
            assert np.max(np.abs(column - exact)) <= bound

    @pytest.mark.parametrize(
        "name, most, plain", [("table2_all", 15, 62), ("table2_once", 25, 26), ("table2_unique", 2, 2)]
    )
    def test_the_grid_takes_fewer_sweeps_to_the_same_values(self, name, most, plain):
        # the 101-point sweep grid, solved as one batch, against the same
        # iteration without jumps; both lie within DEFAULT_TOL of the optimum,
        # and rounding_allowance of the exact values of the stop
        system = compile_system(builtin_scenario(name))
        batch = system.mix_batch([(p, 1.0) for p in SweepSpec(system.scenario).grid()])
        reference, reference_sweeps = plain_value_iterate(batch)
        values, sweeps = value_iterate(batch)
        assert reference_sweeps == plain and sweeps <= most
        bound = 2 * (DEFAULT_TOL + rounding_allowance(reference, system.beta))
        assert np.max(np.abs(values - reference)) <= bound

    @pytest.mark.parametrize("name", ["modified_unique", "modified_once"])
    def test_a_failed_jump_bars_no_later_jump(self, name):
        # at beta = 0.999 the jump in the fourth sweep fails and is undone; the
        # column jumps again once its span ratio is steady, and stops in about
        # 1,630 sweeps, where a column barred after one failed jump took 28,403
        assert sweeps_within_the_lps_bound(name, 0.999) <= 2000

    @pytest.mark.slow
    @pytest.mark.parametrize("name", ["modified_unique", "modified_once"])
    def test_beta_0_9999_converges_within_the_budget(self, name):
        # about 19,700 sweeps, where a column barred after one failed jump ran
        # out of the budget
        assert sweeps_within_the_lps_bound(name, 0.9999) <= acmdp.value_iteration.DEFAULT_MAX_ITER


def sweeps_within_the_lps_bound(name, beta):
    """value_iterate's sweeps on builtin name at beta, once its values are
    checked within self_check's lp_vi_agreement bound of policy_iterate's."""
    system = compile_system(dataclasses.replace(builtin_scenario(name), beta=beta))
    values, sweeps = value_iterate(system)
    exact, _ = policy_iterate(system)
    bound = DEFAULT_TOL + VERIFY_TOL / (1 - beta) + rounding_allowance(exact, beta)
    assert np.max(np.abs(values - exact)) <= bound
    return sweeps


def proves(system, state, start):
    """value_iterate's values from start with sign_of state, and whether it
    stopped on its sign proof; without the proof it returns the values it
    returns without sign_of."""
    values, _ = value_iterate(system, start=start, sign_of=state)
    return values, not np.array_equal(values, value_iterate(system, start=start)[0])


class TestSignOf:
    @random_scenarios(40, probability=st.floats(0.0, 1.0), start_scale=st.floats(0.0, 100.0))
    def test_a_proven_sign_is_the_lps(
        self, users, resources, behavior, variant, rates, beta, seed, probability, start_scale
    ):
        # from a random start, wherever the step stops on its proof, the sign of
        # the gap read from the values it returns is the LP's, whenever the LP's
        # gap exceeds the LP's own error
        sc = small_scenario(
            users, resources, behavior, variant, (probability, rates[1]), beta, seed
        )
        system = compile_system(sc)
        lp = solve_system(system, "lp")
        start = np.random.default_rng(seed).normal(scale=start_scale, size=system.num_states)
        lp_gaps = lp.dv[1] - lp.dv[0]
        for state in system.space.position(0, 0, np.arange(sc.dims.num_access_bits)):
            values, proven = proves(system, state, start)
            dv = decision_values(system, values)[:, state]
            if proven and abs(lp_gaps[state]) > dv_bound(lp):
                assert (dv[1] > dv[0]) == (lp_gaps[state] > 0)

    def test_no_proof_at_an_exact_tie(self):
        # table2_unique's (bob, high) gap is 20 q - 10, exactly 0 at q = 0.5:
        # from any start the step stops at its tolerance, with no claim of a sign
        sc = builtin_scenario("table2_unique")
        system = compile_system(at_rate(sc, 0.5))
        state = system.space.state_index(State(Emergency.CALM, 0, Access(1, 1)))
        exact, _ = policy_iterate(system)
        assert decision_values(system, exact)[1, state] == decision_values(system, exact)[0, state]
        rng = np.random.default_rng(0)
        for start in (None, exact, exact + 1e-3, rng.normal(scale=50, size=system.num_states)):
            assert not proves(system, state, start)[1]

    def test_proof_stops_sooner_and_returns_the_values_it_read(self):
        # modified_once's (bob, high) gap at q = 0.5 is about 65: its sign is
        # proven from zero in a few of the sweeps the tolerance needs, and the
        # values returned meet the proof's bound, read from their own backup
        sc = builtin_scenario("modified_once")
        system = compile_system(at_rate(sc, 0.5))
        state = system.space.state_index(State(Emergency.CALM, 0, Access(1, 1)))
        values, sweeps = value_iterate(system, sign_of=state)
        assert 5 * sweeps < value_iterate(system)[1]
        dv = decision_values(system, values)
        step = dv.max(axis=0) - values
        span = sc.beta / (1 - sc.beta) * (step.max() - step.min())
        gap = dv[1, state] - dv[0, state]
        assert abs(gap) > span + 2 * sc.beta * rounding_allowance(values, sc.beta)
        exact = decision_values(system, policy_iterate(system)[0])[:, state]
        assert gap > 0 and abs(gap - (exact[1] - exact[0])) <= span


class TestReduceColumns:
    @pytest.mark.parametrize(
        "rows, columns",
        [(160, 7), (1023, 2), (1024, 1), (1024, 2), (10240, 15), (10241, 3), (2048, 512),
         (2048, 513), (4096, 100)],
    )
    def test_equals_the_plain_reduction(self, rows, columns):
        # by blocks of rows or plainly, maximum, minimum and any give the plain
        # reductions' columns, with rows past the last whole block and on a
        # strided view too
        rng = np.random.default_rng(rows * columns)
        array = rng.standard_normal((rows, columns))
        for view in (array, array[::-1], np.asfortranarray(array)):
            reduce_columns = acmdp.value_iteration.reduce_columns
            assert np.array_equal(reduce_columns(np.maximum, view), view.max(axis=0))
            assert np.array_equal(reduce_columns(np.minimum, view), view.min(axis=0))
            flags = view > 2.0
            assert np.array_equal(reduce_columns(np.logical_or, flags), flags.any(axis=0))

    def test_blocks_only_many_rows_of_few_columns(self):
        # the blocked path reshapes the array into rows of about BLOCK elements;
        # below BLOCK rows, and for one column, it reduces plainly
        reshapes = []

        class Recorded(np.ndarray):
            def reshape(self, *shape):
                reshapes.append(shape)
                return np.ndarray.reshape(self, *shape)

        block = acmdp.value_iteration.BLOCK
        cases = ((2 * block, 4, True), (block - 1, 4, False), (2 * block, 1, False))
        for rows, columns, blocked in cases:
            reshapes.clear()
            array = np.zeros((rows, columns)).view(Recorded)
            acmdp.value_iteration.reduce_columns(np.maximum, array)
            assert bool(reshapes) == blocked, (rows, columns)
