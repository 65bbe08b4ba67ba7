import dataclasses
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracle import exact_decision_values, lattice_solve, oracle_compile
from scipy import sparse
from scipy.sparse.linalg import spsolve
from test_bellman import small_scenario, with_rates
from test_dynamics import clear_shape_caches

import acmdp.bellman
import acmdp.policy
import acmdp.value_iteration
from acmdp import (
    Access,
    Action,
    BUILTIN_NAMES,
    Emergency,
    RequestBehavior,
    RewardVariant,
    Scenario,
    State,
    SweepSpec,
    builtin_scenario,
    compile_system,
    decision_values,
    export_values,
    extract_policy,
    import_values,
    policy_evaluate,
    policy_iterate,
    run_sweep,
    self_check,
    set_insert,
    solve_scenario,
    value_iterate,
    verify_solution,
)
from acmdp.bellman import VERIFY_TOL, build_parts, rounding_allowance
from acmdp.dynamics import RequestDynamics
from acmdp.policy import (
    FILE_HEADER,
    PRINT_TOL,
    SOLVERS,
    LoadedValues,
    ValueFileError,
    state_labels,
)
from acmdp.value_iteration import DEFAULT_TOL as VI_TOL, ConvergenceError

BOB_HIGH = Access(1, 1)
ALICE_LOW, ALICE_HIGH = Access(0, 0), Access(0, 1)


class TestDecisionValues:
    def test_table1_alert_alice_low(self, solved):
        sol = solved("table1")
        i = sol.system.space.state_index(State(Emergency.ALERT, 0, ALICE_LOW))
        assert sol.dv[int(Action.DENY), i] == pytest.approx(-20)
        assert sol.dv[int(Action.ALLOW), i] == pytest.approx(-14)

    def test_table2_all_alert_alice_high(self, solved):
        sol = solved("table2_all")
        i = sol.system.space.state_index(State(Emergency.ALERT, 0, ALICE_HIGH))
        assert sol.dv[int(Action.ALLOW), i] == pytest.approx(55, abs=1e-6)

    def test_beta_zero_dv_equals_immediate_reward(self, solved):
        sol = solved("table1")
        assert np.allclose(sol.dv, sol.system.q)

    def test_bellman_consistency(self, solved):
        for name in ("table1", "table2_once", "modified_all"):
            sol = solved(name)
            assert np.max(np.abs(sol.dv.max(axis=0) - sol.values)) <= 1e-7


@pytest.fixture
def kernel_calls(monkeypatch):
    """Counts of decision_values calls inside and outside value_iterate, of
    value_iterate's calls and the backups they report, and of the calls of
    the kernel's two halves made other than through decision_values.

    Each function is rebound in every acmdp module that holds it; the halves
    are left as they are in acmdp.bellman, where decision_values calls them.
    """
    kernel, iterate = acmdp.decision_values, acmdp.value_iteration.value_iterate
    halves = {"draw_table": acmdp.bellman.draw_table, "price_table": acmdp.bellman.price_table}
    calls = {"inside": 0, "outside": 0, "solves": 0, "backups": 0, **dict.fromkeys(halves, 0)}
    depth = []

    def counted(*args):
        calls["inside" if depth else "outside"] += 1
        return kernel(*args)

    def iterating(*args, **kwargs):
        depth.append(None)
        try:
            result = iterate(*args, **kwargs)
        finally:
            depth.pop()
        calls["solves"] += 1
        calls["backups"] += result[1]
        return result

    def counted_half(name):
        def call(*args):
            calls[name] += 1
            return halves[name](*args)

        return call

    for name, module in list(sys.modules.items()):
        if name == "acmdp" or name.startswith("acmdp."):
            if getattr(module, "decision_values", None) is kernel:
                monkeypatch.setattr(module, "decision_values", counted)
            if getattr(module, "value_iterate", None) is iterate:
                monkeypatch.setattr(module, "value_iterate", iterating)
            for half, function in halves.items():
                if name != "acmdp.bellman" and getattr(module, half, None) is function:
                    monkeypatch.setattr(module, half, counted_half(half))
    return calls


class TestOneKernel:
    """A solve prices its final values with decision_values exactly once."""

    @pytest.mark.parametrize("name", ["table1", "table2_all", "table2_once"])
    def test_lp_solve_prices_each_basis_and_the_result(self, kernel_calls, name):
        # the fail-safe start is one decision_values call; a basis takes one
        # draw_table call for its 4 x 4 systems, then per granted-set level
        # one draw_table call for the right-hand side and one price_table
        # call for the level's decision values, the last of which prices the
        # basis; decision_values prices the result once
        solution = solve_scenario(builtin_scenario(name), "lp")
        levels = solution.scenario.dims.num_access_bits + 1
        bases = solution.iterations
        assert bases == (2 if name == "table2_once" else 1)
        assert kernel_calls == {
            "inside": 0,
            "outside": 2,
            "solves": 0,
            "backups": 0,
            "draw_table": bases * (levels + 1),
            "price_table": bases * levels,
        }

    def test_lp_start_is_priced_once(self, kernel_calls):
        # a start, given or the fail-safe one, costs one decision_values call
        # for the first policy; from the optimal values that policy is
        # optimal, so one basis follows
        system = compile_system(builtin_scenario("table2_once"))
        values, bases = policy_iterate(system)
        assert bases == 2
        again, bases = policy_iterate(system, start=values)
        levels = system.parts.scenario.dims.num_access_bits + 1
        assert bases == 1 and np.array_equal(again, values)
        assert kernel_calls == {
            "inside": 0,
            "outside": 2,
            "solves": 0,
            "backups": 0,
            "draw_table": (2 + 1) * (levels + 1),
            "price_table": (2 + 1) * levels,
        }

    @pytest.mark.parametrize("name", ["table1", "table2_all"])
    def test_policy_evaluate_is_one_basis(self, kernel_calls, name):
        # one draw_table call for the 4 x 4 systems, then per level one
        # draw_table and one price_table call, as in each of policy_iterate's bases
        system = compile_system(builtin_scenario(name))
        policy_evaluate(system, system.q[1] > system.q[0])
        levels = system.parts.scenario.dims.num_access_bits + 1
        assert kernel_calls == {
            "inside": 0,
            "outside": 0,
            "solves": 0,
            "backups": 0,
            "draw_table": levels + 1,
            "price_table": levels,
        }

    def test_vi_solve_prices_the_result_once(self, kernel_calls):
        solution = solve_scenario(builtin_scenario("table2_once"), "vi")
        iterations = solution.iterations
        assert kernel_calls == {
            "inside": iterations,
            "outside": 1,
            "solves": 1,
            "backups": iterations,
            "draw_table": 0,
            "price_table": 0,
        }

    @pytest.mark.parametrize("behavior", ["unique", "once", "all"])
    def test_vi_sweep_backs_up_and_prices_on_the_factored_kernel(
        self, kernel_calls, monkeypatch, behavior
    ):
        # one kernel call per backup, one pricing per value_iterate call (the
        # grid's batch, then each bisection point), and no assembled P
        def unassembled(self):
            raise AssertionError("a value-iteration sweep assembled the transition matrices")

        monkeypatch.setattr(acmdp.bellman.BellmanSystem, "transitions", property(unassembled))
        result = run_sweep(SweepSpec(builtin_scenario(f"table2_{behavior}")), solver="vi")
        assert any(c.root is not None for c in result.crossovers)
        assert kernel_calls["solves"] > 1
        assert kernel_calls["inside"] == kernel_calls["backups"]
        assert kernel_calls["outside"] == kernel_calls["solves"]
        assert kernel_calls["draw_table"] == kernel_calls["price_table"] == 0

    def test_lp_solves_sweeps_and_self_checks_assemble_no_transitions(self, monkeypatch):
        def unassembled(self):
            raise AssertionError("an LP solve or self-check assembled the transition matrices")

        monkeypatch.setattr(acmdp.bellman.BellmanSystem, "transitions", property(unassembled))
        for name in BUILTIN_NAMES:
            assert solve_scenario(builtin_scenario(name), "lp").report.max_violation <= VERIFY_TOL
        sc = small_scenario(3, 3, "once", "eps_accrues", rates=(0.1, 1.0))
        assert solve_scenario(sc, "lp").report.max_violation <= VERIFY_TOL
        result = run_sweep(SweepSpec(builtin_scenario("table2_once")), solver="lp")
        assert any(c.root is not None for c in result.crossovers)
        # the stochasticity check reads the factors
        for checked in (builtin_scenario("table2_all"), sc):
            assert all(c.passed for c in self_check(checked))


class TestExtractPolicy:
    def test_table1_denies_bob_high_in_calm(self, solved):
        sol = solved("table1")
        i = sol.system.space.state_index(State(Emergency.CALM, 0, BOB_HIGH))
        assert sol.policy.action(i) is Action.DENY
        assert sol.policy.gaps[i] == pytest.approx(10)

    def test_table2_all_allows_bob_high_in_calm(self, solved):
        sol = solved("table2_all")
        i = sol.system.space.state_index(State(Emergency.CALM, 0, BOB_HIGH))
        assert sol.policy.action(i) is Action.ALLOW

    @pytest.mark.parametrize("gap, action", [(1e-6, "deny"), (1e-2, "allow")])
    def test_allow_must_beat_deny_by_more_than_verify_tol(self, monkeypatch, gap, action):
        # extract_policy reads the margin when it runs, as the LP's pivot does
        monkeypatch.setattr(acmdp.policy, "VERIFY_TOL", 1e-3)
        assert extract_policy(np.array([[5.0], [5.0 + gap]])).action(0).label == action

    def test_degenerate_rewards_deny_everywhere(self):
        sc = Scenario(
            user_names=("alice", "bob"),
            resource_names=("low", "high"),
            reward_access=(0.0, 0.0, 0.0, 0.0),
            reward_resource=(0.0, 0.0),
            calm_to_alert=0.1,
            alert_to_alert=1.0,
            behavior=RequestBehavior.ALL,
            variant=RewardVariant.EPS_ZERO,
            beta=0.9,
        )
        sol = solve_scenario(sc, solver="vi")
        assert np.all(sol.policy.actions == int(Action.DENY))

    def test_lp_and_vi_policies_agree_when_confident(self, solved):
        for name in ("table2_once", "modified_unique"):
            lp, vi = solved(name, "lp"), solved(name, "vi")
            confident = lp.policy.gaps > 1e-5
            assert np.array_equal(
                lp.policy.actions[confident], vi.policy.actions[confident]
            )

    def test_positive_scaling_preserves_policy(self, solved):
        base = solved("table2_once", "vi")
        sc = base.scenario
        scaled = Scenario(
            user_names=sc.user_names,
            resource_names=sc.resource_names,
            reward_access=tuple(2.0 * v for v in sc.reward_access),
            reward_resource=tuple(2.0 * v for v in sc.reward_resource),
            calm_to_alert=sc.calm_to_alert,
            alert_to_alert=sc.alert_to_alert,
            behavior=sc.behavior,
            variant=sc.variant,
            beta=sc.beta,
        )
        sol = solve_scenario(scaled, solver="vi")
        assert np.allclose(sol.dv, 2.0 * base.dv, rtol=1e-7, atol=1e-7)
        assert np.array_equal(sol.policy.actions, base.policy.actions)


def assert_lp_agrees(solution, values, bound):
    """The LP solution's values within bound of values, policies matching
    wherever the gap exceeds bound, every Bellman row feasible and tight."""
    assert np.max(np.abs(solution.values - values)) <= bound
    other = extract_policy(decision_values(solution.system, values))
    confident = other.gaps > bound
    assert np.array_equal(solution.policy.actions[confident], other.actions[confident])
    # priced afresh, not from solution.dv, so the check is independent of the solve
    report = verify_solution(solution.values, decision_values(solution.system, solution.values))
    assert report.feasible()
    assert report.all_tight()


def vi_bound(values, beta):
    """Value iteration's proven error, tol, plus the rounding of it and of the basis solve."""
    return VI_TOL + rounding_allowance(values, beta)


def lattice_bound(solution, values):
    """How far the LP's values may lie from values, both certified by verify_solution.

    Each lies within its residual / (1 - beta) of the optimum (Puterman
    1994, sections 6.2-6.3), so the two lie within the sum of both
    distances, plus the rounding of each.
    """
    system, beta = solution.system, solution.system.beta
    residual = verify_solution(solution.values, solution.dv).residual
    residual += verify_solution(values, decision_values(system, values)).residual
    return residual / (1.0 - beta) + 2.0 * rounding_allowance(solution.values, beta)


def random_scenarios(max_examples, **more):
    """Run a test on small_scenario's random 1x1 to 2x3 models, and on more's strategies.

    A strategy in more replaces the default of its name.
    """
    strategies = dict(
        users=st.integers(1, 2),
        resources=st.integers(1, 3),
        behavior=st.sampled_from(list(RequestBehavior)),
        variant=st.sampled_from(list(RewardVariant)),
        rates=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
        beta=st.one_of(st.just(0.0), st.floats(0.0, 0.99)),
        seed=st.integers(0, 2**16),
    )
    return lambda test: settings(max_examples=max_examples, deadline=None)(
        given(**{**strategies, **more})(test)
    )


def exact_error(sc, policy, values):
    """How far values lie from the exact values of the allow mask policy, as a Fraction.

    tests/oracle.py prices the policy in Fraction arithmetic, and no state's
    other action may beat its chosen one by more than VERIFY_TOL, the
    pivot's margin.
    """
    dv = exact_decision_values(sc, policy)
    exact = np.where(policy == 1, dv[1], dv[0])
    assert max(np.where(policy == 1, dv[0], dv[1]) - exact) <= Fraction(VERIFY_TOL)
    return max(abs(Fraction(v) - x) for v, x in zip(values, exact))


def dv_bound(solution):
    """How far the solution's decision values may lie from the exact ones.

    Its values lie within residual / (1 - beta) of the optimum, and a kernel
    evaluation adds rounding on the scale of the largest decision value,
    which is at least the largest value.
    """
    beta = solution.system.beta
    residual = verify_solution(solution.values, solution.dv).residual
    return residual / (1.0 - beta) + rounding_allowance(solution.dv, beta)


def bitwise_equal(a, b):
    """Same shape, dtype and bytes: equal to the last bit, signed zeros included."""
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_import_leaves_sparse_linalg_unloaded(tmp_path):
    # neither the import, both solvers, a sweep nor a value-table round trip
    # needs scipy, and loading it costs import time and memory; only
    # BellmanSystem.transitions loads it
    src = str(Path(acmdp.__file__).resolve().parents[1])
    probe = "; ".join(
        [
            "import sys, acmdp",
            "sc = acmdp.builtin_scenario('table2_all')",
            "solution = acmdp.solve_scenario(sc, 'lp')",
            "acmdp.solve_scenario(sc, 'vi')",
            "acmdp.run_sweep(acmdp.SweepSpec(sc, 0.0, 1.0, 0.25))",
            f"acmdp.export_values(solution, {str(tmp_path / 'v.txt')!r})",
            f"acmdp.import_values({str(tmp_path / 'v.txt')!r}, scenario=sc)",
            "print('scipy' in sys.modules)",
        ]
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert out.stdout.strip() == "False", out.stderr


class TestLpSolve:
    """solve_scenario(sc, "lp"): policy iteration on the sparse Bellman rows."""

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_builtins_match_lattice_solve(self, name):
        solution = solve_scenario(builtin_scenario(name), "lp")
        assert_lp_agrees(solution, lattice_solve(solution.scenario), 1e-9)

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_builtins_are_optimal_in_exact_arithmetic(self, solved, name):
        solution = solved(name)
        sc = solution.scenario
        error = exact_error(sc, solution.policy.actions, solution.values)
        allowance = rounding_allowance(solution.values, sc.beta)
        bound = solution.report.residual / (1.0 - sc.beta) + allowance
        # the 7 builtins' worst errors reach at most 0.023 of the allowance
        assert error <= Fraction(bound)

    @random_scenarios(50, resources=st.integers(1, 2))
    # a subnormal rate: its products underflow, and every value lies below TINY
    @example(
        1, 1, RequestBehavior.UNIQUE, RewardVariant.EPS_ZERO, (0.0, 2.2250738585e-313), 0.0, 11
    )
    def test_random_scenarios_are_optimal_in_exact_arithmetic(
        self, users, resources, behavior, variant, rates, beta, seed
    ):
        # the LP's last basis, priced exactly on random 1x1 to 2x2 models
        sc = small_scenario(users, resources, behavior, variant, rates, beta, seed)
        system = compile_system(sc)
        values, basis = TestPolicyEvaluate.final_basis(system)
        error = exact_error(sc, basis, values)
        allowance = rounding_allowance(values, beta)
        residual = verify_solution(values, decision_values(system, values)).residual
        # within its certificate of the exact values, as every solution is
        assert error <= Fraction(residual / (1.0 - beta) + allowance)
        # and within the rounding of its basis solve, block inverses and matmuls, alone
        assert error <= Fraction(allowance)

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_the_fail_safe_start_is_optimal_on_every_builtin_but_table2_once(self, solved, name):
        # the start prices a deny's successor as if every later request were
        # denied, too pessimistic on table2_once, where four calm states pivot
        assert solved(name).iterations == (2 if name == "table2_once" else 1)

    @staticmethod
    def assert_both_solvers_exact(sc):
        """Price the LP's last basis exactly; check it and value iteration against it.

        The basis's exact improvement g, the most any state's other action
        beats its chosen one by, is at most VERIFY_TOL; the optimal values
        then lie within g / (1 - beta) above its exact values, and value
        iteration's within DEFAULT_TOL and the rounding allowance of them.
        """
        system = compile_system(sc)
        values, basis = TestPolicyEvaluate.final_basis(system)
        dv = exact_decision_values(sc, basis)
        exact = np.where(basis, dv[1], dv[0])
        improvement = max(0, max(np.where(basis, dv[0], dv[1]) - exact))
        assert improvement <= Fraction(VERIFY_TOL)
        vi, _ = value_iterate(system)
        bound = VI_TOL + rounding_allowance(vi, sc.beta) + improvement / (1 - Fraction(sc.beta))
        assert max(abs(Fraction(v) - x) for v, x in zip(vi, exact)) <= bound

    @random_scenarios(15, resources=st.integers(1, 2))
    def test_random_scenarios_give_both_solvers_exact_values(
        self, users, resources, behavior, variant, rates, beta, seed
    ):
        # value iteration and the LP's last basis, on random 1x1 to 2x2 models
        self.assert_both_solvers_exact(
            small_scenario(users, resources, behavior, variant, rates, beta, seed)
        )

    @random_scenarios(2, resources=st.just(3))
    def test_random_3_resource_scenarios_give_both_solvers_exact_values(
        self, users, resources, behavior, variant, rates, beta, seed
    ):
        # the same on 1x3 and 2x3 models, capped: a 2x3 exact pricing takes 0.6-1.5 s
        self.assert_both_solvers_exact(
            small_scenario(users, resources, behavior, variant, rates, beta, seed)
        )

    @random_scenarios(40)
    def test_the_start_changes_only_the_path(
        self, users, resources, behavior, variant, rates, beta, seed
    ):
        # from the fail-safe start and from zero, whose first policy is the
        # myopic one, the LP decides alike wherever a gap exceeds VERIFY_TOL,
        # and where both end at one basis, at the same values to the last bit
        sc = small_scenario(users, resources, behavior, variant, rates, beta, seed)
        system = compile_system(sc)
        values, basis = TestPolicyEvaluate.final_basis(system)
        myopic, myopic_basis = TestPolicyEvaluate.final_basis(system, np.zeros(system.num_states))
        ours, theirs = (extract_policy(decision_values(system, v)) for v in (values, myopic))
        sure = (ours.gaps > VERIFY_TOL) | (theirs.gaps > VERIFY_TOL)
        assert np.array_equal(ours.actions[sure], theirs.actions[sure])
        if np.array_equal(basis, myopic_basis):
            assert bitwise_equal(values, myopic)

    def test_an_exact_tie_denies(self):
        # at calm_to_alert = 1/2, (calm, nothing granted, bob:high) ties exactly
        sc = dataclasses.replace(builtin_scenario("table2_unique"), calm_to_alert=0.5)
        solution = solve_scenario(sc, "lp")
        dv = exact_decision_values(sc, solution.policy.actions)
        i = sc.dims.state_index(State(Emergency.CALM, 0, BOB_HIGH))
        assert dv[1][i] - dv[0][i] == 0
        assert solution.policy.action(i) is Action.DENY

    @pytest.mark.parametrize("behavior", [b.value for b in RequestBehavior])
    @pytest.mark.parametrize("variant", [v.value for v in RewardVariant])
    def test_2x3_matches_lattice_solve(self, behavior, variant):
        # the lattice solve builds its own system (tests/oracle.py)
        solution = solve_scenario(small_scenario(2, 3, behavior, variant), "lp")
        assert_lp_agrees(solution, lattice_solve(solution.scenario), 1e-9)

    @pytest.mark.parametrize(
        "users, resources, behavior, variant, rates, beta, seed",
        [
            (1, 2, "unique", "eps_zero", (1e-7, 1.0), 0.5, 0),
            (2, 2, "once", "eps_zero", (1e-7, 0.5), 0.375, 208),
            (2, 2, "once", "eps_zero", (1e-9, 0.0), 0.5, 0),
            (1, 1, "all", "eps_zero", (1e-4, 1.0), 0.953125, 0),
            (1, 2, "unique", "eps_accrues", (1e-8, 1 - 1e-8), 0.9, 7),
            (1, 2, "all", "eps_accrues", (1e-8, 1 - 1e-8), 0.9, 7),
            (1, 2, "all", "eps_accrues", (1e-8, 1 - 1e-8), 0.99, 7),
        ],
    )
    def test_ill_scaled_scenarios_match_lattice_solve(
        self, users, resources, behavior, variant, rates, beta, seed
    ):
        # calm-to-alert rates from 1e-9 to 1e-4, some with alert-to-alert
        # rates within 1e-8 of 1
        sc = small_scenario(users, resources, behavior, variant, rates, beta, seed)
        solution = solve_scenario(sc, "lp")
        assert_lp_agrees(solution, lattice_solve(sc), 1e-9)

    def test_3x3_matches_value_iteration(self):
        sc = small_scenario(3, 3, "all", "eps_zero", rates=(0.1, 1.0))
        solution = solve_scenario(sc, "lp")
        assert solution.system.num_states == 10240
        vi = solve_scenario(sc, "vi")
        assert_lp_agrees(solution, vi.values, vi_bound(vi.values, sc.beta))

    def test_3x4_solves_in_a_small_memory_peak(self):
        # each granted set's block is a 4 x 4 system over its draw-table
        # entries, so the LP holds a few (2, n) arrays, 1.7 MB each at this size
        sc = small_scenario(3, 4, "once", "eps_accrues", rates=(0.1, 1.0))
        clear_shape_caches()  # the peak includes building the shape's dynamics
        tracemalloc.start()
        try:
            solution = solve_scenario(sc, "lp")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert solution.system.num_states == 106_496
        assert solution.report.max_violation <= VERIFY_TOL
        assert peak < 25e6

    def test_value_iteration_converges_below_its_rounding(self):
        # at beta = 0.999, tol (1 - beta) / beta = 1e-13 is below one unit in
        # the last place of max|V| (about 7e3), so only the rounding-level
        # stop can end the iteration
        sc = small_scenario(1, 2, "all", "eps_accrues", beta=0.999, seed=3)
        solution = solve_scenario(sc, "lp")
        vi = solve_scenario(sc, "vi")
        step_tol = VI_TOL * (1 - sc.beta) / sc.beta
        assert step_tol < np.spacing(np.abs(vi.values).max())
        assert_lp_agrees(solution, vi.values, vi_bound(vi.values, sc.beta))

    def test_value_iteration_stops_on_its_span_at_beta_0_9999(self):
        # a cold start drifts by a near-constant step for ln(tol / 1e6) / ln(beta)
        # sweeps, about 368,000, which the sup-norm step rule waited out past
        # its 100,000-sweep budget; the span of the step settles within dozens
        sc = small_scenario(2, 2, "all", "eps_accrues", (0.3, 0.8), 0.9999, 3)
        solution = solve_scenario(sc, "lp")
        vi = solve_scenario(sc, "vi")
        assert vi.iterations < 1000
        # self_check's lp_vi_agreement bound
        bound = VI_TOL + VERIFY_TOL / (1 - sc.beta) + rounding_allowance(solution.values, sc.beta)
        assert np.max(np.abs(solution.values - vi.values)) <= bound

    @pytest.mark.parametrize("behavior", [b.value for b in RequestBehavior])
    def test_beta_0_9999_matches_lattice_solve(self, behavior):
        # each set's block is solved on its own, so no level's right-hand side
        # subtracts nearly equal terms even where 1 / (1 - beta) is 1e4
        sc = small_scenario(2, 2, behavior, "eps_accrues", (0.3, 0.8), 0.9999, 3)
        solution = solve_scenario(sc, "lp")
        report = verify_solution(solution.values, decision_values(solution.system, solution.values))
        assert report.residual <= VERIFY_TOL
        allowance = rounding_allowance(solution.values, sc.beta)
        assert np.max(np.abs(solution.values - lattice_solve(sc))) <= allowance

    @pytest.mark.parametrize("behavior", [b.value for b in RequestBehavior])
    def test_beta_zero_is_myopic_in_one_basis(self, behavior):
        sc = small_scenario(2, 2, behavior, "eps_accrues", beta=0.0)
        q = compile_system(sc).q
        solution = solve_scenario(sc, "lp")
        assert solution.iterations == 1
        assert np.array_equal(solution.values, q.max(axis=0))
        assert np.array_equal(solution.policy.actions, np.where(q[1] > q[0] + VERIFY_TOL, 1, 0))

    def test_tol_bounds_the_final_violation(self, monkeypatch):
        # the pivot test reads VERIFY_TOL when it runs, so setting it sets the stop
        system = compile_system(builtin_scenario("table2_once"))

        def violation(values):
            return verify_solution(values, decision_values(system, values)).max_violation

        # the first basis is not optimal here; a tol above its violation keeps it
        monkeypatch.setattr(acmdp.policy, "VERIFY_TOL", 1e6)
        first, bases = policy_iterate(system)
        assert bases == 1
        assert violation(first) > 1e-9
        for tol in (1e-3, violation(first) / 2):
            monkeypatch.setattr(acmdp.policy, "VERIFY_TOL", tol)
            values, bases = policy_iterate(system)
            assert bases > 1
            assert violation(values) <= tol

    def test_unknown_solver_raises(self):
        # solve_system and run_sweep refuse a name by the one solver_function
        with pytest.raises(ValueError, match="unknown solver 'simplex'; expected 'lp' or 'vi'"):
            solve_scenario(builtin_scenario("table1"), "simplex")

    def test_basis_budget_raises_convergence_error(self, monkeypatch):
        system = compile_system(builtin_scenario("table2_once"))
        monkeypatch.setattr(acmdp.policy, "MAX_BASES", 1)
        with pytest.raises(ConvergenceError, match="no optimal policy basis within 1 bases"):
            policy_iterate(system)

    def test_basis_budget_error_names_the_tolerance_read_when_it_runs(self, monkeypatch):
        # the text keeps its form and names VERIFY_TOL as it stands at the solve
        system = compile_system(builtin_scenario("table2_once"))
        monkeypatch.setattr(acmdp.policy, "MAX_BASES", 1)
        monkeypatch.setattr(acmdp.policy, "VERIFY_TOL", 1e-3)
        text = f"no optimal policy basis within 1 bases (beta={system.beta}, tol=0.001)"
        with pytest.raises(ConvergenceError, match=re.escape(text)):
            policy_iterate(system)

    @random_scenarios(50)
    def test_random_scenarios_agree_with_both_oracles(
        self, users, resources, behavior, variant, rates, beta, seed
    ):
        sc = small_scenario(users, resources, behavior, variant, rates, beta, seed)
        solution = solve_scenario(sc, "lp")
        values = lattice_solve(sc)
        if sc.dims.num_access_bits < 6:
            assert_lp_agrees(solution, values, 1e-9)
        else:  # 896 states
            assert_lp_agrees(solution, values, lattice_bound(solution, values))
        vi = solve_scenario(sc, "vi")
        assert_lp_agrees(solution, vi.values, vi_bound(vi.values, beta))


class TestSharedShape:
    """Systems of one (dims, behaviour) share its dynamics and lattice plan."""

    @random_scenarios(25)
    def test_shared_and_fresh_builds_solve_bitwise_alike(
        self, users, resources, behavior, variant, rates, beta, seed
    ):
        sc = small_scenario(users, resources, behavior, variant, rates, beta, seed)
        other = small_scenario(users, resources, behavior, variant, (0.5, 0.5), 0.5, seed + 1)
        clear_shape_caches()
        fresh = {solver: solve_scenario(sc, solver) for solver in ("lp", "vi")}
        for solver in ("lp", "vi"):  # another scenario of the shape solves on the shared build
            solve_scenario(other, solver)
        for solver, was in fresh.items():
            now = solve_scenario(sc, solver)
            assert now.system.parts.dynamics is was.system.parts.dynamics
            assert bitwise_equal(now.values, was.values)
            assert bitwise_equal(now.dv, was.dv)
            assert bitwise_equal(now.policy.actions, was.policy.actions)

    def test_a_shape_plans_its_lattice_once(self, monkeypatch):
        plan, built = RequestDynamics.lattice.func, []

        def counted(dynamics):
            built.append(dynamics)
            return plan(dynamics)

        monkeypatch.setattr(RequestDynamics.lattice, "func", counted)
        clear_shape_caches()
        for name in ("table2_once", "modified_once"):
            solve_scenario(builtin_scenario(name), "lp")
        # an lp sweep solves every grid and bisection point by policy_iterate
        result = run_sweep(SweepSpec(builtin_scenario("table2_once")), "lp")
        assert any(c.bracket and c.bracket[0] < c.bracket[1] for c in result.crossovers)
        assert len(built) == 1


class TestRewardProperties:
    """How the optimal values and decisions move when the rewards change."""

    @random_scenarios(40, shrink=st.floats(0.0, 1.0, exclude_max=True), data=st.data())
    def test_a_smaller_alert_penalty_never_raises_its_allow_gap(
        self, users, resources, behavior, variant, rates, beta, seed, shrink, data
    ):
        # allow of a request on r grants r for good, so reward_resource[r] never
        # reaches allow's decision value; deny's can only rise with it
        sc = small_scenario(users, resources, behavior, variant, rates, beta, seed)
        r = data.draw(st.integers(0, resources - 1))
        penalties = list(sc.reward_resource)
        penalties[r] *= shrink
        smaller = dataclasses.replace(sc, reward_resource=penalties)
        before, after = solve_scenario(sc, "lp"), solve_scenario(smaller, "lp")
        # each gap lies within twice its decision values' bound of the exact gap
        bound = 2.0 * (dv_bound(before) + dv_bound(after))
        space = before.system.space
        for u in range(users):
            i = space.state_index(State(Emergency.CALM, 0, Access(u, r)))
            gap_before = before.dv[1, i] - before.dv[0, i]
            gap_after = after.dv[1, i] - after.dv[0, i]
            assert gap_after <= gap_before + bound
            if gap_before < -bound:
                assert after.policy.action(i) is Action.DENY

    @random_scenarios(40, c=st.floats(0.01, 100.0))
    def test_positive_scaling_scales_values_and_keeps_the_policy(
        self, users, resources, behavior, variant, rates, beta, seed, c
    ):
        sc = small_scenario(users, resources, behavior, variant, rates, beta, seed)
        scaled = dataclasses.replace(
            sc,
            reward_access=tuple(c * v for v in sc.reward_access),
            reward_resource=tuple(c * v for v in sc.reward_resource),
        )
        base, big = solve_scenario(sc, "lp"), solve_scenario(scaled, "lp")
        # c times the base solve and the scaled solve each lie within their
        # bound of the scaled model's exact values and decision values
        bound = c * dv_bound(base) + dv_bound(big)
        assert np.max(np.abs(big.values - c * base.values)) <= bound
        assert np.max(np.abs(big.dv - c * base.dv)) <= bound
        # a gap beyond VERIFY_TOL and twice its bound has the sign of the exact gap
        confident = (base.policy.gaps > VERIFY_TOL + 2 * dv_bound(base)) & (
            big.policy.gaps > VERIFY_TOL + 2 * dv_bound(big)
        )
        assert np.array_equal(base.policy.actions[confident], big.policy.actions[confident])


class TestLpBatch:
    """policy_iterate on a batch of systems that differ only in E."""

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_grid_columns_are_their_batches_of_one(self, name):
        sc = builtin_scenario(name)
        parts = build_parts(sc)
        rates = [(i / 100, sc.alert_to_alert) for i in range(101)]
        values, bases = policy_iterate(parts.mix_batch(rates))
        alone = [policy_iterate(parts.mix_batch([pair])) for pair in rates]
        assert bases == max(b for _, b in alone)
        for column, (want, _) in zip(values.T, alone):
            assert np.array_equal(column, want[:, 0])

    @settings(max_examples=15, deadline=None)
    @given(
        behavior=st.sampled_from(list(RequestBehavior)),
        variant=st.sampled_from(list(RewardVariant)),
        beta=st.one_of(st.just(0.0), st.floats(0.0, 0.99)),
        seed=st.integers(0, 2**16),
        rates=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), min_size=1, max_size=4),
    )
    def test_random_2x3_columns_are_their_batches_of_one(
        self, behavior, variant, beta, seed, rates
    ):
        sc = small_scenario(2, 3, behavior, variant, beta=beta, seed=seed)
        parts = build_parts(sc)
        values, _ = policy_iterate(parts.mix_batch(rates))
        assert values.shape == (sc.dims.num_states, len(rates))
        for column, pair in zip(values.T, rates):
            assert np.array_equal(column, policy_iterate(parts.mix_batch([pair]))[0][:, 0])
            # and a single system is that batch of one
            single = compile_system(with_rates(sc, pair))
            assert np.array_equal(column, policy_iterate(single)[0])

    def test_stopped_columns_leave_the_batch(self, monkeypatch):
        # each basis solves only the columns still running, and a column
        # returns the values it would return alone
        sc = small_scenario(2, 2, "once", "eps_zero", rates=(0.1, 1.0), seed=2)
        parts = build_parts(sc)
        rates = [(p, 1.0) for p in (0.0, 0.1, 0.2, 0.5)]
        alone = [policy_iterate(parts.mix_batch([pair])) for pair in rates]
        assert [b for _, b in alone] == [1, 2, 3, 1]
        price, widths = acmdp.policy.price_table, []

        def recorded(system, table):
            widths.append(table.shape[-1])
            return price(system, table)

        monkeypatch.setattr(acmdp.policy, "price_table", recorded)
        values, bases = policy_iterate(parts.mix_batch(rates))
        assert bases == 3
        # each basis prices its columns once per granted-set level
        levels = sc.dims.num_access_bits + 1
        assert widths == [4] * levels + [2] * levels + [1] * levels
        for column, (want, _) in zip(values.T, alone):
            assert np.array_equal(column, want[:, 0])

    def test_optimal_start_solves_in_one_basis(self):
        parts = build_parts(builtin_scenario("table2_once"))
        batch = parts.mix_batch([(p, 1.0) for p in (0.0, 0.3, 1.0)])
        values, bases = policy_iterate(batch)
        assert bases == 2
        again, bases = policy_iterate(batch, start=values)
        assert bases == 1 and np.array_equal(again, values)

    def test_basis_budget_raises_convergence_error(self, monkeypatch):
        parts = build_parts(builtin_scenario("table2_once"))
        batch = parts.mix_batch([(p, 1.0) for p in (0.0, 0.3)])
        monkeypatch.setattr(acmdp.policy, "MAX_BASES", 1)
        with pytest.raises(ConvergenceError, match="no optimal policy basis within 1 bases"):
            policy_iterate(batch)


def oracle_evaluate(sc, policy):
    """V_pi by spsolve of I - beta P_pi, with P and q from the per-state build."""
    mats, q = oracle_compile(sc)
    allow = sparse.diags(policy.astype(float))
    chosen = allow @ mats[1] + (sparse.identity(len(policy)) - allow) @ mats[0]
    lhs = sparse.identity(len(policy), format="csc") - sc.beta * chosen.tocsc()
    return spsolve(lhs, np.where(policy, q[1], q[0]))


def random_policies(seed, shape):
    return np.random.default_rng(seed).random(shape) < 0.5


class TestPolicyEvaluate:
    """policy_evaluate: the exact decision values of one fixed policy."""

    @staticmethod
    def final_basis(system, start=None):
        """policy_iterate's values on system from start, and the allow mask of its last basis."""
        evaluate, bases = acmdp.policy.policy_evaluate, []

        def recorded(batch, policy):
            bases.append(policy[:, 0].copy())  # policy_iterate pivots the mask in place
            return evaluate(batch, policy)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(acmdp.policy, "policy_evaluate", recorded)
            values, count = policy_iterate(system, start)
        assert len(bases) == count
        return values, bases[-1]

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_final_basis_gives_policy_iterate_values(self, name):
        system = compile_system(builtin_scenario(name))
        values, policy = self.final_basis(system)
        dv = policy_evaluate(system, policy)
        assert dv.shape == system.q.shape
        assert bitwise_equal(np.where(policy, dv[1], dv[0]), values)
        # the optimal basis's decision values are the kernel's pricing of its values
        assert np.max(np.abs(dv - decision_values(system, values))) <= rounding_allowance(
            dv, system.beta
        )

    @random_scenarios(15)
    def test_random_final_basis_gives_policy_iterate_values(
        self, users, resources, behavior, variant, rates, beta, seed
    ):
        sc = small_scenario(users, resources, behavior, variant, rates, beta, seed)
        system = compile_system(sc)
        values, policy = self.final_basis(system)
        dv = policy_evaluate(system, policy)
        assert bitwise_equal(np.where(policy, dv[1], dv[0]), values)

    @random_scenarios(40, mask=st.integers(0, 2**16))
    @example(1, 1, RequestBehavior.ONCE, RewardVariant.EPS_ZERO, (0.0, 5e-324), 0.0, 0, 3156)
    def test_random_policies_match_a_sparse_solve(
        self, users, resources, behavior, variant, rates, beta, seed, mask
    ):
        # both sides are exact solves of (I - beta P_pi) V = q_pi, built
        # apart, so they differ by no more than the rounding of each.  The
        # reference also forms each successor's probability, E times a draw
        # weight, which can underflow: each of an entry's at most 2 (B + 1)
        # products p * r then loses up to smallest_subnormal / 2 * |r|, an
        # absolute error the relative allowances do not cover (the example:
        # 5e-324 * 0.5 is 0, so its q has no alert penalty where ours has one)
        sc = small_scenario(users, resources, behavior, variant, rates, beta, seed)
        system = compile_system(sc)
        policy = random_policies(mask, system.num_states)
        dv = policy_evaluate(system, policy)
        values = np.where(policy, dv[1], dv[0])
        want = oracle_evaluate(sc, policy)
        products = 2 * (sc.dims.num_access_bits + 1)
        tiny = np.finfo(float).smallest_subnormal
        underflow = products * tiny / 2 * np.abs(system.parts.rewards).max() / (1.0 - beta)
        bound = rounding_allowance(values, beta) + rounding_allowance(want, beta) + underflow
        assert np.max(np.abs(values - want)) <= bound

    @settings(max_examples=15, deadline=None)
    @given(
        behavior=st.sampled_from(list(RequestBehavior)),
        variant=st.sampled_from(list(RewardVariant)),
        beta=st.one_of(st.just(0.0), st.floats(0.0, 0.99)),
        seed=st.integers(0, 2**16),
        rates=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), min_size=1, max_size=4),
    )
    def test_batch_columns_are_their_batches_of_one(self, behavior, variant, beta, seed, rates):
        parts = build_parts(small_scenario(2, 3, behavior, variant, beta=beta, seed=seed))
        policies = random_policies(seed, (parts.scenario.dims.num_states, len(rates)))
        dv = policy_evaluate(parts.mix_batch(rates), policies)
        assert dv.shape == (2, parts.scenario.dims.num_states, len(rates))
        for g, pair in enumerate(rates):
            alone = policy_evaluate(parts.mix_batch([pair]), policies[:, g : g + 1])
            assert bitwise_equal(dv[..., g : g + 1], alone)

    def test_mask_of_wrong_shape_raises(self):
        system = compile_system(builtin_scenario("table2_all"))
        batch = system.parts.mix_batch([(0.0, 1.0)] * 3)
        for target, shape in ((batch, (3, 160)), (batch, (160,)), (system, (160, 1))):
            message = f"policy has shape {shape}, expected {target.q.shape[1:]}"
            with pytest.raises(ValueError, match=re.escape(message)):
                policy_evaluate(target, np.zeros(shape, dtype=bool))


@pytest.mark.parametrize("solve", [policy_iterate, value_iterate])
@pytest.mark.parametrize(
    "width, shape",
    [(None, (3,)), (None, (160, 1)), (3, (3, 160)), (3, (160,)), (3, (480,)), (1, (160,))],
)
def test_solvers_refuse_a_start_of_the_wrong_shape_alike(solve, width, shape):
    # one system takes (n,) values and a batch of G takes (n, G): no reshape
    # makes a transposed or flattened start fit
    system = compile_system(builtin_scenario("table2_all"))
    if width is not None:
        system = system.parts.mix_batch([(0.0, 1.0)] * width)
    expected = system.q.shape[1:]
    message = f"start has shape {shape}, expected {expected}"
    with pytest.raises(ValueError, match=re.escape(message)):
        solve(system, start=np.zeros(shape))


@pytest.mark.parametrize("solve", [policy_iterate, value_iterate])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("width", [None, 3])
def test_solvers_refuse_a_non_finite_start_before_any_step(monkeypatch, solve, bad, width):
    # a NaN start would run value iteration to its budget and read as the
    # all-deny policy, so one non-finite entry is refused before any step
    system = compile_system(builtin_scenario("table2_all"))
    if width is not None:
        system = system.parts.mix_batch([(0.0, 1.0)] * width)
    start = np.ones(system.q.shape[1:])
    start.flat[-1] = bad  # the last state of the last column

    def unstepped(*args):
        raise AssertionError("a solver step ran")

    monkeypatch.setattr(acmdp.value_iteration, "decision_values", unstepped)
    monkeypatch.setattr(acmdp.policy, "policy_evaluate", unstepped)
    with pytest.raises(ValueError, match="^start has a non-finite value$"):
        solve(system, start=start)


def overflowing(name="table2_once", **changes):
    """A builtin whose grants are each worth 1.5e308 and whose alert penalties are each -1.5e308.

    Every reward is finite, but table2_once's alert penalty of the empty set,
    -3e308, is not; with calm_to_alert 0 a calm state's q is 0 * -inf, NaN.
    Under table2_all's own penalties the rewards are finite and the values not.
    """
    sc = builtin_scenario(name)
    penalties = (-1.5e308,) * 2 if name == "table2_once" else sc.reward_resource
    return dataclasses.replace(
        sc, reward_access=(1.5e308,) * 4, reward_resource=penalties, **changes
    )


OVERFLOW = "the solved values are not finite: rewards up to 1.5e+308 in size overflow a float"


OVERFLOW_WARNINGS = pytest.mark.filterwarnings(
    "ignore:overflow encountered:RuntimeWarning", "ignore:invalid value encountered:RuntimeWarning"
)


@OVERFLOW_WARNINGS
@pytest.mark.parametrize("solve", [policy_iterate, value_iterate])
@pytest.mark.parametrize(
    "sc",
    [overflowing(), overflowing(calm_to_alert=0.0), overflowing("table2_all")],
    ids=["penalties", "nan-q", "values"],
)
def test_solvers_refuse_values_that_are_not_finite(sc, solve):
    # a NaN column stops at once: value iteration once swept it to its budget
    system = compile_system(sc)
    with pytest.raises(ValueError, match=f"^{re.escape(OVERFLOW)} at beta={sc.beta}$"):
        solve(system)


@OVERFLOW_WARNINGS
@pytest.mark.parametrize("solver", SOLVERS)
def test_sweeps_refuse_values_that_are_not_finite(solver):
    with pytest.raises(ValueError, match=re.escape(OVERFLOW)):
        run_sweep(SweepSpec(overflowing(), step=0.25), solver)


def near_the_float_maximum():
    """table2_all with rewards of 1e305 in size at beta 0.999: its values reach past 7e307."""
    return dataclasses.replace(
        builtin_scenario("table2_all"),
        reward_access=(1e305, -1e305, 1e305, 1e305),
        reward_resource=(-1e305, -1e305),
        beta=0.999,
    )


@pytest.mark.parametrize("solver", SOLVERS)
def test_rewards_near_the_float_maximum_solve_when_the_values_are_finite(solver):
    # a bound of (max|reward_access| + sum|reward_resource|) / (1 - beta) would be inf here
    solution = solve_scenario(near_the_float_maximum(), solver)
    assert np.isfinite(solution.values).all() and np.isfinite(solution.dv).all()
    assert np.abs(solution.values).max() > 7e307


class TestValueFiles:
    def test_round_trip(self, solved, tmp_path):
        sol = solved("table2_once")
        path = tmp_path / "values.txt"
        export_values(sol, path)
        loaded = import_values(path, scenario=sol.scenario)
        assert len(loaded.rows) == 160
        assert loaded.scenario.user_names == ("alice", "bob")
        assert loaded.scenario.resource_names == ("low", "high")
        for i, row in enumerate(loaded.rows):
            assert row.dv_deny == pytest.approx(sol.dv[0, i], rel=1e-11, abs=1e-11)
            assert row.dv_allow == pytest.approx(sol.dv[1, i], rel=1e-11, abs=1e-11)
            assert row.action == sol.policy.action(i).label
        # a second export of the reloaded data would be byte-identical
        export_values(sol, tmp_path / "again.txt")
        assert (tmp_path / "again.txt").read_text() == path.read_text()

    def test_a_loaded_table_is_its_scenario_and_its_rows(self, solved, tmp_path):
        # the labels and the shape of a loaded table are its scenario's, held once
        sol = solved("table2_once")
        loaded = import_values(exported(sol, tmp_path), scenario=sol.scenario)
        assert [f.name for f in dataclasses.fields(LoadedValues)] == ["scenario", "rows"]
        assert loaded.scenario is sol.scenario

    def test_lookup(self, solved, tmp_path):
        sol = solved("table1")
        path = tmp_path / "values.txt"
        export_values(sol, path)
        row = import_values(path, scenario=sol.scenario).lookup("calm", 0, "bob", "high")
        assert row.action == "deny"
        assert row.dv_allow == pytest.approx(-10)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("ACMDP-VALUES v99\nabcd\n")
        with pytest.raises(ValueFileError, match="header"):
            import_values(path, scenario=builtin_scenario("table1"))

    def test_incomplete_table(self, solved, tmp_path):
        sol = solved("table1")
        path = tmp_path / "values.txt"
        export_values(sol, path)
        lines = path.read_text().splitlines()
        (tmp_path / "short.txt").write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ValueFileError, match="incomplete"):
            import_values(tmp_path / "short.txt", scenario=sol.scenario)

    def test_malformed_row_reports_line(self, solved, tmp_path):
        # the exported table's own header and fingerprint, then a broken first row
        sol = solved("table1")
        lines = exported(sol, tmp_path).read_text().splitlines()
        path = tmp_path / "bad.txt"
        path.write_text("\n".join([*lines[:2], "calm,0,alice,low,not-a-number", *lines[3:]]))
        with pytest.raises(ValueFileError) as err:
            import_values(path, scenario=sol.scenario)
        assert err.value.line == 3

    def test_fingerprint_mismatch(self, solved, tmp_path):
        sol = solved("table1")
        path = tmp_path / "values.txt"
        export_values(sol, path)
        with pytest.raises(ValueFileError, match="fingerprint"):
            import_values(path, scenario=builtin_scenario("table2_all"))

    def test_missing_fingerprint(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text(f"{FILE_HEADER}\n\n")
        with pytest.raises(ValueFileError, match="missing scenario fingerprint") as err:
            import_values(path, scenario=builtin_scenario("table1"))
        assert err.value.line == 2

    @pytest.mark.parametrize(
        "field, text, message",
        [
            (0, "storm", "expected state (calm, 0, bob, high), found (storm, 0, bob, high)"),
            (5, "grant", "bad action label 'grant'"),
            (4, "one", "malformed row"),
            (1, "x", "expected state (calm, 0, bob, high), found (calm, x, bob, high)"),
            (4, "nan", "non-finite number"),
            (7, "infinity", "non-finite number"),
            (2, "eps", "expected state (calm, 0, bob, high), found (calm, 0, eps, high)"),
            (3, "eps", "expected state (calm, 0, bob, high), found (calm, 0, bob, eps)"),
            (0, " calm ", "expected state (calm, 0, bob, high), found ( calm , 0, bob, high)"),
            (1, "0 ", "expected state (calm, 0, bob, high), found (calm, 0 , bob, high)"),
            (5, " deny", "bad action label ' deny'"),
        ],
        ids=[
            "storm", "grant", "value one", "set x", "value nan", "dv_allow infinity",
            "eps user", "eps resource", "padded emergency", "padded set", "padded action",
        ],
    )
    def test_an_edited_field_is_refused_at_its_line(self, solved, tmp_path, field, text, message):
        # one field of the (calm, 0, bob, high) row, line 6 of table2_once's table
        sol = solved("table2_once")
        lines = exported(sol, tmp_path).read_text().splitlines()
        fields = lines[5].split(",")
        assert fields[:4] == ["calm", "0", "bob", "high"]
        fields[field] = text
        lines[5] = ",".join(fields)
        path = tmp_path / "edited.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueFileError, match=re.escape(message)) as err:
            import_values(path, scenario=sol.scenario)
        assert err.value.line == 6

    @pytest.mark.parametrize(
        "field, spelling, message",
        [
            (1, "0_0", "expected state (calm, 0, alice, low), found (calm, 0_0, alice, low)"),
            # ARABIC-INDIC DIGIT ZERO
            (1, "\u0660", "expected state (calm, 0, alice, low), found (calm, \u0660, alice, low)"),
            (1, "+0", "expected state (calm, 0, alice, low), found (calm, +0, alice, low)"),
            (1, "00", "expected state (calm, 0, alice, low), found (calm, 00, alice, low)"),
            (4, "{}_0", "malformed row"),
            (4, "1_0", "malformed row"),
            (6, "{}\u0660", "malformed row"),
            (7, "\uff11{}", "malformed row"),  # FULLWIDTH DIGIT ONE
        ],
        ids=[
            "set 0_0", "arabic-indic set", "signed set", "zero-padded set", "value _0", "1_0",
            "dv_deny", "dv_allow",
        ],
    )
    def test_spellings_export_never_writes_are_refused(
        self, solved, tmp_path, field, spelling, message
    ):
        # int() and float() read each of these as a number, the set index as
        # set 0; export_values writes str(k) and %.12g
        sol = solved("table2_once")
        lines = exported(sol, tmp_path).read_text().splitlines()
        fields = lines[2].split(",")
        fields[field] = spelling.format(fields[field])
        lines[2] = ",".join(fields)
        path = tmp_path / "edited.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValueFileError, match=re.escape(message)) as err:
            import_values(path, scenario=sol.scenario)
        assert err.value.line == 3

    def test_blank_lines_inside_a_table_are_skipped(self, solved, tmp_path):
        # an empty line and a line of spaces among the rows import to the same
        # rows; a broken row after them is refused at its line in the file
        sol = solved("table2_once")
        lines = exported(sol, tmp_path).read_text().splitlines()
        rows = import_values(tmp_path / "values.txt", scenario=sol.scenario).rows
        lines[10:10], lines[51:51] = [""], ["   "]
        path = tmp_path / "blank.txt"
        path.write_text("\n".join(lines) + "\n")
        assert import_values(path, scenario=sol.scenario).rows == rows
        fields = lines[80].split(",")
        fields[5] = "grant"
        lines[80] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueFileError, match="bad action label 'grant'") as err:
            import_values(path, scenario=sol.scenario)
        assert err.value.line == 81

    def test_a_leading_byte_order_mark_is_ignored(self, solved, tmp_path):
        # an editor may save the table as UTF-8 with a BOM; it imports to the same rows
        sol = solved("table2_once")
        path = exported(sol, tmp_path)
        bom = tmp_path / "bom.txt"
        bom.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        plain = import_values(path, scenario=sol.scenario)
        loaded = import_values(bom, scenario=sol.scenario)
        assert loaded.scenario is plain.scenario
        assert loaded.rows == plain.rows

    def test_an_action_its_decision_values_rule_out_is_refused(self, solved, tmp_path):
        # allow where deny's decision value is higher: eval would serve it
        sol = solved("table2_once")
        lines = exported(sol, tmp_path).read_text().splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith("calm,0,bob,high,"))
        fields = lines[at].split(",")
        assert fields[5] == "deny"
        fields[5] = "allow"
        lines[at] = ",".join(fields)
        path = tmp_path / "edited.txt"
        path.write_text("\n".join(lines) + "\n")
        message = f"action allow contradicts dv_deny {fields[6]} and dv_allow {fields[7]}"
        with pytest.raises(ValueFileError, match=re.escape(message)) as err:
            import_values(path, scenario=sol.scenario)
        assert err.value.line == at + 1

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    @pytest.mark.parametrize("solver", SOLVERS)
    def test_every_builtin_table_imports(self, solved, tmp_path, name, solver):
        sol = solved(name, solver)
        loaded = import_values(exported(sol, tmp_path), scenario=sol.scenario)
        assert [row.action for row in loaded.rows] == [
            sol.policy.action(i).label for i in range(len(loaded.rows))
        ]
        # exported tables of the 7 builtins and 576 random models reach at most 0.19 of it
        assert residual_share(sol.system, loaded.rows) < 0.5

    @pytest.mark.parametrize(
        "dv_allow, imports",
        [
            # 12 digits of 500 print to 1e-9, and rounding moves a gap by up to
            # 5e-12 * 1000 = 5e-9: true gaps in [VERIFY_TOL - 5e-9, VERIFY_TOL + 5e-9]
            # could have printed as these, with either action
            ("499.999999997", ("deny", "allow")),
            ("500", ("deny", "allow")),
            ("500.000000006", ("deny", "allow")),
            # beyond twice that bound only one action is possible
            ("499.99999998", ("deny",)),
            ("500.00000002", ("allow",)),
        ],
    )
    def test_a_gap_within_rounding_of_the_tie_tolerance_imports(
        self, solved, tmp_path, dv_allow, imports
    ):
        # the action check reads only the row and runs first: an action it lets
        # through reaches the certificate, which refuses decision values the
        # table's values do not give
        sol = solved("table2_once")
        lines = exported(sol, tmp_path).read_text().splitlines()
        for action in ("deny", "allow"):
            fields = lines[2].split(",")
            fields[5:8] = [action, "500", dv_allow]
            path = tmp_path / "edited.txt"
            path.write_text("\n".join([*lines[:2], ",".join(fields), *lines[3:]]) + "\n")
            if action in imports:
                message = "state (calm, 0, alice, low): the table's values give dv_deny"
            else:
                message = f"action {action} contradicts"
            with pytest.raises(ValueFileError, match=re.escape(message)) as err:
                import_values(path, scenario=sol.scenario)
            assert err.value.line == 3

    @pytest.mark.parametrize(
        "edits",
        [
            # the row's value, action and decision values agree with each other
            {5: "calm,0,bob,high,9,allow,-1.5,9"},
            # and a huge value of a state no row reads, which widens no row's bound
            {5: "calm,0,bob,high,9,allow,-1.5,9", 7: "calm,1,alice,low,1e300,{}"},
        ],
        ids=["consistent edit", "and a huge unread value"],
    )
    def test_decision_values_its_values_do_not_give_are_refused(self, solved, tmp_path, edits):
        sol = solved("table2_once")
        lines = exported(sol, tmp_path).read_text().splitlines()
        for at, row in edits.items():
            rest = lines[at].split(",", 5)
            assert rest[:4] == row.split(",")[:4]
            lines[at] = row.format(rest[5])
        path = tmp_path / "edited.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueFileError) as err:
            import_values(path, scenario=sol.scenario)
        assert err.value.line == 6
        assert str(err.value).startswith(
            "line 6: state (calm, 0, bob, high): the table's values give dv_deny "
        )
        assert str(err.value).endswith(", but its row has -1.5 and 9")
        lines[3:3] = [""]  # a blank line is skipped, and the row's line counts it
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueFileError, match="^line 7: state \\(calm, 0, bob, high\\)"):
            import_values(path, scenario=sol.scenario)

    @pytest.mark.parametrize("edit", ["forged", "shifted", "forged, huge"])
    def test_values_that_are_not_optimal_are_refused(self, solved, tmp_path, edit):
        sol = solved("table2_once")
        path = not_optimal(sol, tmp_path, edit)
        lines = path.read_text().splitlines()
        with pytest.raises(ValueFileError) as err:
            import_values(path, scenario=sol.scenario)
        said = re.fullmatch(
            r"line (\d+): state \((.*)\): its value (\S+) is not the larger of its decision "
            r"values (\S+) and (\S+)",
            str(err.value),
        )
        assert said is not None and int(said[1]) == err.value.line
        # the row named is the line's, and its numbers are the line's
        fields = lines[err.value.line - 1].split(",")
        assert fields[:4] == said[2].split(", ")
        assert [float(x) for x in said.groups()[2:]] == [float(fields[i]) for i in (4, 6, 7)]
        if edit == "forged, huge":
            assert err.value.line == 8

    def test_exponents_are_read(self, solved, tmp_path):
        # %.12g exports write large and small numbers with an exponent; a sign and a
        # capital E are read too.  The first row's numbers respelled to the same 12
        # digits import to the same rows
        sol = solved("table2_once")
        path = exported(sol, tmp_path)
        lines = path.read_text().splitlines()
        fields = lines[2].split(",")
        for i, spelling in ((4, "%+.11e"), (6, "%+.11E"), (7, "%+.11e")):
            fields[i] = spelling % float(fields[i])
        lines[2] = ",".join(fields)
        edited = tmp_path / "edited.txt"
        edited.write_text("\n".join(lines) + "\n")
        want = import_values(path, scenario=sol.scenario).rows
        assert import_values(edited, scenario=sol.scenario).rows == want

    def test_a_scenario_is_required(self, solved, tmp_path):
        # every table is read against the scenario it was solved from
        path = exported(solved("table2_once"), tmp_path)
        with pytest.raises(TypeError, match="scenario"):
            import_values(path)


def exported(solution, tmp_path, name="values.txt"):
    path = tmp_path / name
    export_values(solution, path)
    return path


def not_optimal(solution, directory, edit):
    """A copy of solution's table whose decision values are those its values give, and
    whose values are not optimal, by edit.

    forged adds 10 to the value of every state with bob:high granted, then
    writes the decision values and actions of those values; shifted adds 100
    to every value and 100 beta to every decision value; "forged, huge" also
    gives (calm, 1, alice, low), a state no row reads, the value 1e300.
    """
    sc, path = solution.scenario, directory / "edited.txt"
    if edit == "shifted":
        lines = exported(solution, directory).read_text().splitlines()
        for at in range(2, len(lines)):
            fields = lines[at].split(",")
            for i, add in ((4, 100.0), (6, 100.0 * sc.beta), (7, 100.0 * sc.beta)):
                fields[i] = f"{float(fields[i]) + add:.12g}"
            lines[at] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        return path
    k = set_insert(0, Access(1, 1), sc.dims)
    granted = [s[1] == k for s in state_labels(sc)]
    values = solution.values + 10.0 * np.array(granted)
    dv = decision_values(solution.system, values)
    edited = dataclasses.replace(solution, values=values, dv=dv, policy=extract_policy(dv))
    export_values(edited, path)
    if edit == "forged, huge":
        text = re.sub("(?m)^(calm,1,alice,low),[^,]*", r"\1,1e300", path.read_text(), count=1)
        path.write_text(text)
    return path


def residual_share(system, rows):
    """The largest |V - max dv| of a table's rows, each over the row's bound B_i.

    B_i = VERIFY_TOL + PRINT_TOL (|V_i| + max|dv_i| + max_a beta (P^a |V|)_i) plus
    rounding_allowance of the table's decision values, with P^a assembled.
    """
    values = np.array([row.value for row in rows])
    dv = np.array([[row.dv_deny for row in rows], [row.dv_allow for row in rows]])
    reach = system.beta * np.array([mat @ np.abs(values) for mat in system.transitions])
    bound = VERIFY_TOL + PRINT_TOL * (np.abs(values) + np.abs(dv).max(0) + reach.max(0))
    bound += rounding_allowance(dv, system.beta)
    return float((np.abs(values - dv.max(0)) / bound).max())


def labels(row):
    """The state a value-table row describes: (emergency, set, user, resource)."""
    return row.emergency, row.set_index, row.req_user, row.req_resource


def assert_refused(table, query):
    """lookup raises KeyError naming the query, for a state the table lacks."""
    message = "no state ({}, {}, {}, {}) in table".format(*query)
    with pytest.raises(KeyError) as err:
        table.lookup(*query)
    assert err.value.args == (message,)


def scan(rows, emergency, set_index, req_user, req_resource):
    """The row a linear scan finds: the reference for LoadedValues.lookup."""
    for row in rows:
        if labels(row) == (emergency, set_index, req_user, req_resource):
            return row
    raise AssertionError("state not in table")


class TestStateLabels:
    @pytest.mark.parametrize("users,resources", [(2, 2), (2, 3), (1, 1)])
    def test_follow_state_index(self, users, resources):
        sc = small_scenario(users, resources, "once", "eps_zero")
        dims, user_names, resource_names = sc.dims, sc.user_names, sc.resource_names
        labels = list(state_labels(sc))
        assert len(labels) == dims.num_states
        for i, (emergency, k, user, resource) in enumerate(labels):
            s = dims.index_state(i)
            req = ("eps", "eps") if s.request is None else (
                user_names[s.request.user], resource_names[s.request.resource]
            )
            assert (emergency, k, user, resource) == (s.emergency.label, s.granted, *req)


class TestLookup:
    @pytest.fixture
    def table_2x2(self, solved, tmp_path):
        sol = solved("table2_once")
        return import_values(exported(sol, tmp_path), scenario=sol.scenario)

    def test_every_state_of_2x2(self, table_2x2):
        assert len(table_2x2.rows) == 160
        for row in table_2x2.rows:
            assert table_2x2.lookup(*labels(row)) == scan(table_2x2.rows, *labels(row))

    def test_random_states_of_2x3(self, tmp_path):
        sol = solve_scenario(small_scenario(2, 3, "all", "eps_zero"), solver="vi")
        table = import_values(exported(sol, tmp_path), scenario=sol.scenario)
        assert len(table.rows) == 896
        requests = [("eps", "eps")] + [(u, r) for u in ("u0", "u1") for r in ("r0", "r1", "r2")]
        rng = random.Random(11)
        for _ in range(500):
            query = (rng.choice(["calm", "alert"]), rng.randrange(64), *rng.choice(requests))
            row = table.lookup(*query)
            assert row == scan(table.rows, *query)
            i = sol.system.space.state_index(
                State(
                    Emergency[query[0].upper()],
                    query[1],
                    None if query[2] == "eps" else Access(int(query[2][1]), int(query[3][1])),
                )
            )
            assert row.value == pytest.approx(sol.values[i], rel=1e-11, abs=1e-11)

    @pytest.mark.parametrize(
        "query",
        [
            ("calm", 0, "carol", "high"),
            ("calm", 0, "alice", "mail"),
            ("calm", 0, "eps", "high"),
            ("calm", 0, "alice", "eps"),
            ("calm", 16, "alice", "high"),
            ("calm", -1, "alice", "high"),
            ("storm", 0, "alice", "high"),
        ],
    )
    def test_unknown_state_raises_key_error(self, table_2x2, query):
        assert_refused(table_2x2, query)

    @random_scenarios(20)
    def test_every_row_is_found_by_its_labels(
        self, tmp_path_factory, users, resources, behavior, variant, rates, beta, seed
    ):
        sc = small_scenario(users, resources, behavior, variant, rates, beta, seed)
        path = exported(solve_scenario(sc, "vi"), tmp_path_factory.mktemp("lookup"))
        table = import_values(path, scenario=sc)
        for row in table.rows:
            emergency, k, user, resource = labels(row)
            assert table.lookup(emergency, k, user, resource) is row
            assert scan(table.rows, emergency, k, user, resource) is row
            assert table.lookup(emergency, np.int64(k), user, resource) is row
        for query in [
            ("calm", -1, "u0", "r0"),
            ("alert", np.int64(-1), "eps", "eps"),
            ("alert", table.scenario.dims.num_sets, "u0", "r0"),
            ("calm", np.int64(table.scenario.dims.num_sets), "eps", "eps"),
            ("storm", 0, "u0", "r0"),
            ("calm", 0, f"u{users}", "r0"),
            ("alert", 0, "u0", f"r{resources}"),
            ("calm", 0, "eps", "r0"),
            ("alert", 0, "u0", "eps"),
        ]:
            assert_refused(table, query)

    def test_loaded_rows_cannot_be_changed(self, solved, tmp_path):
        sol = solved("table2_once")
        table = import_values(exported(sol, tmp_path), scenario=sol.scenario)
        row = next(row for row in table.rows if row.action == "deny")
        hash(row)
        with pytest.raises(AttributeError):
            row.action = "allow"
        assert table.lookup(*labels(row)) is row
        assert row.action == "deny"

    def test_rows_out_of_state_order(self, table_2x2):
        # the index is keyed by each row's labels, not by its position
        rows = list(table_2x2.rows)
        random.Random(5).shuffle(rows)
        assert rows != table_2x2.rows
        shuffled = LoadedValues(table_2x2.scenario, rows)
        for row in table_2x2.rows:
            assert shuffled.lookup(*labels(row)) is row


class TestRowOrder:
    """import_values refuses a table unless row i is state i."""

    @pytest.fixture
    def lines(self, solved, tmp_path):
        return exported(solved("table2_once"), tmp_path).read_text().splitlines()

    def refused(self, tmp_path, lines):
        path = tmp_path / "edited.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueFileError) as err:
            import_values(path, scenario=builtin_scenario("table2_once"))
        return err.value

    def test_duplicated_row(self, tmp_path, lines):
        # state 4, (calm, 0, eps, eps), is on line 7; a copy of state 3 replaces it
        assert lines[6].startswith("calm,0,eps,eps,")
        lines[6] = lines[5]
        err = self.refused(tmp_path, lines)
        assert err.line == 7
        assert "expected state (calm, 0, eps, eps), found (calm, 0, bob, high)" in str(err)

    def test_missing_row(self, tmp_path, lines):
        del lines[6]
        err = self.refused(tmp_path, lines)
        assert err.line == 7
        assert "found (calm, 1, alice, low)" in str(err)

    def test_shuffled_rows(self, tmp_path, lines):
        # (calm, 0, bob, low) moved to the top
        lines.insert(2, lines.pop(4))
        err = self.refused(tmp_path, lines)
        assert err.line == 3
        assert "expected state (calm, 0, alice, low), found (calm, 0, bob, low)" in str(err)

    def test_extra_row(self, tmp_path, lines):
        lines.append(lines[-1])
        err = self.refused(tmp_path, lines)
        assert err.line == 163
        assert "extra row" in str(err)


# characters a hand edit or a tool may leave in a table: a BOM, CR, NBSP and full-width
# digits, which export_values never writes, and text it writes only in some places
EDIT_CHARS = ["\ufeff", "\r", "\xa0", "\uff10", "\uff11", "_", "+", "0", " ", ",", "\n"]
_EXPORTS = {}


def exported_model(tmp_path_factory, users, resources, behavior, seed):
    """A small random model, the path of its exported table, and each row's state and
    action, memoized across examples."""
    key = users, resources, behavior, seed
    if key not in _EXPORTS:
        sc = small_scenario(users, resources, behavior, "eps_zero", seed=seed)
        path = exported(solve_scenario(sc, "vi"), tmp_path_factory.mktemp("table"))
        rows = import_values(path, scenario=sc).rows
        _EXPORTS[key] = sc, path, [(*row[:4], row.action) for row in rows]
    return _EXPORTS[key]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    model=st.tuples(
        st.integers(1, 2), st.integers(1, 2), st.sampled_from(["unique", "once", "all"]),
        st.integers(0, 3),
    ),
    edit=st.sampled_from(["insert", "delete", "replace"]),
    where=st.floats(0.0, 1.0, exclude_max=True),
    char=st.one_of(st.sampled_from(EDIT_CHARS), st.characters(blacklist_categories=("Cs",))),
)
def test_a_one_character_edit_is_refused_or_keeps_every_state_and_action(
    tmp_path_factory, model, edit, where, char
):
    # the reader accepts only the writer's text for a row's state and action,
    # so an edited table is refused at a line or has the same states and actions
    sc, path, want = exported_model(tmp_path_factory, *model)
    text = path.read_text(encoding="utf-8")
    at = int(where * len(text))
    edited = text[:at] + ("" if edit == "delete" else char) + text[at + (edit != "insert") :]
    edited_path = path.with_name("edited.txt")
    edited_path.write_text(edited, encoding="utf-8")
    try:
        rows = import_values(edited_path, scenario=sc).rows
    except ValueFileError as err:
        assert 1 <= err.line <= len(edited.splitlines())
        assert str(err).startswith(f"line {err.line}: ")
    else:
        assert [(*row[:4], row.action) for row in rows] == want
        assert state_and_action_text(edited) == state_and_action_text(text)


def state_and_action_text(text):
    """Each row's state and action fields, as the file spells them."""
    rows = [line.split(",") for line in text.splitlines()[2:] if line.strip()]
    return [fields[:4] + fields[5:6] for fields in rows]
