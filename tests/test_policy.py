import dataclasses
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import lattice_solve, oracle_compile
from scipy import sparse
from scipy.sparse.linalg import spsolve
from test_bellman import small_scenario
from test_dynamics import clear_shape_caches

import acmdp.bellman
import acmdp.policy
import acmdp.value_iteration
from acmdp import (
    Access,
    Action,
    BUILTIN_NAMES,
    Emergency,
    EmergencyMatrix,
    ModelDims,
    RequestBehavior,
    RewardTables,
    RewardVariant,
    Scenario,
    State,
    StateSpace,
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
    solve_scenario,
    value_iterate,
    verify_solution,
)
from acmdp.bellman import VERIFY_TOL, build_parts, rounding_allowance
from acmdp.dynamics import RequestDynamics
from acmdp.policy import (
    FILE_HEADER,
    SOLVERS,
    TIE_TOL,
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

    @pytest.mark.parametrize("name", ["table1", "table2_all"])
    def test_lp_solve_prices_each_basis_and_the_result(self, kernel_calls, name):
        # a basis takes one draw_table call for its 4 x 4 systems, then per
        # granted-set level one draw_table call for the right-hand side and
        # one price_table call for the level's decision values, the last of
        # which prices the basis; decision_values prices the result once
        solution = solve_scenario(builtin_scenario(name), "lp")
        levels = solution.scenario.dims.num_access_bits + 1
        bases = solution.iterations
        assert bases == (1 if name == "table1" else 2)
        assert kernel_calls == {
            "inside": 0,
            "outside": 1,
            "solves": 0,
            "backups": 0,
            "draw_table": bases * (levels + 1),
            "price_table": bases * levels,
        }

    def test_lp_start_is_priced_once(self, kernel_calls):
        # a start costs one decision_values call for the first policy; from
        # the optimal values that policy is optimal, so one basis follows
        system = compile_system(builtin_scenario("table2_all"))
        values, bases = policy_iterate(system)
        assert bases == 2
        again, bases = policy_iterate(system, start=values)
        levels = system.parts.scenario.dims.num_access_bits + 1
        assert bases == 1 and np.array_equal(again, values)
        assert kernel_calls == {
            "inside": 0,
            "outside": 1,
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

    def test_degenerate_rewards_deny_everywhere(self):
        sc = Scenario(
            user_names=("alice", "bob"),
            resource_names=("low", "high"),
            rewards=RewardTables(
                {(u, r): 0.0 for u in range(2) for r in range(2)}, (0.0, 0.0)
            ),
            emergency=EmergencyMatrix(0.1, 1.0),
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
            rewards=RewardTables(
                {k: 2.0 * v for k, v in sc.rewards.reward_access.items()},
                tuple(2.0 * v for v in sc.rewards.reward_resource),
            ),
            emergency=sc.emergency,
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
    """Value iteration's proven error, tol, plus the rounding of it and of the LU."""
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
    """Run a test on small_scenario's random 1x1 to 2x3 models, and on more's strategies."""
    return lambda test: settings(max_examples=max_examples, deadline=None)(
        given(
            users=st.integers(1, 2),
            resources=st.integers(1, 3),
            behavior=st.sampled_from(list(RequestBehavior)),
            variant=st.sampled_from(list(RewardVariant)),
            rates=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
            beta=st.one_of(st.just(0.0), st.floats(0.0, 0.99)),
            seed=st.integers(0, 2**16),
            **more,
        )(test)
    )


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
        assert np.array_equal(solution.policy.actions, np.where(q[1] > q[0] + TIE_TOL, 1, 0))

    def test_tol_bounds_the_final_violation(self):
        sc = builtin_scenario("table2_all")
        # the myopic basis is not optimal here; a tol above its violation keeps it
        myopic = solve_scenario(sc, "lp", tol=1e6)
        assert myopic.iterations == 1
        assert myopic.report.max_violation > 1e-9
        for tol in (1e-3, myopic.report.max_violation / 2):
            solution = solve_scenario(sc, "lp", tol=tol)
            assert solution.iterations > 1
            assert solution.report.max_violation <= tol

    @pytest.mark.parametrize("tol", [math.nan, -1.0])
    def test_nan_or_negative_tol_raises(self, tol):
        # a NaN tol would stop at the myopic basis, which is not optimal for
        # modified_once, and a negative one would spend every basis
        system = compile_system(builtin_scenario("modified_once"))
        with pytest.raises(ValueError, match=f"tol must be zero or positive, got {tol}"):
            policy_iterate(system, tol=tol)

    def test_unknown_solver_raises(self):
        # solve_system and run_sweep refuse a name by the one solver_function
        with pytest.raises(ValueError, match="unknown solver 'simplex'; expected 'lp' or 'vi'"):
            solve_scenario(builtin_scenario("table1"), "simplex")

    def test_basis_budget_raises_convergence_error(self, monkeypatch):
        system = compile_system(builtin_scenario("table2_all"))
        monkeypatch.setattr(acmdp.policy, "MAX_BASES", 1)
        with pytest.raises(ConvergenceError, match="no optimal policy basis within 1 bases"):
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
        penalties = list(sc.rewards.reward_resource)
        penalties[r] *= shrink
        smaller = dataclasses.replace(
            sc, rewards=RewardTables(sc.rewards.reward_access, tuple(penalties))
        )
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
        rewards = sc.rewards
        scaled = dataclasses.replace(
            sc,
            rewards=RewardTables(
                {k: c * v for k, v in rewards.reward_access.items()},
                tuple(c * v for v in rewards.reward_resource),
            ),
        )
        base, big = solve_scenario(sc, "lp"), solve_scenario(scaled, "lp")
        # c times the base solve and the scaled solve each lie within their
        # bound of the scaled model's exact values and decision values
        bound = c * dv_bound(base) + dv_bound(big)
        assert np.max(np.abs(big.values - c * base.values)) <= bound
        assert np.max(np.abs(big.dv - c * base.dv)) <= bound
        # a gap beyond TIE_TOL and twice its bound has the sign of the exact gap
        confident = (base.policy.gaps > TIE_TOL + 2 * dv_bound(base)) & (
            big.policy.gaps > TIE_TOL + 2 * dv_bound(big)
        )
        assert np.array_equal(base.policy.actions[confident], big.policy.actions[confident])


class TestLpBatch:
    """policy_iterate on a batch of systems that differ only in E."""

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_grid_columns_are_their_batches_of_one(self, name):
        sc = builtin_scenario(name)
        parts = build_parts(sc)
        alert_to_alert = sc.emergency.prob_alert_to_alert
        emergencies = [EmergencyMatrix(i / 100, alert_to_alert) for i in range(101)]
        values, bases = policy_iterate(parts.mix_batch(emergencies))
        alone = [policy_iterate(parts.mix_batch([e])) for e in emergencies]
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
        emergencies = [EmergencyMatrix(*r) for r in rates]
        values, _ = policy_iterate(parts.mix_batch(emergencies))
        assert values.shape == (len(parts.space), len(rates))
        for column, emergency in zip(values.T, emergencies):
            assert np.array_equal(column, policy_iterate(parts.mix_batch([emergency]))[0][:, 0])
            # and a single system is that batch of one
            single = compile_system(dataclasses.replace(sc, emergency=emergency))
            assert np.array_equal(column, policy_iterate(single)[0])

    def test_stopped_columns_leave_the_batch(self, monkeypatch):
        # each basis solves only the columns still running, and a column
        # returns the values it would return alone
        sc = small_scenario(2, 2, "once", "eps_accrues", rates=(0.1, 1.0), seed=25)
        parts = build_parts(sc)
        emergencies = [EmergencyMatrix(p, 1.0) for p in (0.0, 0.1, 0.2, 0.5)]
        alone = [policy_iterate(parts.mix_batch([e])) for e in emergencies]
        assert [b for _, b in alone] == [1, 2, 3, 1]
        price, widths = acmdp.policy.price_table, []

        def recorded(system, table):
            widths.append(table.shape[-1])
            return price(system, table)

        monkeypatch.setattr(acmdp.policy, "price_table", recorded)
        values, bases = policy_iterate(parts.mix_batch(emergencies))
        assert bases == 3
        # each basis prices its columns once per granted-set level
        levels = sc.dims.num_access_bits + 1
        assert widths == [4] * levels + [2] * levels + [1] * levels
        for column, (want, _) in zip(values.T, alone):
            assert np.array_equal(column, want[:, 0])

    def test_optimal_start_solves_in_one_basis(self):
        parts = build_parts(builtin_scenario("modified_once"))
        batch = parts.mix_batch([EmergencyMatrix(p, 1.0) for p in (0.0, 0.3, 1.0)])
        values, bases = policy_iterate(batch)
        assert bases == 2
        again, bases = policy_iterate(batch, start=values)
        assert bases == 1 and np.array_equal(again, values)

    def test_basis_budget_raises_convergence_error(self, monkeypatch):
        parts = build_parts(builtin_scenario("table2_all"))
        batch = parts.mix_batch([EmergencyMatrix(p, 1.0) for p in (0.0, 0.3)])
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
    def final_basis(system):
        """policy_iterate's values on system, and the allow mask of its last basis."""
        evaluate, bases = acmdp.policy.policy_evaluate, []

        def recorded(batch, policy):
            bases.append(policy[:, 0].copy())  # policy_iterate pivots the mask in place
            return evaluate(batch, policy)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(acmdp.policy, "policy_evaluate", recorded)
            values, count = policy_iterate(system)
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
    def test_random_policies_match_a_sparse_solve(
        self, users, resources, behavior, variant, rates, beta, seed, mask
    ):
        # both sides are exact solves of (I - beta P_pi) V = q_pi, built
        # apart, so they differ by no more than the rounding of each
        sc = small_scenario(users, resources, behavior, variant, rates, beta, seed)
        system = compile_system(sc)
        policy = random_policies(mask, system.num_states)
        dv = policy_evaluate(system, policy)
        values = np.where(policy, dv[1], dv[0])
        want = oracle_evaluate(sc, policy)
        bound = rounding_allowance(values, beta) + rounding_allowance(want, beta)
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
        emergencies = [EmergencyMatrix(*r) for r in rates]
        policies = random_policies(seed, (len(parts.space), len(rates)))
        dv = policy_evaluate(parts.mix_batch(emergencies), policies)
        assert dv.shape == (2, len(parts.space), len(rates))
        for g, emergency in enumerate(emergencies):
            alone = policy_evaluate(parts.mix_batch([emergency]), policies[:, g : g + 1])
            assert bitwise_equal(dv[..., g : g + 1], alone)

    def test_mask_of_wrong_shape_raises(self):
        system = compile_system(builtin_scenario("table2_all"))
        batch = system.parts.mix_batch([EmergencyMatrix.identity()] * 3)
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
        system = system.parts.mix_batch([EmergencyMatrix.identity()] * width)
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
        system = system.parts.mix_batch([EmergencyMatrix.identity()] * width)
    start = np.ones(system.q.shape[1:])
    start.flat[-1] = bad  # the last state of the last column

    def unstepped(*args):
        raise AssertionError("a solver step ran")

    monkeypatch.setattr(acmdp.value_iteration, "bellman_backup", unstepped)
    monkeypatch.setattr(acmdp.policy, "policy_evaluate", unstepped)
    with pytest.raises(ValueError, match="^start has a non-finite value$"):
        solve(system, start=start)


class TestValueFiles:
    def test_round_trip(self, solved, tmp_path):
        sol = solved("table2_once")
        path = tmp_path / "values.txt"
        export_values(sol, path)
        loaded = import_values(path, scenario=sol.scenario)
        assert len(loaded.rows) == 160
        assert loaded.user_names == ("alice", "bob")
        assert loaded.resource_names == ("low", "high")
        for i, row in enumerate(loaded.rows):
            assert row.dv_deny == pytest.approx(sol.dv[0, i], rel=1e-11, abs=1e-11)
            assert row.dv_allow == pytest.approx(sol.dv[1, i], rel=1e-11, abs=1e-11)
            assert row.action == sol.policy.action(i).label
        # a second export of the reloaded data would be byte-identical
        export_values(sol, tmp_path / "again.txt")
        assert (tmp_path / "again.txt").read_text() == path.read_text()

    def test_lookup(self, solved, tmp_path):
        sol = solved("table1")
        path = tmp_path / "values.txt"
        export_values(sol, path)
        row = import_values(path).lookup("calm", 0, "bob", "high")
        assert row.action == "deny"
        assert row.dv_allow == pytest.approx(-10)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("ACMDP-VALUES v99\nabcd\n")
        with pytest.raises(ValueFileError, match="header"):
            import_values(path)

    def test_incomplete_table(self, solved, tmp_path):
        sol = solved("table1")
        path = tmp_path / "values.txt"
        export_values(sol, path)
        lines = path.read_text().splitlines()
        (tmp_path / "short.txt").write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ValueFileError, match="incomplete"):
            import_values(tmp_path / "short.txt")

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text(f"{FILE_HEADER}\nabcd\ncalm,0,alice,low,not-a-number\n")
        with pytest.raises(ValueFileError) as err:
            import_values(path)
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
            import_values(path)
        assert err.value.line == 2

    @pytest.mark.parametrize(
        "row, message",
        [
            ("storm,0,alice,low,1,allow,0,1", "bad emergency label 'storm'"),
            ("calm,0,alice,low,1,grant,0,1", "bad action label 'grant'"),
            ("calm,0,alice,low,one,allow,0,1", "malformed row"),
            ("calm,x,alice,low,1,allow,0,1", "malformed row"),
            ("calm,0,alice,low,nan,allow,inf,-inf", "non-finite number"),
            ("calm,0,alice,low,1,allow,0,infinity", "non-finite number"),
            ("calm,0,eps,low,1,allow,0,1", "eps must appear in both request fields"),
            ("calm,0,alice,eps,1,allow,0,1", "eps must appear in both request fields"),
            ("calm,0,a:b,low,1,allow,0,1", "bad user label 'a:b'"),
            ("calm,0,alice,hi#gh,1,allow,0,1", "bad resource label 'hi#gh'"),
            ("calm,0,,low,1,allow,0,1", "bad user label ''"),
        ],
    )
    def test_refused_row_reports_its_line(self, tmp_path, row, message):
        # line 3 is a good row; the refusal is at line 4, the first to name
        # the label or carry the field
        path = tmp_path / "bad.txt"
        path.write_text(f"{FILE_HEADER}\nabcd\ncalm,0,eps,eps,1,deny,1,0\n{row}\n")
        with pytest.raises(ValueFileError, match=message) as err:
            import_values(path)
        assert err.value.line == 4

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
        lines[80] = "calm,0,alice,low,1,grant,0,1"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueFileError, match="bad action label 'grant'") as err:
            import_values(path, scenario=sol.scenario)
        assert err.value.line == 81

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
        for scenario in (None, sol.scenario):
            with pytest.raises(ValueFileError, match=re.escape(message)) as err:
                import_values(path, scenario=scenario)
            assert err.value.line == at + 1

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    @pytest.mark.parametrize("solver", SOLVERS)
    def test_every_builtin_table_imports(self, solved, tmp_path, name, solver):
        sol = solved(name, solver)
        loaded = import_values(exported(sol, tmp_path), scenario=sol.scenario)
        assert [row.action for row in loaded.rows] == [
            sol.policy.action(i).label for i in range(len(loaded.rows))
        ]

    @pytest.mark.parametrize(
        "dv_allow, imports",
        [
            # 12 digits of 500 print to 1e-9, and rounding moves a gap by up to
            # 5e-12 * 1000 = 5e-9: true gaps in [TIE_TOL - 5e-9, TIE_TOL + 5e-9]
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
        sol = solved("table2_once")
        lines = exported(sol, tmp_path).read_text().splitlines()
        for action in ("deny", "allow"):
            fields = lines[2].split(",")
            fields[5:8] = [action, "500", dv_allow]
            path = tmp_path / "edited.txt"
            path.write_text("\n".join([*lines[:2], ",".join(fields), *lines[3:]]) + "\n")
            if action in imports:
                assert import_values(path, scenario=sol.scenario).rows[0].action == action
            else:
                with pytest.raises(ValueFileError, match=f"action {action} contradicts") as err:
                    import_values(path, scenario=sol.scenario)
                assert err.value.line == 3

    def test_no_concrete_request(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text(f"{FILE_HEADER}\nabcd\ncalm,0,eps,eps,1,deny,1,0\n")
        with pytest.raises(ValueFileError, match="no concrete requests") as err:
            import_values(path)
        assert err.value.line == 3

    def test_inferred_model_past_the_cap(self, tmp_path):
        # four users and four resources need 16 access bits
        rows = [f"calm,0,u{i},r{i},1,deny,1,0" for i in range(4)]
        path = tmp_path / "bad.txt"
        path.write_text("\n".join([FILE_HEADER, "abcd", *rows]) + "\n")
        with pytest.raises(ValueFileError, match="16 bits, exceeding the cap of 12") as err:
            import_values(path)
        assert err.value.line == 3

    def test_exponents_are_read(self, solved, tmp_path):
        # %.12g exports write large and small numbers with an exponent
        lines = exported(solved("table2_once"), tmp_path).read_text().splitlines()
        fields = lines[2].split(",")
        fields[4:8] = ["1.5e+20", fields[5], "-2.5E-07", "3e2"]
        lines[2] = ",".join(fields)
        path = tmp_path / "edited.txt"
        path.write_text("\n".join(lines) + "\n")
        row = import_values(path).rows[0]
        assert (row.value, row.dv_deny, row.dv_allow) == (1.5e20, -2.5e-7, 300.0)


def exported(solution, tmp_path, name="values.txt"):
    path = tmp_path / name
    export_values(solution, path)
    return path


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
        space = StateSpace(ModelDims(users, resources))
        user_names = [f"u{i}" for i in range(users)]
        resource_names = [f"r{i}" for i in range(resources)]
        labels = list(state_labels(space, user_names, resource_names))
        assert len(labels) == len(space)
        for i, (emergency, k, user, resource) in enumerate(labels):
            s = space.index_state(i)
            req = ("eps", "eps") if s.request is None else (
                user_names[s.request.user], resource_names[s.request.resource]
            )
            assert (emergency, k, user, resource) == (s.emergency.label, s.granted, *req)


class TestLookup:
    @pytest.fixture
    def table_2x2(self, solved, tmp_path):
        return import_values(exported(solved("table2_once"), tmp_path))

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
        for table in (import_values(path), import_values(path, scenario=sc)):
            for row in table.rows:
                emergency, k, user, resource = labels(row)
                assert table.lookup(emergency, k, user, resource) is row
                assert scan(table.rows, emergency, k, user, resource) is row
                assert table.lookup(emergency, np.int64(k), user, resource) is row
            for query in [
                ("calm", -1, "u0", "r0"),
                ("alert", np.int64(-1), "eps", "eps"),
                ("alert", table.dims.num_sets, "u0", "r0"),
                ("calm", np.int64(table.dims.num_sets), "eps", "eps"),
                ("storm", 0, "u0", "r0"),
                ("calm", 0, f"u{users}", "r0"),
                ("alert", 0, "u0", f"r{resources}"),
                ("calm", 0, "eps", "r0"),
                ("alert", 0, "u0", "eps"),
            ]:
                assert_refused(table, query)

    def test_rows_out_of_state_order(self, table_2x2):
        # the index is keyed by each row's labels, not by its position
        rows = list(table_2x2.rows)
        random.Random(5).shuffle(rows)
        assert rows != table_2x2.rows
        shuffled = LoadedValues(
            table_2x2.fingerprint, table_2x2.user_names, table_2x2.resource_names, rows
        )
        for row in table_2x2.rows:
            assert shuffled.lookup(*labels(row)) is row


class TestRowOrder:
    """import_values refuses a table unless row i is state i."""

    @pytest.fixture
    def lines(self, solved, tmp_path):
        return exported(solved("table2_once"), tmp_path).read_text().splitlines()

    def refused(self, tmp_path, lines, scenario=None):
        path = tmp_path / "edited.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueFileError) as err:
            import_values(path, scenario=scenario)
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

    def test_shuffled_rows(self, solved, tmp_path, lines):
        # (calm, 0, bob, low) moved to the top: without a scenario the names are
        # read as bob, alice, so line 4 is the first row out of that order
        lines.insert(2, lines.pop(4))
        assert self.refused(tmp_path, lines).line == 4
        err = self.refused(tmp_path, lines, scenario=solved("table2_once").scenario)
        assert err.line == 3
        assert "expected state (calm, 0, alice, low), found (calm, 0, bob, low)" in str(err)

    def test_extra_row(self, tmp_path, lines):
        lines.append(lines[-1])
        err = self.refused(tmp_path, lines)
        assert err.line == 163
        assert "extra row" in str(err)
