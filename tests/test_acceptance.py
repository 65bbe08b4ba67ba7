"""End-to-end acceptance suite.

Each test prints one PASS line when its criterion holds; tolerances are
fixed here and must not be widened.  Criterion 4 (the once behaviour)
prints a computed-vs-target comparison on failure instead of silently
retuning the request distribution.
"""

import dataclasses
import time

import numpy as np
import pytest

from acmdp import (
    Access,
    Action,
    BUILTIN_NAMES,
    Emergency,
    ModelDims,
    State,
    builtin_scenario,
    compile_system,
    decision_values,
    export_values,
    import_values,
    parse_scenario,
    render_scenario,
    solve_scenario,
    validate_stochastic,
    verify_solution,
)
from acmdp.experiments import SweepSpec, run_sweep
from acmdp.value_iteration import value_iterate

from conftest import empty_set_grid
from oracle import all_states

BOB_HIGH = Access(1, 1)

# column order (alice,low), (alice,high), (bob,low), (bob,high)
TABLE_1 = {
    ("calm", "deny"): [0, 0, 0, 0],
    ("calm", "allow"): [6, 10, 4, -10],
    ("alert", "deny"): [-20, -20, -20, -20],
    ("alert", "allow"): [-14, 10, -16, -10],
}
TABLE_2_UNIQUE = {
    ("calm", "deny"): [-2, -2, -2, -2],
    ("calm", "allow"): [4, 10, 2, -10],
    ("alert", "deny"): [-20, -20, -20, -20],
    ("alert", "allow"): [-14, 10, -16, -10],
}
TABLE_2_ONCE = {
    ("calm", "deny"): [2.63, 2.63, 2.63, 2.63],
    ("calm", "allow"): [7.58, 14.15, 6.41, -1.59],
    ("alert", "deny"): [-23.54, -23.54, -23.54, -23.54],
    ("alert", "allow"): [-15.54, 14.15, -16.70, -1.59],
}
TABLE_2_ALL = {
    ("calm", "deny"): [34.80, 34.80, 34.80, 34.80],
    ("calm", "allow"): [40.80, 55, 38.80, 35],
    ("alert", "deny"): [4.55, 4.55, 4.55, 4.55],
    ("alert", "allow"): [10.55, 55, 8.55, 35],
}


def assert_grid(solution, table, tol, label):
    grid = empty_set_grid(solution)
    mismatches = []
    for key, targets in table.items():
        for got, want in zip(grid[key], targets):
            if abs(got - want) > tol:
                mismatches.append(f"  {key}: computed {got:.4f}, target {want}")
    if mismatches:
        report = "\n".join(
            [f"{label}: computed values do not match the reference table:"]
            + mismatches
        )
        pytest.fail(report)


def test_criterion_1_table1_exact():
    start = time.perf_counter()
    for solver in ("lp", "vi"):
        assert_grid(
            solve_scenario(builtin_scenario("table1"), solver), TABLE_1, 1e-9,
            f"table1/{solver}",
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 0.1
    print(f"PASS criterion 1: table 1 exact (both solvers, {elapsed:.3f}s)")


def test_criterion_2_table2_unique():
    assert_grid(
        solve_scenario(builtin_scenario("table2_unique"), "lp"),
        TABLE_2_UNIQUE,
        0.005,
        "table2_unique",
    )
    print("PASS criterion 2: table 2 unique rows within 0.005")


def test_criterion_3_table2_all():
    assert_grid(
        solve_scenario(builtin_scenario("table2_all"), "lp"),
        TABLE_2_ALL,
        0.005,
        "table2_all",
    )
    print("PASS criterion 3: table 2 all rows within 0.005")


def test_criterion_4_table2_once():
    assert_grid(
        solve_scenario(builtin_scenario("table2_once"), "lp"),
        TABLE_2_ONCE,
        0.01,
        "table2_once",
    )
    print("PASS criterion 4: table 2 once rows within 0.01")


def test_criterion_5_modified_variant():
    def dv_at(solution, act):
        space = solution.system.space
        i = space.state_index(State(Emergency.CALM, 0, BOB_HIGH))
        return solution.dv[int(act), i]

    unique = solve_scenario(builtin_scenario("modified_unique"), "vi")
    assert dv_at(unique, Action.DENY) == pytest.approx(-105.26, abs=0.01)
    assert dv_at(unique, Action.ALLOW) == pytest.approx(-10, abs=1e-6)

    once = solve_scenario(builtin_scenario("modified_once"), "vi")
    assert dv_at(once, Action.DENY) == pytest.approx(-32.35, abs=0.01)
    assert dv_at(once, Action.ALLOW) == pytest.approx(-1.59, abs=0.01)

    table2_all = solve_scenario(builtin_scenario("table2_all"), "vi")
    modified_all = solve_scenario(builtin_scenario("modified_all"), "vi")
    # under the all behaviour the concrete-request states never reach an
    # empty request, so their decision values cannot depend on the variant
    concrete = np.array(
        [s.request is not None for s in all_states(table2_all.system.space)], dtype=bool
    )
    assert np.max(np.abs(table2_all.dv[:, concrete] - modified_all.dv[:, concrete])) <= 1e-6
    print("PASS criterion 5: modified reward variant (-105.26, -32.35, all unchanged)")


def test_criterion_6_crossovers():
    start = time.perf_counter()
    roots = {}
    for behavior in ("unique", "once", "all"):
        spec = SweepSpec(builtin_scenario(f"table2_{behavior}"))
        result = run_sweep(spec, solver="vi")
        crossover = result.crossovers[3]  # (bob, high)
        assert crossover.access == BOB_HIGH
        roots[behavior] = crossover.root
        # the closed form for unique: allow - deny = 20q - 10
        if behavior == "unique":
            for point in result.points:
                diff = point.dv[1, 3] - point.dv[0, 3]
                assert diff == pytest.approx(20 * point.probability - 10, abs=1e-7)
    elapsed = time.perf_counter() - start
    assert roots["unique"] == pytest.approx(0.5, abs=1e-3)
    assert 0.18 <= roots["once"] <= 0.20
    assert 0.09 < roots["all"] < 0.10
    assert elapsed < 20.0
    print(
        f"PASS criterion 6: crossovers unique={roots['unique']:.4f} "
        f"once={roots['once']:.4f} all={roots['all']:.4f} ({elapsed:.1f}s)"
    )


def test_criterion_7_oracle_equivalence():
    for name in BUILTIN_NAMES:
        lp = solve_scenario(builtin_scenario(name), "lp")
        vi = solve_scenario(builtin_scenario(name), "vi")
        gap = np.max(np.abs(lp.values - vi.values))
        assert gap <= 1e-6, f"{name}: sup-norm gap {gap}"
        confident = lp.policy.gaps > 1e-5
        assert np.array_equal(
            lp.policy.actions[confident], vi.policy.actions[confident]
        ), f"{name}: confident policies disagree"
    print("PASS criterion 7: LP and VI agree on every builtin (<= 1e-6, policies match)")


def test_criterion_8_lp_optimality_structure():
    for name in BUILTIN_NAMES:
        solution = solve_scenario(builtin_scenario(name), "lp")
        # priced afresh, not from solution.dv, so the check is independent of the solve
        dv = decision_values(solution.system, solution.values)
        report = verify_solution(solution.values, dv)
        assert report.max_violation <= 1e-9, f"{name}: violation {report.max_violation}"
        assert report.max_min_slack <= 1e-7, f"{name}: loose state {report.max_min_slack}"
    print("PASS criterion 8: every builtin LP is feasible and tight everywhere")


def test_criterion_9_property_suite():
    # state-index bijection
    for dims in (ModelDims(2, 2), ModelDims(3, 2)):
        assert all(dims.state_index(dims.index_state(i)) == i for i in range(dims.num_states))

    # transition stochasticity, all behaviours
    for behavior in ("unique", "once", "all"):
        assert validate_stochastic(compile_system(builtin_scenario(f"table2_{behavior}"))) == []

    # positive scaling
    base = solve_scenario(builtin_scenario("table2_once"), "vi")
    for c in (0.5, 2.0, 10.0):
        sc = base.scenario
        scaled = dataclasses.replace(
            sc,
            reward_access=tuple(c * v for v in sc.reward_access),
            reward_resource=tuple(c * v for v in sc.reward_resource),
        )
        sol = solve_scenario(scaled, "vi")
        assert np.allclose(sol.values, c * base.values, rtol=1e-7, atol=1e-7)
        assert np.array_equal(sol.policy.actions, base.policy.actions)

    # constant shift of every transition reward by c moves values by c/(1-beta)
    shift = 3.0
    system = solve_scenario(builtin_scenario("table2_all"), "vi").system
    shifted_q = system.q + shift
    shifted = dataclasses.replace(system, q=shifted_q)
    shifted_values, _ = value_iterate(shifted)
    base_values, _ = value_iterate(system)
    expected = base_values + shift / (1.0 - system.beta)
    assert np.max(np.abs(shifted_values - expected)) <= 1e-7

    # eps-accrues geometric series in the absorbing alert state
    for beta in (0.5, 0.9):
        sc = dataclasses.replace(builtin_scenario("modified_unique"), beta=beta)
        sol = solve_scenario(sc, "vi")
        i = sol.system.space.state_index(State(Emergency.ALERT, 0, None))
        assert sol.values[i] == pytest.approx(-20 / (1 - beta), abs=1e-6)
    print("PASS criterion 9: bijection, stochasticity, scaling, shift, geometric series")


def test_criterion_10_round_trips(tmp_path):
    for name in BUILTIN_NAMES:
        sc = builtin_scenario(name)
        assert parse_scenario(render_scenario(sc)) == sc

    solution = solve_scenario(builtin_scenario("table2_once"), "lp")
    path = tmp_path / "values.txt"
    export_values(solution, path)
    loaded = import_values(path, scenario=solution.scenario)
    for i, row in enumerate(loaded.rows):
        assert row.value == pytest.approx(solution.values[i], rel=1e-11, abs=1e-11)
        assert row.dv_deny == pytest.approx(solution.dv[0, i], rel=1e-11, abs=1e-11)
        assert row.dv_allow == pytest.approx(solution.dv[1, i], rel=1e-11, abs=1e-11)
        assert row.action == solution.policy.action(i).label
    print("PASS criterion 10: scenario and value-table round trips")
