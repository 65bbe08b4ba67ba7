import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from oracle import reference_bisect
from test_bellman import at_rate, small_scenario
from test_policy import near_the_float_maximum

import acmdp.bellman
import acmdp.dynamics
import acmdp.experiments
import acmdp.policy
from acmdp import BUILTIN_NAMES, Action, builtin_scenario
from acmdp.bellman import (
    VERIFY_TOL,
    VerificationReport,
    compile_system,
    decision_values,
    rounding_allowance,
)
from acmdp.experiments import (
    CHUNK_BYTES,
    GRID_SLACK,
    MAX_GRID_POINTS,
    SOLVER_ARRAYS,
    _first_crossing,
    SweepSpec,
    run_sweep,
    self_check,
    sweep_csv,
    sweep_series_names,
)
from acmdp.value_iteration import DEFAULT_TOL as VI_TOL

BOB_HIGH_POS = 3  # bit order: alice/low, alice/high, bob/low, bob/high
ONCE_ROOT = 0.18970940314837131  # where allow overtakes deny for (bob, high) under table2_once
# (root, bracket) of (bob, high), the one access that crosses, on each builtin's default grid
BUILTIN_CROSSOVERS = {
    "table1": (0.49996093750000004, (0.499921875, 0.5)),
    "table2_unique": (0.49996093750000004, (0.499921875, 0.5)),
    "table2_once": (0.1897265625, (0.1896875, 0.189765625)),
    "table2_all": (0.09644531249999999, (0.09640625, 0.096484375)),
    "modified_unique": (0.0052734374999999995, (0.0052343749999999994, 0.0053124999999999995)),
    "modified_once": (0.010820312499999998, (0.01078125, 0.010859375)),
    "modified_all": (0.09644531249999999, (0.09640625, 0.096484375)),
}


def record_bisections(monkeypatch, spec, solver, reference=False):
    """run_sweep(spec, solver), and per bisection in order the p's of each batch it solved.

    With reference, tests/oracle.py's reference_bisect bisects in place of
    experiments._bisect, one midpoint a batch.
    """
    name = "policy_iterate" if solver == "lp" else "value_iterate"
    solve, bisect, calls = getattr(acmdp.policy, name), acmdp.experiments._bisect, []

    def recorded(system, **kwargs):
        if kwargs.get("start") is not None:  # a bisection's batch, not the grid's
            calls[-1].append(system.emergency[0, 1].tolist())
        return solve(system, **kwargs)

    def counted(system, solve, state, lo, hi, f_lo, f_hi, ends, width):
        calls.append([])
        if reference:
            return reference_bisect(system, solve, state, lo, hi, f_lo, ends)
        return bisect(system, solve, state, lo, hi, f_lo, f_hi, ends, width)

    with monkeypatch.context() as patch:
        patch.setattr(acmdp.policy, name, recorded)
        patch.setattr(acmdp.experiments, "_bisect", counted)
        result = run_sweep(spec, solver=solver)
    return result, calls


def bisect_width(sc, solver):
    """The most columns of a bisection batch of sc under solver, as run_sweep reads them."""
    column_bytes = 8 * sc.dims.num_states * SOLVER_ARRAYS[solver]
    budget = min(acmdp.experiments.CHUNK_BYTES, acmdp.experiments.BISECT_BYTES)
    return max(1, budget // column_bytes)


def bracket_bits(result):
    """Each crossover's bracket as the hex of its two floats, or None."""
    return [c.bracket and tuple(float.hex(p) for p in c.bracket) for c in result.crossovers]


def random_sweep_scenarios(count):
    """Seeded random 1x1 to 2x3 scenarios, with their ids."""
    shapes = [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (2, 3)]
    for seed in range(count):
        rng = np.random.default_rng(seed)
        users, resources = shapes[seed % len(shapes)]
        behavior = str(rng.choice(["unique", "once", "all"]))
        variant = str(rng.choice(["eps_zero", "eps_accrues"]))
        beta = float(rng.choice([0.5, 0.9, 0.95]))
        rates = (0.1, float(rng.uniform(0.5, 1.0)))
        sc = small_scenario(
            users, resources, behavior, variant, rates=rates, beta=beta, seed=seed
        )
        yield f"random_{users}x{resources}_{seed}", sc


def exact_gap(sc, probability, pos):
    """allow - deny of the calm, nothing-granted state of access pos, by the LP."""
    solution = acmdp.solve_scenario(at_rate(sc, probability), "lp")
    state = solution.system.space.position(0, 0, pos)
    return solution.dv[int(Action.ALLOW), state] - solution.dv[int(Action.DENY), state]


class TestSweepSpec:
    def test_grid(self):
        assert SweepSpec(builtin_scenario("table2_unique"), 0.0, 0.1, 0.05).grid() == [
            0.0,
            0.05,
            0.1,
        ]

    def test_grid_ends_at_stop(self):
        # 0.2 is 2.5 steps of 0.08 from the start: the last point is the stop
        grid = SweepSpec(builtin_scenario("table2_once"), 0.0, 0.2, 0.08).grid()
        assert grid == [0.0, 0.08, 0.16, 0.2]

    def test_default_grid(self):
        grid = SweepSpec(builtin_scenario("table2_once")).grid()
        assert grid == [i * 0.01 for i in range(101)]

    def test_invalid_grid(self):
        sc = builtin_scenario("table2_unique")
        with pytest.raises(ValueError, match=r"^start 0\.5 lies above stop 0\.2$"):
            SweepSpec(sc, 0.5, 0.2, 0.1)
        for start, stop in ((-0.1, 0.5), (0.2, 1.5), (math.nan, 0.5), (0.0, math.nan)):
            with pytest.raises(ValueError, match=rf"^grid \[{start}, {stop}\] must sit inside"):
                SweepSpec(sc, start, stop, 0.1)
        for step in (0.0, -0.1, math.nan, math.inf):
            with pytest.raises(ValueError, match=f"step must be positive and finite, got {step}"):
                SweepSpec(builtin_scenario("table2_unique"), 0.0, 1.0, step)

    def test_a_grid_of_max_grid_points_is_accepted_and_one_more_refused(self):
        # this step puts the float count at MAX_GRID_POINTS exactly
        sc = builtin_scenario("table2_unique")
        step = 1.0 / (MAX_GRID_POINTS - 1 + GRID_SLACK)
        assert (1.0 - 0.0) / step - GRID_SLACK + 1.0 == MAX_GRID_POINTS
        assert len(SweepSpec(sc, 0.0, 1.0, step).grid()) == MAX_GRID_POINTS
        with pytest.raises(ValueError, match=f"more than the {MAX_GRID_POINTS} a sweep may have"):
            SweepSpec(sc, 0.0, 1.0, 1.0 / MAX_GRID_POINTS)

    def test_step_count_below_the_slack_keeps_start(self):
        # a step count within GRID_SLACK of zero is still one step while
        # start lies below stop
        sc = builtin_scenario("table2_unique")
        assert SweepSpec(sc, 0.0, 1.0, 1e10).grid() == [0.0, 1.0]
        assert SweepSpec(sc, 0.5, 0.5 + 1e-12, 0.01).grid() == [0.5, 0.5 + 1e-12]
        assert SweepSpec(sc, 0.2, 0.2, 0.1).grid() == [0.2]


def first_crossing_by_loop(gaps):
    # the reference scan: an exact zero at any point, the last one included,
    # or else a change of sign between neighbours
    for g, f0 in enumerate(gaps):
        if f0 == 0.0 or (g + 1 < len(gaps) and (f0 < 0) != (gaps[g + 1] < 0)):
            return g
    return None


class TestFirstCrossing:
    def test_matches_the_loop_on_random_signs(self):
        rng = np.random.default_rng(0)
        for size in (1, 2, 3, 8):
            for _ in range(200):
                gaps = rng.choice([-2.5, -1e-300, 0.0, 1e-300, 3.0], size=size)
                assert _first_crossing(gaps) == first_crossing_by_loop(gaps), gaps


class TestRunSweep:
    def test_point_at_0_1_matches_decision_table(self, solved):
        # the sweep path and the direct solve must agree at the base probability
        base = solved("table2_unique", "vi")
        spec = SweepSpec(builtin_scenario("table2_unique"), 0.1, 0.1, 0.1)
        point = run_sweep(spec, solver="vi").points[0]
        assert point.dv[int(Action.DENY)] == pytest.approx([-2, -2, -2, -2], abs=1e-8)
        assert point.dv[int(Action.ALLOW)] == pytest.approx([4, 10, 2, -10], abs=1e-8)

    def test_unique_crossover_closed_form(self):
        # allow - deny for (bob, high) in calm is 20q - 10, root exactly 0.5
        spec = SweepSpec(builtin_scenario("table2_unique"), 0.0, 1.0, 0.25)
        result = run_sweep(spec, solver="vi")
        crossover = result.crossovers[BOB_HIGH_POS]
        assert crossover.root == pytest.approx(0.5, abs=1e-3)
        for point in result.points:
            diff = point.dv[int(Action.ALLOW), BOB_HIGH_POS] - point.dv[int(Action.DENY), BOB_HIGH_POS]
            assert diff == pytest.approx(20 * point.probability - 10, abs=1e-7)

    def test_crossover_between_last_step_and_stop(self):
        # (bob, high) under once crosses at 0.1897, past the last whole step 0.16
        spec = SweepSpec(builtin_scenario("table2_once"), 0.0, 0.2, 0.08)
        crossover = run_sweep(spec, solver="vi").crossovers[BOB_HIGH_POS]
        assert crossover.root == pytest.approx(0.1897, abs=1e-4)
        assert 0.16 <= crossover.bracket[0] <= crossover.root <= crossover.bracket[1] <= 0.2

    def test_no_crossover_reported_as_none(self):
        # (alice, high): allow always wins
        spec = SweepSpec(builtin_scenario("table2_unique"), 0.0, 1.0, 0.25)
        result = run_sweep(spec, solver="vi")
        assert result.crossovers[1].root is None

    def test_csv_layout(self):
        spec = SweepSpec(builtin_scenario("table2_unique"), 0.0, 0.2, 0.1)
        result = run_sweep(spec, solver="vi")
        lines = sweep_csv(result).splitlines()
        assert lines[0] == "probability," + ",".join(
            sweep_series_names(spec.scenario)
        )
        assert len(lines) == 4
        assert lines[1].startswith("0,")

    def test_series_names(self):
        names = sweep_series_names(builtin_scenario("table2_unique"))
        assert names[0] == "dv_alice_low_deny"
        assert names[-1] == "dv_bob_high_allow"


    @pytest.mark.parametrize(
        "sc",
        [builtin_scenario(name) for name in BUILTIN_NAMES]
        + [
            dataclasses.replace(builtin_scenario("table2_once"), alert_to_alert=0.6)
        ],
        ids=[*BUILTIN_NAMES, "table2_once_alert_to_alert_0.6"],
    )
    def test_vi_grid_agrees_with_per_point_lp(self, sc):
        # the batched grid against an LP solve of each point on its own, within
        # self_check's lp_vi_agreement bound; the LP sweep's grid within rounding
        # of it; and every bracket as the LP sweep's.  Every point keeps the
        # scenario's alert-to-alert rate: at 0.6 instead of an absorbing alert
        # status, table2_once's (bob, high) bracket moves from 0.1897 to 0.2160
        spec = SweepSpec(sc)
        vi = run_sweep(spec, solver="vi")
        # the CLI sweeps with the LP by default
        lp_sweep = run_sweep(spec, solver="lp")
        calm_empty = sc.dims.position(0, 0, np.arange(sc.dims.num_access_bits))
        for point, lp_point in zip(vi.points, lp_sweep.points):
            system = compile_system(at_rate(sc, point.probability))
            values, _ = acmdp.policy.policy_iterate(system)
            dv = decision_values(system, values)[:, calm_empty]
            allowance = rounding_allowance(values, sc.beta)
            bound = VI_TOL + VERIFY_TOL / (1 - sc.beta) + allowance
            assert np.max(np.abs(point.dv - dv)) <= bound
            assert np.max(np.abs(lp_point.dv - dv)) <= allowance
        assert lp_sweep.crossovers[BOB_HIGH_POS].bracket is not None
        assert [c.bracket for c in vi.crossovers] == [c.bracket for c in lp_sweep.crossovers]

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_builtin_crossovers_are_pinned(self, name):
        # both solvers report each builtin's crossovers to the last bit
        spec = SweepSpec(builtin_scenario(name))
        for solver in ("vi", "lp"):
            found = [(c.root, c.bracket) for c in run_sweep(spec, solver=solver).crossovers]
            assert found == [(None, None)] * 3 + [BUILTIN_CROSSOVERS[name]], solver

    @pytest.mark.parametrize(
        "scenario, vi_sweeps, lp_bases",
        [
            (builtin_scenario("table2_unique"), 7, 7),
            (builtin_scenario("table2_once"), 24, 7),
            (builtin_scenario("table2_all"), 40, 10),
            (small_scenario(3, 3, "all", "eps_accrues", rates=(0.1, 1.0)), None, 60),
        ],
        ids=["table2_unique", "table2_once", "table2_all", "random_3x3_all"],
    )
    def test_bisection_work_is_bounded(self, monkeypatch, scenario, vi_sweeps, lp_bases):
        # value iteration's bisection batches take at most half the sweeps, and
        # the LP's no more bases, than when each point was solved down a ladder
        # of tolerances (1e-3, 1e-6, 1e-10) from the previous point's values
        # (15, 48 and 80 sweeps; 7, 7, 10 and 60 bases), each point solved once.
        # A batch counts the most its columns took: 1, 4 and 11 sweeps and 1, 1
        # and 3 bases in all, where a batch of one point each took 7, 13 and 25
        # sweeps and 7, 7 and 7 bases; the 3x3 model's batches are one point
        # each, 43 bases
        counts, widths = [], []

        def record(name):
            solve = getattr(acmdp.policy, name)

            def call(system, **kwargs):
                values, count = solve(system, **kwargs)
                if kwargs.get("start") is not None:  # a bisection batch, not the grid
                    counts.append((system.emergency.tobytes(), count))
                    widths.append(system.q.shape[-1])
                return values, count

            monkeypatch.setattr(acmdp.policy, name, call)

        record("value_iterate")
        record("policy_iterate")
        for solver, most in (("vi", vi_sweeps), ("lp", lp_bases)):
            if most is None:
                continue
            counts.clear()
            widths.clear()
            result = run_sweep(SweepSpec(scenario), solver=solver)
            assert any(c.width for c in result.crossovers)
            assert len({point for point, _ in counts}) == len(counts)
            assert sum(count for _, count in counts) <= most, solver
            # 3x3 batches are one midpoint (BISECT_BYTES), 160-state ones a path
            assert max(widths) <= bisect_width(scenario, solver)
            assert (max(widths) == 1) == (scenario.dims.num_states > 1000)

    @pytest.mark.parametrize("solver", ["lp", "vi"])
    def test_one_build_per_sweep(self, monkeypatch, solver):
        # under either solver, a 160-state grid is one batch mixed from the one
        # compile, and so is each bisection batch; a sweep that compiled every
        # solve would compile once per solve.  Every mix is handed its rates as
        # one (G, 2) float array.  The secant of the grid's bracket predicts
        # table2_once's 7 halvings, so they are one batch of 7 columns
        build = acmdp.experiments.compile_system
        batch = acmdp.bellman.BellmanSystem.mix_batch
        builds, batches = [], []

        def counted_build(sc):
            builds.append(sc)
            return build(sc)

        def counted_batch(system, rates):
            batches.append(rates)
            return batch(system, rates)

        monkeypatch.setattr(acmdp.experiments, "compile_system", counted_build)
        monkeypatch.setattr(acmdp.bellman.BellmanSystem, "mix_batch", counted_batch)
        result = run_sweep(SweepSpec(builtin_scenario("table2_once")), solver=solver)
        assert len(builds) == 1
        for rates in batches:
            assert isinstance(rates, np.ndarray) and rates.dtype == float
            assert rates.shape[1:] == (2,)
        assert [len(rates) for rates in batches] == [len(result.points), 7]

    @pytest.mark.parametrize(
        "solver, name, one_column",
        [
            pytest.param(
                solver, name, one_column, id=f"{solver}-{name}" + one_column * "-one_column"
            )
            for one_column in (False, True)
            for solver, name in (("vi", "value_iterate"), ("lp", "policy_iterate"))
        ],
    )
    def test_bisection_starts_from_its_bracket(self, monkeypatch, solver, name, one_column):
        # under either solver, each bisection batch is a path of halvings of the
        # bracket its bisection holds: its first node is the bracket's midpoint,
        # and each next one the midpoint of a half of the one before's.  Each
        # node lies strictly inside its bracket, is solved once, and starts from
        # the linear interpolation, at its p, of the values solved at the
        # bracket's ends: the nearest points solved on either side, the grid's
        # columns or nodes bisected before.  A batch holds no more than a
        # chunk's columns nor BISECT_BYTES, so at one column a chunk bisection
        # is sequential, and a bracket's first node starts from columns of two
        # chunks
        solve = getattr(acmdp.policy, name)
        solves = []

        def recorded(system, **kwargs):
            start = kwargs.get("start")
            start = None if start is None else start.copy()
            values, count = solve(system, **kwargs)
            solves.append((system.emergency[0, 1].tolist(), start, values))
            return values, count

        monkeypatch.setattr(acmdp.policy, name, recorded)
        spec = SweepSpec(builtin_scenario("table2_all"), 0.0, 1.0, 0.25)
        if one_column:
            column_bytes = 8 * spec.scenario.dims.num_states * SOLVER_ARRAYS[solver]
            monkeypatch.setattr(acmdp.experiments, "CHUNK_BYTES", column_bytes)
        width = bisect_width(spec.scenario, solver)
        assert width == 1 if one_column else width >= 12
        grid = spec.grid()
        result = run_sweep(spec, solver=solver)
        # the grid's solves start from None, a bisection batch's from its bracket
        chunks = [(ps, values) for ps, start, values in solves if start is None]
        assert [p for ps, _ in chunks for p in ps] == grid
        assert len(chunks) == (len(grid) if one_column else 1)
        solved = {p: values[:, g] for ps, values in chunks for g, p in enumerate(ps)}
        chunk_of = {p: c for c, (ps, _) in enumerate(chunks) for p in ps}
        batches = [(ps, start, values) for ps, start, values in solves if start is not None]
        firsts = 0
        for ps, start, values in batches:
            assert len(ps) <= width
            lo = max(p for p in solved if p < ps[0])
            hi = min(p for p in solved if p > ps[0])
            a, b = lo, hi
            for k, p in enumerate(ps):
                assert p not in solved and a < p < b and p == 0.5 * (a + b)
                share = (p - lo) / (hi - lo)
                assert np.array_equal(start[:, k], (1.0 - share) * solved[lo] + share * solved[hi])
                if k + 1 < len(ps):
                    a, b = (a, p) if ps[k + 1] < p else (p, b)
            if lo in chunk_of and hi in chunk_of:  # a bracket's first batch
                firsts += 1
                assert (chunk_of[lo] != chunk_of[hi]) == one_column
            solved.update(zip(ps, values.T))
        # a 0.25-wide bracket takes 12 halvings to reach CROSSOVER_WIDTH, one a
        # batch at one column a chunk, and at least one a batch otherwise
        bisected = [c for c in result.crossovers if c.width]
        assert bisected and firsts == len(bisected)
        if one_column:
            assert len(batches) == 12 * len(bisected)
        else:
            assert len(batches) < 12 * len(bisected)

    @pytest.mark.parametrize("name, beta", [("table2_all", 0.9), ("modified_unique", 0.9999)])
    def test_lp_sweep_runs_no_value_iteration(self, monkeypatch, name, beta):
        # the LP solves the grid as one batch, then each bisection in batches of
        # at most bisect_width columns, exactly and with no value iteration, which at
        # beta = 0.9999 takes 36,261 sweeps for modified_unique's grid; each
        # grid point's values are its own exact solve's
        exact = acmdp.policy.policy_iterate
        widths = []

        def recorded(system, **kwargs):
            widths.append(system.q.shape[-1])
            return exact(system, **kwargs)

        def unused(*args, **kwargs):
            raise AssertionError("an LP sweep ran value iteration")

        monkeypatch.setattr(acmdp.policy, "policy_iterate", recorded)
        monkeypatch.setattr(acmdp.policy, "value_iterate", unused)
        sc = dataclasses.replace(builtin_scenario(name), beta=beta)
        spec = SweepSpec(sc, 0.0, 1.0, 0.25)
        result = run_sweep(spec, solver="lp")
        grid = spec.grid()
        # a 0.25-wide bracket takes 12 halvings to reach CROSSOVER_WIDTH, and
        # each batch at least one
        bisected = [c for c in result.crossovers if c.width]
        assert bisected and widths[0] == len(grid)
        assert 0 < len(widths) - 1 <= 12 * len(bisected)
        assert max(widths[1:]) <= bisect_width(sc, "lp")
        calm_empty = sc.dims.position(0, 0, np.arange(sc.dims.num_access_bits))
        for point in result.points:
            system = compile_system(at_rate(sc, point.probability))
            dv = decision_values(system, exact(system)[0])
            assert np.array_equal(point.dv, dv[:, calm_empty])

    @pytest.mark.parametrize("solver, step", [("lp", 2e-3), ("vi", 1.5e-3)], ids=["lp", "vi"])
    def test_grid_is_solved_in_chunks_of_the_byte_budget(self, monkeypatch, solver, step):
        # a 2x3 grid spans four chunks of the solver's width: no solve sees
        # more columns than a chunk, the chunks' decision values are the
        # one-batch solve's, and the traced peak stays near the budget, where a
        # one-batch value-iteration grid of 501 points held 29 MB
        sc = small_scenario(2, 3, "all", "eps_accrues", rates=(0.1, 1.0))
        spec = SweepSpec(sc, step=step)
        system = compile_system(sc)
        width = CHUNK_BYTES // (8 * sc.dims.num_states * SOLVER_ARRAYS[solver])
        assert width * 3 < len(spec.grid()) <= width * 4
        name = "policy_iterate" if solver == "lp" else "value_iterate"
        solve, widths = getattr(acmdp.policy, name), []

        def recorded(system, **kwargs):
            widths.append((system.q.shape[-1], kwargs.get("start") is None))
            return solve(system, **kwargs)

        monkeypatch.setattr(acmdp.policy, name, recorded)
        tracemalloc.start()
        try:
            result = run_sweep(spec, solver=solver)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the grid's solves start from None, a bisection batch's from its bracket
        grid_widths = [columns for columns, grid in widths if grid]
        assert grid_widths == [width] * 3 + [len(spec.grid()) - 3 * width]
        assert max(columns for columns, _ in widths) == width
        assert peak < 1.25 * CHUNK_BYTES
        batch = system.mix_batch([(p, 1.0) for p in spec.grid()])
        calm_empty = sc.dims.position(0, 0, np.arange(sc.dims.num_access_bits))
        dv = decision_values(batch, solve(batch)[0])[:, calm_empty]
        assert np.array_equal(np.stack([point.dv for point in result.points], -1), dv)

    @pytest.mark.parametrize("solver", ["lp", "vi"])
    def test_a_crossing_between_chunks_is_bisected_alike(self, monkeypatch, solver):
        # at one column a chunk, every bracket spans two chunks: the sweep keeps
        # the previous chunk's last column, and reports what one chunk reports
        spec = SweepSpec(builtin_scenario("table2_all"), step=0.05)
        whole = run_sweep(spec, solver=solver)
        states = spec.scenario.dims.num_states
        monkeypatch.setattr(acmdp.experiments, "CHUNK_BYTES", 8 * states * SOLVER_ARRAYS[solver])
        batch, widths = acmdp.bellman.BellmanSystem.mix_batch, []

        def counted_batch(system, rates):
            widths.append(len(rates))
            return batch(system, rates)

        monkeypatch.setattr(acmdp.bellman.BellmanSystem, "mix_batch", counted_batch)
        split = run_sweep(spec, solver=solver)
        assert set(widths) == {1} and len(widths) > len(spec.grid())
        assert whole.crossovers[BOB_HIGH_POS].width
        assert [(c.root, c.bracket) for c in split.crossovers] == [
            (c.root, c.bracket) for c in whole.crossovers
        ]
        for one, other in zip(split.points, whole.points):
            assert np.array_equal(one.dv, other.dv)

    @pytest.mark.parametrize("solver", ["lp", "vi"])
    @pytest.mark.parametrize("name", ["modified_once", "table2_all"])
    def test_a_solve_holds_under_solver_arrays_per_column(self, solver, name):
        # SOLVER_ARRAYS[solver] sizes a sweep's chunks, so a 101-column chunk's
        # mix, solve and pricing, held as run_sweep holds them, must hold fewer
        # (states, columns) arrays at their traced peak; the second call is
        # measured, once the shape's lattice plan is built
        system = compile_system(builtin_scenario(name))
        grid = np.linspace(0.0, 0.2, 101)
        solve = acmdp.policy.solver_function(solver)
        dims = system.scenario.dims
        calm_empty = dims.position(0, 0, np.arange(dims.num_access_bits))
        for _ in range(2):
            tracemalloc.start()
            try:
                batch = system.mix_batch([(p, 1.0) for p in grid])
                values, _ = solve(batch)
                kept = decision_values(batch, values)[:, calm_empty]
                del batch, values
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert kept.shape == (2, dims.num_access_bits, len(grid))
        assert peak < SOLVER_ARRAYS[solver] * 8 * dims.num_states * len(grid)

    def test_unknown_solver_raises_before_any_solve(self, monkeypatch):
        def unsolved(*args, **kwargs):
            raise AssertionError("a solver ran")

        for name in ("policy_iterate", "value_iterate"):
            monkeypatch.setattr(acmdp.policy, name, unsolved)
        monkeypatch.setattr(acmdp.experiments, "solve_system", unsolved)
        with pytest.raises(ValueError, match="unknown solver 'bogus'"):
            run_sweep(SweepSpec(builtin_scenario("table2_once")), "bogus")

    def test_point_next_to_the_root_is_solved_once(self, monkeypatch):
        # the first bisection node lies 1e-7 above the table2_once root, where
        # allow - deny is about 4e-6, and a sign taken wrong there puts the
        # root outside.  Under both solvers each node is solved once, in batches
        # of at most the bracket's 10 halvings, the first node from the mean of
        # the grid's two columns, and value iteration stops that node on the
        # proof of its sign, sooner than at its tolerance
        solves = []

        def record(name):
            solve = getattr(acmdp.policy, name)

            def call(system, **kwargs):
                values, count = solve(system, **kwargs)
                solves.append((name, system, kwargs, values))
                return values, count

            monkeypatch.setattr(acmdp.policy, name, call)

        record("value_iterate")
        record("policy_iterate")
        sc = builtin_scenario("table2_once")
        start = 0.15
        spec = SweepSpec(sc, start, 2 * (ONCE_ROOT + 1e-7) - start, 0.1)
        assert len(spec.grid()) == 2
        assert 0.5 * sum(spec.grid()) == pytest.approx(ONCE_ROOT + 1e-7, abs=1e-12)
        state = int(sc.dims.position(0, 0, BOB_HIGH_POS))
        brackets = []
        for solver, name, point_kwargs in (
            ("vi", "value_iterate", {"sign_of": state}),
            ("lp", "policy_iterate", {}),
        ):
            solves.clear()
            brackets.append(run_sweep(spec, solver=solver).crossovers[BOB_HIGH_POS].bracket)
            (_, grid, grid_kwargs, grid_values), *batches = solves
            assert grid.q.shape[-1] == 2 and grid_kwargs == {}
            for used, _, kwargs, _ in batches:
                assert used == name
                assert kwargs.keys() == {"start", *point_kwargs}
                assert kwargs.get("sign_of") == point_kwargs.get("sign_of")
            # 0.079 wide, the bracket takes 10 halvings to reach CROSSOVER_WIDTH
            nodes = [p for _, batch, _, _ in batches for p in batch.emergency[0, 1].tolist()]
            assert len(set(nodes)) == len(nodes) and 1 <= len(batches) <= 10
            assert nodes[0] == 0.5 * sum(spec.grid())
            _, first, kwargs, values = batches[0]
            mean = 0.5 * (grid_values[:, 0] + grid_values[:, 1])
            assert np.array_equal(kwargs["start"][:, 0], mean)
            if solver == "vi":  # stopped on the proof, not on the tolerance
                alone = first.columns(np.arange(first.q.shape[-1]) == 0)
                start_values = kwargs["start"][:, :1]
                unproven, _ = acmdp.value_iteration.value_iterate(alone, start=start_values)
                assert not np.array_equal(values[:, :1], unproven)
        vi, lp = brackets
        assert vi == lp
        assert vi[0] <= ONCE_ROOT <= vi[1]

    @pytest.mark.parametrize("solver", ["lp", "vi"])
    @pytest.mark.parametrize("grid", [(0.0, 0.5, 0.25), (0.25, 0.75, 0.5)])
    def test_exact_zero_at_the_stop_is_a_crossover(self, grid, solver):
        # with the high resource's alert reward and (bob, high)'s grant negated,
        # allow - deny falls from 10 to exactly 0 at 0.5: the first grid's stop,
        # and the second grid's first bisection midpoint, which closes the bracket
        sc = builtin_scenario("table2_unique")
        grants = list(sc.reward_access)
        grants[BOB_HIGH_POS] = 10.0
        flipped = dataclasses.replace(sc, reward_access=grants, reward_resource=(0.0, 20.0))
        result = run_sweep(SweepSpec(flipped, *grid), solver=solver)
        for point in result.points:
            if point.probability == 0.5:
                dv = point.dv[:, BOB_HIGH_POS]
                assert dv[int(Action.ALLOW)] == dv[int(Action.DENY)]
        crossover = result.crossovers[BOB_HIGH_POS]
        assert (crossover.root, crossover.bracket, crossover.width) == (0.5, (0.5, 0.5), 0.0)

    def test_vi_and_lp_sweeps_bracket_alike_on_random_scenarios(self):
        # seeded random 2x2 scenarios on a coarse grid; every bisected
        # bracket must hold a change of sign of the exact gap
        bisected = 0
        for seed in range(12):
            rng = np.random.default_rng(seed)
            behavior = str(rng.choice(["unique", "once", "all"]))
            variant = str(rng.choice(["eps_zero", "eps_accrues"]))
            beta = float(rng.choice([0.5, 0.9, 0.95]))
            rates = (0.1, float(rng.uniform(0.5, 1.0)))
            sc = small_scenario(2, 2, behavior, variant, rates=rates, beta=beta, seed=seed)
            spec = SweepSpec(sc, step=0.1)
            vi = run_sweep(spec, solver="vi").crossovers
            lp = run_sweep(spec, solver="lp").crossovers
            assert [c.bracket for c in vi] == [c.bracket for c in lp], seed
            for pos, crossover in enumerate(vi):
                if crossover.width:
                    lo, hi = (exact_gap(sc, p, pos) for p in crossover.bracket)
                    assert (lo < 0) != (hi < 0), (seed, pos)
                    bisected += 1
        assert bisected >= 10

    @pytest.mark.parametrize("solver", ["lp", "vi"])
    def test_brackets_are_the_reference_bisections(self, monkeypatch, solver):
        # the batched bisection walks bisection's own path, so every bracket is
        # the one tests/oracle.py's reference_bisect, one midpoint at a time,
        # reports, to the bit: on the builtins and on random models, at steps
        # from the default grid's to a quarter
        scenarios = [(name, builtin_scenario(name)) for name in BUILTIN_NAMES]
        scenarios += random_sweep_scenarios(36)
        bisected = 0
        for name, sc in scenarios:
            for step in (0.01, 0.1, 0.25):
                spec = SweepSpec(sc, step=step)
                batched, _ = record_bisections(monkeypatch, spec, solver)
                reference, _ = record_bisections(monkeypatch, spec, solver, reference=True)
                assert bracket_bits(batched) == bracket_bits(reference), (name, step)
                bisected += sum(bool(c.width) for c in batched.crossovers)
        assert bisected >= 100

    @pytest.mark.parametrize("solver", ["lp", "vi"])
    def test_batches_never_exceed_the_halvings(self, monkeypatch, solver):
        # each batch halves its bracket at least once, so a crossover takes no
        # more solves than bisection's halvings, which the reference solves one
        # at a time; and no bisection solves a p twice, or a grid point
        scenarios = [builtin_scenario(name) for name in BUILTIN_NAMES]
        scenarios += [sc for _, sc in random_sweep_scenarios(6)]
        fewer = 0
        for sc in scenarios:
            for step in (0.01, 0.25):
                spec = SweepSpec(sc, step=step)
                _, batches = record_bisections(monkeypatch, spec, solver)
                _, halvings = record_bisections(monkeypatch, spec, solver, reference=True)
                assert len(batches) == len(halvings)
                for ours, theirs in zip(batches, halvings):
                    assert len(ours) <= len(theirs)
                    fewer += len(ours) < len(theirs)
                    solved = [p for batch in ours for p in batch]
                    assert len(set(solved)) == len(solved)
                    assert not set(solved) & set(spec.grid())
        assert fewer >= len(scenarios)


class TestQualitativeProperties:
    @pytest.mark.parametrize("behavior", ["unique", "once", "all"])
    def test_low_resource_always_allowed_and_alice_dominates(self, behavior):
        spec = SweepSpec(builtin_scenario(f"table2_{behavior}"), 0.0, 1.0, 0.2)
        result = run_sweep(spec, solver="vi")
        allow, deny = int(Action.ALLOW), int(Action.DENY)
        for point in result.points:
            # no gain in denying an access to the low resource
            assert point.dv[allow, 0] >= point.dv[deny, 0] - 1e-9  # alice, low
            assert point.dv[allow, 2] >= point.dv[deny, 2] - 1e-9  # bob, low
            # allowing alice is never worth less than allowing bob
            assert point.dv[allow, 0] >= point.dv[allow, 2] - 1e-9  # low
            assert point.dv[allow, 1] >= point.dv[allow, 3] - 1e-9  # high


def named(checks, name):
    return next(c for c in checks if c.name == name)


class TestSelfCheck:
    @pytest.mark.parametrize("name", ["table1", "table2_once", "modified_all"])
    def test_builtins_pass(self, name):
        checks = self_check(builtin_scenario(name))
        assert all(c.passed for c in checks), [c for c in checks if not c.passed]
        assert len(checks) == 5
        assert "(bound " in named(checks, "lp_vi_agreement").detail
        assert "exceeds" in named(checks, "policy_agreement").detail

    @pytest.mark.parametrize("name, scale", [("table1", 1), ("table2_all", 1), ("table2_once", 1e9)])
    def test_the_printed_lp_vi_bound_is_its_derivation(self, name, scale):
        # VI_TOL shows at beta 0 (table1), VERIFY_TOL / (1 - beta) at beta 0.9, and
        # the LP's rounding_allowance with every reward scaled up 1e9-fold
        sc = builtin_scenario(name)
        sc = dataclasses.replace(
            sc,
            reward_access=tuple(scale * x for x in sc.reward_access),
            reward_resource=tuple(scale * x for x in sc.reward_resource),
        )
        lp_values = acmdp.solve_scenario(sc, "lp").values
        bound = VI_TOL + VERIFY_TOL / (1 - sc.beta) + rounding_allowance(lp_values, sc.beta)
        assert f"(bound {bound:.3g})" in named(self_check(sc), "lp_vi_agreement").detail

    @pytest.mark.parametrize("shift", [-10, 10], ids=["down", "up"])
    def test_values_moved_by_ten_bounds_fail(self, monkeypatch, shift):
        # the LP's values, moved down or up by ten times the LP-VI bound
        sc = builtin_scenario("table2_once")
        solve = acmdp.policy.policy_iterate
        lp_values = acmdp.solve_scenario(sc, "lp").values
        bound = VI_TOL + VERIFY_TOL / (1 - sc.beta) + rounding_allowance(lp_values, sc.beta)

        def moved(*args, **kwargs):
            values, bases = solve(*args, **kwargs)
            return values + shift * bound, bases

        assert named(self_check(sc), "lp_vi_agreement").passed
        monkeypatch.setattr(acmdp.policy, "policy_iterate", moved)
        assert not named(self_check(sc), "lp_vi_agreement").passed

    @pytest.mark.parametrize("pick, passes", [(np.argmin, True), (np.argmax, False)])
    def test_one_flipped_decision_fails_above_the_floor(self, monkeypatch, pick, passes):
        # flip value iteration's decision at its smallest gap (a tie, below the
        # floor) or at its largest
        solve = acmdp.experiments.solve_system

        def flipped(system, solver):
            solution = solve(system, solver)
            if solver == "vi":
                i = pick(solution.policy.gaps)
                solution.policy.actions[i] = 1 - solution.policy.actions[i]
            return solution

        monkeypatch.setattr(acmdp.experiments, "solve_system", flipped)
        check = named(self_check(builtin_scenario("table2_once")), "policy_agreement")
        assert check.passed is passes
        assert check.detail.startswith("0 " if passes else "1 ")

    def test_one_compile_per_call(self, monkeypatch):
        # the stochasticity check, LP and VI read one compiled system
        build = acmdp.dynamics.request_dynamics
        calls = []

        def counted(*args):
            calls.append(args)
            return build(*args)

        for module in (acmdp.dynamics, acmdp.bellman):
            monkeypatch.setattr(module, "request_dynamics", counted)
        self_check(builtin_scenario("table2_once"))
        assert len(calls) == 1

    def test_lp_checks_read_the_solutions_report(self, monkeypatch):
        # the LP's feasibility and tightness checks read the report solve_system
        # made with the solution; they verify no values of their own
        solve = acmdp.experiments.solve_system

        def reported(system, solver):
            solution = solve(system, solver)
            if solver == "lp":
                solution.report = VerificationReport(max_violation=0.5, max_min_slack=0.25)
            return solution

        monkeypatch.setattr(acmdp.experiments, "solve_system", reported)
        checks = self_check(builtin_scenario("table2_once"))
        feasibility, tightness = named(checks, "lp_feasibility"), named(checks, "lp_tightness")
        assert feasibility.passed is False and tightness.passed is False
        assert feasibility.detail.startswith("max violation 0.5 after ")
        assert tightness.detail == "worst minimum slack 0.25"

    def test_values_near_the_float_maximum_pass(self):
        # rounding alone breaks rows of values near 7.5e307 by about 1e292: far past
        # VERIFY_TOL, and far inside twice the rounding allowance, about 1.3e296
        checks = self_check(near_the_float_maximum())
        assert all(c.passed for c in checks), [c for c in checks if not c.passed]
        assert named(checks, "lp_feasibility").detail.startswith("max violation 9.98e+291 ")

    @pytest.mark.parametrize("name", ["table2_once", "huge"])
    @pytest.mark.parametrize("past, passes", [(0, True), (1, False)])
    def test_lp_checks_fail_past_their_rounding_term(self, monkeypatch, name, past, passes):
        # a report at VERIFY_TOL + 2 rounding_allowance passes; one ulp past it fails
        sc = near_the_float_maximum() if name == "huge" else builtin_scenario(name)
        solve = acmdp.experiments.solve_system

        def reported(system, solver):
            solution = solve(system, solver)
            if solver == "lp":
                bound = VERIFY_TOL + 2.0 * rounding_allowance(solution.values, sc.beta)
                bound = math.nextafter(bound, math.inf) if past else bound
                solution.report = VerificationReport(max_violation=bound, max_min_slack=bound)
            return solution

        monkeypatch.setattr(acmdp.experiments, "solve_system", reported)
        checks = self_check(sc)
        assert named(checks, "lp_feasibility").passed is passes
        assert named(checks, "lp_tightness").passed is passes

    def test_high_discount_passes(self):
        sc = dataclasses.replace(builtin_scenario("table2_unique"), beta=0.99)
        checks = self_check(sc)
        assert all(c.passed for c in checks)

    def test_vi_without_convergence_skips_the_agreement_checks(self, monkeypatch):
        # at beta = 0.9999 value iteration takes about 19,700 sweeps on this
        # model, the LP one basis: its jumps fail until about the 85th sweep,
        # and what is left of its half span, 3.6e-10, eight times the 4.4e-11
        # it stops at, then decays by beta a sweep, 1% in 100
        sc = dataclasses.replace(builtin_scenario("modified_unique"), beta=0.9999)
        monkeypatch.setattr(acmdp.value_iteration, "DEFAULT_MAX_ITER", 100)
        checks = self_check(sc)
        assert [c.passed for c in checks] == [True, True, True, None, None]
        assert [c.name for c in checks[3:]] == ["lp_vi_agreement", "policy_agreement"]
        for check in checks[3:]:
            assert check.detail == (
                "skipped, value iteration stopped: "
                "no convergence to 1e-10 within 100 iterations (beta=0.9999)"
            )

    def test_broken_request_row_fails_stochasticity(self, monkeypatch):
        # halve the empty set's row of the request factor's weights: the check
        # reads the factors the solvers read, so self_check stops before solving
        build = acmdp.bellman.request_dynamics

        def corrupted(*args):
            dynamics = build(*args)
            weights = dynamics.weights.copy()
            weights[0] *= 0.5
            return dataclasses.replace(dynamics, weights=weights)

        monkeypatch.setattr(acmdp.bellman, "request_dynamics", corrupted)
        checks = self_check(builtin_scenario("table2_all"))
        assert [c.name for c in checks] == ["stochasticity"]
        assert not checks[0].passed
        # one row of one factor is broken, however many (state, action) rows read it
        assert checks[0].detail == (
            "1 violations, first: "
            "request weights of set 0 [0.125, 0.125, 0.125, 0.125, 0.0] has mass 0.5"
        )

    def test_broken_matrix_is_refused_before_any_check(self):
        # bypass the constructor check: the compile refuses the calm row (-0.5, 1.5)
        sc = builtin_scenario("table2_unique")
        object.__setattr__(sc, "calm_to_alert", 1.5)
        with pytest.raises(ValueError, match=r"column 0: calm_to_alert 1.5 outside \[0, 1\]"):
            self_check(sc)
