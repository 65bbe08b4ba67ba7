import dataclasses

import numpy as np
import pytest

import acmdp.bellman
import acmdp.dynamics
import acmdp.experiments
import acmdp.policy
from acmdp import Action, EmergencyMatrix, builtin_scenario
from acmdp.bellman import VERIFY_TOL, rounding_allowance
from acmdp.experiments import (
    SweepSpec,
    run_sweep,
    self_check,
    sweep_csv,
    sweep_series_names,
)
from acmdp.value_iteration import DEFAULT_TOL as VI_TOL

BOB_HIGH_POS = 3  # bit order: alice/low, alice/high, bob/low, bob/high


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
        with pytest.raises(ValueError):
            SweepSpec(builtin_scenario("table2_unique"), 0.5, 0.2, 0.1)
        with pytest.raises(ValueError):
            SweepSpec(builtin_scenario("table2_unique"), 0.0, 1.0, 0.0)


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


    @pytest.mark.parametrize("behavior", ["unique", "once", "all"])
    def test_vi_grid_agrees_with_per_point_lp(self, behavior):
        # the batched grid against an LP solve of each point on its own, within
        # self_check's lp_vi_agreement bound, and every bracket as the LP sweep's
        sc = builtin_scenario(f"table2_{behavior}")
        spec = SweepSpec(sc)
        vi = run_sweep(spec, solver="vi")
        for point in vi.points:
            emergency = EmergencyMatrix.from_rates(point.probability, 1.0)
            lp = acmdp.solve_scenario(dataclasses.replace(sc, emergency=emergency), "lp")
            calm_empty = lp.system.space.position(0, 0, np.arange(4))
            bound = VI_TOL + VERIFY_TOL / (1 - sc.beta) + rounding_allowance(lp.values, sc.beta)
            assert np.max(np.abs(point.dv - lp.dv[:, calm_empty])) <= bound
        # the CLI sweeps with the LP by default
        lp_sweep = run_sweep(spec, solver="lp")
        assert lp_sweep.crossovers[BOB_HIGH_POS].bracket is not None
        assert [c.bracket for c in vi.crossovers] == [c.bracket for c in lp_sweep.crossovers]

    def test_one_build_per_sweep(self, monkeypatch):
        # the grid is one batch mixed into the one build, and each bisection
        # point a batch of one; a sweep that compiled every solve would build
        # once per solve
        build = acmdp.bellman.build_parts
        batch = acmdp.bellman.SystemParts.mix_batch
        builds, batches = [], []

        def counted_build(sc):
            builds.append(sc)
            return build(sc)

        def counted_batch(parts, emergencies):
            batches.append(len(emergencies))
            return batch(parts, emergencies)

        monkeypatch.setattr(acmdp.bellman, "build_parts", counted_build)
        monkeypatch.setattr(acmdp.bellman.SystemParts, "mix_batch", counted_batch)
        result = run_sweep(SweepSpec(builtin_scenario("table2_once")), solver="vi")
        assert len(builds) == 1
        assert batches[0] == len(result.points)
        assert len(batches) > 1 and set(batches[1:]) == {1}

    def test_bisection_starts_from_its_bracket(self, monkeypatch):
        # each bracket's first bisection point starts from its lower grid
        # point's values, every later one from the previous bisection point's
        iterate = acmdp.experiments.value_iterate
        solves = []

        def recorded(system, start=None):
            values, sweeps = iterate(system, start=start)
            solves.append((start, values))
            return values, sweeps

        monkeypatch.setattr(acmdp.experiments, "value_iterate", recorded)
        spec = SweepSpec(builtin_scenario("table2_all"), 0.0, 1.0, 0.25)
        result = run_sweep(spec, solver="vi")
        (grid_start, grid_values), bisection = solves[0], solves[1:]
        assert grid_start is None
        # a solve that does not start from the previous one's values begins a bracket
        firsts = [
            start
            for i, (start, _) in enumerate(bisection)
            if i == 0 or start is not bisection[i - 1][1]
        ]
        lows = [c.bracket[0] for c in result.crossovers if c.width]
        assert firsts and len(firsts) == len(lows)
        for start, low in zip(firsts, lows):
            g = max(i for i, p in enumerate(spec.grid()) if p <= low)
            assert np.array_equal(start, grid_values[:, g : g + 1])


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
        for agreement in ("lp_vi_agreement", "dense_simplex_agreement"):
            assert "(bound " in named(checks, agreement).detail
        assert "exceeds" in named(checks, "policy_agreement").detail

    @pytest.mark.parametrize(
        "target, module, attribute",
        [
            ("lp_vi_agreement", acmdp.policy, "policy_iterate"),
            ("dense_simplex_agreement", acmdp.experiments, "simplex_solve"),
        ],
    )
    def test_values_moved_by_ten_bounds_fail(self, monkeypatch, target, module, attribute):
        # the LP's or the dense oracle's values, moved down by ten times the
        # LP-VI bound; a move the dense certificate passes cannot fail the
        # dense gap, which follows from the two certificates
        sc = builtin_scenario("table2_once")
        solve = getattr(module, attribute)
        lp_values = acmdp.solve_scenario(sc, "lp").values
        bound = VI_TOL + VERIFY_TOL / (1 - sc.beta) + rounding_allowance(lp_values, sc.beta)

        def moved(*args, **kwargs):
            result = solve(*args, **kwargs)
            if attribute == "policy_iterate":
                return result[0] - 10 * bound, result[1]
            return dataclasses.replace(result, values=result.values - 10 * bound)

        assert named(self_check(sc), target).passed
        monkeypatch.setattr(module, attribute, moved)
        assert not named(self_check(sc), target).passed

    @pytest.mark.parametrize("pick, passes", [(np.argmin, True), (np.argmax, False)])
    def test_one_flipped_decision_fails_above_the_floor(self, monkeypatch, pick, passes):
        # flip value iteration's decision at its smallest gap (a tie, below the
        # floor) or at its largest
        extract = acmdp.experiments.extract_policy

        def flipped(dv):
            policy = extract(dv)
            i = pick(policy.gaps)
            policy.actions[i] = 1 - policy.actions[i]
            return policy

        monkeypatch.setattr(acmdp.experiments, "extract_policy", flipped)
        check = named(self_check(builtin_scenario("table2_once")), "policy_agreement")
        assert check.passed is passes
        assert check.detail.startswith("0 " if passes else "1 ")

    def test_one_compile_per_call(self, monkeypatch):
        # the stochasticity check, LP, VI and dense oracle read one matrix
        build = acmdp.dynamics.request_dynamics
        calls = []

        def counted(*args):
            calls.append(args)
            return build(*args)

        for module in (acmdp.dynamics, acmdp.bellman):
            monkeypatch.setattr(module, "request_dynamics", counted)
        self_check(builtin_scenario("table2_once"))
        assert len(calls) == 1

    def test_high_discount_passes(self):
        sc = dataclasses.replace(builtin_scenario("table2_unique"), beta=0.99)
        checks = self_check(sc)
        assert all(c.passed for c in checks)

    def test_broken_matrix_fails_stochasticity(self):
        from acmdp import EmergencyMatrix

        sc = builtin_scenario("table2_unique")
        broken = EmergencyMatrix.__new__(EmergencyMatrix)
        object.__setattr__(broken, "rows", ((0.7, 0.1), (0.0, 1.0)))
        checks = self_check(dataclasses.replace(sc, emergency=broken))
        assert checks[0].name == "stochasticity"
        assert not checks[0].passed
