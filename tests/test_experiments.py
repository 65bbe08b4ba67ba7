import numpy as np
import pytest

import acmdp.experiments
from acmdp import Action, builtin_scenario
from acmdp.experiments import (
    SweepSpec,
    run_sweep,
    scenario_at_probability,
    self_check,
    sweep_csv,
    sweep_series_names,
)

BOB_HIGH_POS = 3  # bit order: alice/low, alice/high, bob/low, bob/high


class TestSweepSpec:
    def test_grid(self):
        assert SweepSpec(builtin_scenario("table2_unique"), 0.0, 0.1, 0.05).grid() == [
            0.0,
            0.05,
            0.1,
        ]

    def test_invalid_grid(self):
        with pytest.raises(ValueError):
            SweepSpec(builtin_scenario("table2_unique"), 0.5, 0.2, 0.1)
        with pytest.raises(ValueError):
            SweepSpec(builtin_scenario("table2_unique"), 0.0, 1.0, 0.0)


class TestScenarioAtProbability:
    def test_alert_row_untouched(self):
        sc = scenario_at_probability(builtin_scenario("table2_unique"), 0.37)
        assert sc.emergency.prob_calm_to_alert == pytest.approx(0.37)
        assert sc.emergency.prob_alert_to_alert == 1.0


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


    def test_warm_start_matches_cold_sweep(self, monkeypatch):
        spec = SweepSpec(builtin_scenario("table2_all"))
        solve = acmdp.experiments.solve_scenario
        warm_starts = []

        def warm_solve(sc, solver, start):
            warm_starts.append(start is not None)
            return solve(sc, solver=solver, start=start)

        monkeypatch.setattr(acmdp.experiments, "solve_scenario", warm_solve)
        warm = run_sweep(spec, solver="vi")
        # every solve but the first starts from the previous one's values
        assert warm_starts[0] is False and all(warm_starts[1:])
        monkeypatch.setattr(
            acmdp.experiments,
            "solve_scenario",
            lambda sc, solver, start: solve(sc, solver=solver),
        )
        cold = run_sweep(spec, solver="vi")
        assert [pt.probability for pt in warm.points] == [pt.probability for pt in cold.points]
        gap = max(np.max(np.abs(w.dv - c.dv)) for w, c in zip(warm.points, cold.points))
        assert gap <= 1e-8
        assert warm.crossovers[BOB_HIGH_POS].bracket == cold.crossovers[BOB_HIGH_POS].bracket


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


class TestSelfCheck:
    @pytest.mark.parametrize("name", ["table1", "table2_once", "modified_all"])
    def test_builtins_pass(self, name):
        checks = self_check(builtin_scenario(name))
        assert all(c.passed for c in checks), [c for c in checks if not c.passed]

    def test_high_discount_passes(self):
        import dataclasses

        sc = dataclasses.replace(builtin_scenario("table2_unique"), beta=0.99)
        checks = self_check(sc)
        assert all(c.passed for c in checks)

    def test_broken_matrix_fails_stochasticity(self):
        from acmdp import EmergencyMatrix

        sc = builtin_scenario("table2_unique")
        broken = EmergencyMatrix.__new__(EmergencyMatrix)
        object.__setattr__(broken, "rows", ((0.7, 0.1), (0.0, 1.0)))
        import dataclasses

        checks = self_check(dataclasses.replace(sc, emergency=broken))
        assert checks[0].name == "stochasticity"
        assert not checks[0].passed
