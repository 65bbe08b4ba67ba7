from dataclasses import replace

import pytest

from acmdp import (
    BUILTIN_NAMES,
    EmergencyMatrix,
    RequestBehavior,
    RewardVariant,
    ScenarioParseError,
    builtin_scenario,
    compile_system,
    parse_scenario,
    render_scenario,
    scenario_fingerprint,
    validate_stochastic,
)

SAMPLE_FILE = """\
# two-user sample, once behaviour
[model]
users = alice bob
resources = high low
beta = 0.9
behavior = once
reward_variant = eps_zero

[emergency]
calm_to_alert = 0.1
alert_to_alert = 1.0

[reward_access]
alice high = 10
alice low = 6
bob high = -10
bob low = 4

[reward_resource]
high = -20
low = 0
"""


def errors_of(text):
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario(text)
    return err.value.errors


class TestParse:
    def test_sample_file(self):
        sc = parse_scenario(SAMPLE_FILE)
        assert sc.dims.num_users == 2 and sc.dims.num_resources == 2
        assert sc.beta == 0.9
        assert sc.behavior is RequestBehavior.ONCE
        assert sc.variant is RewardVariant.EPS_ZERO
        # indices follow declaration order: high before low in this file
        assert sc.resource_names == ("high", "low")
        assert sc.rewards.reward_access[(1, 0)] == -10  # bob high
        assert sc.emergency.prob_calm_to_alert == pytest.approx(0.1)

    def test_probability_out_of_range(self):
        bad = SAMPLE_FILE.replace("calm_to_alert = 0.1", "calm_to_alert = 1.2")
        errs = errors_of(bad)
        assert any("1.2" in e and "line 10" in e for e in errs)

    def test_missing_reward_entry(self):
        bad = SAMPLE_FILE.replace("bob low = 4\n", "")
        errs = errors_of(bad)
        assert any("bob low" in e for e in errs)

    def test_undeclared_label(self):
        bad = SAMPLE_FILE + "\n[reward_resource]\n"  # duplicate section is fine to reopen
        bad = SAMPLE_FILE.replace("bob low = 4", "carol low = 4\nbob low = 4")
        errs = errors_of(bad)
        assert any("carol" in e for e in errs)

    def test_duplicate_labels(self):
        bad = SAMPLE_FILE.replace("users = alice bob", "users = alice alice")
        assert any("duplicate user labels" in e for e in errors_of(bad))

    def test_unknown_behavior(self):
        bad = SAMPLE_FILE.replace("behavior = once", "behavior = sometimes")
        assert any("sometimes" in e for e in errors_of(bad))

    def test_beta_out_of_range(self):
        bad = SAMPLE_FILE.replace("beta = 0.9", "beta = 1.0")
        assert any("beta" in e for e in errors_of(bad))

    def test_exponent_numbers_rejected(self):
        bad = SAMPLE_FILE.replace("alice high = 10", "alice high = 1e1")
        assert any("malformed number" in e for e in errors_of(bad))

    def test_missing_section(self):
        bad = SAMPLE_FILE.split("[emergency]")[0]
        errs = errors_of(bad)
        assert any("calm_to_alert" in e for e in errs)

    def test_all_violations_reported_together(self):
        bad = SAMPLE_FILE.replace("beta = 0.9", "beta = 2").replace(
            "behavior = once", "behavior = never"
        )
        errs = errors_of(bad)
        assert len(errs) >= 2


class TestBuiltins:
    def test_table1_parameters(self):
        sc = builtin_scenario("table1")
        assert sc.beta == 0.0
        assert sc.emergency.prob_calm_to_alert == 0.0
        assert sc.behavior is RequestBehavior.UNIQUE

    def test_table2_all_emergency(self):
        assert builtin_scenario("table2_all").emergency.prob_calm_to_alert == pytest.approx(0.1)

    def test_modified_variant(self):
        assert builtin_scenario("modified_unique").variant is RewardVariant.EPS_ACCRUES

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            builtin_scenario("table3")

    def test_builtin_rewards(self):
        sc = builtin_scenario("table2_once")
        assert sc.rewards.reward_access == {
            (0, 0): 6,
            (0, 1): 10,
            (1, 0): 4,
            (1, 1): -10,
        }
        assert sc.rewards.reward_resource == (0, -20)

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_round_trip(self, name):
        sc = builtin_scenario(name)
        assert parse_scenario(render_scenario(sc)) == sc

    def test_round_trip_without_exponents(self):
        # repr would write 1e-08, which the format refuses
        sc = replace(
            builtin_scenario("modified_unique"),
            emergency=EmergencyMatrix.from_rates(1e-8, 1 - 1e-8),
        )
        text = render_scenario(sc)
        assert "calm_to_alert = 0.00000001" in text
        assert parse_scenario(text) == sc

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_stochastic(self, name):
        assert validate_stochastic(compile_system(builtin_scenario(name))) == []

    def test_fingerprint_distinguishes_scenarios(self):
        prints = {scenario_fingerprint(builtin_scenario(n)) for n in BUILTIN_NAMES}
        assert len(prints) == len(BUILTIN_NAMES)
