import string
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acmdp import (
    BUILTIN_NAMES,
    EmergencyMatrix,
    ModelDims,
    RequestBehavior,
    RewardTables,
    RewardVariant,
    Scenario,
    ScenarioParseError,
    builtin_scenario,
    compile_system,
    export_values,
    import_values,
    parse_scenario,
    render_scenario,
    scenario_fingerprint,
    solve_scenario,
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
        bad = SAMPLE_FILE.replace("bob low = 4", "carol low = 4\nbob low = 4")
        errs = errors_of(bad)
        assert any("carol" in e for e in errs)

    def test_reopened_section(self):
        moved = SAMPLE_FILE.replace("reward_variant = eps_zero\n", "")
        moved += "[model]\nreward_variant = eps_zero\n"
        assert parse_scenario(moved) == parse_scenario(SAMPLE_FILE)

    def test_duplicate_across_reopened_section(self):
        errs = errors_of(SAMPLE_FILE + "[model]\nbeta = 0.5\n")
        assert errs == ["line 23: duplicate [model] entry 'beta'"]

    def test_unknown_model_key(self):
        bad = SAMPLE_FILE.replace("beta = 0.9", "beta = 0.9\ncolour = blue")
        assert errors_of(bad) == ["line 6: unknown [model] key 'colour'"]

    @pytest.mark.parametrize("key, line", [("users", 3), ("resources", 4)])
    def test_empty_label_list_reported_once(self, key, line):
        bad = SAMPLE_FILE.replace(f"{key} = ", f"{key} = \n# was: ")
        assert errors_of(bad) == [f"line {line}: {key}: no {key[:-1]} labels"]

    def test_number_too_large_for_a_float(self):
        bad = SAMPLE_FILE.replace("low = 0", "low = 1" + "0" * 400)
        assert any(e.startswith("line 21: low: malformed number") for e in errors_of(bad))

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

    def test_unknown_section(self):
        # the section's lines are outside any known section
        assert errors_of(SAMPLE_FILE + "[colours]\nred = 1\n") == [
            "line 22: unknown section [colours]",
            "line 23: content outside any known section: 'red = 1'",
        ]

    def test_content_before_any_section(self):
        assert errors_of("stray = 1\n" + SAMPLE_FILE) == [
            "line 1: content outside any known section: 'stray = 1'"
        ]

    def test_line_without_equals(self):
        assert errors_of(SAMPLE_FILE.replace("beta = 0.9", "beta 0.9")) == [
            "line 5: expected 'key = value', got 'beta 0.9'",
            "missing [model] entry beta",
        ]

    @pytest.mark.parametrize(
        "line, wrong, want",
        [
            (
                "alice high = 10",
                "alice = 10",
                [
                    "line 14: [reward_access] lines are 'user resource = value', "
                    "got 'alice = 10'",
                    "missing [reward_access] entry alice high",
                ],
            ),
            (
                "high = -20",
                "high low = -20",
                [
                    "line 20: [reward_resource] lines are 'resource = value', "
                    "got 'high low = -20'",
                    "missing [reward_resource] entry high",
                ],
            ),
        ],
    )
    def test_wrong_number_of_names(self, line, wrong, want):
        assert errors_of(SAMPLE_FILE.replace(line, wrong)) == want

    def test_model_past_the_cap(self):
        # a well-formed 4 x 4 file: 16 access bits, past CAP_BITS
        users, resources = "a b c d".split(), "w x y z".split()
        text = SAMPLE_FILE.split("[reward_access]")[0]
        text = text.replace("alice bob", " ".join(users)).replace("high low", " ".join(resources))
        text += "[reward_access]\n" + "".join(f"{u} {r} = 1\n" for u in users for r in resources)
        text += "[reward_resource]\n" + "".join(f"{r} = -1\n" for r in resources)
        assert errors_of(text) == [
            "4 users x 4 resources needs 16 bits, exceeding the cap of 12; "
            "the powerset state space would be intractable"
        ]

    def test_all_violations_reported_together(self):
        bad = SAMPLE_FILE.replace("beta = 0.9", "beta = 2").replace(
            "behavior = once", "behavior = never"
        )
        errs = errors_of(bad)
        assert len(errs) >= 2


# one label of each kind that a file format cannot carry
REFUSED_LABELS = ["eps", "a,b", "a:b", "a=b", "[a", "a]", "a b", "a\tb", "a#b", ""]
# whitespace and '#' never reach the parser inside a label: [model] values
# split on whitespace and '#' starts a comment
PARSER_REFUSED = [x for x in REFUSED_LABELS if x.split() == [x] and "#" not in x]


class TestLabels:
    @pytest.mark.parametrize("label", PARSER_REFUSED)
    @pytest.mark.parametrize("key, line", [("users", 3), ("resources", 4)])
    def test_parser_refuses_at_the_label_line(self, label, key, line):
        errs = errors_of(SAMPLE_FILE.replace(f"{key} = ", f"{key} = {label} "))
        assert len(errs) == 1
        assert errs[0].startswith(f"line {line}: {key}: bad {key[:-1]} label {label!r}")

    @pytest.mark.parametrize("label", REFUSED_LABELS)
    def test_scenario_refuses(self, label):
        sc = builtin_scenario("table2_once")
        with pytest.raises(ValueError, match="bad user label"):
            replace(sc, user_names=(label, "bob"))
        with pytest.raises(ValueError, match="bad resource label"):
            replace(sc, resource_names=("low", label))


class TestScenarioChecks:
    """Scenario and RewardTables built directly, not through the parser."""

    @pytest.mark.parametrize(
        "change, message",
        [
            (
                {"user_names": ("alice",)},
                r"reward_access is not total: missing \[\], extraneous \[\(1, 0\), \(1, 1\)\]",
            ),
            (
                {"resource_names": ("a", "b", "c")},
                r"reward_access is not total: missing \[\(0, 2\), \(1, 2\)\], extraneous \[\]",
            ),
            ({"user_names": ()}, "need at least one user and one resource, got 0 x 2"),
            (
                {"user_names": ("a", "b", "c", "d"), "resource_names": ("w", "x", "y", "z")},
                "4 users x 4 resources needs 16 bits, exceeding the cap of 12",
            ),
            ({"beta": 1.0}, "beta 1.0 outside \\[0, 1\\)"),
            ({"beta": -0.1}, "beta -0.1 outside \\[0, 1\\)"),
            (
                {"rewards": RewardTables({(0, 0): 1.0, (0, 1): 1.0, (1, 0): 1.0}, (0.0, 0.0))},
                r"reward_access is not total: missing \[\(1, 1\)\], extraneous \[\]",
            ),
            (
                {"rewards": RewardTables({(u, r): 1.0 for u in (0, 1) for r in (0, 1, 2)}, (0, 0))},
                r"missing \[\], extraneous \[\(0, 2\), \(1, 2\)\]",
            ),
            (
                {"rewards": RewardTables({(u, r): 1.0 for u in (0, 1) for r in (0, 1)}, (0.0,))},
                "reward_resource has 1 entries, expected 2",
            ),
        ],
        ids=[
            "users", "resources", "no users", "past the cap", "beta 1", "beta below 0", "missing access",
            "extra access", "resource rewards",
        ],
    )
    def test_refused(self, change, message):
        with pytest.raises(ValueError, match=message):
            replace(builtin_scenario("table2_once"), **change)

    @pytest.mark.parametrize("field, enum", [("behavior", RequestBehavior), ("variant", RewardVariant)])
    def test_plain_strings_are_their_enums(self, field, enum):
        # a plain string solves, renders and fingerprints as its member
        for member in enum:
            want = replace(builtin_scenario("table2_once"), **{field: member})
            plain = replace(want, **{field: member.value})
            assert type(getattr(plain, field)) is enum
            assert render_scenario(plain) == render_scenario(want)
            assert scenario_fingerprint(plain) == scenario_fingerprint(want)
            solved, expected = solve_scenario(plain), solve_scenario(want)
            assert solved.values.tobytes() == expected.values.tobytes()
            assert solved.dv.tobytes() == expected.dv.tobytes()

    @pytest.mark.parametrize("field, enum", [("behavior", RequestBehavior), ("variant", RewardVariant)])
    def test_unknown_string_refused(self, field, enum):
        with pytest.raises(ValueError, match=f"'sometimes' is not a valid {enum.__name__}"):
            replace(builtin_scenario("table2_once"), **{field: "sometimes"})


class TestNonFiniteRewards:
    @pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
    def test_scenario_refuses(self, bad):
        sc = builtin_scenario("table2_once")
        with pytest.raises(ValueError, match="finite"):
            replace(sc, rewards=RewardTables(sc.rewards.reward_access, (0.0, bad)))
        access = {**sc.rewards.reward_access, (1, 1): bad}
        with pytest.raises(ValueError, match="finite"):
            replace(sc, rewards=RewardTables(access, sc.rewards.reward_resource))


def test_readme_example_parses():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    example = readme.split("\n## Scenario files\n", 1)[1].split("```")[1]
    assert parse_scenario(example) == builtin_scenario("table2_once")


# printable ASCII that a label may use: no whitespace and none of # = , : [ ]
LABEL_CHARS = string.ascii_letters + string.digits + "".join(
    c for c in string.punctuation if c not in "#=,:[]"
)
labels = st.lists(
    st.text(LABEL_CHARS, min_size=1, max_size=4).filter(lambda x: x != "eps"),
    min_size=1,
    max_size=2,
    unique=True,
)
rewards = st.floats(-1e6, 1e6)


@st.composite
def scenarios(draw):
    users, resources = draw(labels), draw(labels)
    dims = ModelDims(len(users), len(resources))
    return Scenario(
        user_names=tuple(users),
        resource_names=tuple(resources),
        rewards=RewardTables(
            {(a.user, a.resource): draw(rewards) for a in dims.accesses()},
            tuple(draw(rewards) for _ in resources),
        ),
        emergency=EmergencyMatrix(draw(st.floats(0, 1)), draw(st.floats(0, 1))),
        behavior=draw(st.sampled_from(RequestBehavior)),
        variant=draw(st.sampled_from(RewardVariant)),
        beta=draw(st.floats(0, 1, exclude_max=True)),
    )


class TestRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(sc=scenarios())
    def test_render_parses_back_and_exports_import(self, sc, tmp_path_factory):
        assert parse_scenario(render_scenario(sc)) == sc
        if sc.dims.num_users == 1:
            path = tmp_path_factory.mktemp("values") / "values.txt"
            export_values(solve_scenario(sc), path)
            loaded = import_values(path, scenario=sc)
            assert loaded.user_names == sc.user_names
            assert loaded.resource_names == sc.resource_names


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
            emergency=EmergencyMatrix(1e-8, 1 - 1e-8),
        )
        text = render_scenario(sc)
        assert "calm_to_alert = 0.00000001" in text
        assert parse_scenario(text) == sc

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_stochastic(self, name):
        assert validate_stochastic(compile_system(builtin_scenario(name))) == []

    def test_fingerprints_are_pinned(self):
        # every exported table carries its scenario's fingerprint, so a drift in
        # render_scenario or in the scenario's fields would make stored tables stale
        assert {name: scenario_fingerprint(builtin_scenario(name)) for name in BUILTIN_NAMES} == {
            "table1": "69c19f2976a6aeb1",
            "table2_unique": "7f1daeca09384eb7",
            "table2_once": "a7048bdbe9e1dc0c",
            "table2_all": "46d54d8ff10264dd",
            "modified_unique": "65b7c42fe2f80c65",
            "modified_once": "4cdd18321db61ef2",
            "modified_all": "aed8b51d896b7227",
        }

    def test_fingerprint_distinguishes_scenarios(self):
        prints = {scenario_fingerprint(builtin_scenario(n)) for n in BUILTIN_NAMES}
        assert len(prints) == len(BUILTIN_NAMES)
