import re
import string
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acmdp import (
    BUILTIN_NAMES,
    ModelDims,
    RequestBehavior,
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
        assert sc.reward_access[1 * 2 + 0] == -10  # bob high, at bit u * NR + r
        assert sc.calm_to_alert == pytest.approx(0.1)

    def test_bit_order_comes_from_the_labels(self):
        # the same file with its [reward_access] lines in reverse
        head, tail = SAMPLE_FILE.split("[reward_access]\n")
        access, rest = tail.split("\n\n", 1)
        lines = "\n".join(reversed(access.splitlines()))
        reordered = parse_scenario(f"{head}[reward_access]\n{lines}\n\n{rest}")
        sc = parse_scenario(SAMPLE_FILE)
        assert reordered == sc
        assert reordered.reward_access == sc.reward_access == (10.0, 6.0, -10.0, 4.0)
        assert scenario_fingerprint(reordered) == scenario_fingerprint(sc)

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
        assert errors_of(bad) == ["line 17: undeclared user 'carol'"]

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
    """Scenarios built directly, not through the parser."""

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"user_names": ("alice",)}, "reward_access has 4 entries, expected 2"),
            ({"resource_names": ("a", "b", "c")}, "reward_access has 4 entries, expected 6"),
            ({"user_names": ()}, "need at least one user and one resource, got 0 x 2"),
            (
                {"user_names": ("a", "b", "c", "d"), "resource_names": ("w", "x", "y", "z")},
                "4 users x 4 resources needs 16 bits, exceeding the cap of 12",
            ),
            ({"beta": 1.0}, "beta 1.0 outside \\[0, 1\\)"),
            ({"beta": -0.1}, "beta -0.1 outside \\[0, 1\\)"),
            ({"reward_access": (1.0,) * 3}, "reward_access has 3 entries, expected 4"),
            ({"reward_access": (1.0,) * 6}, "reward_access has 6 entries, expected 4"),
            ({"reward_resource": (0.0,)}, "reward_resource has 1 entries, expected 2"),
        ],
        ids=[
            "users", "resources", "no users", "past the cap", "beta 1", "beta below 0", "missing access",
            "extra access", "resource rewards",
        ],
    )
    def test_refused(self, change, message):
        with pytest.raises(ValueError, match=message):
            replace(builtin_scenario("table2_once"), **change)

    @pytest.mark.parametrize("field", ["calm_to_alert", "alert_to_alert"])
    @pytest.mark.parametrize("rate", [1.5, -0.5, float("nan")])
    def test_rate_out_of_range_refused(self, field, rate):
        # a NaN rate fails the range test as well
        with pytest.raises(ValueError, match=f"{field} {rate} outside \\[0, 1\\]"):
            replace(builtin_scenario("table2_once"), **{field: rate})

    @pytest.mark.parametrize(
        "entries",
        ["1234", ("1.5", 2, 3, 4), (True, 2, 3, 4)],
        ids=["string", "str entry", "bool entry"],
    )
    def test_reward_entries_must_be_numbers(self, entries):
        # float() would take each of these: a string as its characters, "1.5" and True as numbers
        with pytest.raises(TypeError, match="reward_access entries must be numbers"):
            replace(builtin_scenario("table2_once"), reward_access=entries)
        with pytest.raises(TypeError, match="reward_resource entries must be numbers"):
            replace(builtin_scenario("table2_once"), reward_resource=entries[:2])

    @pytest.mark.parametrize("field", ["beta", "calm_to_alert", "alert_to_alert"])
    def test_scalars_must_be_numbers(self, field):
        # float() would read True as 1.0, which is a rate in range
        with pytest.raises(TypeError, match=f"{field} must be a number, got True"):
            replace(builtin_scenario("table2_once"), **{field: True})

    @pytest.mark.parametrize("field", ["beta", "calm_to_alert", "alert_to_alert"])
    def test_scalars_are_floats(self, field):
        # an np.float32 is stored as the float it is, so the scenario parsed
        # back from its rendering is equal to it and hashes alike
        sc = replace(builtin_scenario("table2_once"), **{field: np.float32(0.1)})
        assert type(getattr(sc, field)) is float
        parsed = parse_scenario(render_scenario(sc))
        assert parsed == sc and hash(parsed) == hash(sc)

    @pytest.mark.parametrize("field", ["user_names", "resource_names"])
    def test_labels_must_not_be_a_string(self, field):
        # tuple() would take "ab" as the labels a and b
        with pytest.raises(TypeError, match=f"{field} must be a sequence of labels"):
            replace(builtin_scenario("table2_once"), **{field: "ab"})

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

    @pytest.mark.parametrize("kind", [list, np.array])
    def test_rewards_are_tuples_of_floats(self, kind):
        # a list or an array passed in is copied, so the scenario stays immutable
        want = builtin_scenario("table2_once")
        grants, penalties = kind(want.reward_access), kind(want.reward_resource)
        sc = replace(want, reward_access=grants, reward_resource=penalties)
        grants[0] = penalties[0] = 99.0
        for got in (sc.reward_access, sc.reward_resource):
            assert type(got) is tuple and all(type(x) is float for x in got)
        assert sc == want and hash(sc) == hash(want)

    def test_labels_are_tuples(self):
        # a list passed in is copied, so the scenario stays hashable, and its
        # shape and rendering stay those of the labels it was built with
        want = builtin_scenario("table2_once")
        users, resources = list(want.user_names), list(want.resource_names)
        sc = replace(want, user_names=users, resource_names=resources)
        users.append("carol")
        resources.append("mid")
        assert type(sc.user_names) is tuple and type(sc.resource_names) is tuple
        assert sc == want and hash(sc) == hash(want)
        assert sc.dims == want.dims
        assert parse_scenario(render_scenario(sc)) == want


class TestNonFiniteRewards:
    @pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
    def test_scenario_refuses(self, bad):
        sc = builtin_scenario("table2_once")
        with pytest.raises(ValueError, match="finite"):
            replace(sc, reward_resource=(0.0, bad))
        with pytest.raises(ValueError, match="finite"):
            replace(sc, reward_access=(*sc.reward_access[:3], bad))


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
        reward_access=tuple(draw(rewards) for _ in dims.accesses()),
        reward_resource=tuple(draw(rewards) for _ in resources),
        calm_to_alert=draw(st.floats(0, 1)),
        alert_to_alert=draw(st.floats(0, 1)),
        behavior=draw(st.sampled_from(RequestBehavior)),
        variant=draw(st.sampled_from(RewardVariant)),
        beta=draw(st.floats(0, 1, exclude_max=True)),
    )


class TestRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(sc=scenarios())
    def test_render_parses_back_and_exports_import(self, sc, tmp_path_factory):
        assert parse_scenario(render_scenario(sc)) == sc
        assert hash(parse_scenario(render_scenario(sc))) == hash(sc)
        if sc.dims.num_users == 1:
            path = tmp_path_factory.mktemp("values") / "values.txt"
            export_values(solve_scenario(sc), path)
            loaded = import_values(path, scenario=sc)
            assert loaded.scenario is sc
            # the rows list the requests in access-bit order, u * resources + r
            requests = [row[2:4] for row in loaded.rows if row.req_user != "eps"]
            assert list(dict.fromkeys(u for u, _ in requests)) == list(sc.user_names)
            assert list(dict.fromkeys(r for _, r in requests)) == list(sc.resource_names)


class TestBuiltins:
    def test_table1_parameters(self):
        sc = builtin_scenario("table1")
        assert sc.beta == 0.0
        assert sc.calm_to_alert == 0.0
        assert sc.behavior is RequestBehavior.UNIQUE

    def test_table2_all_emergency(self):
        assert builtin_scenario("table2_all").calm_to_alert == pytest.approx(0.1)

    def test_modified_variant(self):
        assert builtin_scenario("modified_unique").variant is RewardVariant.EPS_ACCRUES

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            builtin_scenario("table3")

    def test_builtin_rewards(self):
        sc = builtin_scenario("table2_once")
        # alice low, alice high, bob low, bob high
        assert sc.reward_access == (6, 10, 4, -10)
        assert sc.reward_resource == (0, -20)

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_round_trip(self, name):
        sc = builtin_scenario(name)
        assert parse_scenario(render_scenario(sc)) == sc

    def test_round_trip_without_exponents(self):
        # repr would write 1e-08, which the format refuses
        sc = replace(
            builtin_scenario("modified_unique"), calm_to_alert=1e-8, alert_to_alert=1 - 1e-8
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


# characters a hand edit or a tool may leave in a scenario file: a BOM, CR, NBSP,
# full-width and Arabic-Indic digits, and text the format gives a meaning to
EDIT_CHARS = [
    "\ufeff", "\r", "\xa0", "\uff10", "\uff11", "\u0660", "\u0661", "_", "+", "#", "=",
    "[", "]", " ", "\t", "\n",
]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    name=st.sampled_from(BUILTIN_NAMES),
    edit=st.sampled_from(["insert", "delete", "replace"]),
    where=st.floats(0.0, 1.0, exclude_max=True),
    char=st.one_of(st.sampled_from(EDIT_CHARS), st.characters(blacklist_categories=("Cs",))),
)
def test_a_one_character_edit_is_refused_or_parses_to_a_scenario_that_round_trips(
    name, edit, where, char
):
    # the parser refuses an edited file naming only lines it has, or reads a
    # scenario whose canonical rendering parses back to it
    text = render_scenario(builtin_scenario(name))
    at = int(where * len(text))
    edited = text[:at] + ("" if edit == "delete" else char) + text[at + (edit != "insert") :]
    try:
        sc = parse_scenario(edited)
    except ScenarioParseError as err:
        assert err.errors
        for message in err.errors:
            for line in re.findall(r"\bline (\d+)", message):
                assert 1 <= int(line) <= len(edited.splitlines())
    else:
        again = parse_scenario(render_scenario(sc))
        assert again == sc
        assert scenario_fingerprint(again) == scenario_fingerprint(sc)
