import dataclasses
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from test_bellman import small_scenario
from test_policy import (
    OVERFLOW,
    near_the_float_maximum,
    not_optimal,
    overflowing,
    random_scenarios,
    residual_share,
)

import acmdp
from acmdp import (
    BUILTIN_NAMES,
    builtin_scenario,
    compile_system,
    export_values,
    import_values,
    render_scenario,
    solve_scenario,
)
from acmdp.cli import EXPONENT_FROM, _shown, build_parser, main
from acmdp.experiments import SweepSpec
from acmdp.policy import PRINT_TOL, SOLVERS

BAD_SCENARIO_FILE = """\
[model]
users = alice bob
resources = high low
beta = 1.5
behavior = once
reward_variant = eps_zero
"""


@pytest.fixture(scope="module")
def scenario_3x3(tmp_path_factory):
    path = tmp_path_factory.mktemp("scenarios") / "3x3.txt"
    path.write_text(render_scenario(small_scenario(3, 3, "all", "eps_zero", rates=(0.1, 1.0))))
    return path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_table1_vi(self, capsys, tmp_path):
        out_file = tmp_path / "values.txt"
        code, out, _ = run(
            capsys, "solve", "--builtin", "table1", "--solver", "vi", "--out", str(out_file)
        )
        assert code == 0
        assert "states: 160" in out
        assert "iterations: 1" in out
        assert out_file.exists()

    def test_table2_all_lp_residual(self, capsys):
        code, out, _ = run(capsys, "solve", "--builtin", "table2_all", "--solver", "lp")
        assert code == 0
        assert "policy bases: 1" in out
        residual = float(out.split("max residual:")[1].strip())
        assert residual <= 1e-9

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_prints_the_reports_residual(self, capsys, solver):
        # ||V - TV||, both halves: value iteration's values break no row, yet leave none tight
        code, out, _ = run(capsys, "solve", "--builtin", "table2_once", "--solver", solver)
        report = solve_scenario(builtin_scenario("table2_once"), solver).report
        assert code == 0
        assert f"max residual: {report.residual:.3g}\n" in out

    def test_3x3_scenario_file_default_solver(self, capsys, scenario_3x3):
        code, out, _ = run(capsys, "solve", "--scenario", str(scenario_3x3))
        assert code == 0
        assert "states: 10240" in out
        residual = float(out.split("max residual:")[1].strip())
        assert residual <= 1e-9

    def test_solvers_agree_on_files(self, capsys, tmp_path):
        lp_file, vi_file = tmp_path / "lp.txt", tmp_path / "vi.txt"
        run(capsys, "solve", "--builtin", "table2_once", "--solver", "lp", "--out", str(lp_file))
        run(capsys, "solve", "--builtin", "table2_once", "--solver", "vi", "--out", str(vi_file))
        for left, right in zip(lp_file.read_text().splitlines()[2:],
                               vi_file.read_text().splitlines()[2:]):
            lf, rf = left.split(","), right.split(",")
            assert lf[:4] == rf[:4]
            assert float(lf[4]) == pytest.approx(float(rf[4]), abs=1e-6)

    def test_a_leading_byte_order_mark_is_ignored(self, capsys, tmp_path):
        # an editor may save the scenario as UTF-8 with a BOM; it solves as the plain file
        text = render_scenario(builtin_scenario("table2_once")).encode("utf-8")
        (tmp_path / "plain.txt").write_bytes(text)
        (tmp_path / "bom.txt").write_bytes(b"\xef\xbb\xbf" + text)
        outputs = []
        for name in ("plain", "bom"):
            values = tmp_path / f"{name}_values.txt"
            code, out, err = run(
                capsys, "solve", "--scenario", str(tmp_path / f"{name}.txt"), "--out", str(values)
            )
            assert (code, err) == (0, "")
            outputs.append((out.replace(str(values), "<values>"), values.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_scenario_file_errors(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text(BAD_SCENARIO_FILE)
        code, _, err = run(capsys, "solve", "--scenario", str(bad), "--solver", "vi")
        assert code == 2
        assert "beta" in err


class TestDecisions:
    def test_table1_grid(self, capsys):
        code, out, _ = run(capsys, "decisions", "--builtin", "table1")
        assert code == 0
        lines = [ln for ln in out.splitlines() if ln]
        assert "(alice, low)" in lines[0] and "(bob, high)" in lines[0]
        grids = [ln.split()[2:] for ln in lines[1:5]]
        assert grids[0] == ["0.00"] * 4
        assert grids[1] == ["6.00", "10.00", "4.00", "-10.00"]
        assert grids[2] == ["-20.00"] * 4
        assert grids[3] == ["-14.00", "10.00", "-16.00", "-10.00"]

    def test_csv_output(self, capsys, tmp_path):
        csv = tmp_path / "grid.csv"
        code, _, _ = run(
            capsys, "decisions", "--builtin", "table1", "--solver", "vi", "--csv", str(csv)
        )
        assert code == 0
        lines = csv.read_text().splitlines()
        assert lines[0] == "status,user,resource,dv_deny,dv_allow,chosen,gap"
        assert len(lines) == 9
        bob_high = [ln for ln in lines if ln.startswith("calm,bob,high")][0]
        assert bob_high.split(",")[5] == "deny"

    def test_huge_values_print_in_exponent_form(self, capsys, tmp_path):
        path = tmp_path / "huge.txt"
        path.write_text(render_scenario(near_the_float_maximum()))
        code, out, _ = run(capsys, "decisions", "--scenario", str(path))
        assert code == 0
        cells = [cell for line in out.splitlines()[1:] for cell in line.split()[2:]]
        assert len(cells) == 16
        assert all(re.fullmatch(r"7\.\d\de\+307", cell) for cell in cells), cells


@pytest.mark.parametrize(
    "value, shown",
    [
        (0.0, "0.00"),
        (-10.0, "-10.00"),
        (EXPONENT_FROM - 0.125, "999999999999999.88"),
        (EXPONENT_FROM, "1.00e+15"),
        (-EXPONENT_FROM, "-1.00e+15"),
        (7.4812e307, "7.48e+307"),
        (float("inf"), "inf"),
        (float("nan"), "nan"),
    ],
)
def test_decision_values_print_two_decimals_below_the_exponent_size(value, shown):
    # the largest float below 1e15 still prints its two decimals
    assert _shown(value) == shown


class TestSweep:
    def test_csv_and_crossover_output(self, capsys, tmp_path):
        csv = tmp_path / "sweep.csv"
        code, out, _ = run(
            capsys,
            "sweep",
            "--builtin",
            "table2_unique",
            "--solver",
            "vi",
            "--start",
            "0.4",
            "--stop",
            "0.6",
            "--step",
            "0.1",
            "--out",
            str(csv),
        )
        assert code == 0
        assert len(csv.read_text().splitlines()) == 4
        assert "crossover (bob, high): 0.5000" in out

    @pytest.mark.parametrize("step", ["0", "-0.1", "nan", "inf"])
    def test_step_not_positive_and_finite_exits_2(self, capsys, step):
        code, out, err = run(capsys, "sweep", "--builtin", "table2_once", "--step", step)
        assert (code, out) == (2, "")
        assert err == f"error: step must be positive and finite, got {float(step)}\n"

    @pytest.mark.parametrize(
        "step, points", [("1e-9", "1e+09"), ("5e-324", "inf")], ids=["fine", "subnormal"]
    )
    def test_oversized_grid_exits_2_before_building_it(self, capsys, monkeypatch, step, points):
        def unbuilt(self):
            raise AssertionError("an oversized sweep built its grid")

        monkeypatch.setattr(acmdp.experiments.SweepSpec, "grid", unbuilt)
        code, out, err = run(capsys, "sweep", "--builtin", "table2_once", "--step", step)
        assert (code, out) == (2, "")
        assert err == (
            f"error: step {float(step)} makes a grid of {points} points, "
            f"more than the 100001 a sweep may have\n"
        )

    def test_step_past_the_stop_keeps_start(self, capsys):
        code, out, _ = run(capsys, "sweep", "--builtin", "table2_once", "--step", "1e10")
        assert code == 0
        assert [line.split(",")[0] for line in out.splitlines()[1:3]] == ["0", "1"]
        assert "crossover (bob, high): 0.1897" in out

    def test_python_dash_m_runs_the_cli(self, capsys):
        src = str(Path(acmdp.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        argv = ["sweep", "--builtin", "table2_unique"]
        out = subprocess.run(
            [sys.executable, "-m", "acmdp", *argv], env=env, capture_output=True, text=True
        )
        assert out.returncode == 0, out.stderr
        assert "crossover (bob, high): 0.5000" in out.stdout
        assert out.stdout == run(capsys, *argv)[1]


class TestEval:
    @pytest.fixture
    def table1_values(self, capsys, tmp_path):
        path = tmp_path / "table1.txt"
        run(capsys, "solve", "--builtin", "table1", "--solver", "vi", "--out", str(path))
        return path

    @pytest.fixture
    def all_values(self, capsys, tmp_path):
        path = tmp_path / "all.txt"
        run(capsys, "solve", "--builtin", "table2_all", "--solver", "vi", "--out", str(path))
        return path

    def test_deny_exit_code(self, capsys, table1_values):
        code, out, _ = run(
            capsys,
            "eval",
            "--builtin",
            "table1",
            "--values",
            str(table1_values),
            "--emergency",
            "calm",
            "--request",
            "bob:high",
        )
        assert code == 1
        assert "decision: deny" in out
        assert "gap: 10.00" in out

    def test_allow_exit_code_with_gap(self, capsys, all_values):
        code, out, _ = run(
            capsys,
            "eval",
            "--builtin",
            "table2_all",
            "--values",
            str(all_values),
            "--emergency",
            "alert",
            "--request",
            "alice:high",
        )
        assert code == 0
        assert "decision: allow" in out
        assert "gap: 50.45" in out

    def test_huge_values_print_in_exponent_form(self, capsys, tmp_path):
        scenario, values = tmp_path / "huge.txt", tmp_path / "values.txt"
        scenario.write_text(render_scenario(near_the_float_maximum()))
        run(capsys, "solve", "--scenario", str(scenario), "--out", str(values))
        query = ["--values", str(values), "--emergency", "calm", "--request", "alice:low"]
        code, out, _ = run(capsys, "eval", "--scenario", str(scenario), *query)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "decision: allow"
        for line, name in zip(lines[1:], ("dv_deny", "dv_allow", "gap")):
            assert re.fullmatch(rf"{name}: \d\.\d\de\+30[57]", line), line

    def test_granted_set_query(self, capsys, table1_values):
        code, out, _ = run(
            capsys,
            "eval",
            "--builtin",
            "table1",
            "--values",
            str(table1_values),
            "--emergency",
            "alert",
            "--granted",
            "alice:high",
            "--request",
            "bob:low",
        )
        assert code in (0, 1)
        assert "dv_deny" in out

    def test_fingerprint_enforced_with_scenario(self, capsys, tmp_path):
        path = tmp_path / "once.txt"
        run(capsys, "solve", "--builtin", "table2_once", "--solver", "vi", "--out", str(path))
        query = ("eval", "--values", str(path), "--emergency", "calm", "--request", "bob:high")
        code, _, err = run(capsys, *query, "--builtin", "table2_all")
        assert code == 2
        assert "fingerprint does not match" in err
        code, out, _ = run(capsys, *query, "--builtin", "table2_once")
        assert code == 1
        assert "decision: deny" in out

    def test_an_action_against_its_decision_values_exits_2(self, capsys, tmp_path):
        path = tmp_path / "once.txt"
        run(capsys, "solve", "--builtin", "table2_once", "--out", str(path))
        text = path.read_text()
        row = next(line for line in text.splitlines() if line.startswith("calm,0,bob,high,"))
        path.write_text(text.replace(row, row.replace(",deny,", ",allow,")))
        code, out, err = run(
            capsys, "eval", "--builtin", "table2_once", "--values", str(path),
            "--emergency", "calm", "--request", "bob:high",
        )
        assert code == 2
        assert out == ""
        assert "action allow contradicts" in err

    @pytest.mark.parametrize(
        "edits, message",
        [
            # a consistent edit: the row's own action, values and decision values agree
            (
                [(5, "high,.*", "high,9,allow,-1.5,9")],
                "line 6: state (calm, 0, bob, high): the table's values give dv_deny",
            ),
            # and a huge value of the state (calm, 1, alice, low), which no row reads
            (
                [(5, "high,.*", "high,9,allow,-1.5,9"), (7, "low,[^,]*", "low,1e300")],
                "line 6: state (calm, 0, bob, high): the table's values give dv_deny",
            ),
            ([(5, "^calm,", " calm ,")], "line 6: expected state (calm, 0, bob, high)"),
        ],
        ids=["consistent edit", "and a huge unread value", "padded emergency"],
    )
    def test_an_edited_row_exits_2(self, capsys, tmp_path, edits, message):
        path = tmp_path / "once.txt"
        run(capsys, "solve", "--builtin", "table2_once", "--out", str(path))
        lines = path.read_text().splitlines()
        assert lines[5].startswith("calm,0,bob,high,")
        assert lines[7].startswith("calm,1,alice,low,")
        for at, pattern, replacement in edits:
            lines[at] = re.sub(pattern, replacement, lines[at], count=1)
        path.write_text("\n".join(lines) + "\n")
        code, out, err = run(
            capsys, "eval", "--builtin", "table2_once", "--values", str(path),
            "--emergency", "calm", "--request", "bob:high",
        )
        assert code == 2
        assert out == ""
        assert message in err

    @pytest.mark.parametrize("shift, exit_code", [(0.2, 1), (2.0, 2)])
    def test_the_certificate_refuses_past_its_bound(self, capsys, tmp_path, shift, exit_code):
        # a decision value may stray from the one the table's values give by
        # PRINT_TOL (|dv| + beta P |V|), P its row's successors; exported tables
        # stray by less than half of that
        path = tmp_path / "once.txt"
        run(capsys, "solve", "--builtin", "table2_once", "--out", str(path))
        lines = path.read_text().splitlines()
        fields = lines[5].split(",")
        assert lines[5].startswith("calm,0,bob,high,") and fields[5] == "deny"
        values = np.array([abs(float(line.split(",")[4])) for line in lines[2:]])
        system = compile_system(builtin_scenario("table2_once"))
        reach = system.beta * float((system.transitions[0] @ values)[3])  # deny, state 3
        dv_deny = float(fields[6])
        fields[6] = repr(dv_deny + shift * PRINT_TOL * (abs(dv_deny) + reach))
        lines[5] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        query = ("--values", str(path), "--emergency", "calm", "--request", "bob:high")
        code, _, err = run(capsys, "eval", "--builtin", "table2_once", *query)
        assert code == exit_code
        if exit_code == 2:
            assert err.startswith("error: line 6: state (calm, 0, bob, high): the table's values")

    @pytest.mark.parametrize("edit", ["forged", "shifted", "forged, huge"])
    def test_values_that_are_not_optimal_exit_2(self, capsys, tmp_path, edit):
        path = not_optimal(solve_scenario(builtin_scenario("table2_once")), tmp_path, edit)
        query = ("--values", str(path), "--emergency", "calm", "--request", "bob:high")
        code, out, err = run(capsys, "eval", "--builtin", "table2_once", *query)
        assert (code, out) == (2, "")
        assert re.match(r"error: line \d+: state \(.*\): its value \S+ is not the larger", err)

    @pytest.mark.parametrize("table", ["honest", "consistent edit", "forged", "shifted"])
    def test_eval_without_a_scenario_exits_2(self, capsys, tmp_path, table):
        # every table is checked against its scenario, so eval needs --builtin or
        # --scenario as every other command does, for an honest or an edited table
        solution = solve_scenario(builtin_scenario("table2_once"))
        if table in ("forged", "shifted"):
            path = not_optimal(solution, tmp_path, table)
        else:
            path = tmp_path / "values.txt"
            export_values(solution, path)
        if table == "consistent edit":
            lines = path.read_text().splitlines()
            assert lines[5].startswith("calm,0,bob,high,")
            lines[5] = "calm,0,bob,high,9,allow,-1.5,9"
            path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--values", str(path), "--emergency", "calm", "--request", "bob:high"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "one of the arguments --scenario --builtin is required" in captured.err

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    @pytest.mark.parametrize("solver", SOLVERS)
    def test_every_builtin_table_passes_the_certificate(self, capsys, tmp_path, name, solver):
        path = tmp_path / "values.txt"
        run(capsys, "solve", "--builtin", name, "--solver", solver, "--out", str(path))
        code, _, err = run(
            capsys, "eval", "--builtin", name, "--values", str(path),
            "--emergency", "alert", "--request", "eps",
        )
        assert (code, err) in ((0, ""), (1, ""))

    @random_scenarios(20)
    def test_random_tables_pass_the_certificate(
        self, tmp_path_factory, users, resources, behavior, variant, rates, beta, seed
    ):
        sc = small_scenario(users, resources, behavior, variant, rates, beta, seed)
        directory = tmp_path_factory.mktemp("certificate")
        (directory / "s.txt").write_text(render_scenario(sc))
        for solver in SOLVERS:
            export_values(solve_scenario(sc, solver), directory / "values.txt")
            code = main(
                ["eval", "--scenario", str(directory / "s.txt"), "--values",
                 str(directory / "values.txt"), "--emergency", "calm", "--request", "u0:r0"]
            )
            assert code in (0, 1)
            rows = import_values(directory / "values.txt", scenario=sc).rows
            assert residual_share(compile_system(sc), rows) < 0.5

    def test_unknown_label_errors(self, capsys, table1_values):
        code, _, err = run(
            capsys,
            "eval",
            "--builtin",
            "table1",
            "--values",
            str(table1_values),
            "--emergency",
            "calm",
            "--request",
            "carol:high",
        )
        assert code == 2
        assert "carol" in err

    @pytest.mark.parametrize(
        "extra,message",
        [
            (("--request", "alice:mail"), "unknown resource 'mail'"),
            (("--request", "carol:high"), "unknown user 'carol'"),
            (("--request", "alice"), "accesses look like user:resource, got 'alice'"),
            (("--request", "eps", "--granted", "bob:mail"), "unknown resource 'mail'"),
        ],
    )
    def test_unknown_access_exits_2(self, capsys, table1_values, extra, message):
        code, out, err = run(
            capsys, "eval", "--builtin", "table1", "--values", str(table1_values),
            "--emergency", "calm", *extra,
        )
        assert code == 2
        assert out == ""
        assert f"error: {message}" in err

    def test_granted_sets_the_access_bit(self, capsys, table1_values):
        # alice:high is access (0, 1), bit 0 * 2 + 1, so the granted set is 2
        table = import_values(table1_values, scenario=builtin_scenario("table1"))
        want = table.lookup("alert", 2, "bob", "low")
        _, out, _ = run(
            capsys, "eval", "--builtin", "table1", "--values", str(table1_values),
            "--emergency", "alert", "--granted", "alice:high", "--request", "bob:low",
        )
        assert f"dv_deny: {want.dv_deny:.2f}" in out
        assert f"dv_allow: {want.dv_allow:.2f}" in out

    @pytest.mark.parametrize("granted", ["", " ", "\t ", "  \n"])
    def test_blank_granted_is_no_grants(self, capsys, table1_values, granted):
        query = ("eval", "--builtin", "table1", "--values", str(table1_values),
                 "--emergency", "alert", "--request", "bob:low")
        want = run(capsys, *query)
        assert run(capsys, *query, "--granted", granted) == want
        assert want[2] == ""


class TestSelfcheck:
    def test_builtin_passes(self, capsys):
        code, out, _ = run(capsys, "selfcheck", "--builtin", "table2_unique")
        assert code == 0
        assert out.count("PASS") == 5
        assert "PASS  lp_vi_agreement: sup-norm gap" in out

    def test_3x3_passes(self, capsys, scenario_3x3):
        code, out, _ = run(capsys, "selfcheck", "--scenario", str(scenario_3x3))
        assert code == 0
        assert out.count("PASS") == 5
        assert "PASS  lp_vi_agreement: sup-norm gap" in out

    def test_skipped_checks_print_skip_and_exit_0(self, capsys, monkeypatch, tmp_path):
        # value iteration that exhausts its budget skips the two agreement checks;
        # at beta = 0.9999 it takes about 19,700 sweeps on this model, as its
        # jumps fail until about the 85th and the rest of its span decays by beta
        sc = dataclasses.replace(acmdp.builtin_scenario("modified_unique"), beta=0.9999)
        path = tmp_path / "slow.txt"
        path.write_text(render_scenario(sc))
        monkeypatch.setattr(acmdp.value_iteration, "DEFAULT_MAX_ITER", 100)
        code, out, err = run(capsys, "selfcheck", "--scenario", str(path))
        assert code == 0, err
        assert out.count("PASS") == 3
        assert out.count("SKIP") == 2
        assert "SKIP  lp_vi_agreement: skipped, value iteration stopped: no convergence" in out

    def test_failed_check_prints_fail_and_exits_1(self, capsys, monkeypatch):
        # value iteration's values moved by 1 break the LP-VI agreement alone
        solve = acmdp.experiments.solve_system

        def shifted(system, solver):
            solution = solve(system, solver)
            if solver == "vi":
                solution.values = solution.values + 1.0
            return solution

        monkeypatch.setattr(acmdp.experiments, "solve_system", shifted)
        code, out, err = run(capsys, "selfcheck", "--builtin", "table2_unique")
        assert code == 1
        assert out.count("PASS") == 4
        assert "FAIL  lp_vi_agreement: sup-norm gap 1 (bound " in out
        assert err == "selfcheck failed at: lp_vi_agreement\n"

    def test_broken_scenario_fails(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text(BAD_SCENARIO_FILE)
        code, _, err = run(capsys, "selfcheck", "--scenario", str(bad))
        assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--out", "table.txt"],
        ["solve", "--solver", "vi", "--out", "table.txt"],
        ["decisions"],
        ["decisions", "--solver", "vi"],
        ["sweep", "--step", "0.25"],
        ["sweep", "--step", "0.25", "--solver", "vi"],
        ["selfcheck"],
    ],
    ids=" ".join,
)
def test_values_that_overflow_exit_2_with_one_error_line(capsys, tmp_path, argv):
    # no numpy warning reaches the user, and no table is written
    path = tmp_path / "overflow.txt"
    path.write_text(render_scenario(overflowing()))
    argv = [str(tmp_path / arg) if arg == "table.txt" else arg for arg in argv]
    code, out, err = run(capsys, *argv, "--scenario", str(path))
    assert (code, out, err) == (2, "", f"error: {OVERFLOW} at beta=0.9\n")
    assert not (tmp_path / "table.txt").exists()


def test_every_option_has_help():
    # no option of any command is listed bare by --help
    (commands,) = [action for action in build_parser()._actions if action.dest == "command"]
    bare = [
        (name, action.option_strings)
        for name, command in commands.choices.items()
        for action in command._actions
        if not action.help
    ]
    assert not bare


def test_defaults_are_the_librarys():
    # the CLI states no default of its own where the library has one
    args = build_parser().parse_args(["sweep", "--builtin", "table1"])
    assert (args.start, args.stop, args.step) == (SweepSpec.start, SweepSpec.stop, SweepSpec.step)


def test_readme_commands_run(capsys, monkeypatch, tmp_path):
    # each acmdp line of the sh block under README's "Command line", in order;
    # eval exits 1 on deny
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("\n## Command line\n", 1)[1].split("```sh\n", 1)[1].split("```")[0]
    commands = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("acmdp ")]
    assert len(commands) == 5
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        code, _, err = run(capsys, *argv)
        assert code in (0, 1), (argv, err)


def test_readme_python_block_runs(monkeypatch, tmp_path):
    # the python block under README's "Library" runs as written; its table goes to tmp_path
    monkeypatch.chdir(tmp_path)
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("\n## Library\n", 1)[1].split("```python\n", 1)[1].split("```")[0]
    names = {}
    exec(block, names)
    # the parameter variation it shows: bob's high access turns to deny at a calmer rate
    assert names["solution"].policy.action(names["i"]) is acmdp.Action.ALLOW
    assert names["calmer"].policy.action(names["i"]) is acmdp.Action.DENY


def test_readme_tolerances_name_existing_constants():
    # every module.NAME under README's "Tolerances" is a constant of that acmdp
    # module, so a renamed or deleted constant cannot stay documented
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## Tolerances\n", 1)[1].split("\n## ", 1)[0]
    names = re.findall(r"`(\w+)\.([A-Z][A-Z0-9_]*)`", section)
    assert len({name for _, name in names}) >= 14
    for module, name in names:
        assert hasattr(getattr(acmdp, module), name), f"{module}.{name}"


def test_commands_run_without_scipy(tmp_path):
    # scipy is a test dependency: with it masked every command exits as it
    # does with it, so a module-level scipy import in the package fails here
    probe = "\n".join(
        [
            "import sys",
            "sys.modules['scipy'] = None  # any import of scipy raises ImportError",
            "from acmdp.cli import main",
            "print([main(argv.split()) for argv in sys.argv[1:]])",
        ]
    )
    commands = [
        "solve --builtin table2_once --solver lp --out values.txt",
        "solve --builtin table2_once --solver vi",
        "decisions --builtin table2_all --csv grid.csv",
        "sweep --builtin table2_once --solver lp --step 0.25",
        "sweep --builtin table2_once --solver vi --step 0.25",
        "eval --builtin table2_once --values values.txt --emergency calm --request bob:high",
        "selfcheck --builtin table2_unique",
    ]
    src = str(Path(acmdp.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", probe, *commands],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0, 1, 0]"


def test_files_are_utf8_under_an_ascii_locale(tmp_path):
    # a label check_labels allows may be non-ASCII: scenario files and value
    # tables are read and written as UTF-8, as scenario_fingerprint hashes
    # them, whatever the locale's encoding
    sc = dataclasses.replace(builtin_scenario("table2_once"), user_names=("josé", "bob"))
    (tmp_path / "s.txt").write_bytes(render_scenario(sc).encode("utf-8"))
    export_values(solve_scenario(sc), tmp_path / "elsewhere.txt")
    probe = "from acmdp.cli import main; import sys; print([main(a.split()) for a in sys.argv[1:]])"
    commands = [
        "solve --scenario s.txt --out u.txt",
        "eval --scenario s.txt --values u.txt --emergency calm --request bob:low",
        "eval --scenario s.txt --values elsewhere.txt --emergency calm --request bob:low",
        # the locale cannot decode josé's bytes: the arguments arrive surrogate-escaped
        "eval --scenario s.txt --values u.txt --emergency calm --request josé:low",
        "eval --scenario s.txt --values u.txt --emergency calm --request bob:low --granted josé:low",
        "decisions --scenario s.txt --csv d.csv",
        "sweep --scenario s.txt --step 0.25 --out w.csv",
    ]
    src = str(Path(acmdp.__file__).resolve().parents[1])
    ascii_env = {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONIOENCODING": "utf-8"}
    out = subprocess.run(
        [sys.executable, "-c", probe, *commands],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=src, **ascii_env),
        capture_output=True,
        text=True,
        encoding="utf-8",
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0, 0, 0]", out.stderr
    assert "josé" in (tmp_path / "d.csv").read_text(encoding="utf-8")
    assert "josé" in (tmp_path / "w.csv").read_text(encoding="utf-8")


def test_surrogate_escaped_labels_are_their_utf8_text(tmp_path, capsys):
    # how Python hands over josé's UTF-8 bytes under an ASCII locale, and a
    # byte that is not UTF-8 at all
    sc = dataclasses.replace(builtin_scenario("table2_once"), user_names=("josé", "bob"))
    scenario, values = tmp_path / "s.txt", tmp_path / "u.txt"
    scenario.write_text(render_scenario(sc), encoding="utf-8")
    export_values(solve_scenario(sc), values)
    common = ["eval", "--scenario", str(scenario), "--values", str(values), "--emergency", "calm"]
    for request in (["--request", "jos\udcc3\udca9:low"], ["--request", "josé:low"]):
        assert main(common + request) == 0
        assert capsys.readouterr().out.startswith("decision: allow\n")
    assert main(common + ["--request", "bob:low", "--granted", "jos\udcc3\udca9:low"]) == 0
    for option in ("--request", "--granted"):
        args = {"--request": "bob:low", option: "jos\udce9:low"}
        with pytest.raises(SystemExit) as exc:
            main(common + [part for pair in args.items() for part in pair])
        assert exc.value.code == 2
        assert f"argument {option}: 'jos\\udce9:low' is not UTF-8 text" in capsys.readouterr().err
