import dataclasses
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from test_bellman import small_scenario

import acmdp
from acmdp import import_values, render_scenario
from acmdp.cli import main

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
        assert "policy bases: 2" in out
        residual = float(out.split("max residual:")[1].strip())
        assert residual <= 1e-9

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

    def test_vi_tolerance_is_honoured(self, capsys):
        def vi_iterations(*tol):
            code, out, _ = run(
                capsys, "solve", "--builtin", "table2_all", "--solver", "vi", *tol
            )
            assert code == 0
            return int(out.split("iterations:")[1].split()[0])

        assert vi_iterations("--tol", "1e-3") < vi_iterations()

    @pytest.mark.parametrize("command", ["solve", "decisions"])
    @pytest.mark.parametrize("solver", ["lp", "vi"])
    @pytest.mark.parametrize("tol", ["nan", "-1"])
    def test_nan_or_negative_tol_exits_2(self, capsys, tmp_path, command, solver, tol):
        argv = [command, "--builtin", "modified_once", "--solver", solver, "--tol", tol]
        out_file = tmp_path / "values.txt"
        if command == "solve":
            argv += ["--out", str(out_file)]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: tol must be zero or positive, got {float(tol)}\n"
        assert not out_file.exists()

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

    def test_granted_set_query(self, capsys, table1_values):
        code, out, _ = run(
            capsys,
            "eval",
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
            capsys, "eval", "--values", str(path), "--emergency", "calm", "--request", "bob:high"
        )
        assert code == 2
        assert out == ""
        assert "action allow contradicts" in err

    def test_unknown_label_errors(self, capsys, table1_values):
        code, _, err = run(
            capsys,
            "eval",
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
            capsys, "eval", "--values", str(table1_values), "--emergency", "calm", *extra
        )
        assert code == 2
        assert out == ""
        assert f"error: {message}" in err

    def test_granted_sets_the_access_bit(self, capsys, table1_values):
        # alice:high is access (0, 1), bit 0 * 2 + 1, so the granted set is 2
        want = import_values(table1_values).lookup("alert", 2, "bob", "low")
        _, out, _ = run(
            capsys, "eval", "--values", str(table1_values), "--emergency", "alert",
            "--granted", "alice:high", "--request", "bob:low",
        )
        assert f"dv_deny: {want.dv_deny:.2f}" in out
        assert f"dv_allow: {want.dv_allow:.2f}" in out

    @pytest.mark.parametrize("granted", ["", " ", "\t ", "  \n"])
    def test_blank_granted_is_no_grants(self, capsys, table1_values, granted):
        query = ("eval", "--values", str(table1_values), "--emergency", "alert",
                 "--request", "bob:low")
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
        # value iteration that exhausts its budget skips the two agreement checks
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
    exec(block, {})


def test_readme_tolerances_name_existing_constants():
    # every module.NAME under README's "Tolerances" is a constant of that acmdp
    # module, so a renamed or deleted constant cannot stay documented
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## Tolerances\n", 1)[1].split("\n## ", 1)[0]
    names = re.findall(r"`(\w+)\.([A-Z][A-Z0-9_]*)`", section)
    assert len({name for _, name in names}) >= 15
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
