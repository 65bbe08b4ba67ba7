import pytest

from acmdp.cli import main

BAD_SCENARIO_FILE = """\
[model]
users = alice bob
resources = high low
beta = 1.5
behavior = once
reward_variant = eps_zero
"""


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


class TestSelfcheck:
    def test_builtin_passes(self, capsys):
        code, out, _ = run(capsys, "selfcheck", "--builtin", "table2_unique")
        assert code == 0
        assert out.count("PASS") == 5

    def test_broken_scenario_fails(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text(BAD_SCENARIO_FILE)
        code, _, err = run(capsys, "selfcheck", "--scenario", str(bad))
        assert code == 2
