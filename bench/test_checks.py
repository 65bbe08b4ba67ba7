"""The benchmark's checkers pass right outputs and count wrong ones as failed.

    python3 -m pytest bench/test_checks.py

Each workload's checker gets one real output from the program and one
deliberately broken copy of it; check_outputs must count exactly the
broken one.  Small models stand in for the 3 x 3 scenario so the test
runs in seconds.
"""

import copy
import dataclasses
import random
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402


def small_model(seed: int) -> checks.Model:
    """A 2 x 2 scenario under the all behaviour, rewards from the seed."""
    rng = random.Random(seed)
    return checks.Model(
        users=("ann", "bob"),
        resources=("disk", "mail"),
        access_reward=tuple(tuple(rng.randint(-100, 200) / 10 for _ in range(2)) for _ in range(2)),
        resource_reward=tuple(rng.randint(-300, 0) / 10 for _ in range(2)),
        beta=0.9, behavior="all", variant="eps_zero", calm_to_alert=0.1, alert_to_alert=1.0,
    )


def assert_only_second_fails(workload, item, good, bad):
    wrong, problems = worker.check_outputs(workload, [(item, good), (item, bad)])
    assert wrong == 1, problems
    assert problems[0].startswith("op 1 "), problems


def test_paper_lp_perturbed_values():
    workload = worker.PaperLp({"builtins": ["table2_once"]})
    good = workload.capture("table2_once", workload.run("table2_once"), True)
    bad = dict(good, values=good["values"].copy())
    bad["values"][17] += 1e-3
    assert_only_second_fails(workload, "table2_once", good, bad)


def test_paper_lp_table_mismatch():
    workload = worker.PaperLp({"builtins": ["table2_all"]})
    good = workload.capture("table2_all", workload.run("table2_all"), True)
    bad = copy.deepcopy(good)
    bad["name"] = "table2_unique"  # right solution, compared with the wrong paper table
    wrong, _ = worker.check_outputs(workload, [("x", good), ("x", bad)])
    assert wrong == 1


def test_crossover_moved_out_of_range():
    workload = worker.CrossoverSweep({})
    record = workload.capture("unique", workload.run("unique"), True)
    moved = dict(record, root=0.52, bracket=(0.51995, 0.52005))
    assert_only_second_fails(workload, "unique", record, moved)


def _solve_inputs(tmp_path, model):
    scenario = tmp_path / "scenario.txt"
    scenario.write_text(checks.render(model))
    return {"scenario": str(scenario), "dir": str(tmp_path), "model": dataclasses.asdict(model)}


def test_export_truncated(tmp_path):
    workload = worker.Solve3x3(_solve_inputs(tmp_path, small_model(3)))
    good = workload.capture(0, workload.run(0), True)
    bad = workload.capture(1, workload.run(1), True)
    lines = Path(bad["export"]).read_text().splitlines()
    Path(bad["export"]).write_text("\n".join(lines[:-40]) + "\n")
    assert_only_second_fails(workload, 0, good, bad)


def test_solve_values_off_their_policy(tmp_path):
    workload = worker.Solve3x3(_solve_inputs(tmp_path, small_model(4)))
    good = workload.capture(0, workload.run(0), True)
    bad = dict(good, values=good["values"] + 1e-4)
    assert_only_second_fails(workload, 0, good, bad)


def test_lookup_flipped_decision(tmp_path):
    model = small_model(5)
    inputs = _solve_inputs(tmp_path, model)
    paths, build = run.make_table(inputs)
    assert build["problems"] == []
    inputs.update(paths)
    workload = worker.PdpLookup(inputs)
    query = ["alert", 5, "bob", "mail"]
    row, decision = workload.run(query)
    assert_only_second_fails(workload, query, (query, (row, decision)), (query, (row, not decision)))


def test_lookup_wrong_row(tmp_path):
    model = small_model(6)
    inputs = _solve_inputs(tmp_path, model)
    inputs.update(run.make_table(inputs)[0])
    workload = worker.PdpLookup(inputs)
    query, other = ["calm", 2, "ann", "disk"], ["calm", 3, "ann", "disk"]
    answer = workload.run(other)
    wrong, _ = worker.check_outputs(workload, [(query, (query, answer))])
    assert wrong == 1


def test_raised_operation_is_not_checked():
    workload = worker.PaperLp({"builtins": ["table1"]})
    good = workload.capture("table1", workload.run("table1"), True)
    assert worker.check_outputs(workload, [None, ("table1", good)]) == (0, [])


@pytest.mark.parametrize("name", ["table1", "table2_all", "modified_once"])
def test_own_model_matches_compiled_system(name):
    from acmdp import builtin_scenario, compile_system

    system = compile_system(builtin_scenario(name))
    mats, q = checks.build(checks.classic_model(name))
    for a in (0, 1):
        assert abs(system.transitions[a] - mats[a]).max() == 0.0
    assert np.max(np.abs(system.q - q)) < 1e-12
