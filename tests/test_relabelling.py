"""Relabelling: a scenario whose users and resources are permuted is the same model.

Permuting the users and the resources, with reward_access and reward_resource
carried along, renames the accesses: every granted-set bit and every request
moves to its permuted access and nothing else changes, so the relabelled
model solves to the original values read through that bijection of states
(metamorphic testing; Chen, Cheung & Yiu 1998).  The bijection is built here
from the access-bit order alone, so the relation checks the compile's bit
arithmetic (row_moves, reward_parts' resource columns, draw_index and the
lattice plan) on shapes past the reach of the per-state oracle.  Shapes that
are not square are drawn too: on a square one, a mix-up of num_users and
num_resources computes the same bits.
"""

import contextlib
import dataclasses
import io
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from test_bellman import small_scenario

from acmdp import (
    RequestBehavior,
    RewardVariant,
    export_values,
    import_values,
    render_scenario,
    solve_scenario,
)
from acmdp.bellman import VERIFY_TOL, rounding_allowance
from acmdp.cli import _parse_granted, main
from acmdp.policy import PRINT_TOL, SOLVERS


def relabelled(sc, users, resources):
    """sc with its user i taken from sc's users[i], its resource j from resources[j].

    Also returns, for each access bit of the result, the bit of the same
    access in sc.
    """
    old_bit = (np.array(users)[:, None] * sc.dims.num_resources + resources).ravel()
    renamed = dataclasses.replace(
        sc,
        user_names=tuple(sc.user_names[u] for u in users),
        resource_names=tuple(sc.resource_names[r] for r in resources),
        reward_access=tuple(sc.reward_access[b] for b in old_bit),
        reward_resource=tuple(sc.reward_resource[r] for r in resources),
    )
    return renamed, old_bit


def original_states(sc, old_bit):
    """The index in sc of every state of the relabelled model, in state order.

    States run emergency-major, then by granted set, then by request: the
    accesses in bit order and the empty request last.
    """
    bits, sets = sc.dims.num_access_bits, sc.dims.num_sets
    members = (np.arange(sets)[:, None] >> np.arange(bits)) & 1
    old_set = (members << old_bit).sum(axis=1)
    old_request = np.append(old_bit, bits)
    emergency, granted, request = np.meshgrid(range(2), old_set, old_request, indexing="ij")
    return ((emergency * sets + granted) * (bits + 1) + request).ravel()


@settings(max_examples=25, deadline=None)
@given(
    shape=st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3)]),
    behavior=st.sampled_from(list(RequestBehavior)),
    variant=st.sampled_from(list(RewardVariant)),
    solver=st.sampled_from(SOLVERS),
    rates=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    beta=st.one_of(st.just(0.0), st.floats(0.0, 0.95)),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_a_relabelled_scenario_solves_to_the_relabelled_values(
    shape, behavior, variant, solver, rates, beta, seed, data
):
    users, resources = shape
    sc = small_scenario(users, resources, behavior, variant, rates, beta, seed)
    user_order = data.draw(st.permutations(range(users)), label="users")
    resource_order = data.draw(st.permutations(range(resources)), label="resources")
    renamed, old_bit = relabelled(sc, user_order, resource_order)
    original, solution = solve_scenario(sc, solver), solve_scenario(renamed, solver)
    old = original_states(sc, old_bit)
    # the two solves run the same arithmetic up to the order of its sums
    allowance = rounding_allowance(original.values, beta)
    assert np.max(np.abs(solution.values - original.values[old])) <= allowance
    # each decision value moves by at most the same allowance, taken of the decision
    # values; allow wins where its gap exceeds VERIFY_TOL (extract_policy)
    gap = original.dv[1, old] - original.dv[0, old]
    sure = np.abs(gap - VERIFY_TOL) > 2.0 * rounding_allowance(original.dv, beta)
    assert np.array_equal(solution.policy.actions[sure], original.policy.actions[old][sure])


def granted_names(sc, k):
    """Granted set k of sc as eval's --granted names it: 'user:resource,...'."""
    accesses = [a for bit, a in enumerate(sc.dims.accesses()) if k >> bit & 1]
    return ",".join(f"{sc.user_names[a.user]}:{sc.resource_names[a.resource]}" for a in accesses)


def eval_answer(scenario_path, values_path, emergency, granted, user, resource):
    """eval's exit code and decision line for one state, named by its labels."""
    request = "eps" if user == "eps" else f"{user}:{resource}"
    argv = ["eval", "--scenario", str(scenario_path), "--values", str(values_path)]
    argv += ["--emergency", emergency, "--granted", granted, "--request", request]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(argv)
    return code, out.getvalue().splitlines()[0]


@settings(max_examples=10, deadline=None)
@given(
    shape=st.sampled_from([(2, 2), (2, 3), (3, 2)]),
    behavior=st.sampled_from(list(RequestBehavior)),
    variant=st.sampled_from(list(RewardVariant)),
    solver=st.sampled_from(SOLVERS),
    rates=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    beta=st.one_of(st.just(0.0), st.floats(0.0, 0.95)),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_eval_answers_for_permuted_access_names_agree(
    shape, behavior, variant, solver, rates, beta, seed, data
):
    # a state named by the same access names in a scenario and in its relabelled
    # copy is the same state through the bijection, and both exported tables
    # give it the same answer
    users, resources = shape
    sc = small_scenario(users, resources, behavior, variant, rates, beta, seed)
    user_order = data.draw(st.permutations(range(users)), label="users")
    resource_order = data.draw(st.permutations(range(resources)), label="resources")
    renamed, old_bit = relabelled(sc, user_order, resource_order)
    original = solve_scenario(sc, solver)
    old = original_states(sc, old_bit)
    # the printed numbers move by PRINT_TOL / 2 of their size, past the solves' allowance
    allowance = rounding_allowance(original.values, beta)
    gap = original.dv[1, old] - original.dv[0, old]
    sure = np.abs(gap - VERIFY_TOL) > 2.0 * rounding_allowance(original.dv, beta)
    pick = data.draw(st.integers(0, len(old) - 1), label="state")
    with tempfile.TemporaryDirectory() as scratch:
        paths, solutions = {}, {"original": original, "renamed": solve_scenario(renamed, solver)}
        for name, solution in solutions.items():
            paths[name] = Path(scratch, f"{name}.txt"), Path(scratch, f"{name}.values")
            paths[name][0].write_text(render_scenario(solution.scenario), encoding="utf-8")
            export_values(solution, paths[name][1])
        before = import_values(paths["original"][1], sc)
        after = import_values(paths["renamed"][1], renamed)
        for i, row in enumerate(after.rows):
            emergency, k, user, resource = row[:4]
            granted = granted_names(renamed, k)
            assert _parse_granted(granted, renamed) == k
            # eval reads the names against the original scenario: the bijection's state
            want = before.lookup(emergency, _parse_granted(granted, sc), user, resource)
            assert want == before.rows[old[i]]
            bound = allowance + PRINT_TOL * max(abs(row.value), abs(want.value))
            assert abs(row.value - want.value) <= bound
            if sure[i]:
                assert row.action == want.action
        emergency, k, user, resource = after.rows[pick][:4]
        query = (emergency, granted_names(renamed, k), user, resource)
        answers = [eval_answer(*paths[name], *query) for name in ("original", "renamed")]
        if sure[pick]:
            assert answers[0] == answers[1]
