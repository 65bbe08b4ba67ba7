"""The paper's Bellman LP, solved by an LP solver, against policy_iterate.

The paper hands GLPK the primal LP: min sum V s.t. (I - beta P^a) V >= q^a
for every action.  policy_iterate solves its dual by block pivots, so here
HiGHS (scipy.optimize.linprog; Huangfu & Hall 2018) solves the primal as
written, with P^a and q^a from the per-state build (tests/oracle.py), which
shares no code with the kernel.  Each side's values lie within its own
certificate of the optimum, residual / (1 - beta) plus rounding (Puterman
1994, sections 6.2-6.3), so the two lie within the sum.  Since a residual
certifies values against the kernel's model, HiGHS's values must also
satisfy the kernel's rows as verify_solution requires of any solution.
HiGHS stays a test dependency: no package module loads scipy.optimize.
"""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example
from oracle import oracle_compile
from scipy import sparse
from scipy.optimize import linprog
from scipy.sparse.linalg import spsolve
from test_bellman import small_scenario
from test_policy import random_scenarios

import acmdp
from acmdp import BUILTIN_NAMES, builtin_scenario, decision_values, solve_scenario, verify_solution
from acmdp.bellman import rounding_allowance


def highs_values(sc):
    """The optimal values of sc's Bellman LP, built per state: HiGHS's basis, solved exactly.

    HiGHS drops constraint coefficients below its small_matrix_value (about
    1e-9 when beta times a rate is that small), so its x can break a row of
    the full model by more than VERIFY_TOL.  Its optimal basis, each state's
    tighter row at x, is solved again with every coefficient kept.
    """
    mats, q = oracle_compile(sc)
    n = q.shape[1]
    rows = sparse.vstack([sparse.identity(n) - sc.beta * m for m in mats], format="csr")
    # linprog takes A_ub x <= b_ub, so each row is negated
    result = linprog(np.ones(n), A_ub=-rows, b_ub=-q.ravel(), bounds=(None, None), method="highs")
    assert result.status == 0, result.message
    slack = (rows @ result.x - q.ravel()).reshape(2, n)
    basis = np.argmin(slack, axis=0) * n + np.arange(n)
    return spsolve(rows[basis].tocsc(), q.ravel()[basis])


def certificate(system, values):
    """How far values may lie from the optimum: residual / (1 - beta) plus rounding."""
    residual = verify_solution(values, decision_values(system, values)).residual
    return residual / (1.0 - system.beta) + rounding_allowance(values, system.beta)


def assert_highs_agrees(sc):
    solution = solve_scenario(sc, "lp")
    system, highs = solution.system, highs_values(sc)
    # HiGHS's optimum of the per-state LP is an optimum of the kernel's: a
    # wrong build on either side would leave some row broken or loose
    report = verify_solution(highs, decision_values(system, highs))
    assert report.feasible() and report.all_tight()
    bound = certificate(system, solution.values) + certificate(system, highs)
    assert np.max(np.abs(solution.values - highs)) <= bound
    # priced by the kernel, HiGHS's values pick the LP's action wherever the
    # LP's gap is clear of both the values' bound and the pricing's rounding
    dv = decision_values(system, highs)
    gap = solution.dv[1] - solution.dv[0]
    clear = np.abs(gap) > 2.0 * (bound + rounding_allowance(solution.dv, system.beta))
    assert np.array_equal(np.sign(dv[1] - dv[0])[clear], np.sign(gap)[clear])


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtins_agree_with_highs(name):
    assert_highs_agrees(builtin_scenario(name))


@random_scenarios(12)
# beta times the alert-to-alert rate times a request weight, about 1e-9, is
# below HiGHS's small_matrix_value: its own x breaks a row by 2.9e-8
@example(2, 2, "once", "eps_zero", (0.0, 7.975810312221833e-05), 6.103515625e-05, 0)
def test_random_scenarios_agree_with_highs(users, resources, behavior, variant, rates, beta, seed):
    assert_highs_agrees(small_scenario(users, resources, behavior, variant, rates, beta, seed))


def test_no_package_module_imports_scipy_optimize():
    for path in Path(acmdp.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module, *(f"{node.module}.{alias.name}" for alias in node.names)]
            else:
                continue
            assert not any(name.startswith("scipy.optimize") for name in names), path.name
