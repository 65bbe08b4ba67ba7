import numpy as np
import pytest

from acmdp import LinearProgram, SimplexStatus, simplex_solve


def lp(c, a, b):
    return LinearProgram(np.asarray(c, float), np.asarray(a, float), np.asarray(b, float))


class TestSimplexSolve:
    def test_single_bound(self):
        result = simplex_solve(lp([1], [[1]], [5]))
        assert result.status is SimplexStatus.OPTIMAL
        assert result.values == pytest.approx([5.0])
        assert result.objective == pytest.approx(5.0)

    def test_two_variable_hand_solved(self):
        # min x + y s.t. x >= 1, y >= -2, x - y >= 4
        result = simplex_solve(lp([1, 1], [[1, 0], [0, 1], [1, -1]], [1, -2, 4]))
        assert result.status is SimplexStatus.OPTIMAL
        assert result.values == pytest.approx([2.0, -2.0])
        assert result.objective == pytest.approx(0.0)

    def test_negative_optimum(self):
        # free variable pushed below zero: min x s.t. x >= -7, -x >= -3
        result = simplex_solve(lp([1], [[1], [-1]], [-7, -3]))
        assert result.status is SimplexStatus.OPTIMAL
        assert result.values == pytest.approx([-7.0])

    def test_infeasible(self):
        # x >= 3 and -x >= -1 cannot both hold
        result = simplex_solve(lp([1], [[1], [-1]], [3, -1]))
        assert result.status is SimplexStatus.INFEASIBLE
        assert result.values is None

    def test_unbounded(self):
        # min -x s.t. x >= 0
        result = simplex_solve(lp([-1], [[1]], [0]))
        assert result.status is SimplexStatus.UNBOUNDED

    def test_redundant_constraints(self):
        result = simplex_solve(lp([1, 1], [[1, 1], [1, 1], [2, 2]], [2, 2, 4]))
        assert result.status is SimplexStatus.OPTIMAL
        assert result.objective == pytest.approx(2.0)

    def test_degenerate_vertex(self):
        # three constraints meet at (1, 1)
        result = simplex_solve(
            lp([1, 1], [[1, 0], [0, 1], [1, 1]], [1, 1, 2])
        )
        assert result.status is SimplexStatus.OPTIMAL
        assert result.values == pytest.approx([1.0, 1.0])

    def test_iteration_limit(self):
        result = simplex_solve(lp([1, 1], [[1, 0], [0, 1]], [1, 1]), max_iter=1)
        assert result.status is SimplexStatus.ITERATION_LIMIT

    def test_deterministic(self):
        problem = lp([1, 2, 3], [[1, 1, 0], [0, 1, 1], [1, 0, 1]], [2, 3, 4])
        a = simplex_solve(problem)
        b = simplex_solve(problem)
        assert np.array_equal(a.values, b.values)
        assert a.pivots == b.pivots

    def test_feasibility_of_solution(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = rng.normal(size=(6, 3))
            x0 = rng.normal(size=3)
            b = a @ x0 - rng.uniform(0.0, 1.0, size=6)  # x0 is feasible
            c = rng.uniform(0.1, 1.0, size=6) @ a  # bounded by construction
            problem = lp(c, a, b)
            result = simplex_solve(problem)
            assert result.status is SimplexStatus.OPTIMAL
            assert np.all(a @ result.values >= b - 1e-8)
