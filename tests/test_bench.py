import numpy as np
import pytest

from conftest import oracle_brute_force_front
from flpareto.bench import (
    CONSTRAINED_TOY_SPEC,
    constrained_toy,
    constrained_toy_problem,
    get_benchmark,
    zdt1,
    zdt1_problem,
)
from flpareto.moo import nondominated_sort, penalize


class TestZdt1:
    def test_origin(self):
        assert zdt1(np.zeros(4)) == pytest.approx([0.0, 1.0])

    def test_first_axis_corner(self):
        x = np.zeros(6)
        x[0] = 1.0
        assert zdt1(x) == pytest.approx([1.0, 0.0])

    def test_front_branch(self, rng):
        # any x with x[1:] = 0 satisfies f2 = 1 - sqrt(f1)
        for _ in range(20):
            x = np.zeros(5)
            x[0] = rng.random()
            f1, f2 = zdt1(x)
            assert f2 == pytest.approx(1.0 - np.sqrt(f1))

    def test_out_of_box_rejected(self):
        with pytest.raises(ValueError):
            zdt1(np.array([0.5, 1.5]))
        with pytest.raises(ValueError):
            zdt1(np.array([0.5]))


class TestConstrainedToy:
    def test_feasible_point(self):
        y = constrained_toy(np.array([0.3, 0.0, 0.0]))
        assert y[2] == pytest.approx(0.7)
        assert y[2] <= 0.8

    def test_penalized_point(self):
        y = constrained_toy(np.array([0.1, 0.0, 0.0]))
        assert y[2] == pytest.approx(0.9)
        pen = penalize(y, CONSTRAINED_TOY_SPEC)
        assert pen[2] == pytest.approx(0.9 + 20 * 0.1)
        assert pen[0] == pytest.approx(y[0])  # unconstrained axes untouched

    def test_feasible_region_boundary(self, rng):
        # feasible iff x1 >= 0.2 exactly
        for _ in range(100):
            x = rng.random(3)
            y = constrained_toy(x)
            assert (y[2] <= 0.8) == (x[0] >= 0.2 - 1e-12)

    def test_quadratic_pair_trades_along_x2(self):
        lo = constrained_toy(np.array([0.3, 0.0, 0.0]))
        hi = constrained_toy(np.array([0.3, 1.0, 0.0]))
        assert lo[0] < hi[0] and lo[1] > hi[1]


class TestBruteForceFront:
    def test_zdt1_grid_matches_analytic_curve(self):
        front = oracle_brute_force_front(zdt1_problem(2), grid=101)
        dev = np.abs(front[:, 1] - (1.0 - np.sqrt(front[:, 0])))
        assert np.max(dev) <= 0.01

    def test_single_point_grid(self):
        front = oracle_brute_force_front(zdt1_problem(2), grid=1)
        assert front.shape == (1, 2)

    def test_feasibility_filter_drops_violations(self):
        prob = constrained_toy_problem(2)
        front = oracle_brute_force_front(prob, grid=41, constraints=CONSTRAINED_TOY_SPEC)
        assert np.all(front[:, 2] <= 0.8)

    def test_resource_limit(self):
        with pytest.raises(ValueError):
            oracle_brute_force_front(zdt1_problem(10), grid=10)

    def test_first_front_consistency_with_sort(self):
        prob = zdt1_problem(2)
        grid = 21
        axes = np.linspace(0, 1, grid)
        X = np.array([[a, b] for a in axes for b in axes])
        Y = np.atleast_2d(prob.evaluate(X, np.zeros(len(X), dtype=np.uint64)))
        first = nondominated_sort(Y)[0]
        got = {tuple(np.round(Y[i], 12)) for i in first}
        want = {tuple(np.round(y, 12)) for y in oracle_brute_force_front(prob, grid=grid)}
        assert got == want

    def test_unknown_benchmark(self):
        with pytest.raises(ValueError):
            get_benchmark("dtlz9")
