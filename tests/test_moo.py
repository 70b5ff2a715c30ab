import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flpareto import moo
from flpareto.moo import (
    Archive,
    ConstraintSpec,
    aggregate_objective,
    crowding_distance,
    dominates,
    hypervolume,
    hypervolume_contributions,
    is_feasible,
    nondominated_sort,
    pareto_front_mask,
    penalize,
    selection_penalty,
)

from conftest import mc_hypervolume, oracle_dominates, oracle_front_mask, oracle_front_partition

vec2 = st.lists(st.floats(-10, 10, allow_nan=False), min_size=2, max_size=2)


class TestDominates:
    def test_strict_improvement_one_coordinate(self):
        assert dominates([1, 2], [2, 2]) is True

    def test_identical_vectors_never_dominate(self):
        assert dominates([1, 2, 3], [1, 2, 3]) is False

    def test_incomparable_pair(self):
        # brute-force check of the definition: 1<=2 but 3>1 fails "<= everywhere"
        assert oracle_dominates([1, 3], [2, 1]) is False
        assert dominates([1, 3], [2, 1]) is False

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            dominates([1, 2], [1, 2, 3])

    @given(vec2, vec2)
    @settings(max_examples=200, deadline=None)
    def test_antisymmetry_and_oracle(self, a, b):
        assert dominates(a, b) == oracle_dominates(a, b)
        if dominates(a, b):
            assert not dominates(b, a)

    @given(vec2)
    @settings(max_examples=100, deadline=None)
    def test_irreflexive(self, a):
        assert not dominates(a, a)


class TestNondominatedSort:
    def test_three_point_example(self):
        fronts = nondominated_sort([[1, 2], [2, 1], [2, 2]])
        assert [sorted(f) for f in fronts] == [[0, 1], [2]]

    def test_single_element(self):
        assert nondominated_sort([[3.0, 4.0]]) == [[0]]

    def test_all_identical(self):
        fronts = nondominated_sort([[1, 1]] * 5)
        assert len(fronts) == 1 and sorted(fronts[0]) == [0, 1, 2, 3, 4]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            nondominated_sort([])

    def test_matches_peeling_oracle_random(self, rng):
        # the fronts as returned, each in ascending index order: the order
        # inside a front sets NSGA-II's survivor order and so later draws
        for _ in range(40):
            n = int(rng.integers(1, 121))
            m = int(rng.integers(1, 5))
            Y = rng.integers(0, 6, size=(n, m)).astype(float)  # many ties
            special = rng.random((n, m)) < 0.04
            Y[special] = rng.choice([np.inf, -np.inf, np.nan], size=int(special.sum()))
            Y[rng.random(n) < 0.03] = np.nan
            assert nondominated_sort(Y) == oracle_front_partition(Y)


class TestCrowdingDistance:
    def test_two_points_boundary_rule(self):
        assert np.all(np.isinf(crowding_distance([[0, 1], [1, 0]])))

    def test_middle_point_normalized_gaps(self):
        d = crowding_distance([[0, 2], [1, 1], [2, 0]])
        assert np.isinf(d[0]) and np.isinf(d[2])
        assert d[1] == pytest.approx(2.0)

    def test_all_identical_degenerate_ranges(self):
        d = crowding_distance([[1, 1]] * 5)
        assert np.isinf(d).sum() == 2
        assert np.all(d[~np.isinf(d)] == 0.0)


class TestHypervolume:
    def test_inclusion_exclusion_example(self):
        assert hypervolume([[1, 2], [2, 1]], [3, 3]) == pytest.approx(3.0)

    def test_unit_box(self):
        assert hypervolume([[0, 0]], [1, 1]) == pytest.approx(1.0)

    def test_empty(self):
        assert hypervolume([], [1, 1]) == 0.0

    def test_unsupported_dimension(self):
        with pytest.raises(ValueError):
            hypervolume([[1, 1, 1, 1]], [2, 2, 2, 2])

    def test_points_above_reference_excluded(self):
        assert hypervolume([[0, 0], [5, 5]], [1, 1]) == pytest.approx(1.0)

    def test_3d_by_inclusion_exclusion(self):
        # two boxes: 4 + 2 - 1 overlap = 5
        got = hypervolume([[0, 1, 0], [1, 0, 1]], [2, 2, 2])
        assert got == pytest.approx(5.0)

    @pytest.mark.parametrize("m", [2, 3])
    def test_monte_carlo_agreement(self, m, rng):
        for trial in range(6):
            n = int(rng.integers(1, 15))
            Y = rng.random((n, m)) * 2.0
            z = np.full(m, 2.5)
            exact = hypervolume(Y, z)
            est, se = mc_hypervolume(Y, z, n_samples=200_000, seed=trial)
            assert abs(exact - est) <= 3.0 * se + 1e-9

    @pytest.mark.parametrize("m", [2, 3])
    def test_monotone_in_points(self, m, rng):
        Y = rng.random((8, m))
        z = np.full(m, 1.5)
        base = hypervolume(Y, z)
        extra = rng.random(m)
        assert hypervolume(np.vstack([Y, extra]), z) >= base - 1e-12
        dominated = Y[0] + 0.1  # strictly worse than an existing point
        assert hypervolume(np.vstack([Y, dominated]), z) == pytest.approx(base)


def _hv2d(Y, z):
    """Exact 2-D hypervolume via a sort-and-sweep over the staircase."""
    Y = Y[np.all(Y <= z, axis=1)]
    if Y.shape[0] == 0:
        return 0.0
    order = np.lexsort((Y[:, 1], Y[:, 0]))  # f1 asc, f2 asc among ties
    f1 = Y[order, 0]
    f2 = Y[order, 1]
    level = np.concatenate(([z[1]], np.minimum.accumulate(f2)[:-1]))
    gain = np.where(f2 < level, (z[0] - f1) * (level - f2), 0.0)
    return float(gain.sum())


def _hv3d(Y, z):
    """Exact 3-D hypervolume by sweeping slabs along the third objective."""
    Y = Y[np.all(Y <= z, axis=1)]
    if Y.shape[0] == 0:
        return 0.0
    Y = Y[np.argsort(Y[:, 2], kind="stable")]
    levels, counts = np.unique(Y[:, 2], return_counts=True)
    edges = np.append(levels, z[2])
    # rows are sorted by f3, so the rows with f3 <= lo are a prefix
    ends = np.cumsum(counts)
    hv = 0.0
    for lo, hi, end in zip(edges[:-1], edges[1:], ends):
        if hi <= lo:
            continue
        hv += _hv2d(Y[:end, :2], z[:2]) * (hi - lo)
    return float(hv)


def _reference_hv3d(Y, z):
    """_hv3d with each slab's active rows found by a mask over all rows."""
    Y = Y[np.all(Y <= z, axis=1)]
    if Y.shape[0] == 0:
        return 0.0
    Y = Y[np.argsort(Y[:, 2], kind="stable")]
    edges = np.append(np.unique(Y[:, 2]), z[2])
    hv = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi <= lo:
            continue
        hv += _hv2d(Y[Y[:, 2] <= lo, :2], z[:2]) * (hi - lo)
    return float(hv)


def _point_sets(rng, m, trials):
    """Random (points, candidates, z) with exact ties, duplicate rows, rows
    outside z, empty point sets and points on the faces of the box."""
    for trial in range(trials):
        z = np.ones(m)
        S = rng.random((int(rng.integers(0, 25)), m)) * 1.2
        C = rng.random((int(rng.integers(1, 30)), m)) * 1.2
        if trial % 3 == 0:
            S, C = np.round(S * 4) / 4, np.round(C * 4) / 4
        if trial % 4 == 1 and len(S) > 1:
            S = np.vstack([S, S[:2], C[:1]])
            C = np.vstack([C, C[:1], S[:1]])
        yield S, C, z


class TestHypervolumeContributions:
    @pytest.mark.parametrize("m", [2, 3])
    def test_matches_hypervolume_differences(self, m, rng):
        for S, C, z in _point_sets(rng, m, 60):
            got = hypervolume_contributions(S, C, z)
            hv_s = hypervolume(S, z)
            want = [hypervolume(np.vstack([S, y]), z) - hv_s for y in C]
            assert np.allclose(got, want, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("m", [2, 3])
    def test_outside_or_weakly_dominated_is_exactly_zero(self, m):
        S = np.array([[0.2] * m, [0.5] * m])
        C = np.array([[0.2] * m, [0.6] * m, [1.5] + [0.0] * (m - 1), [0.1] * m])
        got = hypervolume_contributions(S, C, np.ones(m))
        assert got[:3].tolist() == [0.0, 0.0, 0.0]
        assert got[3] == pytest.approx(0.9**m - 0.8**m)

    def test_empty_points_give_the_candidate_boxes(self):
        got = hypervolume_contributions(np.empty((0, 3)), [[0.5, 0.5, 0.5], [0, 0, 2]], [1, 1, 1])
        assert got.tolist() == [0.125, 0.0]

    def test_dimension_checked(self):
        with pytest.raises(ValueError):
            hypervolume_contributions([[0, 0, 0, 0]], [[1, 1, 1, 1]], [2, 2, 2, 2])
        with pytest.raises(ValueError, match="candidates m=2"):
            hypervolume_contributions([[0, 0, 0]], [[1, 1], [1, 1], [1, 1]], [2, 2, 2])

    # the sweep sums its strips in another order than the staircase oracle
    def test_hv2d_staircase_bitwise(self, rng):
        for S, C, z in _point_sets(rng, 2, 60):
            Y = np.vstack([S, C])
            assert hypervolume(Y, z) == pytest.approx(_hv2d(Y, z), rel=1e-12, abs=0.0)

    # the 3-D sweep sums its slabs in another order than the oracles, so it
    # agrees with them to rounding, not bit for bit; the oracles agree exactly
    def test_hv3d_prefix_slabs_bitwise(self, rng):
        for S, C, z in _point_sets(rng, 3, 60):
            Y = np.vstack([S, C])
            assert _hv3d(Y, z) == _reference_hv3d(Y, z)
            assert hypervolume(Y, z) == pytest.approx(_hv3d(Y, z), rel=1e-12, abs=0.0)
        Y = rng.random((1200, 3))
        Y[::3, 2] = Y[1::3, 2][: len(Y[::3])]  # tied f3 levels
        assert _hv3d(Y, np.ones(3)) == _reference_hv3d(Y, np.ones(3))
        assert hypervolume(Y, np.ones(3)) == pytest.approx(_hv3d(Y, np.ones(3)), rel=1e-12, abs=0.0)


class TestPenalize:
    SPEC = ConstraintSpec(bounds=(None, 0.8), penalties=(0.0, 20.0))

    def test_violation_example(self):
        out = penalize([0.3, 0.9], self.SPEC)
        assert out[1] == pytest.approx(0.9 + 20 * 0.1)

    def test_boundary_unchanged(self):
        assert penalize([0.3, 0.8], self.SPEC)[1] == pytest.approx(0.8)

    def test_unconstrained_coordinate_unchanged(self):
        assert penalize([0.3, 0.5], self.SPEC)[0] == pytest.approx(0.3)

    @given(st.floats(0, 2, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_feasibility_classification(self, v):
        out = penalize([0.0, v], self.SPEC)
        if v > 0.8:
            assert out[1] > v
        else:
            assert out[1] == v

    def test_preserves_dominance_between_feasible(self, rng):
        for _ in range(200):
            a = rng.random(2) * 0.8
            b = rng.random(2) * 0.8
            pa, pb = penalize(a, self.SPEC), penalize(b, self.SPEC)
            assert dominates(a, b) == dominates(pa, pb)

    def test_idempotent_only_when_feasible(self):
        feas = penalize([0.1, 0.5], self.SPEC)
        assert np.allclose(penalize(feas, self.SPEC), feas)
        infeas = np.array([0.1, 0.9])
        once = penalize(infeas, self.SPEC)
        assert not np.allclose(penalize(once, self.SPEC), once)

    @pytest.mark.parametrize("fn", [penalize, selection_penalty, is_feasible])
    def test_objective_count_checked(self, fn):
        # one objective against a two-objective spec must not broadcast
        with pytest.raises(ValueError, match="objective count 1"):
            fn([[0.5]], self.SPEC)
        with pytest.raises(ValueError, match="objective count 3"):
            fn([0.5, 0.5, 0.5], self.SPEC)


class TestAggregate:
    def test_mean(self):
        assert aggregate_objective([0.2, 0.4]) == pytest.approx(0.3)

    def test_single_client(self):
        assert aggregate_objective([0.7]) == pytest.approx(0.7)


class TestArchive:
    def test_bookkeeping(self):
        cs = ConstraintSpec(bounds=(None, 0.8), penalties=(0.0, 20.0))
        a = Archive(constraints=cs)
        a.append_batch(
            np.array([[0.1, 0.2], [0.3, 0.4]]),
            np.array([[0.5, 0.9], [0.2, 0.3]]),
            generation=0,
        )
        assert len(a) == 2
        assert a.feasible.tolist() == [False, True]
        assert a.penalized[0, 1] == pytest.approx(2.9)
        assert a.front_indices() == [1]
        a.append_batch(np.array([[0.5, 0.6]]), np.array([[0.1, 0.1]]), generation=1)
        assert a.genes.shape == (3, 2)
        assert a.generation.tolist() == [0, 0, 1]
        assert a.front_indices() == [2]

    def test_wrong_objective_count_rejected(self):
        a = Archive(constraints=ConstraintSpec.unconstrained(2))
        with pytest.raises(ValueError, match="objective count"):
            a.append_batch(np.zeros((2, 3)), np.zeros((2, 3)), generation=0)
        assert len(a) == 0

    def test_front_mask_keeps_duplicates(self):
        mask = pareto_front_mask([[1, 1], [1, 1], [2, 2]])
        assert mask.tolist() == [True, True, False]


class TestStaircaseSweep:
    # integer grids tie on every axis; a 4 in any column sits on a face of z
    def test_hv3d_matches_oracles_on_ties_and_faces(self, rng):
        z = np.full(3, 4.0)
        for _ in range(200):
            Y = rng.integers(0, 5, size=(int(rng.integers(1, 40)), 3)).astype(float)
            want = _reference_hv3d(Y, z)
            assert _hv3d(Y, z) == want
            assert hypervolume(Y, z) == pytest.approx(want, rel=1e-12, abs=0.0)
        assert hypervolume([[0.0, 0.0, 4.0], [4.0, 0.0, 0.0], [1.0, 4.0, 1.0]], z) == 0.0

    # 2-D input drops the rows the sweep would skip before sweeping; that
    # must leave the sweep's bits as they are, ties on either axis included
    def test_hv2d_front_filter_keeps_sweep_bits(self, rng):
        z = np.array([4.0, 4.5])
        for trial in range(300):
            n = int(rng.integers(1, 80))
            Y = rng.integers(0, 6, size=(n, 2)) * 0.8 if trial % 2 else rng.random((n, 2)) * 5
            inside = Y[np.all(Y <= z, axis=1)]
            padded = np.hstack([inside, np.zeros((len(inside), 1))])
            want = moo._staircase_sweep(padded, [*z, 1.0])[1] if len(inside) else 0.0
            assert hypervolume(Y, z) == want

    # trace.csv's hv columns must not fall when a generation adds nothing
    @pytest.mark.parametrize("m", [2, 3])
    def test_dominated_or_duplicate_point_changes_nothing(self, m, rng):
        z = np.ones(m)
        for trial in range(100):
            Y = rng.random((int(rng.integers(1, 60)), m))
            if trial % 2:
                Y = np.round(Y * 4) / 4
            base = hypervolume(Y, z)
            i = int(rng.integers(0, len(Y)))
            worse = Y[i] + rng.random(m) * (z - Y[i]) * (rng.random(m) < 0.5)
            for extra in (Y[i], worse, np.minimum(Y[i] + 0.1, z)):
                grown = np.vstack([Y, extra])
                assert hypervolume(grown, z) == base
                assert hypervolume(grown[rng.permutation(len(grown))], z) == base

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_front_mask_matches_pairwise_oracle(self, m, rng):
        for trial in range(100):
            n = int(rng.integers(0, 50))
            Y = rng.random((n, m)) if trial % 3 == 0 else rng.integers(0, 4, size=(n, m)).astype(float)
            if n > 1:
                Y = np.vstack([Y, Y[: n // 2]])  # duplicates
            assert pareto_front_mask(Y).tolist() == oracle_front_mask(Y).tolist()

    def test_front_mask_needs_m_at_most_3(self):
        with pytest.raises(ValueError, match="m=4"):
            pareto_front_mask(np.zeros((2, 4)))
