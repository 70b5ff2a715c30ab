import numpy as np
import pytest

from flpareto.bench import constrained_toy_problem, zdt1_problem
from flpareto.moo import (
    Archive,
    ConstraintSpec,
    EvaluationError,
    Problem,
    crowding_distance,
    hypervolume,
    nondominated_sort,
)
from flpareto.nsga2 import (
    NsgaConfig,
    binary_variation,
    bits_to_unit,
    evaluate_batch,
    latin_hypercube,
    polynomial_mutation,
    run_nsga2,
    run_random_search,
    sbx_crossover,
    select_survivors,
)


class TestSbx:
    def test_identical_parents_identical_children(self, rng):
        p = rng.random(8)
        c1, c2 = sbx_crossover(p, p.copy(), eta=2.0, rng=rng)
        assert np.allclose(c1, p) and np.allclose(c2, p)

    def test_zero_gene_probability_is_identity(self, rng):
        p1, p2 = rng.random(8), rng.random(8)
        c1, c2 = sbx_crossover(p1, p2, eta=2.0, rng=rng, gene_prob=0.0)
        assert np.array_equal(c1, p1) and np.array_equal(c2, p2)

    def test_mean_preservation_before_clipping(self, rng):
        for _ in range(50):
            p1, p2 = rng.random(10), rng.random(10)
            c1, c2 = sbx_crossover(p1, p2, eta=2.0, rng=rng, clip=False)
            assert np.allclose(c1 + c2, p1 + p2, atol=1e-12)

    def test_children_clipped(self, rng):
        p1 = np.full(30, 0.01)
        p2 = np.full(30, 0.99)
        for _ in range(20):
            c1, c2 = sbx_crossover(p1, p2, eta=0.5, rng=rng)
            assert np.all((0 <= c1) & (c1 <= 1)) and np.all((0 <= c2) & (c2 <= 1))

    def test_decoder_mismatch(self, rng):
        with pytest.raises(ValueError):
            sbx_crossover(np.zeros(3), np.zeros(4), 2.0, rng)


class TestPolynomialMutation:
    def test_rate_zero_identity(self, rng):
        p = rng.random(12)
        assert np.array_equal(polynomial_mutation(p, 20.0, 0.0, rng), p)

    def test_bounds_respected_at_corners(self, rng):
        zeros = np.zeros(2000)
        ones = np.ones(2000)
        assert np.all(polynomial_mutation(zeros, 5.0, 1.0, rng) >= 0.0)
        assert np.all(polynomial_mutation(ones, 5.0, 1.0, rng) <= 1.0)

    def test_displacement_shrinks_with_eta(self):
        n = 10_000
        base = np.full(n, 0.5)
        d2 = np.abs(
            polynomial_mutation(base, 2.0, 1.0, np.random.default_rng(0)) - 0.5
        ).mean()
        d20 = np.abs(
            polynomial_mutation(base, 20.0, 1.0, np.random.default_rng(0)) - 0.5
        ).mean()
        assert d20 < d2


class TestBinaryVariation:
    def test_no_crossover_no_flip_identity(self, rng):
        p1 = rng.integers(0, 2, 16).astype(float)
        p2 = rng.integers(0, 2, 16).astype(float)
        c1, c2 = binary_variation(p1, p2, rng, crossover_prob=0.0, flip_prob=0.0)
        assert np.array_equal(c1, p1) and np.array_equal(c2, p2)

    def test_children_are_single_cut_recombination(self, rng):
        p1 = np.zeros(16)
        p2 = np.ones(16)
        for _ in range(30):
            c1, c2 = binary_variation(p1, p2, rng, crossover_prob=1.0, flip_prob=0.0)
            # c1 must be zeros then ones at some cut (cut 0 = full swap)
            cuts = [k for k in range(17) if np.all(c1[:k] == 0) and np.all(c1[k:] == 1)]
            assert cuts, f"not a single-cut child: {c1}"
            k = cuts[0]
            assert np.all(c2[:k] == 1) and np.all(c2[k:] == 0)

    def test_cut_zero_is_full_swap(self):
        p1, p2 = np.zeros(8), np.ones(8)
        for s in range(200):
            rng = np.random.default_rng(s)
            c1, c2 = binary_variation(p1, p2, rng, crossover_prob=1.0, flip_prob=0.0)
            if np.all(c1 == 1):  # cut index 0 occurred
                assert np.all(c2 == 0)
                return
        pytest.fail("cut at index 0 never sampled in 200 seeds")

    def test_expected_flip_count(self):
        rng = np.random.default_rng(7)
        L, trials, rate = 64, 10_000, 0.1
        flips = 0
        p = np.zeros(L)
        for _ in range(trials):
            c1, _ = binary_variation(p, p, rng, crossover_prob=0.0, flip_prob=rate)
            flips += int(c1.sum())
        mean = flips / trials
        sigma = np.sqrt(L * rate * (1 - rate) / trials)
        assert abs(mean - rate * L) <= 4 * sigma

    def test_length_mismatch(self, rng):
        with pytest.raises(ValueError):
            binary_variation(np.zeros(4), np.zeros(5), rng)


class TestHelpers:
    def test_latin_hypercube_stratified(self, rng):
        X = latin_hypercube(10, 3, rng)
        assert X.shape == (10, 3)
        for j in range(3):
            strata = np.floor(X[:, j] * 10).astype(int)
            assert sorted(strata) == list(range(10))

    def test_bits_to_unit_range(self):
        bits = np.array([1, 1, 1, 1, 0, 0, 0, 0], dtype=float)
        vals = bits_to_unit(bits, 2, 4)
        assert vals[0] == pytest.approx(1.0)
        assert vals[1] == pytest.approx(0.0)

    def test_select_survivors_matches_lexicographic_resort(self, rng):
        for _ in range(25):
            Y = rng.integers(0, 5, size=(12, 2)).astype(float)
            fronts = nondominated_sort(Y)
            rank = np.empty(12, dtype=int)
            crowd = np.empty(12)
            for r, front in enumerate(fronts):
                rank[front] = r
                crowd[front] = crowding_distance(Y[front])
            order = sorted(range(12), key=lambda i: (rank[i], -crowd[i], i))
            want = set(order[:6])
            got = set(select_survivors(Y, 6))
            assert got == want


def _quad_problem():
    cs = ConstraintSpec.unconstrained(2)
    return Problem(
        name="quad",
        dim=3,
        n_obj=2,
        evaluate=lambda X, seeds: np.column_stack(
            [np.sum(np.atleast_2d(X) ** 2, axis=1), np.sum((np.atleast_2d(X) - 1) ** 2, axis=1)]
        ),
        constraints=cs,
        ref_point=np.array([4.0, 4.0]),
    )


class TestRunNsga2:
    def test_zero_generations_archive_is_initial_population(self):
        res = run_nsga2(_quad_problem(), NsgaConfig(population_size=10, generations=0), seed=3)
        assert len(res.archive) == 10
        assert res.records == []
        assert np.array_equal(res.population, res.archive.genes)

    def test_population_size_invariant_and_budget(self):
        cfg = NsgaConfig(population_size=8, generations=5)
        res = run_nsga2(_quad_problem(), cfg, seed=1)
        assert res.population.shape == (8, 3)
        assert len(res.archive) == 8 + 5 * 8

    def test_infeasible_everywhere_constraint(self):
        cs = ConstraintSpec(bounds=(-1.0, -1.0), penalties=(20.0, 20.0))
        res = run_nsga2(
            _quad_problem(), NsgaConfig(population_size=6, generations=2), seed=0,
            constraints=cs,
        )
        assert not res.archive.feasible.any()

    # every row violates a bound, so a resume that took the population's
    # penalized values for its raw ones would select differently
    def test_resume_with_infeasible_population_matches_direct_run(self):
        cs = ConstraintSpec(bounds=(-1.0, -1.0), penalties=(20.0, 20.0))
        cfg = NsgaConfig(population_size=6, generations=4)
        direct = run_nsga2(_quad_problem(), cfg, seed=0, constraints=cs)
        saved = {}

        def keep(t, archive, records, state):
            # appends replace the archive's columns, so these stay generation t's
            saved[t] = (archive.genes, archive.raw, archive.generation, list(records), state)

        run_nsga2(_quad_problem(), cfg, seed=0, constraints=cs, on_generation=keep)
        genes, raw, generation, records, state = saved[2]
        archive = Archive(constraints=cs)
        archive.append_batch(genes, raw, generation)
        resume = {"generation": 2, "archive": archive, "records": records, "state": state}
        resumed = run_nsga2(_quad_problem(), cfg, seed=0, constraints=cs, resume=resume)
        assert np.array_equal(resumed.archive.raw, direct.archive.raw)
        assert np.array_equal(resumed.population, direct.population)

    def test_determinism_same_seed(self):
        cfg = NsgaConfig(population_size=10, generations=4)
        a = run_nsga2(_quad_problem(), cfg, seed=9)
        b = run_nsga2(_quad_problem(), cfg, seed=9)
        assert np.array_equal(a.archive.raw, b.archive.raw)
        assert np.array_equal(a.population, b.population)

    def test_zdt1_improves_and_monotone_trace(self):
        # full convergence is the acceptance suite's job; here a short run
        # must show a monotone trace that has crossed into the reference box
        res = run_nsga2(zdt1_problem(10), NsgaConfig(population_size=20, generations=60), seed=0)
        hv = [r.hv_feasible for r in res.records]
        assert all(b >= a - 1e-12 for a, b in zip(hv, hv[1:]))
        assert hv[-1] >= hv[0]
        assert hv[-1] > 0.1

    def test_binary_chromosome_runs(self):
        cfg = NsgaConfig(population_size=8, generations=3, chromosome="binary", bits_per_var=8)
        res = run_nsga2(_quad_problem(), cfg, seed=2)
        assert res.population.shape == (8, 3 * 8)
        assert set(np.unique(res.population)) <= {0.0, 1.0}
        assert np.all((res.archive.genes >= 0) & (res.archive.genes <= 1))

    def test_evaluator_failure_reports_solution(self):
        def bad(X, seeds):
            raise RuntimeError("backend down")

        prob = _quad_problem()
        prob.evaluate = bad
        with pytest.raises(EvaluationError) as exc:
            run_nsga2(prob, NsgaConfig(population_size=4, generations=1), seed=0)
        assert exc.value.solution is not None

    @pytest.mark.parametrize(
        "row, message",
        [([[1.0, 2.0, 3.0]], "3 values"), ([[np.nan, 1.0]], "non-finite"), ([1.0, np.inf], "non-finite")],
    )
    def test_malformed_evaluator_output_reports_solution(self, row, message):
        prob = _quad_problem()
        prob.evaluate = lambda X, seeds: np.asarray(row)
        X = np.array([[0.1, 0.2, 0.3]])
        with pytest.raises(EvaluationError, match=message) as exc:
            evaluate_batch(prob, X, np.array([7]))
        assert np.array_equal(exc.value.solution, X[0])
        assert "[0.1, 0.2, 0.3]" in str(exc.value)

    def test_constrained_toy_beats_baseline_on_feasible_hv(self):
        # median over 5 seeds; per-seed outcomes are noisy at this budget
        prob = constrained_toy_problem(3)
        cfg = NsgaConfig(population_size=10, generations=10)
        finals_cm, finals_bl = [], []
        for seed in range(5):
            cm = run_nsga2(prob, cfg, seed=seed)
            bl = run_nsga2(
                prob, cfg, seed=seed,
                constraints=prob.constraints.with_zero_penalties(),
            )
            finals_cm.append(cm.records[-1].hv_feasible)
            finals_bl.append(bl.records[-1].hv_feasible)
        assert np.median(finals_cm) >= np.median(finals_bl)

    def test_constrained_run_allocates_more_feasible_evaluations(self):
        prob = constrained_toy_problem(3)
        cfg = NsgaConfig(population_size=10, generations=10)
        cm_feas = bl_feas = 0
        for seed in range(3):
            cm = run_nsga2(prob, cfg, seed=seed)
            bl = run_nsga2(
                prob, cfg, seed=seed,
                constraints=prob.constraints.with_zero_penalties(),
            )
            cm_feas += int(cm.archive.feasible.sum())
            bl_feas += int(bl.archive.feasible.sum())
        assert cm_feas > bl_feas


class TestRandomSearch:
    def test_budget_and_monotone(self):
        res = run_random_search(zdt1_problem(6), population_size=10, generations=5, seed=4)
        assert len(res.archive) == 60
        hv = [r.hv_feasible for r in res.records]
        assert all(b >= a - 1e-12 for a, b in zip(hv, hv[1:]))
