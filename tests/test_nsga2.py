import dataclasses

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
    selection_penalty,
)
from flpareto.nsga2 import (
    NsgaConfig,
    evaluate_batch,
    latin_hypercube,
    rank_and_crowding,
    run_nsga2,
    run_random_search,
    select_survivors,
)
from flpareto.seeding import TAG_VARIATION, stream

from conftest import oracle_polynomial_mutation, oracle_sbx_crossover, oracle_tournament_pick


class TestSbx:
    def test_identical_parents_identical_children(self, rng):
        p = rng.random(8)
        c1, c2 = oracle_sbx_crossover(p, p.copy(), eta=2.0, rng=rng)
        assert np.allclose(c1, p) and np.allclose(c2, p)

    def test_zero_gene_probability_is_identity(self, rng):
        p1, p2 = rng.random(8), rng.random(8)
        c1, c2 = oracle_sbx_crossover(p1, p2, eta=2.0, rng=rng, gene_prob=0.0)
        assert np.array_equal(c1, p1) and np.array_equal(c2, p2)

    def test_mean_preservation_before_clipping(self, rng):
        for _ in range(50):
            p1, p2 = rng.random(10), rng.random(10)
            c1, c2 = oracle_sbx_crossover(p1, p2, eta=2.0, rng=rng, clip=False)
            assert np.allclose(c1 + c2, p1 + p2, atol=1e-12)

    def test_children_clipped(self, rng):
        p1 = np.full(30, 0.01)
        p2 = np.full(30, 0.99)
        for _ in range(20):
            c1, c2 = oracle_sbx_crossover(p1, p2, eta=0.5, rng=rng)
            assert np.all((0 <= c1) & (c1 <= 1)) and np.all((0 <= c2) & (c2 <= 1))

    def test_decoder_mismatch(self, rng):
        with pytest.raises(ValueError):
            oracle_sbx_crossover(np.zeros(3), np.zeros(4), 2.0, rng)


class TestPolynomialMutation:
    def test_rate_zero_identity(self, rng):
        p = rng.random(12)
        assert np.array_equal(oracle_polynomial_mutation(p, 20.0, 0.0, rng), p)

    def test_bounds_respected_at_corners(self, rng):
        zeros = np.zeros(2000)
        ones = np.ones(2000)
        assert np.all(oracle_polynomial_mutation(zeros, 5.0, 1.0, rng) >= 0.0)
        assert np.all(oracle_polynomial_mutation(ones, 5.0, 1.0, rng) <= 1.0)

    def test_displacement_shrinks_with_eta(self):
        n = 10_000
        base = np.full(n, 0.5)
        d2 = np.abs(
            oracle_polynomial_mutation(base, 2.0, 1.0, np.random.default_rng(0)) - 0.5
        ).mean()
        d20 = np.abs(
            oracle_polynomial_mutation(base, 20.0, 1.0, np.random.default_rng(0)) - 0.5
        ).mean()
        assert d20 < d2


class TestHelpers:
    def test_latin_hypercube_stratified(self, rng):
        X = latin_hypercube(10, 3, rng)
        assert X.shape == (10, 3)
        for j in range(3):
            strata = np.floor(X[:, j] * 10).astype(int)
            assert sorted(strata) == list(range(10))

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


def _per_pair_offspring(pop, rank, crowd, cfg, rng):
    """NSGA-II's variation as a loop over pairs of the per-pair oracles."""
    kids = []
    while len(kids) < len(pop):
        i = oracle_tournament_pick(rank, crowd, rng)
        j = oracle_tournament_pick(rank, crowd, rng)
        if rng.random() < cfg.crossover_prob:
            c1, c2 = oracle_sbx_crossover(pop[i], pop[j], cfg.eta_crossover, rng)
        else:
            c1, c2 = pop[i], pop[j]
        c1 = oracle_polynomial_mutation(c1, cfg.eta_mutation, cfg.mutation_prob, rng)
        c2 = oracle_polynomial_mutation(c2, cfg.eta_mutation, cfg.mutation_prob, rng)
        kids.extend([c1, c2])
    return np.stack(kids[: len(pop)])


# run_nsga2 varies all pairs of a generation in one array pass; every
# generation's offspring must be the per-pair loop's, bit for bit
@pytest.mark.parametrize("mutation_prob", [0.1, 1.0])
@pytest.mark.parametrize("crossover_prob", [0.0, 0.9, 1.0])
@pytest.mark.parametrize("N", [7, 10])
def test_batched_variation_matches_per_pair_loop(N, crossover_prob, mutation_prob):
    cfg = NsgaConfig(population_size=N, generations=3, crossover_prob=crossover_prob, mutation_prob=mutation_prob)
    for problem in (constrained_toy_problem(3), zdt1_problem(10)):
        for seed in range(3):
            states = {0: {"population_indices": list(range(N))}}
            archive = run_nsga2(problem, cfg, seed, on_generation=lambda t, a, r, s: states.update({t: s})).archive
            for t in range(1, cfg.generations + 1):
                pop_idx = states[t - 1]["population_indices"]
                rank, crowd = rank_and_crowding(selection_penalty(archive.raw[pop_idx], problem.constraints))
                want = _per_pair_offspring(archive.genes[pop_idx], rank, crowd, cfg, stream(seed, TAG_VARIATION, t))
                assert archive.genes[archive.generation == t].tobytes() == want.tobytes()


def _quad_problem():
    cs = ConstraintSpec.unconstrained(2)
    return Problem(
        name="quad",
        dim=3,
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
        assert res.population_indices == list(range(10))

    def test_population_size_invariant_and_budget(self):
        cfg = NsgaConfig(population_size=8, generations=5)
        res = run_nsga2(_quad_problem(), cfg, seed=1)
        assert res.archive.genes[res.population_indices].shape == (8, 3)
        assert len(res.archive) == 8 + 5 * 8

    def test_infeasible_everywhere_constraint(self):
        cs = ConstraintSpec(bounds=(-1.0, -1.0), penalties=(20.0, 20.0))
        res = run_nsga2(
            dataclasses.replace(_quad_problem(), constraints=cs), NsgaConfig(population_size=6, generations=2),
            seed=0,
        )
        assert not res.archive.feasible.any()

    # every row violates a bound, so a resume that took the population's
    # penalized values for its raw ones would select differently
    def test_resume_with_infeasible_population_matches_direct_run(self):
        cs = ConstraintSpec(bounds=(-1.0, -1.0), penalties=(20.0, 20.0))
        cfg = NsgaConfig(population_size=6, generations=4)
        problem = dataclasses.replace(_quad_problem(), constraints=cs)
        direct = run_nsga2(problem, cfg, seed=0)
        saved = {}

        def keep(t, archive, records, state):
            # appends replace the archive's columns, so these stay generation t's
            saved[t] = (archive.genes, archive.raw, archive.generation, list(records), state)

        run_nsga2(problem, cfg, seed=0, on_generation=keep)
        genes, raw, generation, records, state = saved[2]
        assert set(state) == {"population_indices"}  # resume reads indices only
        archive = Archive(constraints=cs)
        archive.append_batch(genes, raw, generation)
        resume = {"generation": 2, "archive": archive, "records": records, "states": [state]}
        resumed = run_nsga2(problem, cfg, seed=0, resume=resume)
        assert np.array_equal(resumed.archive.raw, direct.archive.raw)
        assert resumed.population_indices == direct.population_indices

    def test_determinism_same_seed(self):
        cfg = NsgaConfig(population_size=10, generations=4)
        a = run_nsga2(_quad_problem(), cfg, seed=9)
        b = run_nsga2(_quad_problem(), cfg, seed=9)
        assert np.array_equal(a.archive.raw, b.archive.raw)
        assert a.population_indices == b.population_indices

    def test_zdt1_improves_and_monotone_trace(self):
        # full convergence is the acceptance suite's job; here a short run
        # must show a monotone trace that has crossed into the reference box
        res = run_nsga2(zdt1_problem(10), NsgaConfig(population_size=20, generations=60), seed=0)
        hv = [r.hv_feasible for r in res.records]
        assert all(b >= a - 1e-12 for a, b in zip(hv, hv[1:]))
        assert hv[-1] >= hv[0]
        assert hv[-1] > 0.1

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

    # z3 at the privacy bound puts every infeasible row outside z; above it, some lie inside
    @pytest.mark.parametrize("z3", [0.8, 1.5])
    def test_hv_all_is_the_whole_archive_hypervolume(self, z3):
        z = np.array([3.1, 3.1, z3])
        problem = dataclasses.replace(constrained_toy_problem(3), ref_point=z)
        res = run_nsga2(problem, NsgaConfig(population_size=10, generations=4), seed=0)
        for r in res.records:
            assert r.hv_all == hypervolume(res.archive.raw[res.archive.generation <= r.generation], z)
        assert any(r.hv_all > r.hv_feasible for r in res.records) == (z3 > 0.8)

    def test_one_evaluator_call_per_generation(self):
        prob, calls = _quad_problem(), []
        quad = prob.evaluate
        prob.evaluate = lambda X, seeds: calls.append(X.shape) or quad(X, seeds)
        run_nsga2(prob, NsgaConfig(population_size=6, generations=3), seed=0)
        assert calls == [(6, 3)] * 4

    @pytest.mark.parametrize("failure, message", [("raise", "backend down"), ("nan", "non-finite")])
    def test_failure_inside_a_batch_names_that_row(self, failure, message):
        X = np.array([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6], [0.7, 0.8, 0.9], [0.2, 0.2, 0.2]])
        prob, calls = _quad_problem(), []
        quad = prob.evaluate

        def flaky(X, seeds):
            calls.append(len(X))
            Y = quad(X, seeds)
            bad = np.all(X == [0.4, 0.5, 0.6], axis=1)
            if bad.any() and failure == "raise":
                raise RuntimeError("backend down")
            Y[bad] = np.nan
            return Y

        prob.evaluate = flaky
        with pytest.raises(EvaluationError, match=message) as exc:
            evaluate_batch(prob, X, np.arange(4))
        assert np.array_equal(exc.value.solution, X[1])
        assert "[0.4, 0.5, 0.6]" in str(exc.value)
        assert calls == [4, 1, 1]  # the batch, then rows 0 and 1 one at a time

    def test_constrained_toy_beats_baseline_on_feasible_hv(self):
        # median over 5 seeds; per-seed outcomes are noisy at this budget
        prob = constrained_toy_problem(3)
        cfg = NsgaConfig(population_size=10, generations=10)
        finals_cm, finals_bl = [], []
        for seed in range(5):
            cm = run_nsga2(prob, cfg, seed=seed)
            bl = run_nsga2(
                dataclasses.replace(prob, constraints=prob.constraints.with_zero_penalties()), cfg, seed=seed,
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
                dataclasses.replace(prob, constraints=prob.constraints.with_zero_penalties()), cfg, seed=seed,
            )
            cm_feas += int(cm.archive.feasible.sum())
            bl_feas += int(bl.archive.feasible.sum())
        assert cm_feas > bl_feas


class TestRandomSearch:
    # unchecked, population 0 ran an empty search and a negative budget
    # returned no records, both without complaint
    @pytest.mark.parametrize(
        "population_size, generations, message",
        [(0, 2, "population_size must be >= 1"), (-1, 2, "population_size must be >= 1"), (3, -3, "generations must be >= 0")],
    )
    def test_empty_search_refused(self, population_size, generations, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_random_search(zdt1_problem(3), population_size, generations, seed=0)

    def test_population_of_one_runs(self):
        res = run_random_search(zdt1_problem(3), 1, 2, seed=0)
        assert len(res.archive) == 3
        assert res.population_indices == [2]

    def test_budget_and_monotone(self):
        res = run_random_search(zdt1_problem(6), population_size=10, generations=5, seed=4)
        assert len(res.archive) == 60
        hv = [r.hv_feasible for r in res.records]
        assert all(b >= a - 1e-12 for a, b in zip(hv, hv[1:]))
