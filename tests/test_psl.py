import copy
import dataclasses

import numpy as np
import pytest
import scipy.linalg

from conftest import cholesky_checked, oracle_tchebycheff, oracle_train_pareto_set_model
from flpareto.bench import constrained_toy_problem, zdt1_problem
from flpareto.gp import GPHyper, GPStack, gp_fit, gp_posterior, gp_posterior_grad
from flpareto import gp, psl
from flpareto.moo import ConstraintSpec, Problem, hypervolume, penalize
from flpareto.psl import (
    ParetoSetModel,
    PslConfig,
    generate_candidates,
    greedy_hvi_select,
    run_psl,
    sample_preferences,
    surrogate_loss_and_grads,
    train_pareto_set_model,
)


class TestTchebycheff:
    def test_direct_value(self):
        assert oracle_tchebycheff([2.0, 5.0], [1.0, 0.0], [0.0, 0.0]) == pytest.approx(2.0)

    def test_zero_at_ideal(self):
        assert oracle_tchebycheff([1.5, 2.5], [0.4, 0.6], [1.5, 2.5]) == 0.0

    def test_positive_homogeneity_in_lambda(self, rng):
        y, lam, z = rng.random(3), rng.random(3), -rng.random(3)
        a = oracle_tchebycheff(y, lam, z)
        assert oracle_tchebycheff(y, 3.0 * lam, z) == pytest.approx(3.0 * a)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            oracle_tchebycheff([1.0, 2.0], [1.0], [0.0, 0.0])


def _toy_gps(rng, n=12):
    """GPs for a convex bi-objective quadratic with Pareto set on a segment.

    The segment avoids the box center, where an untrained model starts.
    """
    a, b = np.array([0.15, 0.75]), np.array([0.75, 0.95])
    X = rng.random((n, 2))
    y1 = np.sum((X - a) ** 2, axis=1)
    y2 = np.sum((X - b) ** 2, axis=1)
    gps = [
        gp_fit(X, y1, GPHyper(0.4, 1.0, 1e-4)),
        gp_fit(X, y2, GPHyper(0.4, 1.0, 1e-4)),
    ]
    return gps, (a, b)


class TestParetoSetModel:
    def test_zero_init_output_layer_constant(self, rng):
        model = ParetoSetModel.create(2, 4, (16, 16), rng)
        X = generate_candidates(model, 50, rng)
        assert np.allclose(X, 0.5)

    def test_outputs_in_unit_box(self, rng):
        model = ParetoSetModel.create(3, 5, (8, 8), rng)
        model.params["W3"] = rng.normal(0, 3.0, model.params["W3"].shape)
        X = generate_candidates(model, 200, rng)
        assert np.all((X > 0) & (X < 1))

    def test_single_candidate(self, rng):
        model = ParetoSetModel.create(2, 3, (8, 8), rng)
        assert generate_candidates(model, 1, rng).shape == (1, 3)

    def test_count_validation(self, rng):
        model = ParetoSetModel.create(2, 3, (8, 8), rng)
        with pytest.raises(ValueError):
            generate_candidates(model, 0, rng)


class _PerLayerAdam:
    """The per-layer Adam that the flat-vector update replaced."""

    def __init__(self, params, lr):
        self.lr, self.t = lr, 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, params, grads):
        self.t += 1
        b1, b2, eps = 0.9, 0.999, 1e-8
        for k in params:
            g = grads[k]
            self.m[k] = b1 * self.m[k] + (1 - b1) * g
            self.v[k] = b2 * self.v[k] + (1 - b2) * g * g
            mhat = self.m[k] / (1 - b1**self.t)
            vhat = self.v[k] / (1 - b2**self.t)
            params[k] -= self.lr * mhat / (np.sqrt(vhat) + eps)


class TestTraining:
    def test_flat_adam_bitwise_equals_per_layer_oracle(self, rng):
        gps, _ = _toy_gps(rng)
        cs = ConstraintSpec(bounds=(None, 0.5), penalties=(0.0, 20.0))
        ideal = np.array([-0.1, -0.1])
        model = ParetoSetModel.create(2, 2, (8, 6), rng)
        oracle = copy.deepcopy(model)
        _, losses = train_pareto_set_model(
            model, gps, cs, steps=50, rng=np.random.default_rng(3), ideal=ideal, lr=1e-2
        )
        opt = _PerLayerAdam(oracle.params, 1e-2)
        step_rng = np.random.default_rng(3)
        want = []
        for _ in range(50):
            lam = sample_preferences(PslConfig.model_batch, 2, step_rng)
            loss, grads = surrogate_loss_and_grads(
                oracle, lam, gps, cs, ideal, PslConfig.lcb_beta, psl.PENALTY_SHARPNESS
            )
            opt.step(oracle.params, grads)
            want.append(loss)
        assert losses == want
        assert list(model.params) == list(oracle.params)
        for k in oracle.params:
            assert np.array_equal(model.params[k], oracle.params[k])
        assert not np.array_equal(model.params["W3"], 0.0)

    # (m, d, n, bounded objectives, hidden widths, steps); "chunk" steps
    # are two preference chunks and a part of a third
    ORACLE_CASES = [
        (1, 1, 1, (), (8, 6), 40),
        (1, 3, 5, (0,), (8, 6), 40),
        (2, 1, 9, (1,), (8, 6), "chunk"),
        (2, 3, 30, (), (8, 6), 40),
        (2, 10, 105, (0,), (8, 6), 40),
        (2, 3, 105, (0, 1), (8, 6), 40),
        (3, 1, 30, (0, 1, 2), (8, 6), 40),
        (3, 3, 9, (2,), (64, 64), "chunk"),
        (3, 3, 5, (), (8, 6), 40),
        (3, 10, 105, (0, 1, 2), (8, 6), 40),
        (3, 10, 30, (1,), (8, 6), 40),
        (3, 5, 45, (1,), (8, 6), 40),
        (3, 5, 406, (1,), (64, 64), 40),
    ]

    @pytest.mark.parametrize("m, d, n, bounded, hidden, steps", ORACLE_CASES)
    def test_training_bitwise_equals_frozen_oracle(self, m, d, n, bounded, hidden, steps):
        if steps == "chunk":
            steps = 2 * psl.PREFERENCE_CHUNK + 7
        rng = np.random.default_rng([m, d, n])
        X = rng.random((n, d))
        Y = np.column_stack(
            [10.0**j * np.sin(3.0 * X @ rng.normal(size=d) + j) for j in range(m)]
        )
        gps = [gp_fit(X, Y[:, j]) for j in range(m)]
        bounds = tuple(float(np.median(Y[:, j])) if j in bounded else None for j in range(m))
        cs = ConstraintSpec(bounds=bounds, penalties=(20.0,) * m)
        self._assert_matches_oracle(gps, cs, Y.min(axis=0) - 0.05, hidden, steps, seed=n)

    def test_training_at_a_training_input_matches_frozen_oracle(self):
        # the untrained model maps every preference to the box centre, a
        # training input of noiseless GPs: the std is clamped to exactly 0,
        # and so is its gradient
        rng = np.random.default_rng(4)
        X = np.vstack([rng.random((8, 3)), np.full(3, 0.5)])
        Y = rng.random((9, 2))
        gps = [gp_fit(X, Y[:, j], GPHyper(0.4, 1.0, 0.0)) for j in range(2)]
        assert [gp_posterior(g, np.full(3, 0.5))[1] for g in gps] == [0.0, 0.0]
        assert all(np.all(gp_posterior_grad(g, np.full((1, 3), 0.5))[3] == 0.0) for g in gps)
        cs = ConstraintSpec(bounds=(None, 0.5), penalties=(0.0, 20.0))
        self._assert_matches_oracle(gps, cs, Y.min(axis=0) - 0.05, (8, 6), 40, seed=1)

    @staticmethod
    def _assert_matches_oracle(gps, cs, ideal, hidden, steps, seed):
        """Training bitwise equals the frozen oracle's given the same
        posterior, the stack's; at every step that posterior, every GP at
        every row, is within cholesky_checked's bounds of the Cholesky form."""
        check = cholesky_checked(gps)

        def stack_posterior(gps, x):
            mean, std, grad = GPStack(gps)(x)
            post = [(mean[j], std[j], *grad(np.full(x.shape[0], j))) for j in range(len(gps))]
            check(x, post)
            return post

        model = ParetoSetModel.create(len(gps), gps[0].X.shape[1], hidden, np.random.default_rng(seed))
        kwargs = dict(lr=1e-2, batch=PslConfig.model_batch, beta=PslConfig.lcb_beta,
                      sharpness=psl.PENALTY_SHARPNESS)
        want_params, want = oracle_train_pareto_set_model(
            copy.deepcopy(model).params, gps, cs, steps, oracle_rng := np.random.default_rng(seed), ideal,
            **kwargs, posterior=stack_posterior,
        )
        _, losses = train_pareto_set_model(
            model, gps, cs, steps, got_rng := np.random.default_rng(seed), ideal, **kwargs
        )
        assert losses == want
        assert list(model.params) == list(want_params)
        for k in want_params:
            assert model.params[k].tobytes() == want_params[k].tobytes(), k
        assert got_rng.bit_generator.state == oracle_rng.bit_generator.state
        assert not np.array_equal(model.params["W3"], 0.0)

    def test_zero_steps_identity(self, rng):
        gps, _ = _toy_gps(rng)
        model = ParetoSetModel.create(2, 2, (16, 16), rng)
        before = {k: v.copy() for k, v in model.params.items()}
        cs = ConstraintSpec.unconstrained(2)
        model, losses = train_pareto_set_model(
            model, gps, cs, steps=0, rng=rng, ideal=np.array([-0.1, -0.1])
        )
        assert losses == []
        for k in before:
            assert np.array_equal(model.params[k], before[k])

    def test_gradients_match_finite_differences(self, rng):
        gps, _ = _toy_gps(rng)
        cs = ConstraintSpec(bounds=(None, 0.5), penalties=(0.0, 20.0))
        model = ParetoSetModel.create(2, 2, (8, 8), rng)
        model.params["W3"] = rng.normal(0, 0.1, model.params["W3"].shape)
        model.params["b3"] = rng.normal(0, 0.1, model.params["b3"].shape)
        lam = sample_preferences(5, 2, rng)
        self._assert_grads_match_finite_differences(model, lam, gps, cs, np.array([-0.1, -0.1]), 1e-6, 5)

    def test_gradients_match_finite_differences_at_three_objectives(self):
        # m=3, one bounded objective, n=100 rows and the grid's least noise
        # at a long length scale: K is ill-conditioned, where K⁻¹ cancels
        # worst.  The loss then carries rounding of about eps·cond(K), so
        # the step is 1e-4: the central difference's rounding term is
        # about 1e-6 of the gradient, its truncation term about 1e-8
        rng = np.random.default_rng([3, 100])
        X = rng.random((100, 5))
        Y = np.column_stack([np.sin(3.0 * X @ rng.normal(size=5) + j) for j in range(3)])
        gps = [gp_fit(X, Y[:, j], GPHyper(0.8, 1.0, 1e-6)) for j in range(3)]
        assert min(np.linalg.cond(g.L @ g.L.T) for g in gps) > 1e5
        cs = ConstraintSpec(bounds=(None, float(np.median(Y[:, 1])), None), penalties=(0.0, 20.0, 0.0))
        model = ParetoSetModel.create(3, 5, (8, 8), rng)
        model.params["W3"] = rng.normal(0, 1.0, model.params["W3"].shape)
        model.params["b3"] = rng.normal(0, 1.0, model.params["b3"].shape)
        lam = sample_preferences(PslConfig.model_batch, 3, rng)
        self._assert_grads_match_finite_differences(model, lam, gps, cs, Y.min(axis=0) - 0.05, 1e-4, 6)

    @staticmethod
    def _assert_grads_match_finite_differences(model, lam, gps, cs, ideal, h, per_layer):
        """Central differences at step h, of `per_layer` parameters a layer,
        within 1e-4 relative of the analytic gradient."""
        _, grads = surrogate_loss_and_grads(model, lam, gps, cs, ideal, 0.1, 50.0)
        check_rng = np.random.default_rng(0)
        for k, P in model.params.items():
            for fid in check_rng.choice(P.size, size=min(per_layer, P.size), replace=False):
                idx = np.unravel_index(fid, P.shape)
                orig = P[idx]
                P[idx] = orig + h
                lp, _ = surrogate_loss_and_grads(model, lam, gps, cs, ideal, 0.1, 50.0)
                P[idx] = orig - h
                lm, _ = surrogate_loss_and_grads(model, lam, gps, cs, ideal, 0.1, 50.0)
                P[idx] = orig
                fd = (lp - lm) / (2 * h)
                rel = abs(fd - grads[k][idx]) / max(abs(fd), abs(grads[k][idx]), 1e-10)
                assert rel < 1e-4, f"{k}{idx}: fd={fd} analytic={grads[k][idx]}"

    def test_training_and_candidate_scoring_make_no_triangular_solve(self, monkeypatch):
        # each generation trains the model on the posterior and scores its
        # candidates with it: GEMMs against each GP's K⁻¹.  Fitting keeps
        # its Cholesky solve (dpotrs), which is not patched
        def refuse(*args, **kwargs):
            raise AssertionError("a triangular solve in the PSL posterior")

        monkeypatch.setattr(gp, "dtrtrs", refuse, raising=False)
        monkeypatch.setattr(scipy.linalg.lapack, "dtrtrs", refuse)
        monkeypatch.setattr(scipy.linalg, "solve_triangular", refuse)
        cfg = PslConfig(generations=2, batch_size=3, n_candidates=50, n_init=6, model_steps=20)
        res = run_psl(constrained_toy_problem(), cfg, seed=2)
        assert len(res.archive) == 6 + 2 * 3

    def test_distance_to_pareto_segment_decreases(self, rng):
        gps, (a, b) = _toy_gps(rng, n=20)
        cs = ConstraintSpec.unconstrained(2)
        model = ParetoSetModel.create(2, 2, (16, 16), rng)
        ideal = np.array([-0.05, -0.05])
        lam_probe = sample_preferences(64, 2, np.random.default_rng(77))

        def seg_distance():
            X, _ = model.forward(lam_probe)
            d = b - a
            t = np.clip((X - a) @ d / (d @ d), 0.0, 1.0)
            proj = a + t[:, None] * d
            return float(np.mean(np.linalg.norm(X - proj, axis=1)))

        d0 = seg_distance()
        train_pareto_set_model(
            model, gps, cs, steps=800, rng=rng, ideal=ideal, lr=1e-3
        )
        assert seg_distance() < d0

    def test_non_finite_loss_aborts_with_diagnostics(self, rng):
        gps, _ = _toy_gps(rng)
        cs = ConstraintSpec.unconstrained(2)
        model = ParetoSetModel.create(2, 2, (8, 8), rng)
        with pytest.raises(RuntimeError, match="non-finite"):
            train_pareto_set_model(
                model, gps, cs, steps=1, rng=rng, ideal=np.array([np.nan, 0.0])
            )

    def test_trained_candidates_vary_per_coordinate(self, rng):
        gps, _ = _toy_gps(rng, n=16)
        cs = ConstraintSpec.unconstrained(2)
        model = ParetoSetModel.create(2, 2, (16, 16), rng)
        train_pareto_set_model(model, gps, cs, steps=500, rng=rng,
                               ideal=np.array([-0.05, -0.05]), lr=1e-3)
        X = generate_candidates(model, 1000, rng)
        for j in range(X.shape[1]):
            assert np.unique(np.round(X[:, j], 6)).size >= 2


def _reference_greedy_hvi_select(
    surrogate_Y: np.ndarray, base_Y: np.ndarray, n_select: int, z
) -> list[int]:
    """Indices of n_select candidates picked by greedy hypervolume improvement.

    Each pick maximizes HV(base U picked U candidate) - HV(base U picked);
    ties resolve to the lowest candidate index.
    """
    Y = np.atleast_2d(np.asarray(surrogate_Y, dtype=float))
    base = np.atleast_2d(np.asarray(base_Y, dtype=float)) if len(base_Y) else np.empty((0, Y.shape[1]))
    z = np.asarray(z, dtype=float)
    if n_select > Y.shape[0]:
        raise ValueError("cannot select more candidates than provided")
    chosen: list[int] = []
    current = base
    hv_now = hypervolume(current, z)
    remaining = list(range(Y.shape[0]))
    for _ in range(n_select):
        best_gain, best_idx = -1.0, remaining[0]
        for i in remaining:
            # a candidate weakly dominated by the current set cannot add volume
            if current.shape[0] and np.any(np.all(current <= Y[i], axis=1)):
                gain = 0.0
            else:
                gain = hypervolume(np.vstack([current, Y[i : i + 1]]), z) - hv_now
            if gain > best_gain + 1e-15:
                best_gain, best_idx = gain, i
        chosen.append(best_idx)
        remaining.remove(best_idx)
        current = np.vstack([current, Y[best_idx : best_idx + 1]])
        hv_now += max(best_gain, 0.0)
    return chosen


HVI_KINDS = (
    "plain", "ties", "duplicates", "near_ties", "outside", "empty_base", "dominated_tail", "large_ties",
)


def _hvi_instance(rng, m, kind):
    """(candidates, base, n_select, z) for one randomized selection."""
    C, nb = int(rng.integers(1, 13)), int(rng.integers(0, 8))
    cand, base = rng.random((C, m)), rng.random((nb, m))
    n_select = int(rng.integers(1, C + 1))
    if kind == "ties":  # grid coordinates: equal gains and equal coordinates
        cand, base = np.round(cand * 3) / 3, np.round(base * 3) / 3
    elif kind == "duplicates":
        cand = cand[rng.integers(0, max(1, C // 2), C)]
    elif kind == "near_ties":  # copies whose gains differ by 1e-15 to 1e-12
        rows = cand[rng.integers(0, C, C)]
        rows[np.arange(C), rng.integers(0, m, C)] += rng.choice([-1, 1], C) * 10.0 ** rng.uniform(-15, -12, C)
        cand = np.vstack([cand, rows])
    elif kind == "outside":  # candidates and base points beyond z
        cand, base = cand * 1.5, base * 1.5
    elif kind == "empty_base":
        base = np.empty((0, m))
    elif kind == "dominated_tail":  # most candidates add nothing; pick them all
        base = np.vstack([base, rng.random((3, m)) * 0.4])
        cand = 0.3 + 0.7 * cand
        n_select = C
    elif kind == "large_ties":  # rounding of order 1e-7 decides exact ties
        cand, base = np.round(cand * 4) * (1000.0 / 3), np.round(base * 4) * (1000.0 / 3)
        n_select = C
        return cand, base, n_select, np.full(m, 1000.0)
    if rng.random() < 0.2:
        n_select = cand.shape[0]
    return cand, base, n_select, np.ones(m)


class TestGreedyHvi:
    @pytest.mark.parametrize("kind", HVI_KINDS)
    @pytest.mark.parametrize("m", [2, 3])
    def test_picks_equal_reference_selector(self, m, kind):
        rng = np.random.default_rng([m, HVI_KINDS.index(kind)])
        for _ in range(40):  # 640 instances over the parametrization
            cand, base, k, z = _hvi_instance(rng, m, kind)
            assert greedy_hvi_select(cand, base, k, z) == _reference_greedy_hvi_select(cand, base, k, z)

    def test_dense_near_tie_chain(self):
        # gains 6e-16 apart: the 1e-15 tie rule chains across the whole
        # set, so re-scoring only the gains near the best would pick 19
        z = np.array([1e-6, 1.0])
        w = 5e-7 + 6e-16 * np.arange(21)
        cand = np.column_stack([z[0] - w, np.zeros(21)])
        for k in (1, 3):
            want = _reference_greedy_hvi_select(cand, np.empty((0, 2)), k, z)
            assert greedy_hvi_select(cand, np.empty((0, 2)), k, z) == want
        assert want[0] == 20

    def test_few_hypervolume_calls_per_pick(self, rng, monkeypatch):
        calls = []

        def counted(points, z):
            calls.append(len(points))
            return hypervolume(points, z)

        monkeypatch.setattr(psl, "hypervolume", counted)
        cand, base = rng.random((500, 3)), rng.random((40, 3)) + 0.3
        picks = greedy_hvi_select(cand, base, 5, np.full(3, 1.5))
        assert picks == _reference_greedy_hvi_select(cand, base, 5, np.full(3, 1.5))
        assert len(calls) < 10

    def test_matches_exhaustive_oracle(self, rng):
        z = np.array([2.0, 2.0])
        for _ in range(15):
            cand = rng.random((5, 2))
            base = rng.random((3, 2))
            got = greedy_hvi_select(cand, base, 3, z)
            # oracle: re-simulate greedy with explicit exhaustive scans
            chosen, current = [], base.copy()
            for _ in range(3):
                best_gain, best_i = -1.0, None
                hv_now = hypervolume(current, z)
                for i in range(5):
                    if i in chosen:
                        continue
                    gain = hypervolume(np.vstack([current, cand[i : i + 1]]), z) - hv_now
                    if gain > best_gain + 1e-15:
                        best_gain, best_i = gain, i
                chosen.append(best_i)
                current = np.vstack([current, cand[best_i : best_i + 1]])
            assert got == chosen

    def test_dominated_candidate_selected_last(self):
        base = np.array([[0.5, 0.5]])
        cand = np.array([[0.9, 0.9], [0.2, 0.8], [0.8, 0.2]])  # 0 is dominated
        picks = greedy_hvi_select(cand, base, 3, [2.0, 2.0])
        assert picks[-1] == 0

    def test_select_all_orders_by_marginal_improvement(self):
        cand = np.array([[0.1, 0.9], [0.5, 0.5], [0.9, 0.1]])
        picks = greedy_hvi_select(cand, np.empty((0, 2)), 3, [1.0, 1.0])
        assert sorted(picks) == [0, 1, 2]
        gains = []
        cur = np.empty((0, 2))
        for i in picks:
            g = hypervolume(np.vstack([cur, cand[i : i + 1]]), [1, 1]) - hypervolume(cur, [1, 1])
            gains.append(g)
            cur = np.vstack([cur, cand[i : i + 1]])
        assert all(a >= b - 1e-12 for a, b in zip(gains, gains[1:]))

    def test_cannot_overselect(self):
        with pytest.raises(ValueError):
            greedy_hvi_select(np.zeros((2, 2)), np.empty((0, 2)), 3, [1, 1])


class TestRunPsl:
    def test_zero_generations_archive_is_initial_design(self):
        res = run_psl(zdt1_problem(4), PslConfig(generations=0, batch_size=3, n_candidates=10), seed=1)
        assert len(res.archive) == max(5, 4 + 1)
        assert res.records == []
        assert res.population_indices == list(range(5))

    def test_archive_append_only_budget(self):
        cfg = PslConfig(generations=3, batch_size=2, n_candidates=20, n_init=4,
                        model_steps=50)
        res = run_psl(zdt1_problem(3), cfg, seed=0)
        assert len(res.archive) == 4 + 3 * 2
        gens = res.archive.generation.tolist()
        assert gens == sorted(gens)

    def test_hv_trace_monotone(self):
        cfg = PslConfig(generations=4, batch_size=2, n_candidates=30, n_init=5,
                        model_steps=50)
        res = run_psl(dataclasses.replace(zdt1_problem(3), ref_point=np.array([1.1, 9.0])), cfg, seed=3)
        hv = [r.hv_feasible for r in res.records]
        assert all(b >= a - 1e-12 for a, b in zip(hv, hv[1:]))

    def test_determinism(self):
        cfg = PslConfig(generations=2, batch_size=2, n_candidates=15, n_init=4,
                        model_steps=30)
        a = run_psl(zdt1_problem(3), cfg, seed=8)
        b = run_psl(zdt1_problem(3), cfg, seed=8)
        assert np.array_equal(a.archive.raw, b.archive.raw)

    def test_penalized_screening_strictly_worse(self, rng):
        cs = ConstraintSpec(bounds=(None, 0.8), penalties=(0.0, 20.0))
        lcb = np.array([[0.2, 0.9], [0.3, 0.5]])
        pen = penalize(lcb, cs)
        assert pen[0, 1] > lcb[0, 1]
        assert pen[1, 1] == lcb[1, 1]

    def test_diagnostics_emitted(self):
        cfg = PslConfig(generations=2, batch_size=2, n_candidates=15, n_init=4,
                        model_steps=20)
        res = run_psl(zdt1_problem(3), cfg, seed=0)
        assert len(res.diagnostics) == 2
        assert "gp_hyper" in res.diagnostics[0]


class TestTchebycheffFrontRecovery:
    def test_lambda_sweep_recovers_front(self):
        # dense grid of a 2-objective convex problem; every preference's
        # Tchebycheff minimizer must be non-dominated within the grid
        xs = np.linspace(0, 1, 201)
        f1 = xs**2
        f2 = (xs - 1) ** 2
        Y = np.column_stack([f1, f2])
        z = Y.min(axis=0) - 0.05
        front_mask = np.ones(len(Y), bool)  # convex trade-off: all non-dominated
        for lam1 in np.linspace(0.05, 0.95, 19):
            lam = np.array([lam1, 1 - lam1])
            scores = np.max(lam * (Y - z), axis=1)
            i = int(np.argmin(scores))
            assert front_mask[i]
            # minimizer varies with the preference and spans the front ends
        i_left = int(np.argmin(np.max(np.array([0.99, 0.01]) * (Y - z), axis=1)))
        i_right = int(np.argmin(np.max(np.array([0.01, 0.99]) * (Y - z), axis=1)))
        assert xs[i_left] < 0.2 and xs[i_right] > 0.8
