import numpy as np
import pytest
from conftest import cholesky_checked, oracle_gp_fit
from scipy.linalg import LinAlgError

from flpareto.gp import (
    NOISE_VARS,
    GPHyper,
    GPStack,
    GpFitError,
    gp_fit,
    gp_fit_joint,
    gp_posterior,
    gp_posterior_grad,
)


class TestFit:
    def test_single_point_zero_noise_interpolates(self):
        g = gp_fit([[0.3, 0.4]], [2.5], GPHyper(0.5, 1.0, 0.0))
        mean, std = gp_posterior(g, [0.3, 0.4])
        assert mean == pytest.approx(2.5, abs=1e-12)
        assert std == pytest.approx(0.0, abs=1e-9)

    def test_mean_matches_dense_solve_oracle(self, rng):
        X = rng.random((5, 1))
        y = np.sin(3.0 * X[:, 0])
        h = GPHyper(0.3, 1.0, 1e-4)
        g = gp_fit(X, y, h)
        # independent: standardize, build K, solve with np.linalg.solve
        ys = (y - y.mean()) / y.std()
        sq = (X - X.T) ** 2
        K = np.exp(-0.5 * sq / 0.3**2) + 1e-4 * np.eye(5)
        alpha = np.linalg.solve(K, ys)
        xq = np.array([[0.42]])
        kq = np.exp(-0.5 * (xq - X.T) ** 2 / 0.3**2)
        want = y.mean() + y.std() * float((kq @ alpha)[0])
        got, _ = gp_posterior(g, xq)
        assert got[0] == pytest.approx(want, abs=1e-8)

    def test_far_query_reverts_to_prior(self, rng):
        X = rng.random((6, 2))
        y = rng.random(6)
        g = gp_fit(X, y, GPHyper(0.2, 1.3, 1e-6))
        far = np.full((1, 2), 50.0)  # hundreds of length scales away
        mean, std = gp_posterior(g, far)
        assert mean[0] == pytest.approx(y.mean(), abs=1e-6)
        assert std[0] == pytest.approx(y.std() * np.sqrt(1.3), abs=1e-6)

    def test_duplicate_rows_need_noise(self, rng):
        X = np.vstack([rng.random((3, 2))] * 2)
        y = np.concatenate([rng.random(3)] * 2)
        g = gp_fit(X, y)  # grid search must find a PD combination
        assert g.hyper.noise_var > 0 or g.jitter > 0

    def test_grid_search_deterministic(self, rng):
        X = rng.random((8, 2))
        y = rng.random(8)
        a, b = gp_fit(X, y), gp_fit(X, y)
        assert a.hyper == b.hyper
        assert np.array_equal(a.alpha, b.alpha)

    def test_unfittable_raises(self):
        # duplicate rows at a signal scale where even the largest jitter
        # (1e-4) vanishes below float64 resolution, so no ladder step helps
        with pytest.raises(GpFitError):
            gp_fit([[0.5], [0.5]], [0.0, 1.0], GPHyper(0.5, 1e16, 0.0))


class TestPosterior:
    def test_training_point_noiseless(self, rng):
        X = rng.random((4, 2))
        y = rng.random(4)
        g = gp_fit(X, y, GPHyper(0.4, 1.0, 0.0))
        mean, std = gp_posterior(g, X)
        assert np.allclose(mean, y, atol=1e-7)
        assert np.all(std <= 1e-4)

    def test_mirrored_points_average(self):
        g = gp_fit([[0.2], [0.8]], [1.0, 3.0], GPHyper(0.4, 1.0, 0.0))
        mean, _ = gp_posterior(g, [0.5])
        assert mean == pytest.approx(2.0, abs=1e-12)

    def test_variance_at_training_bounded_by_noise(self, rng):
        X = rng.random((7, 3))
        y = rng.random(7)
        for nv in (1e-6, 1e-4, 1e-2):
            g = gp_fit(X, y, GPHyper(0.4, 1.5, nv))
            _, std = gp_posterior(g, X)
            latent_var = (std / g.y_scale) ** 2
            assert np.all(latent_var <= nv + 1e-9)

    def test_gradients_match_finite_differences(self, rng):
        X = rng.random((6, 3))
        y = rng.random(6)
        g = gp_fit(X, y, GPHyper(0.4, 1.5, 1e-4))
        xq = np.array([[0.31, 0.57, 0.22]])
        _, _, dm, ds = gp_posterior_grad(g, xq)
        h = 1e-6
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            mp, sp = gp_posterior(g, xq + e)
            mm, sm = gp_posterior(g, xq - e)
            fdm = (mp[0] - mm[0]) / (2 * h)
            fds = (sp[0] - sm[0]) / (2 * h)
            assert abs(fdm - dm[0, j]) / max(abs(fdm), 1e-12) < 1e-5
            assert abs(fds - ds[0, j]) / max(abs(fds), 1e-12) < 1e-5

    def test_posterior_grad_matches_cholesky_solve(self, rng):
        # within cholesky_checked's bounds, over target scales from 1e-3 to
        # 1e3 and grid-searched fits, training points included
        for trial in range(12):
            n, d = int(rng.integers(1, 40)), int(rng.integers(1, 6))
            X = rng.random((n, d))
            y = rng.random(n) * 10.0 ** rng.integers(-3, 4)
            g = gp_fit(X, y) if trial % 2 else gp_fit(X, y, GPHyper(0.3, 1.0, 1e-6))
            Xq = np.vstack([rng.random((16, d)), X[:2]])
            cholesky_checked([g])(Xq, [gp_posterior_grad(g, Xq)])


class TestSharedPosteriorGrad:
    def test_bitwise_equals_per_gp_oracle(self, rng):
        # m GPs on one X, each with its own hyperparameters and targets;
        # the queries include training points, where the std is clamped.
        # Each GP's part of the stacked output is bitwise that GP queried
        # alone, and within cholesky_checked's bounds of the Cholesky form
        for trial in range(40):
            n, q, d = int(rng.integers(1, 61)), int(rng.integers(1, 41)), int(rng.integers(2, 7))
            m = 2 + trial % 2
            X = rng.random((n, d))
            Xq = np.vstack([rng.random((q, d)), X[:2]])
            gps = [
                gp_fit(
                    X,
                    rng.random(n) * 10.0 ** rng.integers(-3, 4),
                    GPHyper(rng.uniform(0.05, 2.0), rng.uniform(0.25, 4.0), NOISE_VARS[j]),
                )
                for j in range(m)
            ]
            mean, std, grad = GPStack(gps)(Xq)
            per_gp = [(mean[j], std[j], *grad(np.full(q + 2, j))) for j in range(m)]
            cholesky_checked(gps)(Xq, per_gp)
            for g, got in zip(gps, per_gp, strict=True):
                for a, b in zip(got, gp_posterior_grad(g, Xq), strict=True):
                    assert np.array_equal(a, b)
                for a, b in zip(gp_posterior(g, Xq), got[:2], strict=True):
                    assert np.array_equal(a, b)

    @pytest.mark.parametrize("n", [1, 5, 9, 45, 105, 406])
    @pytest.mark.parametrize("d", [1, 10])
    def test_stack_bitwise_equals_per_gp_oracle(self, n, d):
        # the stacked (m, q) output and the (q, d) gradients of one GP per
        # row, GP by GP, bitwise those of the GP queried alone, at sizes
        # where the order of a reduction decides its rounding; and within
        # cholesky_checked's bounds of the Cholesky form
        rng = np.random.default_rng([n, d])
        X = rng.random((n, d))
        Xq = np.vstack([rng.random((16, d)), X[:2]])
        gps = [
            gp_fit(X, rng.random(n) * 10.0 ** (2 * j - 2), GPHyper(0.3 + 0.4 * j, 0.5 + j, NOISE_VARS[j]))
            for j in range(3)
        ] + [gp_fit(X, rng.random(n))]
        mean, std, grad = GPStack(gps)(Xq)
        q = Xq.shape[0]
        obj = rng.integers(0, 4, q)
        dmean, dstd = grad(obj)
        assert mean.shape == std.shape == (4, q) and dmean.shape == dstd.shape == (q, d)
        cholesky_checked(gps)(Xq, [(mean[j], std[j], *grad(np.full(q, j))) for j in range(4)])
        for j, g in enumerate(gps):
            want = gp_posterior_grad(g, Xq)
            rows = obj == j
            for got, w in zip((mean[j], std[j], dmean[rows], dstd[rows]), (want[0], want[1], want[2][rows], want[3][rows])):
                assert got.tobytes() == w.tobytes()

    def test_singular_factor_raises(self, rng):
        X = rng.random((5, 2))
        g = gp_fit(X, rng.random(5), GPHyper(0.3, 1.0, 1e-4))
        g.L[2, 2] = 0.0
        with pytest.raises(LinAlgError, match="singular"):
            gp_posterior_grad(g, rng.random((3, 2)))
        with pytest.raises(LinAlgError, match="singular"):
            gp_posterior(g, rng.random((3, 2)))

    def test_gps_must_share_training_inputs(self, rng):
        h = GPHyper(0.3, 1.0, 1e-4)
        a = gp_fit(rng.random((5, 2)), rng.random(5), h)
        b = gp_fit(rng.random((5, 2)), rng.random(5), h)
        with pytest.raises(ValueError, match="must share their training inputs X"):
            GPStack([a, b])


def _assert_fits_equal_oracle(gps, X, Y, hyper=None):
    """Each joint-fit GP against a lone oracle fit of its column, byte for byte."""
    assert len(gps) == Y.shape[1]
    for j, g in enumerate(gps):
        L, alpha, h, jitter, shift, scale = oracle_gp_fit(X, Y[:, j], hyper)
        assert g.L.tobytes() == L.tobytes()
        assert g.alpha.tobytes() == alpha.tobytes()
        assert g.hyper == h
        assert (g.jitter, g.y_shift, g.y_scale) == (jitter, shift, scale)
        assert g.X.tobytes() == np.atleast_2d(X).tobytes()


class TestJointFit:
    @pytest.mark.parametrize("n", [1, 9, 105, 420])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_bitwise_equals_per_objective_oracle(self, n, m):
        # a smooth target, a rough one at another scale and a constant one
        # (scale 1.0); from n = 9 the first two pick different grid points
        rng = np.random.default_rng([n, m])
        X = rng.random((n, 5))
        columns = [np.sin(3.0 * X[:, 0]) + X[:, 1:].sum(axis=1), 100.0 + 5.0 * rng.normal(size=n), np.full(n, 7.5)]
        Y = np.stack(columns[:m], axis=1)
        gps = gp_fit_joint(X, Y)
        _assert_fits_equal_oracle(gps, X, Y)
        if m >= 2 and n >= 9:
            assert gps[0].hyper != gps[1].hyper
        if m == 3:
            assert gps[2].y_scale == 1.0

    @pytest.mark.parametrize("duplicated", [True, False])
    def test_explicit_hyper_equals_oracle(self, rng, duplicated):
        # duplicate rows and no noise: the kernel matrix is singular, so its
        # Cholesky needs jitter; otherwise a signal variance that is not a
        # power of two, so the kernel's rounding depends on how it is built
        X = np.vstack([rng.random((4, 2))] * 2) if duplicated else rng.random((8, 2))
        Y = rng.random((8, 3))
        h = GPHyper(0.5, 1.0, 0.0) if duplicated else GPHyper(0.3, 1.7, 1e-4)
        gps = gp_fit_joint(X, Y, h)
        _assert_fits_equal_oracle(gps, X, Y, h)
        assert all(g.hyper is h and (g.jitter > 0.0) == duplicated for g in gps)

    def test_unfittable_raises(self):
        with pytest.raises(GpFitError):
            gp_fit_joint([[0.5], [0.5]], [[0.0, 1.0], [1.0, 0.0]], GPHyper(0.5, 1e16, 0.0))

    @pytest.mark.parametrize("Y", [np.ones((3, 0)), np.ones((2, 1)), np.ones(3), np.full((3, 2), np.nan)])
    def test_bad_targets_raise(self, Y):
        with pytest.raises(ValueError):
            gp_fit_joint(np.random.default_rng(0).random((3, 2)), Y)
