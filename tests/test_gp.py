import numpy as np
import pytest
from scipy.linalg import LinAlgError, cho_solve, solve_triangular

from flpareto.gp import (
    NOISE_VARS,
    GPHyper,
    GPStack,
    GpFitError,
    _kernel_from_sq,
    _sq_dists,
    gp_fit,
    gp_posterior,
    gp_posterior_grad,
    gp_posterior_grads,
)


def _reference_posterior_grad(g, Xq):
    """gp_posterior_grad with K^-1 kq from a full Cholesky solve."""
    kq = _kernel_from_sq(_sq_dists(Xq, g.X), g.hyper)
    mean_s = kq @ g.alpha
    v = solve_triangular(g.L, kq.T, lower=True)
    var_s = g.hyper.signal_var - np.sum(v * v, axis=0)
    var_s = np.where(var_s < 1e-12, 0.0, var_s)
    diff = (g.X[None, :, :] - Xq[:, None, :]) / g.hyper.length_scale**2
    dk = kq[:, :, None] * diff
    dmean_s = np.einsum("qid,i->qd", dk, g.alpha)
    kinv_kq = cho_solve((g.L, True), kq.T)
    dvar_s = -2.0 * np.einsum("iq,qid->qd", kinv_kq, dk)
    std_s = np.sqrt(var_s)
    safe = std_s > 1e-9
    dstd_s = np.zeros_like(dvar_s)
    dstd_s[safe] = dvar_s[safe] / (2.0 * std_s[safe, None])
    return (
        g.y_shift + g.y_scale * mean_s,
        g.y_scale * std_s,
        g.y_scale * dmean_s,
        g.y_scale * dstd_s,
    )


def _per_gp_posterior_grad(g, Xq):
    """One GP's posterior gradient by its own distances and scipy's
    solve_triangular: the computation the shared-distance path replaced."""
    kq = _kernel_from_sq(_sq_dists(Xq, g.X), g.hyper)
    mean_s = kq @ g.alpha
    v = solve_triangular(g.L, kq.T, lower=True, check_finite=False)
    var_s = g.hyper.signal_var - np.sum(v * v, axis=0)
    var_s = np.where(var_s < 1e-12, 0.0, var_s)
    ls2 = g.hyper.length_scale**2
    diff = (g.X[None, :, :] - Xq[:, None, :]) / ls2
    dk = kq[:, :, None] * diff
    dmean_s = np.einsum("qid,i->qd", dk, g.alpha)
    kinv_kq = solve_triangular(g.L, v, lower=True, trans="T", check_finite=False)
    dvar_s = -2.0 * np.einsum("iq,qid->qd", kinv_kq, dk)
    std_s = np.sqrt(var_s)
    safe = std_s > 1e-9
    dstd_s = np.zeros_like(dvar_s)
    dstd_s[safe] = dvar_s[safe] / (2.0 * std_s[safe, None])
    return (
        g.y_shift + g.y_scale * mean_s,
        g.y_scale * std_s,
        g.y_scale * dmean_s,
        g.y_scale * dstd_s,
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

    def test_posterior_grad_bitwise_equals_cholesky_solve(self, rng):
        # the back-solve from the forward solve's result must reproduce the
        # full cho_solve formula bit for bit, training points included
        for trial in range(12):
            n, d = int(rng.integers(1, 40)), int(rng.integers(1, 6))
            X = rng.random((n, d))
            y = rng.random(n) * 10.0 ** rng.integers(-3, 4)
            g = gp_fit(X, y) if trial % 2 else gp_fit(X, y, GPHyper(0.3, 1.0, 1e-6))
            Xq = np.vstack([rng.random((16, d)), X[:2]])
            for got, want in zip(gp_posterior_grad(g, Xq), _reference_posterior_grad(g, Xq)):
                assert np.array_equal(got, want)


class TestSharedPosteriorGrad:
    def test_bitwise_equals_per_gp_oracle(self, rng):
        # m GPs on one X, each with its own hyperparameters and targets;
        # the queries include training points, where the std is clamped
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
            for g, got in zip(gps, gp_posterior_grads(gps, Xq), strict=True):
                want = _per_gp_posterior_grad(g, Xq)
                for a, b in zip(got, want, strict=True):
                    assert np.array_equal(a, b)
                for a, b in zip(gp_posterior_grad(g, Xq), want, strict=True):
                    assert np.array_equal(a, b)
                for a, b in zip(gp_posterior(g, Xq), want[:2], strict=True):
                    assert np.array_equal(a, b)

    @pytest.mark.parametrize("n", [1, 9, 105])
    @pytest.mark.parametrize("d", [1, 10])
    def test_stack_bitwise_equals_per_gp_oracle(self, n, d):
        # the stacked (m, q) and (m, q, d) output, GP by GP, at sizes where
        # the order of a reduction decides its rounding
        rng = np.random.default_rng([n, d])
        X = rng.random((n, d))
        Xq = np.vstack([rng.random((16, d)), X[:2]])
        gps = [
            gp_fit(X, rng.random(n) * 10.0 ** (2 * j - 2), GPHyper(0.3 + 0.4 * j, 0.5 + j, NOISE_VARS[j]))
            for j in range(3)
        ] + [gp_fit(X, rng.random(n))]
        mean, std, dmean, dstd = GPStack(gps)(Xq)
        q = Xq.shape[0]
        assert mean.shape == std.shape == (4, q) and dmean.shape == dstd.shape == (4, q, d)
        for j, g in enumerate(gps):
            want = _per_gp_posterior_grad(g, Xq)
            for got, w in zip((mean[j], std[j], dmean[j], dstd[j]), want, strict=True):
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
        with pytest.raises(ValueError, match="must share their training inputs X"):
            gp_posterior_grads([a, b], rng.random((3, 2)))
