"""Exact Gaussian-process regression with a squared-exponential kernel.

Targets are standardized internally; posteriors are reported in the
original units.  Hyperparameters are either given explicitly or picked by
log-marginal-likelihood search over a fixed log-spaced grid, which keeps
fitting deterministic and dependency-free.  Posterior input gradients are
analytic (the Pareto-set model trains through them).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, cholesky, solve_triangular

__all__ = ["GPHyper", "GPModel", "GpFitError", "gp_fit", "gp_posterior", "gp_posterior_grad"]

# fixed search grid: 5 length scales x 5 signal variances x 3 noise variances
LENGTH_SCALES = tuple(np.geomspace(0.05, 2.0, 5))
SIGNAL_VARS = tuple(np.geomspace(0.25, 4.0, 5))
NOISE_VARS = (1e-6, 1e-4, 1e-2)

JITTERS = (0.0, 1e-10, 1e-8, 1e-6, 1e-4)


class GpFitError(RuntimeError):
    """Kernel matrix stayed non-positive-definite after jitter escalation."""


@dataclass(frozen=True)
class GPHyper:
    length_scale: float
    signal_var: float
    noise_var: float


@dataclass
class GPModel:
    X: np.ndarray  # (n, d) training inputs
    alpha: np.ndarray  # (n,) K^-1 y in standardized units
    L: np.ndarray  # lower Cholesky factor of K + jitter I
    hyper: GPHyper
    y_shift: float
    y_scale: float
    jitter: float

    @property
    def n(self) -> int:
        return self.X.shape[0]


def _sq_dists(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    ar = np.sum(A * A, axis=1)[:, None]
    br = np.sum(B * B, axis=1)[None, :]
    return np.maximum(ar + br - 2.0 * (A @ B.T), 0.0)


def _kernel_from_sq(sq: np.ndarray, hyper: GPHyper) -> np.ndarray:
    return hyper.signal_var * np.exp(-0.5 * sq / hyper.length_scale**2)


def _try_cholesky(K: np.ndarray) -> tuple[np.ndarray, float] | None:
    for jitter in JITTERS:
        try:
            L = cholesky(K + jitter * np.eye(K.shape[0]), lower=True)
            return L, jitter
        except np.linalg.LinAlgError:
            continue
    return None


def _log_marginal(y: np.ndarray, L: np.ndarray, alpha: np.ndarray) -> float:
    n = y.shape[0]
    return float(
        -0.5 * y @ alpha - np.sum(np.log(np.diag(L))) - 0.5 * n * np.log(2.0 * np.pi)
    )


def gp_fit(X, y, hyper: GPHyper | None = None) -> GPModel:
    """Fit an exact GP; grid-search hyperparameters when none are given."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    if X.shape[0] != y.shape[0] or X.shape[0] < 1:
        raise ValueError("X and y must hold n >= 1 matching rows")
    shift = float(np.mean(y))
    scale = float(np.std(y))
    if scale < 1e-12:
        scale = 1.0
    ys = (y - shift) / scale

    sq = _sq_dists(X, X)
    if hyper is not None:
        candidates = [hyper]
    else:
        candidates = [
            GPHyper(ls, sv, nv)
            for ls in LENGTH_SCALES
            for sv in SIGNAL_VARS
            for nv in NOISE_VARS
        ]

    best = None
    for h in candidates:
        K = _kernel_from_sq(sq, h) + h.noise_var * np.eye(X.shape[0])
        fac = _try_cholesky(K)
        if fac is None:
            continue
        L, jitter = fac
        alpha = cho_solve((L, True), ys)
        lml = _log_marginal(ys, L, alpha)
        if best is None or lml > best[0] + 1e-12:
            best = (lml, h, L, alpha, jitter)
    if best is None:
        raise GpFitError(
            f"kernel matrix not positive definite after jitter up to {JITTERS[-1]}"
        )
    _, h, L, alpha, jitter = best
    return GPModel(
        X=X.copy(), alpha=alpha, L=L, hyper=h, y_shift=shift, y_scale=scale, jitter=jitter
    )


def _posterior_std_units(
    g: GPModel, Xq: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Posterior mean/variance in standardized units plus solver byproducts."""
    kq = _kernel_from_sq(_sq_dists(Xq, g.X), g.hyper)  # (q, n)
    mean = kq @ g.alpha
    v = solve_triangular(g.L, kq.T, lower=True, check_finite=False)  # (n, q)
    var = g.hyper.signal_var - np.sum(v * v, axis=0)
    var = np.where(var < 1e-12, 0.0, var)
    return mean, var, kq, v


def gp_posterior(g: GPModel, x) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and standard deviation (original units).

    Accepts a single point or an (q, d) batch; returns matching shapes.
    Variance is the latent-function variance (no observation noise), so it
    is ~0 at noiseless training points.
    """
    arr = np.asarray(x, dtype=float)
    single = arr.ndim == 1
    Xq = np.atleast_2d(arr)
    mean_s, var_s, _, _ = _posterior_std_units(g, Xq)
    mean = g.y_shift + g.y_scale * mean_s
    std = g.y_scale * np.sqrt(var_s)
    return (float(mean[0]), float(std[0])) if single else (mean, std)


def gp_posterior_grad(
    g: GPModel, Xq: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Batched posterior with analytic input gradients (original units).

    Returns (mean (q,), std (q,), dmean (q, d), dstd (q, d)).  dstd is 0
    where the posterior std underflows (clamped), matching the forward pass.
    """
    Xq = np.atleast_2d(np.asarray(Xq, dtype=float))
    mean_s, var_s, kq, v = _posterior_std_units(g, Xq)
    ls2 = g.hyper.length_scale**2
    # dk[q, i, j] = k(xq, Xi) * (Xi - xq)_j / ls^2
    diff = (g.X[None, :, :] - Xq[:, None, :]) / ls2
    dk = kq[:, :, None] * diff
    dmean_s = np.einsum("qid,i->qd", dk, g.alpha)
    # K^-1 kq by back-solving L^T x = v, the forward solve's result
    kinv_kq = solve_triangular(g.L, v, lower=True, trans="T", check_finite=False)  # (n, q)
    dvar_s = -2.0 * np.einsum("iq,qid->qd", kinv_kq, dk)
    std_s = np.sqrt(var_s)
    safe = std_s > 1e-9
    dstd_s = np.zeros_like(dvar_s)
    dstd_s[safe] = dvar_s[safe] / (2.0 * std_s[safe, None])
    mean = g.y_shift + g.y_scale * mean_s
    std = g.y_scale * std_s
    return mean, std, g.y_scale * dmean_s, g.y_scale * dstd_s
