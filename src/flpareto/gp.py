"""Exact Gaussian-process regression with a squared-exponential kernel.

Targets are standardized internally; posteriors are reported in the
original units.  Hyperparameters are either given explicitly or picked by
log-marginal-likelihood search over a fixed log-spaced grid, which keeps
fitting deterministic and dependency-free.  Every query goes through a
`GPStack` of GPs fitted on one X, built once and queried many times: it
holds each GP's K⁻¹, so a query is GEMMs, with no triangular solve.
Posterior input gradients are analytic (the Pareto-set model trains
through them).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dpotrf, dpotri, dpotrs

__all__ = [
    "GPHyper",
    "GPModel",
    "GPStack",
    "GpFitError",
    "gp_fit",
    "gp_fit_joint",
    "gp_posterior",
    "gp_posterior_grad",
]

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

    @cached_property
    def kinv(self) -> np.ndarray:
        """(K + jitter I)⁻¹ from L (LAPACK dpotri), built on first use."""
        inv, info = dpotri(self.L, lower=1)
        if info > 0:
            raise LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
        if info < 0:
            raise ValueError(f"illegal value in {-info}-th argument of internal potri")
        # dpotri fills the lower triangle; mirror it
        return np.tril(inv) + np.tril(inv, -1).T


def _sq_dists(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    ar = np.sum(A * A, axis=1)[:, None]
    br = np.sum(B * B, axis=1)[None, :]
    return np.maximum(ar + br - 2.0 * (A @ B.T), 0.0)


def _try_cholesky(K: np.ndarray, eye: np.ndarray) -> tuple[np.ndarray, float] | None:
    """Lower Cholesky factor of K + jitter I at the first jitter that works.

    LAPACK dpotrf called as scipy's `cholesky(..., lower=True)` calls it,
    without its Python-side input handling; the factor is bitwise the same.
    """
    for jitter in JITTERS:
        L, info = dpotrf(K + jitter * eye, lower=1)
        if info == 0:
            return L, jitter
        if info < 0:
            raise ValueError(f"illegal value in {-info}-th argument of internal potrf")
    return None


def _cho_solve(L: np.ndarray, y: np.ndarray) -> np.ndarray:
    """K^-1 y from K's lower Cholesky factor, as scipy's `cho_solve` (dpotrs)."""
    alpha, info = dpotrs(L, y, lower=1)
    if info != 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal potrs")
    return alpha


def gp_fit_joint(X, Y, hyper: GPHyper | None = None) -> list[GPModel]:
    """Fit one exact GP per column of the (n, m) targets Y, all on inputs X;
    grid-search each GP's hyperparameters when none are given.

    The kernel matrix and its Cholesky factor depend on X and on the grid
    point, not on the targets, so each grid point is built and factored
    once for all columns (each length scale's exp once, one identity).
    Standardization, the solve and the log marginal likelihood stay per
    column, and each column keeps its own best grid point, so every GP is
    bitwise the one a lone fit of its column gives.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2 or X.shape[0] != Y.shape[0] or min(Y.shape) < 1:
        raise ValueError("X and Y must hold n >= 1 matching rows and Y m >= 1 columns")
    # LAPACK itself does not reject infs or NaNs
    if not (np.isfinite(X).all() and np.isfinite(Y).all()):
        raise ValueError("X and Y must not contain infs or NaNs")
    targets = []
    for y in np.ascontiguousarray(Y.T):
        shift = float(np.mean(y))
        scale = float(np.std(y))
        if scale < 1e-12:
            scale = 1.0
        targets.append(((y - shift) / scale, shift, scale))

    n = X.shape[0]
    sq = _sq_dists(X, X)
    eye = np.eye(n)
    log_norm = 0.5 * n * np.log(2.0 * np.pi)
    grid = (
        [(hyper.length_scale, [hyper])]
        if hyper is not None
        else [
            (ls, [GPHyper(ls, sv, nv) for sv in SIGNAL_VARS for nv in NOISE_VARS])
            for ls in LENGTH_SCALES
        ]
    )
    best: list = [None] * len(targets)
    for ls, hypers in grid:
        E = np.exp(-0.5 * sq / ls**2)
        for h in hypers:
            fac = _try_cholesky(h.signal_var * E + h.noise_var * eye, eye)
            if fac is None:
                continue
            L, jitter = fac
            log_det = np.sum(np.log(np.diag(L)))
            for j, (ys, _, _) in enumerate(targets):
                alpha = _cho_solve(L, ys)
                lml = float(-0.5 * ys @ alpha - log_det - log_norm)  # log marginal likelihood
                if best[j] is None or lml > best[j][0] + 1e-12:
                    best[j] = (lml, h, L, alpha, jitter)
    if best[0] is None:
        raise GpFitError(
            f"kernel matrix not positive definite after jitter up to {JITTERS[-1]}"
        )
    X = X.copy()
    return [
        GPModel(X=X, alpha=alpha, L=L, hyper=h, y_shift=shift, y_scale=scale, jitter=jitter)
        for (_, h, L, alpha, jitter), (_, shift, scale) in zip(best, targets)
    ]


def gp_fit(X, y, hyper: GPHyper | None = None) -> GPModel:
    """Fit an exact GP; grid-search hyperparameters when none are given.

    The one-column case of `gp_fit_joint`.
    """
    return gp_fit_joint(X, np.reshape(np.asarray(y, dtype=float), (-1, 1)), hyper)[0]


def gp_posterior(g: GPModel, x) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and standard deviation (original units).

    Accepts a single point or an (q, d) batch; returns matching shapes.
    Variance is the latent-function variance (no observation noise), so it
    is ~0 at noiseless training points.  The one-GP case of `GPStack`.
    """
    arr = np.asarray(x, dtype=float)
    mean, std, _ = GPStack([g])(np.atleast_2d(arr))
    return (float(mean[0, 0]), float(std[0, 0])) if arr.ndim == 1 else (mean[0], std[0])


def gp_posterior_grad(
    g: GPModel, Xq: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Batched posterior with analytic input gradients (original units).

    Returns (mean (q,), std (q,), dmean (q, d), dstd (q, d)); the one-GP
    case of `GPStack`.
    """
    Xq = np.atleast_2d(np.asarray(Xq, dtype=float))
    mean, std, grad = GPStack([g])(Xq)
    dmean, dstd = grad(np.zeros(Xq.shape[0], dtype=np.intp))
    return mean[0], std[0], dmean, dstd


class GPStack:
    """Several GPs fitted on one X, queried together.

    Built once from the fitted GPs, it checks that they share X and stacks
    what every query reuses: the hyperparameters and target scalings, ‖X‖²,
    each GP's weights and each GP's K⁻¹ (m, n, n).  A query forms the
    (m, q, n) kernel once, takes the means as `kq @ alpha`, W = kq @ K⁻¹ in
    one batched GEMM and the variances as `signal_var - rowsum(W ⊙ kq)`, so
    it makes no triangular solve.  Input gradients come from the same kq,
    W and alpha, for one GP per query row.

    K⁻¹ trades accuracy for speed: near training inputs `kq K⁻¹ kqᵀ`
    cancels worse than the Cholesky form's ‖L⁻¹ kqᵀ‖², so a variance
    carries rounding of order eps · cond(K) · signal_var, not eps ·
    signal_var.  A variance below 1e-12 reads 0, with a zero std gradient,
    so at a noiseless training input of a fit whose rounding stays below
    that, the std and its gradient are exactly 0.
    """

    def __init__(self, gps: list[GPModel]):
        X = gps[0].X
        if any(not np.array_equal(g.X, X) for g in gps[1:]):
            raise ValueError("the GPs must share their training inputs X")
        self.X = X
        self.x_sq = np.sum(X * X, axis=1)
        self.alpha = np.stack([g.alpha for g in gps])  # (m, n)
        self.kinv = np.stack([g.kinv for g in gps])  # (m, n, n)
        self.signal_var = np.array([g.hyper.signal_var for g in gps])[:, None]  # (m, 1)
        self.y_shift = np.array([g.y_shift for g in gps])[:, None]
        self.y_scale = np.array([g.y_scale for g in gps])[:, None]
        ls2 = np.array([g.hyper.length_scale**2 for g in gps])
        # the broadcast views and factors each query uses
        self._alpha = self.alpha[:, :, None]
        # sq / (-2 ls²) is bitwise -0.5 sq / ls², the kernel of the fit
        self._neg_2ls2 = (-2.0 * ls2)[:, None, None]
        self._signal_var = self.signal_var[:, :, None]
        # rows 0 and 1: the factors that turn the sums of `grad` into dmean
        # and, divided by the std, into dstd, in original units
        self._grad_scale = np.array([1.0, -1.0])[:, None] * (self.y_scale[:, 0] / ls2)

    def __call__(self, Xq: np.ndarray) -> tuple[np.ndarray, np.ndarray, Callable]:
        """(mean (m, q), std (m, q), grad) at the (q, d) queries, in
        original units.

        `grad(obj)`, for one GP index per query row, returns the input
        gradients (dmean (q, d), dstd (q, d)) of GP obj[i] at query i.
        dstd is 0 where the posterior std underflows (clamped), matching
        the forward pass.
        """
        m, q, n = self.alpha.shape[0], Xq.shape[0], self.X.shape[0]
        sq = np.add.reduce(Xq * Xq, axis=1)[:, None] + self.x_sq
        sq -= 2.0 * (Xq @ self.X.T)
        np.maximum(sq, 0.0, out=sq)
        kq = np.exp(sq / self._neg_2ls2)  # (m, q, n)
        kq *= self._signal_var
        mv = np.empty((2, m, q))  # the means and rowsum(W ⊙ kq), standardized
        np.matmul(kq, self._alpha, out=mv[0, :, :, None])
        wk = np.matmul(kq, self.kinv)  # W
        wk *= kq
        np.add.reduce(wk, axis=2, out=mv[1])
        var_s = self.signal_var - mv[1]
        std_s = np.sqrt(np.where(var_s < 1e-12, 0.0, var_s))

        def grad(obj: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            # in standardized units, dmean = (Σ_i alpha_i k_i X_i - mean x) / ls²
            # and dvar = -2 (Σ_i W_i k_i X_i - rowsum(W ⊙ kq) x) / ls²
            at = obj * q + np.arange(q)
            rows = np.empty((2, q, n))
            np.multiply(kq.reshape(-1, n).take(at, axis=0), self.alpha.take(obj, axis=0), out=rows[0])
            wk.reshape(-1, n).take(at, axis=0, out=rows[1])
            d = (rows.reshape(2 * q, n) @ self.X).reshape(2, q, -1)
            d -= mv.reshape(2, -1).take(at, axis=1)[:, :, None] * Xq
            # dstd = dvar / (2 std), and 0 where the std is clamped
            std_w = std_s.take(at)
            scale = self._grad_scale.take(obj, axis=1)
            scale[1] /= np.where(std_w > 1e-9, std_w, np.inf)
            d *= scale[:, :, None]
            return d[0], d[1]

        return self.y_shift + self.y_scale * mv[0], self.y_scale * std_s, grad
