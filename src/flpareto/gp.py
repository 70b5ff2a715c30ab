"""Exact Gaussian-process regression with a squared-exponential kernel.

Targets are standardized internally; posteriors are reported in the
original units.  Hyperparameters are either given explicitly or picked by
log-marginal-likelihood search over a fixed log-spaced grid, which keeps
fitting deterministic and dependency-free.  Posterior input gradients are
analytic (the Pareto-set model trains through them); a `GPStack` serves
several GPs fitted on one X, built once and queried many times.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dpotrf, dpotrs, dtrtrs

__all__ = [
    "GPHyper",
    "GPModel",
    "GPStack",
    "GpFitError",
    "gp_fit",
    "gp_fit_joint",
    "gp_posterior",
    "gp_posterior_grad",
    "gp_posterior_grads",
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


def _sq_dists(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    ar = np.sum(A * A, axis=1)[:, None]
    br = np.sum(B * B, axis=1)[None, :]
    return np.maximum(ar + br - 2.0 * (A @ B.T), 0.0)


def _kernel_from_sq(sq: np.ndarray, hyper: GPHyper) -> np.ndarray:
    return hyper.signal_var * np.exp(-0.5 * sq / hyper.length_scale**2)


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


def _solve_lower(L: np.ndarray, B: np.ndarray, trans: int = 0) -> np.ndarray:
    """Solve L x = B (trans 0) or L^T x = B (trans 1) for lower-triangular L.

    LAPACK dtrtrs called as scipy's `solve_triangular` calls it for a
    Fortran-ordered L (cholesky's output), without its Python-side input
    handling; the result is bitwise the same.
    """
    x, info = dtrtrs(L, B, 1, trans)  # (lower, trans) by position: keywords cost more
    if info > 0:
        raise LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal trtrs")
    return x


def gp_posterior(g: GPModel, x) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and standard deviation (original units).

    Accepts a single point or an (q, d) batch; returns matching shapes.
    Variance is the latent-function variance (no observation noise), so it
    is ~0 at noiseless training points.
    """
    arr = np.asarray(x, dtype=float)
    single = arr.ndim == 1
    Xq = np.atleast_2d(arr)
    kq = _kernel_from_sq(_sq_dists(Xq, g.X), g.hyper)  # (q, n)
    v = _solve_lower(g.L, kq.T)  # (n, q)
    var_s = g.hyper.signal_var - np.sum(v * v, axis=0)
    mean = g.y_shift + g.y_scale * (kq @ g.alpha)
    std = g.y_scale * np.sqrt(np.where(var_s < 1e-12, 0.0, var_s))
    return (float(mean[0]), float(std[0])) if single else (mean, std)


class GPStack:
    """Several GPs fitted on one X, queried together with input gradients.

    Built once from the fitted GPs, it checks that they share X and holds
    what every query reuses: the stacked hyperparameters and target
    scalings, ‖X‖², and each GP's Cholesky factor and weights.  A query runs
    the elementwise kernel and kernel-derivative work once for all GPs.
    Each reduction (`kq @ alpha`, both triangular solves, the variance sum
    and both einsums) stays one call per GP on the operand layout of a lone
    GP, so every GP's numbers are bitwise those it gives on its own.
    """

    def __init__(self, gps: list[GPModel]):
        X = gps[0].X
        if any(not np.array_equal(g.X, X) for g in gps[1:]):
            raise ValueError("the GPs must share their training inputs X")
        self.X = X
        self.x_sq = np.sum(X * X, axis=1)[None, :]
        self.factors = [(g.L, g.alpha) for g in gps]
        self.signal_var = np.array([g.hyper.signal_var for g in gps])[:, None]
        self.ls2 = np.array([g.hyper.length_scale**2 for g in gps])[:, None, None]
        self.y_shift = np.array([g.y_shift for g in gps])[:, None]
        self.y_scale = np.array([g.y_scale for g in gps])[:, None]
        # the broadcast views each query uses
        self._X = X[None, :, :]
        self._signal_var = self.signal_var[:, :, None]
        self._ls2 = self.ls2[..., None]
        self._y_scale = self.y_scale[:, :, None]

    def __call__(
        self, Xq: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(mean (m, q), std (m, q), dmean (m, q, d), dstd (m, q, d)) at the
        (q, d) queries, in original units.

        dstd is 0 where the posterior std underflows (clamped), matching the
        forward pass.
        """
        m, q = len(self.factors), Xq.shape[0]
        xq_sq = np.add.reduce(Xq * Xq, axis=1)[:, None]
        sq = np.maximum(xq_sq + self.x_sq - 2.0 * (Xq @ self.X.T), 0.0)
        kq = self._signal_var * np.exp(-0.5 * sq / self.ls2)  # (m, q, n)
        # dk[j, q, i, :] = k_j(xq, Xi) * (Xi - xq) / ls_j^2
        diff = self._X - Xq[:, None, :]  # (q, n, d)
        dk = kq[..., None] * (diff / self._ls2)
        mean_s = np.empty((m, q))
        vv = np.empty((m, q))
        dmean_s = np.empty((m, q, Xq.shape[1]))
        kinv_dk = np.empty_like(dmean_s)
        for j, (L, alpha) in enumerate(self.factors):
            np.matmul(kq[j], alpha, out=mean_s[j])
            v = _solve_lower(L, kq[j].T)  # (n, q), Fortran-ordered
            np.add.reduce(v * v, axis=0, out=vv[j])
            np.einsum("qid,i->qd", dk[j], alpha, out=dmean_s[j])
            # K^-1 kq by back-solving L^T x = v, the forward solve's result
            kinv_kq = _solve_lower(L, v, trans=1)
            np.einsum("iq,qid->qd", kinv_kq, dk[j], out=kinv_dk[j])
        var_s = np.subtract(self.signal_var, vv, out=vv)
        std_s = np.sqrt(np.where(var_s < 1e-12, 0.0, var_s))
        dvar_s = np.multiply(kinv_dk, -2.0, out=kinv_dk)
        dstd_s = np.zeros(dvar_s.shape)
        std3 = std_s[..., None]
        np.divide(dvar_s, 2.0 * std3, out=dstd_s, where=std3 > 1e-9)
        return (
            self.y_shift + self.y_scale * mean_s,
            np.multiply(self.y_scale, std_s, out=std_s),
            np.multiply(self._y_scale, dmean_s, out=dmean_s),
            np.multiply(self._y_scale, dstd_s, out=dstd_s),
        )


def gp_posterior_grads(
    gps: list[GPModel], Xq: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Batched posteriors with analytic input gradients of GPs that share X.

    Returns one (mean (q,), std (q,), dmean (q, d), dstd (q, d)) per GP, in
    original units; see `GPStack`, which a caller that queries the same GPs
    many times builds once.
    """
    post = GPStack(gps)(np.atleast_2d(np.asarray(Xq, dtype=float)))
    return [tuple(a[j] for a in post) for j in range(len(gps))]


def gp_posterior_grad(
    g: GPModel, Xq: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Batched posterior with analytic input gradients (original units).

    Returns (mean (q,), std (q,), dmean (q, d), dstd (q, d)); see `GPStack`.
    """
    return gp_posterior_grads([g], Xq)[0]
