"""Shared independent oracles for the test suite.

These deliberately re-derive results from definitions (pairwise dominance
checks, Monte Carlo volume estimation) instead of reusing library code
paths, so they can catch bugs in the implementations they verify.
"""

import numpy as np
import pytest
from scipy.linalg import cho_solve, cholesky
from scipy.linalg.lapack import dtrtrs
from scipy.special import expit

from flpareto.gp import JITTERS, LENGTH_SCALES, NOISE_VARS, SIGNAL_VARS, GPHyper, GpFitError
from flpareto.moo import pareto_front_mask
from flpareto.nsga2 import SBX_GENE_PROB, _mutate, _sbx
from flpareto.protect import _bc_quantize

MAX_GRID_POINTS = 10**7


def oracle_dominates(a, b) -> bool:
    a, b = np.asarray(a, float), np.asarray(b, float)
    return bool(np.all(a <= b) and np.any(a < b))


def oracle_front_partition(Y) -> list[list[int]]:
    """Peel non-dominated fronts by repeated O(n^2) scans."""
    Y = np.asarray(Y, float)
    alive = list(range(Y.shape[0]))
    fronts = []
    while alive:
        front = [
            i
            for i in alive
            if not any(oracle_dominates(Y[j], Y[i]) for j in alive if j != i)
        ]
        fronts.append(front)
        alive = [i for i in alive if i not in front]
    return fronts


def oracle_spawn_seed(*keys: int) -> int:
    """One derived 64-bit seed, from numpy's own SeedSequence."""
    ss = np.random.SeedSequence([int(k) for k in keys])
    return int(ss.generate_state(1, np.uint64)[0])


def oracle_tournament_pick(rank, crowd, rng) -> int:
    """Binary tournament under the crowded-comparison order, comparing
    numpy scalars of the rank and crowding arrays."""
    i, j = rng.integers(0, rank.shape[0], size=2)
    if rank[i] != rank[j]:
        return int(i if rank[i] < rank[j] else j)
    if crowd[i] != crowd[j]:
        return int(i if crowd[i] > crowd[j] else j)
    return int(min(i, j))


def oracle_sbx_crossover(p1, p2, eta, rng, gene_prob=SBX_GENE_PROB, clip=True):
    """Simulated binary crossover of one pair with distribution index eta.

    Each gene is crossed independently with probability `gene_prob`;
    crossed genes satisfy c1 + c2 = p1 + p2 before clipping to [0, 1].
    """
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    if p1.shape != p2.shape:
        raise ValueError("parents must share a decoder (equal gene counts)")
    u = rng.random(p1.shape)
    cross = rng.random(p1.shape) < gene_prob
    return _sbx(p1, p2, u, cross, eta, clip)


def oracle_polynomial_mutation(p, eta, rate, rng):
    """Bound-respecting polynomial mutation of one child's [0, 1] genes.

    A gene at 0 can only move up and a gene at 1 only down; larger eta
    concentrates the perturbation near zero displacement.
    """
    x = np.asarray(p, dtype=float)
    mutate = rng.random(x.shape) < rate
    u = rng.random(x.shape)
    return _mutate(x, mutate, u, eta)


def oracle_front_mask(Y) -> np.ndarray:
    """Non-dominated rows of an (n, m) array by a chunked O(n^2) pairwise check."""
    Y = np.asarray(Y, float)
    n = Y.shape[0]
    mask = np.ones(n, dtype=bool)
    chunk = max(1, 2**18 // max(n, 1))
    for start in range(0, n, chunk):
        block = Y[start : start + chunk]
        le = np.all(Y[None, :, :] <= block[:, None, :], axis=2)  # Y_j <= block_i
        lt = np.any(Y[None, :, :] < block[:, None, :], axis=2)
        mask[start : start + chunk] = ~np.any(le & lt, axis=1)
    return mask


def oracle_brute_force_front(problem, grid: int, constraints=None) -> np.ndarray:
    """Non-dominated objective vectors of a full grid over [0, 1]^d.

    Evaluates a `grid`-points-per-axis lattice and filters it with
    `pareto_front_mask`.  When `constraints` is given, infeasible grid
    points are dropped before the filter.  Refuses grids above 10^7 points.
    """
    d = problem.dim
    if grid**d > MAX_GRID_POINTS:
        raise ValueError(
            f"grid of {grid}^{d} points exceeds the {MAX_GRID_POINTS} point limit"
        )
    axes = [np.linspace(0.0, 1.0, grid)] * d
    mesh = np.meshgrid(*axes, indexing="ij")
    X = np.column_stack([m.ravel() for m in mesh])
    Y = np.atleast_2d(problem.evaluate(X, np.zeros(X.shape[0], dtype=np.uint64)))
    if constraints is not None:
        keep = np.all(Y <= constraints.bounds_array(), axis=1)
        Y = Y[keep]
    if Y.shape[0] == 0:
        return Y
    return Y[pareto_front_mask(Y)]


def oracle_tchebycheff(y, lam, z) -> float:
    """Weighted Tchebycheff value max_i lam_i * (y_i - z_i) for ideal z."""
    y = np.asarray(y, dtype=float)
    lam = np.asarray(lam, dtype=float)
    z = np.asarray(z, dtype=float)
    if not (y.shape == lam.shape == z.shape):
        raise ValueError("y, lam and z must share one shape")
    return float(np.max(lam * (y - z)))


def oracle_bc_pack(W, p) -> list[int]:
    """The quantized codes of W, offset-binary, packed batch-wise into big integers."""
    codes, _ = _bc_quantize(W, p)
    slot_width = p.payload_bits // p.batch_size
    bias = 1 << (p.bits_per_value - 1)
    batches: list[int] = []
    for start in range(0, codes.size, p.batch_size):
        payload = 0
        for j, c in enumerate(codes[start : start + p.batch_size]):
            payload |= (int(c) + bias) << (j * slot_width)
        batches.append(payload)
    return batches


def mc_hypervolume(Y, z, n_samples: int, seed: int = 0):
    """Monte Carlo estimate of the dominated volume, with standard error."""
    Y = np.asarray(Y, float)
    z = np.asarray(z, float)
    keep = np.all(Y <= z, axis=1)
    Y = Y[keep]
    if Y.shape[0] == 0:
        return 0.0, 0.0
    lo = Y.min(axis=0)
    box = float(np.prod(z - lo))
    if box == 0.0:
        return 0.0, 0.0
    rng = np.random.default_rng(seed)
    hits = 0
    chunk = 200_000
    for start in range(0, n_samples, chunk):
        c = min(chunk, n_samples - start)
        pts = lo + rng.random((c, z.shape[0])) * (z - lo)
        dominated = np.zeros(c, dtype=bool)
        for y in Y:
            dominated |= np.all(pts >= y, axis=1)
        hits += int(dominated.sum())
    p = hits / n_samples
    se = np.sqrt(max(p * (1.0 - p), 1e-12) / n_samples) * box
    return p * box, se


def oracle_gp_fit(X, y, hyper=None):
    """One GP fitted on its own, grid point after grid point, each with its
    own kernel matrix, scipy Cholesky and solve; returns (L, alpha, hyper,
    jitter, y_shift, y_scale) of the best point."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    shift = float(np.mean(y))
    scale = float(np.std(y))
    if scale < 1e-12:
        scale = 1.0
    ys = (y - shift) / scale
    ar = np.sum(X * X, axis=1)[:, None]
    sq = np.maximum(ar + ar.T - 2.0 * (X @ X.T), 0.0)
    if hyper is not None:
        candidates = [hyper]
    else:
        candidates = [GPHyper(ls, sv, nv) for ls in LENGTH_SCALES for sv in SIGNAL_VARS for nv in NOISE_VARS]
    best = None
    for h in candidates:
        K = h.signal_var * np.exp(-0.5 * sq / h.length_scale**2) + h.noise_var * np.eye(X.shape[0])
        for jitter in JITTERS:
            try:
                L = cholesky(K + jitter * np.eye(K.shape[0]), lower=True)
                break
            except np.linalg.LinAlgError:
                continue
        else:
            continue
        alpha = cho_solve((L, True), ys)
        n = ys.shape[0]
        lml = float(-0.5 * ys @ alpha - np.sum(np.log(np.diag(L))) - 0.5 * n * np.log(2.0 * np.pi))
        if best is None or lml > best[0] + 1e-12:
            best = (lml, h, L, alpha, jitter)
    if best is None:
        raise GpFitError("kernel matrix not positive definite")
    _, h, L, alpha, jitter = best
    return L, alpha, h, jitter, shift, scale


def _oracle_posterior_grads(gps, Xq):
    """Per-GP posteriors with input gradients, one GP after another, each
    with its own kernel, solves and reductions (original units)."""
    X = gps[0].X
    ar = np.sum(Xq * Xq, axis=1)[:, None]
    br = np.sum(X * X, axis=1)[None, :]
    sq = np.maximum(ar + br - 2.0 * (Xq @ X.T), 0.0)
    diff = X[None, :, :] - Xq[:, None, :]
    out = []
    for g in gps:
        kq = g.hyper.signal_var * np.exp(-0.5 * sq / g.hyper.length_scale**2)
        mean_s = kq @ g.alpha
        v, _ = dtrtrs(g.L, kq.T, lower=1)
        var_s = g.hyper.signal_var - np.sum(v * v, axis=0)
        var_s = np.where(var_s < 1e-12, 0.0, var_s)
        dk = kq[:, :, None] * (diff / g.hyper.length_scale**2)
        dmean_s = np.einsum("qid,i->qd", dk, g.alpha)
        kinv_kq, _ = dtrtrs(g.L, v, lower=1, trans=1)
        dvar_s = -2.0 * np.einsum("iq,qid->qd", kinv_kq, dk)
        std_s = np.sqrt(var_s)
        safe = std_s > 1e-9
        dstd_s = np.zeros_like(dvar_s)
        dstd_s[safe] = dvar_s[safe] / (2.0 * std_s[safe, None])
        out.append((g.y_shift + g.y_scale * mean_s, g.y_scale * std_s,
                    g.y_scale * dmean_s, g.y_scale * dstd_s))
    return out


def _oracle_loss_and_grads(p, lam, gps, bounds, alphas, finite, ideal, beta, sharpness):
    """Mean Tchebycheff loss of the penalized LCBs and its parameter grads."""
    B, m, d = lam.shape[0], len(gps), p["b3"].size
    h1 = np.tanh(lam @ p["W1"] + p["b1"])
    h2 = np.tanh(h1 @ p["W2"] + p["b2"])
    x = expit(h2 @ p["W3"] + p["b3"])
    lcb = np.empty((B, m))
    dlcb = np.empty((B, m, d))
    for j, (mean, std, dmean, dstd) in enumerate(_oracle_posterior_grads(gps, x)):
        lcb[:, j] = mean - beta * std
        dlcb[:, j, :] = dmean - beta * dstd
    u = np.where(finite, lcb - bounds, 0.0)
    softplus = np.logaddexp(0.0, sharpness * u) / sharpness
    pen = lcb + np.where(finite, alphas * softplus, 0.0)
    dpen_dlcb = 1.0 + np.where(finite, alphas * expit(sharpness * u), 0.0)
    scaled = lam * (pen - ideal[None, :])
    winner = np.argmax(scaled, axis=1)
    loss = float(np.mean(scaled[np.arange(B), winner]))
    dpen = np.zeros((B, m))
    dpen[np.arange(B), winner] = lam[np.arange(B), winner] / B
    dx = np.einsum("bj,bj,bjd->bd", dpen, dpen_dlcb, dlcb)
    dz3 = dx * x * (1.0 - x)
    grads = {"W3": h2.T @ dz3, "b3": dz3.sum(axis=0)}
    dz2 = (dz3 @ p["W3"].T) * (1.0 - h2 * h2)
    grads["W2"] = h1.T @ dz2
    grads["b2"] = dz2.sum(axis=0)
    dz1 = (dz2 @ p["W2"].T) * (1.0 - h1 * h1)
    grads["W1"] = lam.T @ dz1
    grads["b1"] = dz1.sum(axis=0)
    return loss, grads


def oracle_train_pareto_set_model(params, gps, constraints, steps, rng, ideal, lr, batch, beta, sharpness):
    """Adam training of a Pareto-set network's `params` (a dict in the
    network's layer order), one preference draw and one posterior pass per
    step; returns the final weights and the loss trace."""
    flat = np.concatenate([np.ravel(v) for v in params.values()])
    views, start = {}, 0
    for k, v in params.items():
        views[k] = flat[start : start + np.size(v)].reshape(np.shape(v))
        start += np.size(v)
    raw = constraints.bounds_array()
    finite = np.isfinite(raw)
    bounds, alphas = np.where(finite, raw, 0.0), constraints.penalties_array()
    b1, b2, eps = 0.9, 0.999, 1e-8
    m_t, v_t = np.zeros(flat.size), np.zeros(flat.size)
    losses = []
    for t in range(1, steps + 1):
        lam = rng.dirichlet(np.ones(len(gps)), size=batch)
        loss, grads = _oracle_loss_and_grads(views, lam, gps, bounds, alphas, finite, ideal, beta, sharpness)
        g = np.concatenate([np.ravel(grads[k]) for k in views])
        m_t = b1 * m_t + (1 - b1) * g
        v_t = b2 * v_t + (1 - b2) * g * g
        mhat = m_t / (1 - b1**t)
        vhat = v_t / (1 - b2**t)
        flat -= lr * mhat / (np.sqrt(vhat) + eps)
        losses.append(loss)
    return views, losses


def _oracle_forward(layers, X):
    W1, b1, W2, b2, W3, b3 = layers
    a1 = np.maximum(X @ W1 + b1[..., None, :], 0.0)
    a2 = np.maximum(a1 @ W2 + b2[..., None, :], 0.0)
    logits = a2 @ W3 + b3[..., None, :]
    return logits, (a1, a2)


def _oracle_log_softmax(logits):
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))


def oracle_loss_and_grad(params, X, y, spec):
    """Mean cross-entropy and flat gradient, one temporary per step, with
    boolean-mask ReLU backward; single (d_w,) or stacked (K, d_w) params."""
    layers = spec.unpack(params)
    W1, _, W2, _, W3, _ = layers
    logits, (a1, a2) = _oracle_forward(layers, X)
    n = X.shape[-2]
    logp = _oracle_log_softmax(logits)
    onehot = y[..., None] == np.arange(logits.shape[-1])
    loss = -np.mean(logp[onehot].reshape(y.shape), axis=-1)
    dlogits = (np.exp(logp) - onehot) / n
    gW3 = a2.swapaxes(-1, -2) @ dlogits
    gb3 = dlogits.sum(axis=-2)
    da2 = dlogits @ W3.swapaxes(-1, -2)
    da2[a2 <= 0.0] = 0.0
    gW2 = a1.swapaxes(-1, -2) @ da2
    gb2 = da2.sum(axis=-2)
    da1 = da2 @ W2.swapaxes(-1, -2)
    da1[a1 <= 0.0] = 0.0
    gW1 = X.swapaxes(-1, -2) @ da1
    gb1 = da1.sum(axis=-2)
    flat = params.shape[:-1] + (-1,)
    grad = np.concatenate(
        [g.reshape(flat) for g in (gW1, gb1, gW2, gb2, gW3, gb3)], axis=-1
    )
    return loss, grad


def oracle_predict(params, X, spec):
    logits, _ = _oracle_forward(spec.unpack(params), X)
    return np.argmax(logits, axis=-1)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
