"""Shared independent oracles for the test suite.

These deliberately re-derive results from definitions (pairwise dominance
checks, Monte Carlo volume estimation) instead of reusing library code
paths, so they can catch bugs in the implementations they verify.
"""

import numpy as np
import pytest


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


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
