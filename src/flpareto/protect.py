"""Protection mechanisms and their closed-form leakage/cost measurements.

Three mechanisms: Gaussian randomization (clip-by-norm plus noise),
batched quantize-and-pack encryption (reproduced as quantization plus a
calibrated cost model, no real ciphertexts), and sparsification (public
vs private sub-model split).  Leakage formulas map mechanism strength to
a value in [0, 1]; larger means more privacy leaked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RandomizationParams",
    "BatchCryptParams",
    "SparsificationParams",
    "SparsifyResult",
    "rd_protect",
    "rd_leakage",
    "bc_protect",
    "bc_cost",
    "sf_protect",
    "sf_leakage",
    "sf_cost",
]


@dataclass(frozen=True)
class RandomizationParams:
    sigma_rd: float  # noise standard deviation, [0, 1]
    c_clip: float  # norm clip, [1, 4]
    c1: float = 1.0

    def __post_init__(self):
        if self.c_clip <= 0:
            raise ValueError("c_clip must be positive")
        if self.sigma_rd < 0:
            raise ValueError("sigma_rd must be nonnegative")
        if not 0.0 < self.c1 < math.inf:
            raise ValueError("c1 must be finite and > 0")


def rd_protect(
    W: np.ndarray, p: RandomizationParams, rng: np.random.Generator
) -> np.ndarray:
    """Scale W down to norm c_clip if needed, then add N(0, sigma^2) per coordinate."""
    W = np.asarray(W, dtype=float)
    norm = float(np.linalg.norm(W))
    out = W * min(1.0, p.c_clip / norm) if norm > 0 else W.copy()
    if p.sigma_rd > 0:
        out = out + rng.normal(0.0, p.sigma_rd, size=W.shape)
    return out


def rd_leakage(p: RandomizationParams, d_w: int) -> float:
    """1 - min(1, C1 * sigma^2 / clip^2 * sqrt(d_w)); zero noise leaks fully."""
    if d_w < 1:
        raise ValueError("d_w must be >= 1")
    distortion = p.c1 * (p.sigma_rd**2 / p.c_clip**2) * math.sqrt(d_w)
    return 1.0 - min(1.0, distortion)


@dataclass(frozen=True)
class BatchCryptParams:
    batch_size: int  # values per encrypted payload, from {100, 200, 400, 800}
    payload_bits: int = 4096
    clients: int = 5  # sets the additive-aggregation headroom
    t_enc: float = 5e-3  # per-batch encryption seconds (ordering-only placeholder)
    t_add: float = 1e-4
    t_dec: float = 5e-3

    def __post_init__(self):
        for name in ("batch_size", "payload_bits", "clients"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")

    @property
    def headroom_bits(self) -> int:
        return math.ceil(math.log2(self.clients)) + 1

    @property
    def bits_per_value(self) -> int:
        return self.payload_bits // self.batch_size - self.headroom_bits

    def checked_bits(self) -> int:
        """bits_per_value, or ValueError if it leaves fewer than 2 bits."""
        b = self.bits_per_value
        if b < 2:
            raise ValueError(
                f"payload_bits {self.payload_bits} leaves {b} bits per value at batch_size "
                f"{self.batch_size} (headroom {self.headroom_bits}); need >= 2"
            )
        return b

    def n_batches(self, d_w: int) -> int:
        return math.ceil(d_w / self.batch_size)


def _bc_quantize(W: np.ndarray, p: BatchCryptParams) -> tuple[np.ndarray, float]:
    """Integer codes and lattice scale of W at p's bits per value."""
    b = p.checked_bits()
    W = np.asarray(W, dtype=float)
    r = float(np.max(np.abs(W))) if W.size else 0.0
    if r == 0.0:
        return np.zeros(W.shape, dtype=np.int64), 1.0
    lattice_range = 2.0 ** math.ceil(math.log2(r))
    scale = lattice_range / 2.0 ** (b - 1)
    return np.rint(W / scale).astype(np.int64), scale


def bc_protect(W: np.ndarray, p: BatchCryptParams) -> np.ndarray:
    """Symmetric uniform quantization, dequantized for the training path.

    Values are quantized onto a power-of-two lattice (scale = next power of
    two above max|W| over 2^(b-1)), which keeps the max error within
    r / (2^(b-1) - 1) and makes quantize-dequantize exactly idempotent.
    """
    codes, scale = _bc_quantize(W, p)
    return codes * scale


def bc_cost(d_w: int, p: BatchCryptParams, train_time) -> float:
    """Mean per-client cost: training + encryption plus shared aggregation time."""
    times = np.atleast_1d(np.asarray(train_time, dtype=float))
    if np.any(times < 0):
        raise ValueError("train_time must be nonnegative")
    nb = p.n_batches(d_w)
    q1 = times + nb * p.t_enc
    q2 = nb * (p.clients * p.t_add + p.t_dec)
    return float(np.mean(q1 + q2))


@dataclass(frozen=True)
class SparsificationParams:
    rho: float  # probability an eligible parameter is public, [0, 1]
    xi: float  # fraction of public params with smallest update kept private, [0, 0.99]
    c2: float = 8.0

    def __post_init__(self):
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError("rho must lie in [0, 1]")
        if not 0.0 <= self.xi <= 0.99:
            raise ValueError("xi must lie in [0, 0.99]")
        if not 0.0 < self.c2 < math.inf:
            raise ValueError("c2 must be finite and > 0")


@dataclass
class SparsifyResult:
    shared_mask: np.ndarray
    retained_mask: np.ndarray  # public but smallest-update, kept private
    never_public_mask: np.ndarray  # failed the connection draw (or ineligible)


def sf_protect(
    W_new: np.ndarray,
    W_old: np.ndarray,
    p: SparsificationParams,
    connection_mask: np.ndarray,
    eligible: np.ndarray | None = None,
) -> SparsifyResult:
    """Split parameters into shared / retained / never-public sets.

    The connection mask (public with probability rho per entry) is drawn
    once per evaluation by the caller; among public eligible entries
    the xi fraction with the smallest |W_new - W_old| stays private.  The
    three masks partition the eligible set exactly.
    """
    W_new = np.asarray(W_new, dtype=float)
    W_old = np.asarray(W_old, dtype=float)
    if W_new.shape != W_old.shape:
        raise ValueError("W_new and W_old must have equal shapes")
    if eligible is None:
        eligible = np.ones(W_new.shape, dtype=bool)
    public = connection_mask & eligible

    retained = np.zeros(W_new.shape, dtype=bool)
    pub_idx = np.flatnonzero(public)
    n_retain = int(p.xi * pub_idx.size)
    if n_retain > 0:
        updates = np.abs(W_new - W_old)[pub_idx]
        order = np.argsort(updates, kind="stable")
        retained[pub_idx[order[:n_retain]]] = True

    shared_mask = public & ~retained
    never_public = eligible & ~public
    return SparsifyResult(
        shared_mask=shared_mask,
        retained_mask=retained,
        never_public_mask=never_public,
    )


def sf_leakage(retained_values, c2: float) -> float:
    """Per-client leakage 1 - sqrt(2) (1 - exp(-mu/C2))^(1/2), clamped to [0, 1].

    mu is the mean magnitude of the private parameters; an empty private
    set gives mu = 0 and full leakage 1.
    """
    if c2 <= 0:
        raise ValueError("c2 must be positive")
    vals = np.asarray(retained_values, dtype=float)
    mu = float(np.mean(np.abs(vals))) if vals.size else 0.0
    raw = 1.0 - math.sqrt(2.0) * math.sqrt(1.0 - math.exp(-mu / c2))
    return min(1.0, max(0.0, raw))


def sf_cost(shared_masks: list[np.ndarray]) -> float:
    """Mean number of shared parameters across clients."""
    if not shared_masks:
        raise ValueError("need at least one client mask")
    return float(np.mean([int(np.sum(m)) for m in shared_masks]))
