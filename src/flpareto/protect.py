"""Protection mechanisms and their closed-form leakage/cost measurements.

Three mechanisms: Gaussian randomization (clip-by-norm plus noise),
batched quantize-and-pack encryption (reproduced as quantization plus a
calibrated cost model, no real ciphertexts), and sparsification (public
vs private sub-model split).  Leakage formulas map mechanism strength to
a value in [0, 1]; larger means more privacy leaked.  A params class holds
the searched values; run constants (C1, C2, bc's payload and client count)
are arguments, from `flsim.FlOptions`.
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
    "bc_bits",
    "bc_protect",
    "bc_cost",
    "sf_protect",
    "sf_leakage",
    "sf_cost",
]

BATCH_SIZES = (100, 200, 400, 800)  # bc's searched batch sizes

# bc's per-batch operation seconds (ordering-only placeholders)
T_ENC = 5e-3
T_ADD = 1e-4
T_DEC = 5e-3


@dataclass(frozen=True)
class RandomizationParams:
    mechanism = "rd"  # the name FLRunConfig.mechanism reads; a class attribute, not a field
    sigma_rd: float  # noise standard deviation, [0, 1]
    c_clip: float  # norm clip, [1, 4]

    def __post_init__(self):
        if not self.c_clip > 0:
            raise ValueError("c_clip must be positive")
        if not self.sigma_rd >= 0:
            raise ValueError("sigma_rd must be nonnegative")


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


def rd_leakage(p: RandomizationParams, d_w: int, c1: float) -> float:
    """1 - min(1, C1 * sigma^2 / clip^2 * sqrt(d_w)); zero noise leaks fully."""
    if d_w < 1:
        raise ValueError("d_w must be >= 1")
    if not c1 > 0:
        raise ValueError("c1 must be positive")
    distortion = c1 * (p.sigma_rd**2 / p.c_clip**2) * math.sqrt(d_w)
    return 1.0 - min(1.0, distortion)


@dataclass(frozen=True)
class BatchCryptParams:
    mechanism = "bc"
    batch_size: int  # values per encrypted payload, from BATCH_SIZES

    def __post_init__(self):
        if not self.batch_size >= 1:
            raise ValueError("batch_size must be >= 1")


def bc_bits(batch_size: int, payload_bits: int, clients: int) -> int:
    """Bits per value when batch_size values share one payload_bits payload.

    Each value keeps ceil(log2(clients)) + 1 headroom bits, so that the
    clients' slot-wise sum cannot overflow.  ValueError below 2 bits.
    """
    headroom = math.ceil(math.log2(clients)) + 1
    b = payload_bits // batch_size - headroom
    if b < 2:
        raise ValueError(
            f"payload_bits {payload_bits} leaves {b} bits per value at batch_size "
            f"{batch_size} (headroom {headroom}); need >= 2"
        )
    return b


def _bc_quantize(W: np.ndarray, bits: int) -> tuple[np.ndarray, float]:
    """Integer codes and lattice scale of W at `bits` bits per value."""
    W = np.asarray(W, dtype=float)
    r = float(np.max(np.abs(W))) if W.size else 0.0
    if r == 0.0:
        return np.zeros(W.shape, dtype=np.int64), 1.0
    lattice_range = 2.0 ** math.ceil(math.log2(r))
    scale = lattice_range / 2.0 ** (bits - 1)
    return np.rint(W / scale).astype(np.int64), scale


def bc_protect(W: np.ndarray, bits: int) -> np.ndarray:
    """Symmetric uniform quantization, dequantized for the training path.

    Values are quantized onto a power-of-two lattice (scale = next power of
    two above max|W| over 2^(bits-1)), which keeps the max error within
    r / (2^(bits-1) - 1) and makes quantize-dequantize exactly idempotent.
    `bits` is `bc_bits` of the run.
    """
    codes, scale = _bc_quantize(W, bits)
    return codes * scale


def bc_cost(d_w: int, batch_size: int, train_times) -> float:
    """Mean per-client cost: training + encryption plus shared aggregation time, one train time per client."""
    times = np.atleast_1d(np.asarray(train_times, dtype=float))
    if np.any(times < 0):
        raise ValueError("train_time must be nonnegative")
    nb = math.ceil(d_w / batch_size)
    q1 = times + nb * T_ENC
    q2 = nb * (times.size * T_ADD + T_DEC)
    return float(np.mean(q1 + q2))


@dataclass(frozen=True)
class SparsificationParams:
    mechanism = "sf"
    rho: float  # probability an eligible parameter is public, [0, 1]
    xi: float  # fraction of public params with smallest update kept private, [0, 0.99]

    def __post_init__(self):
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError("rho must lie in [0, 1]")
        if not 0.0 <= self.xi <= 0.99:
            raise ValueError("xi must lie in [0, 0.99]")


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
    if not c2 > 0:
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
