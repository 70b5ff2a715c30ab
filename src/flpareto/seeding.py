"""Deterministic RNG stream derivation.

Every source of randomness in a run is a generator derived from the root
seed plus integer context tags, so results are bit-identical regardless of
worker count and runs can resume mid-way without replaying earlier
generations.
"""

from __future__ import annotations

import numpy as np

# optimizer-level streams
TAG_INIT = 101
TAG_VARIATION = 102
TAG_EVAL = 103
TAG_PSL_MODEL = 104
TAG_PSL_PREF = 105
TAG_RANDOM = 106

# federated-simulator streams (keyed off a per-evaluation seed)
TAG_FL_DATA = 201
TAG_FL_INIT = 202
TAG_FL_CLIENT = 203
TAG_FL_MECH = 204
TAG_FL_MASK = 205

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def stream(*keys: int) -> np.random.Generator:
    """A generator for the given (seed, tag, indices...) context."""
    return np.random.default_rng([int(k) for k in keys])


def _words(key: int) -> list[int]:
    """A nonnegative integer as little-endian 32-bit words, at least one."""
    key = int(key)
    if key < 0:
        raise ValueError(f"seed keys must be nonnegative, got {key}")
    words = [key & _MASK32]
    while key > _MASK32:
        key >>= 32
        words.append(key & _MASK32)
    return words


def _hashmix(values: np.ndarray, h: int, mult: int, k: int) -> tuple[np.ndarray, int]:
    """SeedSequence's hashmix of uint32 `values` under k successive hash
    constants from h, one per row of the (k, count) result, and the next
    constant.  The constants are Python ints masked to 32 bits, so that
    only uint32 array arithmetic wraps, as the C code's does."""
    xor, mul = [], []
    for _ in range(k):
        xor.append(h)
        h = h * mult & _MASK32
        mul.append(h)
    out = values ^ np.array(xor, dtype=np.uint32)[:, None]
    out *= np.array(mul, dtype=np.uint32)[:, None]
    out ^= out >> 16
    return out, h


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of two uint32 arrays."""
    out = x * _MIX_MULT_L - y * _MIX_MULT_R
    out ^= out >> 16
    return out


def spawn_seeds(*keys: int, count: int) -> np.ndarray:
    """The 64-bit seeds SeedSequence([*keys, i]).generate_state(1, uint64)
    for i = 0..count-1, as one uint64 array.

    numpy's documented SeedSequence algorithm, run over all i at once: the
    keys become little-endian uint32 words (i < 2**32 is one word), which
    hashmix and mix into a pool of 4 words; the pool's first two words
    hash into the seed's low and high halves.
    """
    words = [w for k in keys for w in _words(k)]
    entropy = np.zeros((max(len(words) + 1, _POOL_SIZE), count), dtype=np.uint32)
    entropy[: len(words)] = np.array(words, dtype=np.uint32)[:, None]
    entropy[len(words)] = np.arange(count)
    pool, h = _hashmix(entropy[:_POOL_SIZE], _INIT_A, _MULT_A, _POOL_SIZE)
    # every word into every other; the source row is not written meanwhile
    for src in range(_POOL_SIZE):
        dst = [i for i in range(_POOL_SIZE) if i != src]
        mixed, h = _hashmix(pool[src], h, _MULT_A, _POOL_SIZE - 1)
        pool[dst] = _mix(pool[dst], mixed)
    for word in entropy[_POOL_SIZE:]:
        mixed, h = _hashmix(word, h, _MULT_A, _POOL_SIZE)
        pool = _mix(pool, mixed)
    state, _ = _hashmix(pool[:2], _INIT_B, _MULT_B, 2)
    return state[0].astype(np.uint64) | state[1].astype(np.uint64) << np.uint64(32)
