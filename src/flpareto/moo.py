"""Core multi-objective machinery: dominance, sorting, hypervolume, penalties.

Everything here works on plain numpy arrays under the minimization
convention.  A "front" or "objective set" is an (n, m) float array; a
single objective vector is a length-m array.  All functions are pure and
safe to call from any number of workers.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "ConstraintSpec",
    "Archive",
    "Problem",
    "EvaluationError",
    "dominates",
    "pareto_front_mask",
    "nondominated_sort",
    "crowding_distance",
    "hypervolume",
    "hypervolume_contributions",
    "penalize",
    "is_feasible",
    "aggregate_objective",
]


class EvaluationError(RuntimeError):
    """An evaluator failed on a specific solution."""

    def __init__(self, message: str, solution: np.ndarray | None = None):
        super().__init__(message)
        self.solution = None if solution is None else np.asarray(solution)


@dataclass(frozen=True)
class ConstraintSpec:
    """Per-objective upper bounds and penalty coefficients.

    ``bounds[i]`` is the upper bound on objective i (None = unconstrained),
    ``penalties[i]`` the nonnegative coefficient of the hinge penalty.
    """

    bounds: tuple[float | None, ...]
    penalties: tuple[float, ...]

    def __post_init__(self):
        if len(self.bounds) != len(self.penalties):
            raise ValueError("bounds and penalties must have equal length")
        if any(a < 0 for a in self.penalties):
            raise ValueError("penalty coefficients must be nonnegative")

    @property
    def m(self) -> int:
        return len(self.bounds)

    @staticmethod
    def unconstrained(m: int) -> "ConstraintSpec":
        return ConstraintSpec(bounds=(None,) * m, penalties=(0.0,) * m)

    def with_zero_penalties(self) -> "ConstraintSpec":
        """The unconstrained-baseline variant (all coefficients zero)."""
        return ConstraintSpec(bounds=self.bounds, penalties=(0.0,) * self.m)

    def bounds_array(self) -> np.ndarray:
        """Bounds with None replaced by +inf (never violated)."""
        return np.array(
            [np.inf if b is None else float(b) for b in self.bounds], dtype=float
        )

    def penalties_array(self) -> np.ndarray:
        return np.asarray(self.penalties, dtype=float)


def _as_2d(vs) -> np.ndarray:
    arr = np.asarray(vs, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise ValueError(f"expected an (n, m) objective array, got shape {arr.shape}")
    return arr


def dominates(a, b) -> bool:
    """True iff a Pareto-dominates b (a <= b everywhere, < somewhere)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return bool(np.all(a <= b) and np.any(a < b))


def _staircase_sweep(Y: np.ndarray, z) -> tuple[list[bool], float]:
    """One 3-D sweep over the rows of Y, all <= z, in (f3, f1, f2) order.

    Keeps the 2-D front (f1 ascending, f2 descending) of the rows seen so
    far in two sorted lists.  A row that this staircase weakly dominates is
    skipped: an earlier row is <= it everywhere, so it is dominated unless
    the two are equal.  Any other row changes the staircase, and only then
    does the volume grow: by the area so far times the f3 span since the
    last change, and the area by the row's exclusive region (Beume et al.
    2009).  So a dominated or duplicate row leaves every floating-point
    operation unchanged.  Returns which rows are non-dominated, in Y's
    order, and the hypervolume of Y with respect to z.
    """
    rows = sorted(zip(Y[:, 2].tolist(), Y[:, 0].tolist(), Y[:, 1].tolist(), range(Y.shape[0])))
    front = [False] * len(rows)
    xs: list[float] = []
    ys: list[float] = []
    z1, z2, z3 = (float(v) for v in z)
    area = volume = 0.0
    level = z3  # f3 of the last change; the first change adds area 0
    last = None
    for f3, f1, f2, i in rows:
        if (f3, f1, f2) == last:  # equal rows are adjacent: share the verdict
            front[i] = on_front
            continue
        last = (f3, f1, f2)
        j = bisect_right(xs, f1)
        on_front = not (j and ys[j - 1] <= f2)
        if not on_front:
            continue
        front[i] = True
        volume += area * (f3 - level)
        level = f3
        # the region the row adds: above f2, below the staircase, strip by strip
        lo = bisect_left(xs, f1)
        k, x, top, gain = lo, f1, ys[lo - 1] if lo else z2, 0.0
        while k < len(xs) and ys[k] >= f2:
            gain += (xs[k] - x) * (top - f2)
            x, top = xs[k], ys[k]
            k += 1
        gain += ((xs[k] if k < len(xs) else z1) - x) * (top - f2)
        area += gain
        xs[lo:k] = [f1]
        ys[lo:k] = [f2]
    return front, volume + area * (z3 - level)


def pareto_front_mask(vs) -> np.ndarray:
    """Boolean mask of the non-dominated points of an (n, m) array, m <= 3.

    Duplicates of a non-dominated point are all kept (no pair of equal
    vectors dominates the other).  Runs one staircase sweep, with m < 3
    padded by constant columns.
    """
    Y = _as_2d(vs)
    n, m = Y.shape
    if m > 3:
        raise ValueError(f"pareto_front_mask supports m <= 3, got m={m}")
    Y = np.hstack([Y, np.zeros((n, 3 - m))])
    front, _ = _staircase_sweep(Y, Y.max(axis=0, initial=-np.inf))
    return np.array(front, dtype=bool)


def nondominated_sort(vs) -> list[list[int]]:
    """Partition objective vectors into successive non-dominated fronts.

    Returns a list of index lists, each in ascending index order; front k
    is non-dominated within the union of fronts k, k+1, ...  The (n, n)
    dominance matrix is built one objective column at a time (<= AND-ed,
    < OR-ed over the columns), then the fronts are peeled off it by
    counting each row's remaining dominators (Deb et al. 2002).
    """
    if len(vs) == 0:
        raise ValueError("nondominated_sort requires a nonempty list")
    Y = _as_2d(vs)
    n = Y.shape[0]
    # dom[i, j] = i dominates j: Y[i] <= Y[j] everywhere and < somewhere
    le = np.ones((n, n), dtype=bool)
    lt = np.zeros((n, n), dtype=bool)
    for col in Y.T:
        a, b = col[:, None], col[None, :]
        le &= a <= b
        lt |= a < b
    dom = le & lt
    remaining = dom.sum(axis=0)
    fronts: list[list[int]] = []
    current = np.flatnonzero(remaining == 0)
    assigned = 0
    while current.size:
        fronts.append(current.tolist())
        assigned += current.size
        remaining[current] = -1
        remaining -= dom[current].sum(axis=0)
        current = np.flatnonzero(remaining == 0)
    assert assigned == n
    return fronts


def crowding_distance(front) -> np.ndarray:
    """NSGA-II crowding distance for one front of objective vectors.

    Boundary points of every objective get +inf; interior points sum the
    normalized neighbor gaps.  An objective with zero range contributes 0.
    Fronts of size <= 2 are all +inf.
    """
    Y = _as_2d(front)
    n, m = Y.shape
    if n == 0:
        raise ValueError("crowding_distance requires a nonempty front")
    dist = np.zeros(n, dtype=float)
    if n <= 2:
        return np.full(n, np.inf)
    for j in range(m):
        order = np.argsort(Y[:, j], kind="stable")
        vals = Y[order, j]
        span = vals[-1] - vals[0]
        dist[order[0]] = np.inf
        dist[order[-1]] = np.inf
        if span > 0:
            gaps = (vals[2:] - vals[:-2]) / span
            interior = order[1:-1]
            finite = ~np.isinf(dist[interior])
            dist[interior[finite]] += gaps[finite]
    return dist


def _hv2d_rows(f1: np.ndarray, f2: np.ndarray, z: np.ndarray) -> np.ndarray:
    """2-D hypervolumes of C point sets at once; row c of the (C, n) arrays
    `f1`, `f2` is one set of points <= z, with f1 nondecreasing along it."""
    level = np.minimum.accumulate(f2, axis=1)
    level = np.concatenate([np.full((f2.shape[0], 1), z[1]), level[:, :-1]], axis=1)
    return np.sum((z[0] - f1) * np.maximum(level - f2, 0.0), axis=1)


def _limit_hv(S: np.ndarray, Y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Hypervolume of the limit set {max(s, y) : s in S} for each row y of Y,
    batched over the rows for `hypervolume_contributions`.

    S is a nonempty (n, m) array of points <= z, m in {2, 3}.  max(., y)
    keeps the order of every coordinate, so one sort of S orders every
    limit set.  In 3-D the sweep runs over slabs along f3: between the
    j-th and the (j+1)-th f3 value the first j points (by f3) are active.
    Only the last of equal f3 values opens a slab; the others' slabs have
    zero height.
    """
    def staircase(P):
        P = P[np.lexsort((P[:, 1], P[:, 0]))]  # f1 asc, f2 asc among ties
        return _hv2d_rows(np.maximum(P[:, 0], Y[:, 0:1]), np.maximum(P[:, 1], Y[:, 1:2]), z)

    if S.shape[1] == 2:
        return staircase(S)
    S = S[np.argsort(S[:, 2], kind="stable")]
    f3 = np.maximum(S[:, 2], Y[:, 2:3])
    heights = np.diff(np.concatenate([f3, np.full((Y.shape[0], 1), z[2])], axis=1), axis=1)
    hv = np.zeros(Y.shape[0])
    for j in np.flatnonzero(np.diff(S[:, 2], append=np.inf)) + 1:
        hv += staircase(S[:j]) * heights[:, j - 1]
    return hv


def hypervolume_contributions(points, candidates, z) -> np.ndarray:
    """HV(points U {y}) - HV(points) for each row y of `candidates` (m in {2, 3}).

    Each gain is the exclusive contribution prod(z - y) - HV(limit set),
    where the limit set holds max(s, y) for the non-dominated points s <= z
    (While et al. 2012, WFG).  A candidate that is not <= z, or that a
    point weakly dominates, contributes exactly 0.
    """
    z = np.asarray(z, dtype=float)
    m = z.shape[0]
    if m not in (2, 3):
        raise ValueError(f"hypervolume supports m in {{2, 3}}, got m={m}")
    C = _as_2d(candidates)
    S = np.asarray(points, dtype=float)
    S = _as_2d(S) if S.size else np.empty((0, m))
    if C.shape[1] != m or S.shape[1] != m:
        raise ValueError(
            f"points have m={S.shape[1]} and candidates m={C.shape[1]}, but reference has m={m}"
        )
    S = S[np.all(S <= z, axis=1)]
    gains = np.zeros(C.shape[0])
    live = np.all(C <= z, axis=1)
    if S.shape[0]:
        S = S[pareto_front_mask(S)]
        live &= ~np.any(np.all(S[None, :, :] <= C[:, None, :], axis=2), axis=1)
    y = C[live]
    gains[live] = np.prod(z - y, axis=1)
    if S.shape[0] and y.shape[0]:
        gains[live] -= _limit_hv(S, y, z)
    return gains


def hypervolume(points, z) -> float:
    """Exact hypervolume of `points` w.r.t. reference point `z` (m in {2, 3}).

    Points not componentwise <= z are excluded from the union (penalized
    objectives may exceed any fixed reference).  Empty input gives 0.
    Runs one staircase sweep, so a dominated or duplicate point leaves the
    value unchanged bit for bit.
    """
    z = np.asarray(z, dtype=float)
    m = z.shape[0]
    if m not in (2, 3):
        raise ValueError(f"hypervolume supports m in {{2, 3}}, got m={m}")
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        return 0.0
    pts = _as_2d(pts)
    if pts.shape[1] != m:
        raise ValueError(f"points have m={pts.shape[1]} but reference has m={m}")
    pts = pts[np.all(pts <= z, axis=1)]
    if pts.shape[0] == 0:
        return 0.0
    if m == 2:
        # A unit-height slab: zero f3 under z3 = 1.  The sweep skips a weakly
        # dominated row without a floating-point operation, so dropping
        # rows at or above an earlier row's f2 in f1 order first gives the
        # same bits; the sweep then visits only the front.
        pts = pts[np.argsort(pts[:, 0])]
        pts = pts[pts[:, 1] < np.minimum.accumulate(np.append(np.inf, pts[:-1, 1]))]
        pts, z = np.hstack([pts, np.zeros((pts.shape[0], 1))]), np.append(z, 1.0)
    return _staircase_sweep(pts, z)[1]


def _per_vector(y, constraints: ConstraintSpec, fn):
    """fn(Y, bounds, penalties) on y as an (n, m) batch; a single vector
    gets row 0 of the result.  m must match the constraint spec."""
    arr = np.asarray(y, dtype=float)
    Y = _as_2d(arr)
    if Y.shape[1] != constraints.m:
        raise ValueError(
            f"objective count {Y.shape[1]} does not match constraint spec m={constraints.m}"
        )
    out = fn(Y, constraints.bounds_array(), constraints.penalties_array())
    return out[0] if arr.ndim == 1 else out


def penalize(y, constraints: ConstraintSpec) -> np.ndarray:
    """Apply the hinge penalty e_i + a_i * max(0, e_i - phi_i) per objective.

    Accepts a single vector or an (n, m) batch; unconstrained coordinates
    pass through unchanged.
    """
    return _per_vector(y, constraints, lambda Y, phi, a: Y + a * np.maximum(0.0, Y - phi))


def selection_penalty(y, constraints: ConstraintSpec) -> np.ndarray:
    """Rank-space transform: add each solution's total weighted violation to
    every coordinate.

    The per-coordinate hinge of `penalize` is strictly increasing per axis
    and therefore never alters Pareto ranks; this broadcast variant makes
    constraint violators dominated so selection can actually expel them.
    It agrees with `penalize` on the constrained coordinate whenever that
    coordinate is the sole violator, and is the identity on feasible input.
    """
    return _per_vector(
        y, constraints, lambda Y, phi, a: Y + (a * np.maximum(0.0, Y - phi)).sum(axis=1, keepdims=True)
    )


def is_feasible(y, constraints: ConstraintSpec) -> np.ndarray | np.bool_:
    """Whether raw objective values satisfy every bound (vector or batch)."""
    return _per_vector(y, constraints, lambda Y, phi, a: np.all(Y <= phi, axis=1))


def aggregate_objective(locals_) -> float:
    """Combine per-client objective values into a system objective: their mean."""
    vals = np.asarray(locals_, dtype=float)
    if vals.ndim != 1 or vals.size == 0:
        raise ValueError("locals must be a nonempty 1-d sequence")
    return float(np.dot(np.full(vals.size, 1.0 / vals.size), vals))


@dataclass
class Archive:
    """Append-only record of every evaluation made during a run.

    Row i of the columns `genes` (n, d), `raw` (n, m) and `generation` (n,)
    is evaluation i.  Appends replace each column with a new array and never
    write into one a caller may still hold.
    """

    constraints: ConstraintSpec
    genes: np.ndarray = field(init=False)
    raw: np.ndarray = field(init=False)
    generation: np.ndarray = field(init=False)

    def __post_init__(self):
        self.genes = np.empty((0, 0))
        self.raw = np.empty((0, self.constraints.m))
        self.generation = np.empty(0, dtype=int)

    def __len__(self) -> int:
        return self.raw.shape[0]

    def append_batch(self, genes: np.ndarray, raw: np.ndarray, generation: int | np.ndarray) -> None:
        """Append n evaluations; `generation` is one int or one per row."""
        genes = np.atleast_2d(np.asarray(genes, dtype=float))
        raw = np.atleast_2d(np.asarray(raw, dtype=float))
        if raw.shape != (genes.shape[0], self.constraints.m):
            raise ValueError(
                f"raw objectives of shape {raw.shape} do not match {genes.shape[0]} "
                f"solutions and the constraint spec's objective count m={self.constraints.m}"
            )
        self.genes = np.concatenate([self.genes, genes]) if len(self) else genes.copy()
        self.raw = np.concatenate([self.raw, raw])
        gens = np.broadcast_to(np.asarray(generation, dtype=int), (genes.shape[0],))
        self.generation = np.concatenate([self.generation, gens])

    @property
    def penalized(self) -> np.ndarray:
        return penalize(self.raw, self.constraints)

    @property
    def feasible(self) -> np.ndarray:
        return is_feasible(self.raw, self.constraints)

    def front_indices(self) -> list[int]:
        """Indices of non-dominated feasible entries (by raw objectives)."""
        idx = np.flatnonzero(self.feasible)
        Y = self.raw[idx]
        if Y.shape[0] == 0:
            return []
        mask = pareto_front_mask(Y)
        return [int(i) for i in idx[mask]]

    def hv(self, z, rows: np.ndarray | None = None) -> float:
        """Hypervolume of every entry, or of the rows a boolean mask selects."""
        return hypervolume(self.raw if rows is None else self.raw[rows], z)


@dataclass
class Problem:
    """A black-box minimization problem behind the shared evaluator seam.

    `evaluate(X, seeds)` maps an (n, d) array of solutions in [0, 1]^d and
    an (n,) array of per-solution seeds to an (n, m) array of raw objective
    values.  Benchmarks ignore the seeds; the FL evaluator uses them.
    """

    name: str
    dim: int
    n_obj: int
    evaluate: Callable[[np.ndarray, Sequence[int]], np.ndarray]
    constraints: ConstraintSpec
    ref_point: np.ndarray
