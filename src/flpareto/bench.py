"""Analytic multi-objective benchmarks.

These live behind the same evaluator seam as the FL simulator so the
optimizers cannot distinguish a benchmark from a real FL evaluation.
"""

from __future__ import annotations

import numpy as np

from .moo import ConstraintSpec, Problem

__all__ = [
    "zdt1",
    "constrained_toy",
    "zdt1_problem",
    "constrained_toy_problem",
    "get_benchmark",
    "BENCHMARKS",
]


def _check_box(X: np.ndarray) -> None:
    if np.any(X < 0.0) or np.any(X > 1.0):
        raise ValueError("input outside the unit box [0, 1]^d")


def zdt1(x) -> np.ndarray:
    """ZDT1: f1 = x1, f2 = g (1 - sqrt(f1/g)), g = 1 + 9 mean(x[1:]).

    Accepts a single point or an (n, d) batch; d >= 2.
    """
    X = np.atleast_2d(np.asarray(x, dtype=float))
    if X.shape[1] < 2:
        raise ValueError("zdt1 requires d >= 2")
    _check_box(X)
    f1 = X[:, 0]
    g = 1.0 + 9.0 * X[:, 1:].sum(axis=1) / (X.shape[1] - 1)
    f2 = g * (1.0 - np.sqrt(f1 / g))
    out = np.column_stack([f1, f2])
    return out[0] if np.asarray(x).ndim == 1 else out


def constrained_toy(x) -> np.ndarray:
    """Convex quadratic pair plus a synthetic privacy objective.

    f1 = ||x||^2 and f2 = ||x - e2||^2 trade off against each other along
    x2 and are both best deep inside the low-x1 region, while the privacy
    objective p = 1 - x1 is constrained to p <= 0.8 (penalty 20): the
    feasible region is exactly {x1 >= 0.2}, and the unconstrained
    quadratic optima violate it.
    """
    X = np.atleast_2d(np.asarray(x, dtype=float))
    if X.shape[1] < 2:
        raise ValueError("constrained_toy requires d >= 2")
    _check_box(X)
    f1 = np.sum(X * X, axis=1)
    target = np.zeros(X.shape[1])
    target[1] = 1.0
    f2 = np.sum((X - target) ** 2, axis=1)
    p = 1.0 - X[:, 0]
    out = np.column_stack([f1, f2, p])
    return out[0] if np.asarray(x).ndim == 1 else out


CONSTRAINED_TOY_SPEC = ConstraintSpec(
    bounds=(None, None, 0.8), penalties=(0.0, 0.0, 20.0)
)


def zdt1_problem(dim: int = 10) -> Problem:
    return Problem(
        name="zdt1",
        dim=dim,
        evaluate=lambda X, seeds: np.atleast_2d(zdt1(X)),
        constraints=ConstraintSpec.unconstrained(2),
        ref_point=np.array([1.0, 1.0]),
    )


def constrained_toy_problem(dim: int = 3) -> Problem:
    # the privacy axis of the reference point sits at the constraint bound,
    # so the HV measures dominated volume inside the feasible region
    return Problem(
        name="constrained_toy",
        dim=dim,
        evaluate=lambda X, seeds: np.atleast_2d(constrained_toy(X)),
        constraints=CONSTRAINED_TOY_SPEC,
        ref_point=np.array([float(dim) + 0.1, float(dim) + 0.1, 0.8]),
    )


BENCHMARKS = {
    "zdt1": zdt1_problem,
    "constrained_toy": constrained_toy_problem,
}


def get_benchmark(name: str, dim: int | None = None) -> Problem:
    if name not in BENCHMARKS:
        raise ValueError(f"unknown benchmark {name!r}; choose from {sorted(BENCHMARKS)}")
    return BENCHMARKS[name]() if dim is None else BENCHMARKS[name](dim)
