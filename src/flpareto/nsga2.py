"""Constraint-penalized NSGA-II over a black-box evaluator.

Per generation: vary the parents, evaluate the offspring, penalize raw
objectives that violate their bounds, then keep the top N of parents plus
offspring under (non-domination rank, crowding distance, insertion index).
A random-search baseline with the same record stream lives here too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .moo import (
    Archive,
    ConstraintSpec,
    EvaluationError,
    Problem,
    crowding_distance,
    nondominated_sort,
    selection_penalty,
)
from .seeding import TAG_EVAL, TAG_INIT, TAG_RANDOM, TAG_VARIATION, spawn_seed, stream

__all__ = [
    "NsgaConfig",
    "GenerationRecord",
    "RunResult",
    "latin_hypercube",
    "sbx_crossover",
    "polynomial_mutation",
    "binary_variation",
    "run_nsga2",
    "run_random_search",
]


@dataclass(frozen=True)
class NsgaConfig:
    """Genetic-algorithm settings (defaults follow the standard recipe)."""

    population_size: int = 20
    generations: int = 20
    crossover_prob: float = 0.9
    mutation_prob: float = 0.1
    eta_crossover: float = 2.0
    eta_mutation: float = 20.0
    chromosome: str = "real"  # "real" | "binary"
    bits_per_var: int = 12

    def __post_init__(self):
        if self.population_size < 2:
            raise ValueError("population_size must be >= 2")
        if self.generations < 0:
            raise ValueError("generations must be >= 0")
        for name in ("crossover_prob", "mutation_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.chromosome not in ("real", "binary"):
            raise ValueError("chromosome must be 'real' or 'binary'")
        if self.bits_per_var < 1:
            raise ValueError("bits_per_var must be >= 1")


@dataclass
class GenerationRecord:
    """One row of the per-generation trace (cumulative-archive metrics)."""

    generation: int
    hv_feasible: float
    hv_all: float
    feasible_count: int
    best: tuple[float, ...]
    evaluations: int


@dataclass
class RunResult:
    archive: Archive
    records: list[GenerationRecord]
    population: np.ndarray  # final chromosomes
    population_indices: list[int]  # archive indices of the final population
    diagnostics: list[dict] = field(default_factory=list)


def latin_hypercube(n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """n stratified samples over [0, 1]^d, one per stratum per axis."""
    cells = (rng.permutation(n).reshape(-1, 1) if d == 1 else
             np.column_stack([rng.permutation(n) for _ in range(d)]))
    return (cells + rng.random((n, d))) / n


def sbx_crossover(
    p1: np.ndarray,
    p2: np.ndarray,
    eta: float,
    rng: np.random.Generator,
    gene_prob: float = 0.5,
    clip: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Simulated binary crossover with distribution index eta.

    Each gene is crossed independently with probability `gene_prob`;
    crossed genes satisfy c1 + c2 = p1 + p2 before clipping to [0, 1].
    """
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    if p1.shape != p2.shape:
        raise ValueError("parents must share a decoder (equal gene counts)")
    u = rng.random(p1.shape)
    cross = rng.random(p1.shape) < gene_prob
    beta = np.where(
        u <= 0.5,
        (2.0 * u) ** (1.0 / (eta + 1.0)),
        (1.0 / (2.0 * (1.0 - u))) ** (1.0 / (eta + 1.0)),
    )
    c1 = 0.5 * ((1.0 + beta) * p1 + (1.0 - beta) * p2)
    c2 = 0.5 * ((1.0 - beta) * p1 + (1.0 + beta) * p2)
    c1 = np.where(cross, c1, p1)
    c2 = np.where(cross, c2, p2)
    if clip:
        c1 = np.clip(c1, 0.0, 1.0)
        c2 = np.clip(c2, 0.0, 1.0)
    return c1, c2


def polynomial_mutation(
    p: np.ndarray, eta: float, rate: float, rng: np.random.Generator
) -> np.ndarray:
    """Bound-respecting polynomial mutation on [0, 1] genes.

    A gene at 0 can only move up and a gene at 1 only down; larger eta
    concentrates the perturbation near zero displacement.
    """
    x = np.asarray(p, dtype=float).copy()
    mutate = rng.random(x.shape) < rate
    u = rng.random(x.shape)
    lo_frac = x  # distance to lower bound, unit range
    hi_frac = 1.0 - x
    exp = 1.0 / (eta + 1.0)
    down = (2.0 * u + (1.0 - 2.0 * u) * (1.0 - lo_frac) ** (eta + 1.0)) ** exp - 1.0
    up = 1.0 - (2.0 * (1.0 - u) + (2.0 * u - 1.0) * (1.0 - hi_frac) ** (eta + 1.0)) ** exp
    delta = np.where(u <= 0.5, down, up)
    x = np.where(mutate, x + delta, x)
    return np.clip(x, 0.0, 1.0)


def binary_variation(
    p1: np.ndarray,
    p2: np.ndarray,
    rng: np.random.Generator,
    crossover_prob: float = 0.9,
    flip_prob: float = 0.1,
) -> tuple[np.ndarray, np.ndarray]:
    """Single-point crossover followed by independent bit flips."""
    b1 = np.asarray(p1, dtype=float).copy()
    b2 = np.asarray(p2, dtype=float).copy()
    if b1.shape != b2.shape:
        raise ValueError("bit strings must have equal length")
    if rng.random() < crossover_prob and b1.size > 0:
        cut = int(rng.integers(0, b1.size))
        tail1 = b1[cut:].copy()
        b1[cut:] = b2[cut:]
        b2[cut:] = tail1
    if flip_prob > 0.0:
        f1 = rng.random(b1.shape) < flip_prob
        f2 = rng.random(b2.shape) < flip_prob
        b1 = np.where(f1, 1.0 - b1, b1)
        b2 = np.where(f2, 1.0 - b2, b2)
    return b1, b2


def bits_to_unit(bits: np.ndarray, n_vars: int, bits_per_var: int) -> np.ndarray:
    """Decode bit strings (one or a batch) into genes in [0, 1]."""
    arr = np.asarray(bits, dtype=float)
    batched = arr.ndim == 2
    b = arr.reshape(-1, n_vars, bits_per_var)
    weights = 2.0 ** np.arange(bits_per_var - 1, -1, -1)
    vals = (b @ weights) / (2.0**bits_per_var - 1.0)
    return vals if batched else vals[0]


def _chromosome_to_genes(chrom: np.ndarray, cfg: NsgaConfig, dim: int) -> np.ndarray:
    if cfg.chromosome == "real":
        return np.asarray(chrom, dtype=float)
    return bits_to_unit(chrom, dim, cfg.bits_per_var)


def evaluate_batch(problem: Problem, X: np.ndarray, seeds: np.ndarray) -> np.ndarray:
    """Evaluate the rows of X one at a time, in order.

    Raises EvaluationError naming the solution when the evaluator fails or
    returns anything but n_obj finite values.
    """
    rows = np.empty((X.shape[0], problem.n_obj))
    for i in range(X.shape[0]):
        try:
            y = np.asarray(problem.evaluate(X[i : i + 1], seeds[i : i + 1]), dtype=float)
        except EvaluationError:
            raise
        except Exception as exc:
            raise EvaluationError(
                f"evaluator failed on solution {X[i].tolist()}: {exc}", solution=X[i]
            ) from exc
        if y.size != problem.n_obj:
            raise EvaluationError(
                f"evaluator returned {y.size} values for solution {X[i].tolist()}, "
                f"expected n_obj={problem.n_obj}",
                solution=X[i],
            )
        if not np.all(np.isfinite(y)):
            raise EvaluationError(
                f"evaluator returned non-finite objectives {y.ravel().tolist()} "
                f"for solution {X[i].tolist()}",
                solution=X[i],
            )
        rows[i] = y.reshape(problem.n_obj)
    return rows


def rank_and_crowding(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Non-domination rank and per-front crowding distance for each row."""
    fronts = nondominated_sort(values)
    rank = np.empty(values.shape[0], dtype=int)
    crowd = np.empty(values.shape[0], dtype=float)
    for r, front in enumerate(fronts):
        rank[front] = r
        crowd[front] = crowding_distance(values[front])
    return rank, crowd


def select_survivors(penalized: np.ndarray, n_keep: int) -> list[int]:
    """Top n_keep indices under (rank, crowding, insertion index)."""
    fronts = nondominated_sort(penalized)
    chosen: list[int] = []
    for front in fronts:
        if len(chosen) + len(front) <= n_keep:
            chosen.extend(front)
        else:
            dist = crowding_distance(penalized[front])
            # larger crowding first; stable sort keeps insertion order on ties
            order = np.argsort(-dist, kind="stable")
            chosen.extend(int(front[i]) for i in order[: n_keep - len(chosen)])
            break
    return chosen


def tournament_pick(
    rank: np.ndarray, crowd: np.ndarray, rng: np.random.Generator
) -> int:
    """Binary tournament under the crowded-comparison order."""
    i, j = rng.integers(0, rank.shape[0], size=2)
    if rank[i] != rank[j]:
        return int(i if rank[i] < rank[j] else j)
    if crowd[i] != crowd[j]:
        return int(i if crowd[i] > crowd[j] else j)
    return int(min(i, j))


def _record(archive: Archive, t: int, z: np.ndarray) -> GenerationRecord:
    """Cumulative-archive metrics (append-only algorithms)."""
    feasible = archive.feasible
    Y = archive.raw[feasible]
    best = Y.min(axis=0) if len(Y) else np.full(Y.shape[1], np.nan)
    return GenerationRecord(
        generation=t,
        hv_feasible=archive.hv(z, feasible),
        hv_all=archive.hv(z),
        feasible_count=int(feasible.sum()),
        best=tuple(float(v) for v in best),
        evaluations=len(archive),
    )


def _start(
    problem: Problem,
    constraints: ConstraintSpec | None,
    ref_point: np.ndarray | None,
    resume: dict | None,
) -> tuple[ConstraintSpec, np.ndarray, Archive, list[GenerationRecord], int]:
    """Constraints (default: the problem's), reference point (likewise),
    archive, records and last completed generation: empty at generation 0
    for a fresh run, else what `resume` carries."""
    constraints = constraints if constraints is not None else problem.constraints
    z = np.asarray(ref_point if ref_point is not None else problem.ref_point, float)
    if resume is None:
        return constraints, z, Archive(constraints=constraints), [], 0
    return constraints, z, resume["archive"], resume["records"], int(resume["generation"])


def _evaluate_generation(
    problem: Problem, archive: Archive, X: np.ndarray, seed: int, t: int
) -> np.ndarray:
    """Evaluate generation t's batch X, row i under seed
    spawn_seed(seed, TAG_EVAL, t, i); archive it and return its raw objectives."""
    seeds = np.array([spawn_seed(seed, TAG_EVAL, t, i) for i in range(X.shape[0])])
    raw = evaluate_batch(problem, X, seeds)
    archive.append_batch(X, raw, generation=t)
    return raw


def run_nsga2(
    problem: Problem,
    cfg: NsgaConfig,
    seed: int,
    constraints: ConstraintSpec | None = None,
    ref_point: np.ndarray | None = None,
    on_generation: Callable[[int, Archive, list, dict], None] | None = None,
    resume: dict | None = None,
) -> RunResult:
    """Run penalized NSGA-II and return the full evaluation archive.

    The initial population is evaluated once; each later generation
    evaluates only its N offspring (parents keep their cached raw values),
    which matches the N + T*N evaluation budget accounting used throughout.
    `on_generation(t, archive, records, state)` fires after each completed
    generation; `resume` restarts from a dict with keys generation /
    archive / records / state.
    """
    constraints, z, archive, records, t_done = _start(problem, constraints, ref_point, resume)
    N = cfg.population_size
    chrom_len = (
        problem.dim if cfg.chromosome == "real" else problem.dim * cfg.bits_per_var
    )

    if resume is None:
        rng_init = stream(seed, TAG_INIT)
        if cfg.chromosome == "real":
            pop = latin_hypercube(N, chrom_len, rng_init)
        else:
            pop = rng_init.integers(0, 2, size=(N, chrom_len)).astype(float)
        genes = _chromosome_to_genes(pop, cfg, problem.dim)
        pop_raw = _evaluate_generation(problem, archive, genes, seed, 0)
        pop_idx = list(range(N))
    else:
        state = resume["state"]
        pop = np.asarray(state["population"], dtype=float)
        pop_idx = [int(i) for i in state["population_indices"]]
        pop_raw = archive.raw[pop_idx]

    for t in range(t_done + 1, cfg.generations + 1):
        rng_t = stream(seed, TAG_VARIATION, t)
        # binary-tournament mating under the crowded-comparison order
        rank, crowd = rank_and_crowding(selection_penalty(pop_raw, constraints))
        kids: list[np.ndarray] = []
        while len(kids) < N:
            i = tournament_pick(rank, crowd, rng_t)
            j = tournament_pick(rank, crowd, rng_t)
            if cfg.chromosome == "real":
                if rng_t.random() < cfg.crossover_prob:
                    c1, c2 = sbx_crossover(pop[i], pop[j], cfg.eta_crossover, rng_t)
                else:
                    c1, c2 = pop[i].copy(), pop[j].copy()
                c1 = polynomial_mutation(c1, cfg.eta_mutation, cfg.mutation_prob, rng_t)
                c2 = polynomial_mutation(c2, cfg.eta_mutation, cfg.mutation_prob, rng_t)
            else:
                c1, c2 = binary_variation(
                    pop[i], pop[j], rng_t, cfg.crossover_prob, cfg.mutation_prob
                )
            kids.extend([c1, c2])
        children = np.stack(kids[:N])  # odd N drops the final pair's second child

        first_child_idx = len(archive)
        child_genes = _chromosome_to_genes(children, cfg, problem.dim)
        child_raw = _evaluate_generation(problem, archive, child_genes, seed, t)

        merged = np.vstack([pop, children])
        merged_raw = np.vstack([pop_raw, child_raw])
        merged_idx = pop_idx + list(range(first_child_idx, first_child_idx + N))
        # rank space: violators carry their total violation on every axis
        pen = selection_penalty(merged_raw, constraints)
        keep = select_survivors(np.asarray(pen), N)
        pop = merged[keep]
        pop_raw = merged_raw[keep]
        pop_idx = [merged_idx[k] for k in keep]

        records.append(_record(archive, t, z))
        if on_generation is not None:
            state = {"population": pop.tolist(), "population_indices": list(pop_idx)}
            on_generation(t, archive, records, state)

    return RunResult(
        archive=archive, records=records, population=pop, population_indices=pop_idx
    )


def run_random_search(
    problem: Problem,
    population_size: int,
    generations: int,
    seed: int,
    constraints: ConstraintSpec | None = None,
    ref_point: np.ndarray | None = None,
    on_generation: Callable[[int, Archive, list, dict], None] | None = None,
    resume: dict | None = None,
) -> RunResult:
    """Uniform random sampling at the same budget and record cadence."""
    constraints, z, archive, records, t_done = _start(problem, constraints, ref_point, resume)
    N = population_size

    if resume is None:
        _evaluate_generation(problem, archive, stream(seed, TAG_INIT).random((N, problem.dim)), seed, 0)
    for t in range(t_done + 1, generations + 1):
        _evaluate_generation(problem, archive, stream(seed, TAG_RANDOM, t).random((N, problem.dim)), seed, t)
        records.append(_record(archive, t, z))
        if on_generation is not None:
            on_generation(t, archive, records, {})

    return RunResult(
        archive=archive,
        records=records,
        population=archive.genes[-N:],
        population_indices=list(range(max(0, len(archive) - N), len(archive))),
    )
