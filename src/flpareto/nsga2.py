"""Constraint-penalized NSGA-II over a black-box evaluator.

Per generation: vary the parents, evaluate the offspring, penalize raw
objectives that violate their bounds, then keep the top N of parents plus
offspring under (non-domination rank, crowding distance, insertion index).
A random-search baseline lives here too, and `run_search`, the generation
loop of all three engines (PSL's too): each engine supplies its initial
batch and one step, which evaluates through `_evaluate_generation`.
Every engine penalizes under the problem's constraints and measures
hypervolume against its reference point; none takes an override.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .moo import (
    Archive,
    EvaluationError,
    Problem,
    crowding_distance,
    nondominated_sort,
    selection_penalty,
)
from .seeding import TAG_EVAL, TAG_INIT, TAG_RANDOM, TAG_VARIATION, spawn_seeds, stream

__all__ = [
    "NsgaConfig",
    "GenerationRecord",
    "RunResult",
    "latin_hypercube",
    "run_nsga2",
    "run_random_search",
    "run_search",
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

    def __post_init__(self):
        if self.population_size < 2:
            raise ValueError("population_size must be >= 2")
        if self.generations < 0:
            raise ValueError("generations must be >= 0")
        for name in ("crossover_prob", "mutation_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        for name in ("eta_crossover", "eta_mutation"):
            if not 0.0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and >= 0")


@dataclass
class GenerationRecord:
    """One row of the per-generation trace (cumulative-archive metrics)."""

    generation: int
    hv_feasible: float
    hv_all: float
    feasible_count: int
    best: tuple[float | None, ...]  # per objective over feasible rows; None while none is feasible
    evaluations: int


@dataclass
class RunResult:
    archive: Archive
    records: list[GenerationRecord]
    population_indices: list[int]  # NSGA-II's survivors; PSL / random search: the last generation
    diagnostics: list[dict] = field(default_factory=list)


def latin_hypercube(n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """n stratified samples over [0, 1]^d, one per stratum per axis."""
    cells = (rng.permutation(n).reshape(-1, 1) if d == 1 else
             np.column_stack([rng.permutation(n) for _ in range(d)]))
    return (cells + rng.random((n, d))) / n


SBX_GENE_PROB = 0.5  # chance that SBX crosses a gene


def _sbx(p1, p2, u, cross, eta: float, clip: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """SBX arithmetic on parent arrays of one shape, given its draws: the
    uniforms `u` and the mask `cross` of the genes to cross."""
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


def _mutate(x, mutate, u, eta: float) -> np.ndarray:
    """Polynomial-mutation arithmetic on genes `x`, given its draws: the mask
    `mutate` of the genes to move and the uniforms `u`."""
    lo_frac = x  # distance to lower bound, unit range
    hi_frac = 1.0 - x
    exp = 1.0 / (eta + 1.0)
    down = (2.0 * u + (1.0 - 2.0 * u) * (1.0 - lo_frac) ** (eta + 1.0)) ** exp - 1.0
    up = 1.0 - (2.0 * (1.0 - u) + (2.0 * u - 1.0) * (1.0 - hi_frac) ** (eta + 1.0)) ** exp
    delta = np.where(u <= 0.5, down, up)
    return np.clip(np.where(mutate, x + delta, x), 0.0, 1.0)


def _offspring(
    pop: np.ndarray, rank: np.ndarray, crowd: np.ndarray, cfg: NsgaConfig, rng: np.random.Generator
) -> np.ndarray:
    """N children of the (N, d) parents `pop`, as pairs of binary-tournament
    picks under SBX (probability crossover_prob) and polynomial mutation.

    Each pair makes, in order, the draws of two `tournament_pick`s, the
    crossover coin, then, as rows of d uniforms taken in one call, SBX's
    (if crossed: u, then the gene mask) and each child's mutation draws
    (the gene mask, then u).  The arithmetic then runs once over all
    pairs.  An odd N drops the last pair's second child.
    """
    n, d = pop.shape
    pairs = (n + 1) // 2
    rank, crowd = rank.tolist(), crowd.tolist()
    picks, crossed = [], []
    draws = np.empty((pairs, 6, d))  # SBX u, SBX mask, then per child: mask, u
    for k in range(pairs):
        picks.append((tournament_pick(rank, crowd, rng), tournament_pick(rank, crowd, rng)))
        crossed.append(rng.random() < cfg.crossover_prob)
        first = 0 if crossed[k] else 2
        draws[k, first:] = rng.random((6 - first, d))
    crossed = np.array(crossed)
    kids = pop[np.array(picks)]  # (pairs, 2, d)
    c = draws[crossed]
    kids[crossed, 0], kids[crossed, 1] = _sbx(
        kids[crossed, 0], kids[crossed, 1], c[:, 0], c[:, 1] < SBX_GENE_PROB, cfg.eta_crossover
    )
    mut = draws[:, 2:].reshape(2 * pairs, 2, d)
    kids = _mutate(kids.reshape(2 * pairs, d), mut[:, 0] < cfg.mutation_prob, mut[:, 1], cfg.eta_mutation)
    return kids[:n]


def _evaluate_rows(problem: Problem, X: np.ndarray, seeds: np.ndarray) -> np.ndarray:
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


def evaluate_batch(problem: Problem, X: np.ndarray, seeds: np.ndarray) -> np.ndarray:
    """Evaluate the rows of X in one evaluator call.

    If that call raises, or returns anything but an (n, n_obj) array of
    finite values, the rows are evaluated again one at a time, in order,
    so that the EvaluationError names the first solution that fails.
    """
    try:
        Y = np.asarray(problem.evaluate(X, seeds), dtype=float)
    except Exception:
        return _evaluate_rows(problem, X, seeds)
    if Y.shape != (X.shape[0], problem.n_obj) or not np.all(np.isfinite(Y)):
        return _evaluate_rows(problem, X, seeds)
    return Y


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


def tournament_pick(rank: list[int], crowd: list[float], rng: np.random.Generator) -> int:
    """Binary tournament under the crowded-comparison order, on a
    generation's ranks and crowding distances as Python lists."""
    i, j = rng.integers(0, len(rank), size=2).tolist()
    if rank[i] != rank[j]:
        return i if rank[i] < rank[j] else j
    if crowd[i] != crowd[j]:
        return i if crowd[i] > crowd[j] else j
    return min(i, j)


def _record(archive: Archive, t: int, z: np.ndarray) -> GenerationRecord:
    """Cumulative-archive metrics (append-only algorithms)."""
    feasible = archive.feasible
    Y = archive.raw[feasible]
    hv_feasible = archive.hv(z, feasible)
    # hypervolume drops the rows outside z, so when every infeasible row lies
    # outside it, the whole archive gives the same sweep as the feasible rows
    infeasible_inside = np.all(archive.raw[~feasible] <= z, axis=1).any()
    return GenerationRecord(
        generation=t,
        hv_feasible=hv_feasible,
        hv_all=archive.hv(z) if infeasible_inside else hv_feasible,
        feasible_count=int(feasible.sum()),
        best=tuple(float(v) for v in Y.min(axis=0)) if len(Y) else (None,) * Y.shape[1],
        evaluations=len(archive),
    )


def _evaluate_generation(
    problem: Problem, archive: Archive, X: np.ndarray, seed: int, t: int
) -> None:
    """Evaluate generation t's batch X, row i under the seed that
    SeedSequence([seed, TAG_EVAL, t, i]) generates, and archive it.

    The evaluator gets the seeds as `np.array` types them from Python ints,
    which the FL golden artifacts pin: int64 when all are below 2**63,
    uint64 when none is, and otherwise float64, rounded to 53 bits.
    """
    seeds = np.array(spawn_seeds(seed, TAG_EVAL, t, count=X.shape[0]).tolist())
    archive.append_batch(X, evaluate_batch(problem, X, seeds), generation=t)


def run_search(
    problem: Problem,
    seed: int,
    generations: int,
    initial: np.ndarray,
    step: Callable[..., tuple[GenerationRecord, dict]],
    on_generation: Callable[[int, Archive, list, dict], None] | None = None,
    resume: dict | None = None,
) -> tuple[Archive, list[GenerationRecord]]:
    """Evaluate `initial` as generation 0, or resume after the generation of
    a dict with keys generation / archive / records / states, then run
    `step(t, archive, evaluate) -> (record, state)` for each later t, with
    `evaluate(X)` archiving X as generation t, and fire
    `on_generation(t, archive, records, state)`.  The archive penalizes
    under the problem's constraints.  Returns the archive and records."""
    if resume is None:
        archive = Archive(constraints=problem.constraints)
        records, t_done = [], 0
        _evaluate_generation(problem, archive, initial, seed, 0)
    else:
        archive, records, t_done = resume["archive"], resume["records"], int(resume["generation"])
    for t in range(t_done + 1, generations + 1):
        record, state = step(t, archive, lambda X: _evaluate_generation(problem, archive, X, seed, t))
        records.append(record)
        if on_generation is not None:
            on_generation(t, archive, records, state)
    return archive, records


def run_nsga2(
    problem: Problem,
    cfg: NsgaConfig,
    seed: int,
    on_generation: Callable[[int, Archive, list, dict], None] | None = None,
    resume: dict | None = None,
) -> RunResult:
    """Run penalized NSGA-II and return the full evaluation archive.

    The population is a list of archive row indices, so its genes and raw
    objectives are read from the archive.  The initial population is
    evaluated once; each later generation evaluates only its N offspring,
    which matches the N + T*N evaluation budget accounting used throughout.
    Each generation's state is its survivors' `population_indices`; a
    resumed run continues from those of its last state (see `run_search`).
    """
    N = cfg.population_size
    pop_idx = [int(i) for i in resume["states"][-1]["population_indices"]] if resume else list(range(N))

    def step(t, archive, evaluate):
        nonlocal pop_idx
        # binary-tournament mating under the crowded-comparison order
        rank, crowd = rank_and_crowding(selection_penalty(archive.raw[pop_idx], problem.constraints))
        merged_idx = pop_idx + list(range(len(archive), len(archive) + N))
        evaluate(_offspring(archive.genes[pop_idx], rank, crowd, cfg, stream(seed, TAG_VARIATION, t)))
        # rank space: violators carry their total violation on every axis
        keep = select_survivors(selection_penalty(archive.raw[merged_idx], problem.constraints), N)
        pop_idx = [merged_idx[k] for k in keep]
        return _record(archive, t, problem.ref_point), {"population_indices": pop_idx}

    X0 = latin_hypercube(N, problem.dim, stream(seed, TAG_INIT))
    archive, records = run_search(problem, seed, cfg.generations, X0, step, on_generation, resume)
    return RunResult(archive=archive, records=records, population_indices=pop_idx)


def run_random_search(
    problem: Problem,
    population_size: int,
    generations: int,
    seed: int,
    on_generation: Callable[[int, Archive, list, dict], None] | None = None,
    resume: dict | None = None,
) -> RunResult:
    """Uniform random sampling at the same budget and record cadence."""
    if population_size < 1:
        raise ValueError("population_size must be >= 1")
    if generations < 0:
        raise ValueError("generations must be >= 0")
    N = population_size

    def step(t, archive, evaluate):
        evaluate(stream(seed, TAG_RANDOM, t).random((N, problem.dim)))
        return _record(archive, t, problem.ref_point), {}

    X0 = stream(seed, TAG_INIT).random((N, problem.dim))
    archive, records = run_search(problem, seed, generations, X0, step, on_generation, resume)
    last = archive.generation == archive.generation[-1]
    return RunResult(archive, records, population_indices=np.flatnonzero(last).tolist())
