"""Pareto-set-learning optimizer over Gaussian-process surrogates.

Per generation: fit one GP per objective on the accumulated archive, train
a preference-to-solution network against penalized lower-confidence-bound
surrogates under Tchebycheff scalarization, generate a large candidate set
from the network, pick the batch with the best greedy hypervolume
improvement, and evaluate only that batch for real.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import expit

from .gp import GPModel, gp_fit, gp_posterior, gp_posterior_grad
from .moo import (
    Archive,
    ConstraintSpec,
    Problem,
    hypervolume,
    hypervolume_contributions,
    penalize,
)
from .nsga2 import GenerationRecord, RunResult, evaluate_batch, latin_hypercube, _record
from .seeding import TAG_EVAL, TAG_INIT, TAG_PSL_MODEL, TAG_PSL_PREF, spawn_seed, stream

__all__ = [
    "PslConfig",
    "ParetoSetModel",
    "tchebycheff",
    "train_pareto_set_model",
    "generate_candidates",
    "greedy_hvi_select",
    "run_psl",
]

PENALTY_SHARPNESS = 50.0  # softplus sharpness of the surrogate's constraint penalty
IDEAL_MARGIN = 0.05  # Tchebycheff ideal point sits this far below the archive's best


@dataclass(frozen=True)
class PslConfig:
    generations: int = 20
    batch_size: int = 20  # real evaluations per generation
    n_candidates: int = 1000
    n_init: int | None = None  # default max(5, d + 1)
    model_steps: int = 1000
    model_lr: float = 1e-5
    model_batch: int = 16
    hidden: tuple[int, int] = (64, 64)
    lcb_beta: float = 0.1
    warm_start: bool = True
    hvi_use_penalized: bool = True

    def __post_init__(self):
        for name, lo in (("generations", 0), ("batch_size", 1), ("model_steps", 0), ("model_batch", 1)):
            if getattr(self, name) < lo:
                raise ValueError(f"{name} must be >= {lo}")
        if self.n_candidates < self.batch_size:
            raise ValueError("n_candidates must be >= batch_size (the population)")
        if self.n_init is not None and self.n_init < 2:
            raise ValueError("n_init must be >= 2")
        if len(self.hidden) != 2 or min(self.hidden) < 1:
            raise ValueError("hidden must hold two widths >= 1")


def tchebycheff(y, lam, z) -> float:
    """Weighted Tchebycheff value max_i lam_i * (y_i - z_i) for ideal z."""
    y = np.asarray(y, dtype=float)
    lam = np.asarray(lam, dtype=float)
    z = np.asarray(z, dtype=float)
    if not (y.shape == lam.shape == z.shape):
        raise ValueError("y, lam and z must share one shape")
    return float(np.max(lam * (y - z)))


def sample_preferences(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """n preference vectors uniform on the (m-1)-simplex."""
    return rng.dirichlet(np.ones(m), size=n)


@dataclass
class ParetoSetModel:
    """Small tanh network from the preference simplex into [0, 1]^d.

    The output layer starts at zero, so an untrained model maps every
    preference to the box center.
    """

    params: dict[str, np.ndarray]
    n_obj: int
    dim: int

    @staticmethod
    def create(n_obj: int, dim: int, hidden: tuple[int, int], rng: np.random.Generator) -> "ParetoSetModel":
        h1, h2 = hidden
        params = {
            "W1": rng.normal(0.0, 1.0 / np.sqrt(n_obj), size=(n_obj, h1)),
            "b1": np.zeros(h1),
            "W2": rng.normal(0.0, 1.0 / np.sqrt(h1), size=(h1, h2)),
            "b2": np.zeros(h2),
            "W3": np.zeros((h2, dim)),
            "b3": np.zeros(dim),
        }
        return ParetoSetModel(params=params, n_obj=n_obj, dim=dim)

    def forward(self, lam: np.ndarray) -> tuple[np.ndarray, dict]:
        p = self.params
        z1 = lam @ p["W1"] + p["b1"]
        h1 = np.tanh(z1)
        z2 = h1 @ p["W2"] + p["b2"]
        h2 = np.tanh(z2)
        z3 = h2 @ p["W3"] + p["b3"]
        x = expit(z3)
        return x, {"lam": lam, "h1": h1, "h2": h2, "x": x}

    def __call__(self, lam: np.ndarray) -> np.ndarray:
        return self.forward(np.atleast_2d(lam))[0]

    def backward(self, cache: dict, dx: np.ndarray) -> dict[str, np.ndarray]:
        p = self.params
        lam, h1, h2, x = cache["lam"], cache["h1"], cache["h2"], cache["x"]
        dz3 = dx * x * (1.0 - x)
        grads = {"W3": h2.T @ dz3, "b3": dz3.sum(axis=0)}
        dh2 = dz3 @ p["W3"].T
        dz2 = dh2 * (1.0 - h2 * h2)
        grads["W2"] = h1.T @ dz2
        grads["b2"] = dz2.sum(axis=0)
        dh1 = dz2 @ p["W2"].T
        dz1 = dh1 * (1.0 - h1 * h1)
        grads["W1"] = lam.T @ dz1
        grads["b1"] = dz1.sum(axis=0)
        return grads

    def copy(self) -> "ParetoSetModel":
        return ParetoSetModel(
            params={k: v.copy() for k, v in self.params.items()},
            n_obj=self.n_obj,
            dim=self.dim,
        )


def _softplus(u: np.ndarray, sharpness: float) -> np.ndarray:
    return np.logaddexp(0.0, sharpness * u) / sharpness


def surrogate_loss_and_grads(
    model: ParetoSetModel,
    lam: np.ndarray,
    gps: list[GPModel],
    constraints: ConstraintSpec,
    ideal: np.ndarray,
    beta: float,
    sharpness: float,
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean Tchebycheff loss of penalized LCB surrogates, with grads in theta.

    The hinge penalty is smoothed by a sharp softplus here (and only here)
    so the loss stays differentiable; screening and selection elsewhere use
    the exact hinge.
    """
    B = lam.shape[0]
    m = len(gps)
    x, cache = model.forward(lam)
    lcb = np.empty((B, m))
    dlcb = np.empty((B, m, model.dim))
    for j, g in enumerate(gps):
        mean, std, dmean, dstd = gp_posterior_grad(g, x)
        lcb[:, j] = mean - beta * std
        dlcb[:, j, :] = dmean - beta * dstd
    bounds = constraints.bounds_array()
    alphas = constraints.penalties_array()
    finite = np.isfinite(bounds)
    u = np.where(finite, lcb - np.where(finite, bounds, 0.0), 0.0)
    pen = lcb + np.where(finite, alphas * _softplus(u, sharpness), 0.0)
    dpen_dlcb = 1.0 + np.where(finite, alphas * expit(sharpness * u), 0.0)

    scaled = lam * (pen - ideal[None, :])
    winner = np.argmax(scaled, axis=1)
    loss = float(np.mean(scaled[np.arange(B), winner]))
    dpen = np.zeros((B, m))
    dpen[np.arange(B), winner] = lam[np.arange(B), winner] / B
    dx = np.einsum("bj,bj,bjd->bd", dpen, dpen_dlcb, dlcb)
    grads = model.backward(cache, dx)
    return loss, grads


class _Adam:
    def __init__(self, params: dict[str, np.ndarray], lr: float):
        self.lr = lr
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        b1, b2, eps = 0.9, 0.999, 1e-8
        for k in params:
            g = grads[k]
            self.m[k] = b1 * self.m[k] + (1 - b1) * g
            self.v[k] = b2 * self.v[k] + (1 - b2) * g * g
            mhat = self.m[k] / (1 - b1**self.t)
            vhat = self.v[k] / (1 - b2**self.t)
            params[k] -= self.lr * mhat / (np.sqrt(vhat) + eps)


def train_pareto_set_model(
    model: ParetoSetModel,
    gps: list[GPModel],
    constraints: ConstraintSpec,
    steps: int,
    rng: np.random.Generator,
    ideal: np.ndarray,
    lr: float = PslConfig.model_lr,
    batch: int = PslConfig.model_batch,
    beta: float = PslConfig.lcb_beta,
    sharpness: float = PENALTY_SHARPNESS,
) -> tuple[ParetoSetModel, list[float]]:
    """Adam-train the model in place for `steps` updates; returns loss trace."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    opt = _Adam(model.params, lr)
    losses: list[float] = []
    for step in range(steps):
        lam = sample_preferences(batch, model.n_obj, rng)
        loss, grads = surrogate_loss_and_grads(
            model, lam, gps, constraints, ideal, beta, sharpness
        )
        if not np.isfinite(loss):
            raise RuntimeError(
                f"non-finite surrogate loss at step {step}: loss={loss}, "
                f"ideal={ideal.tolist()}"
            )
        opt.step(model.params, grads)
        losses.append(loss)
    return model, losses


def generate_candidates(
    model: ParetoSetModel, count: int, rng: np.random.Generator
) -> np.ndarray:
    """`count` solutions decoded from uniformly sampled preferences."""
    if count < 1:
        raise ValueError("count must be >= 1")
    lam = sample_preferences(count, model.n_obj, rng)
    x, _ = model.forward(lam)
    return x


def greedy_hvi_select(
    surrogate_Y: np.ndarray, base_Y: np.ndarray, n_select: int, z
) -> list[int]:
    """Indices of n_select candidates picked by greedy hypervolume improvement.

    Each pick maximizes the gain HV(base U picked U candidate) - hv_now,
    where hv_now is HV(base) plus the gains picked so far; a gain beats the
    best so far only by more than 1e-15, so ties resolve to the lowest
    candidate index.  `hypervolume_contributions` scores every remaining
    candidate in one pass; only the candidates that could win are scored
    again with `hypervolume`, and those gains decide the pick.
    """
    Y = np.atleast_2d(np.asarray(surrogate_Y, dtype=float))
    base = np.atleast_2d(np.asarray(base_Y, dtype=float)) if len(base_Y) else np.empty((0, Y.shape[1]))
    z = np.asarray(z, dtype=float)
    if n_select > Y.shape[0]:
        raise ValueError("cannot select more candidates than provided")
    inside = np.all(Y <= z, axis=1)
    pts = np.vstack([base, Y])
    pts = pts[np.all(pts <= z, axis=1)]
    box = float(np.prod(z - pts.min(axis=0))) if pts.shape[0] else 0.0
    # The fast and the exact gains differ by rounding only, far below 1e-9
    # of the box volume.  The re-scored set runs down the sorted fast gains
    # to the first drop wider than `margin`, so each candidate left out has
    # an exact gain over 1e-15 below every re-scored one: it can neither win
    # nor, through the 1e-15 tie rule, change which of them wins.
    margin = 1e-9 * box + 1e-14
    chosen: list[int] = []
    current = base
    hv_now = hypervolume(current, z)
    remaining = np.arange(Y.shape[0])
    for _ in range(n_select):
        fast = hypervolume_contributions(current, Y[remaining], z)
        order = np.argsort(-fast, kind="stable")
        gaps = np.flatnonzero(-np.diff(fast[order]) > margin)
        close = np.sort(remaining[order[: gaps[0] + 1 if gaps.size else order.size]])
        hv_outside = None
        best_gain, best_idx = -1.0, int(close[0])
        for i in close:
            # a candidate weakly dominated by the current set cannot add volume
            if current.shape[0] and np.any(np.all(current <= Y[i], axis=1)):
                gain = 0.0
            elif not inside[i]:
                # hypervolume drops a point outside z, so each such gain is
                # HV(current) - hv_now
                if hv_outside is None:
                    hv_outside = hypervolume(current, z) - hv_now
                gain = hv_outside
            else:
                gain = hypervolume(np.vstack([current, Y[i : i + 1]]), z) - hv_now
            if gain > best_gain + 1e-15:
                best_gain, best_idx = gain, int(i)
        chosen.append(best_idx)
        remaining = remaining[remaining != best_idx]
        current = np.vstack([current, Y[best_idx : best_idx + 1]])
        hv_now += max(best_gain, 0.0)
    return chosen


def _fit_objective_gps(X: np.ndarray, Y: np.ndarray) -> list[GPModel]:
    return [gp_fit(X, Y[:, j]) for j in range(Y.shape[1])]


def run_psl(
    problem: Problem,
    cfg: PslConfig,
    seed: int,
    constraints: ConstraintSpec | None = None,
    ref_point: np.ndarray | None = None,
    on_generation: Callable[[int, Archive, list, dict], None] | None = None,
    resume: dict | None = None,
) -> RunResult:
    """Run the surrogate-assisted optimizer; archive is append-only.

    Total real evaluations: n_init + generations * batch_size.  State for
    checkpointing (network weights, diagnostics) flows through
    `on_generation`; `resume` restarts after the last completed generation.
    """
    constraints = constraints if constraints is not None else problem.constraints
    z = np.asarray(ref_point if ref_point is not None else problem.ref_point, float)
    n_init = cfg.n_init if cfg.n_init is not None else max(5, problem.dim + 1)
    N = cfg.batch_size

    records: list[GenerationRecord] = []
    diagnostics: list[dict] = []
    if resume is None:
        archive = Archive(constraints=constraints)
        X0 = latin_hypercube(n_init, problem.dim, stream(seed, TAG_INIT))
        seeds = np.array([spawn_seed(seed, TAG_EVAL, 0, i) for i in range(n_init)])
        archive.append_batch(X0, evaluate_batch(problem, X0, seeds), 0)
        model = ParetoSetModel.create(
            problem.n_obj, problem.dim, cfg.hidden, stream(seed, TAG_PSL_MODEL, 0)
        )
        t_start = 1
    else:
        archive = resume["archive"]
        records = resume["records"]
        state = resume["state"]
        model = ParetoSetModel(
            params={k: np.asarray(v, dtype=float) for k, v in state["model"].items()},
            n_obj=problem.n_obj,
            dim=problem.dim,
        )
        t_start = int(resume["generation"]) + 1

    for t in range(t_start, cfg.generations + 1):
        X = archive.genes
        Y = archive.raw
        gps = _fit_objective_gps(X, Y)
        ideal = Y.min(axis=0) - IDEAL_MARGIN

        if not cfg.warm_start:
            model = ParetoSetModel.create(
                problem.n_obj, problem.dim, cfg.hidden, stream(seed, TAG_PSL_MODEL, 0)
            )
        model, losses = train_pareto_set_model(
            model,
            gps,
            constraints,
            cfg.model_steps,
            stream(seed, TAG_PSL_MODEL, t),
            ideal,
            lr=cfg.model_lr,
            batch=cfg.model_batch,
            beta=cfg.lcb_beta,
        )

        cand = generate_candidates(model, cfg.n_candidates, stream(seed, TAG_PSL_PREF, t))
        lcb = np.empty((cfg.n_candidates, problem.n_obj))
        for j, g in enumerate(gps):
            mean, std = gp_posterior(g, cand)
            lcb[:, j] = mean - cfg.lcb_beta * std
        cand_scores = penalize(lcb, constraints) if cfg.hvi_use_penalized else lcb
        base = archive.penalized if cfg.hvi_use_penalized else Y
        picked = greedy_hvi_select(cand_scores, base, N, z)
        X_new = cand[picked]
        seeds = np.array([spawn_seed(seed, TAG_EVAL, t, i) for i in range(N)])
        archive.append_batch(X_new, evaluate_batch(problem, X_new, seeds), t)

        records.append(_record(archive, t, z))
        diag = {
            "generation": t,
            "gp_hyper": [
                {
                    "length_scale": g.hyper.length_scale,
                    "signal_var": g.hyper.signal_var,
                    "noise_var": g.hyper.noise_var,
                }
                for g in gps
            ],
            "model_loss_first": losses[0] if losses else None,
            "model_loss_last": losses[-1] if losses else None,
        }
        diagnostics.append(diag)
        if on_generation is not None:
            on_generation(
                t,
                archive,
                records,
                {
                    "model": {k: v.tolist() for k, v in model.params.items()},
                    "diagnostics": diag,
                },
            )

    last = archive.genes[-N:] if len(archive) > n_init else archive.genes
    result = RunResult(
        archive=archive,
        records=records,
        population=last,
        population_indices=list(range(max(0, len(archive) - N), len(archive))),
    )
    result.diagnostics = diagnostics
    return result
