"""Pareto-set-learning optimizer over Gaussian-process surrogates.

Per generation: fit one GP per objective on the accumulated archive, train
a preference-to-solution network against penalized lower-confidence-bound
surrogates under Tchebycheff scalarization, generate a large candidate set
from the network, pick the batch with the best greedy hypervolume
improvement, and evaluate only that batch for real.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import expit

# gp_fit and gp_posterior_grad are unused here, but perfbench/tracer.py wraps
# psl.gp_fit and psl.gp_posterior_grad
from .gp import GPModel, GPStack, gp_fit, gp_fit_joint, gp_posterior, gp_posterior_grad  # noqa: F401
from .moo import (
    Archive,
    ConstraintSpec,
    Problem,
    hypervolume,
    hypervolume_contributions,
    penalize,
)
# evaluate_batch is unused here, but perfbench/tracer.py wraps psl.evaluate_batch
from .nsga2 import RunResult, evaluate_batch, latin_hypercube, _evaluate_generation, _record, _start  # noqa: F401
from .seeding import TAG_INIT, TAG_PSL_MODEL, TAG_PSL_PREF, stream

__all__ = [
    "PslConfig",
    "ParetoSetModel",
    "train_pareto_set_model",
    "generate_candidates",
    "greedy_hvi_select",
    "run_psl",
]

PENALTY_SHARPNESS = 50.0  # softplus sharpness of the surrogate's constraint penalty
IDEAL_MARGIN = 0.05  # Tchebycheff ideal point sits this far below the archive's best
PREFERENCE_CHUNK = 128  # training steps whose preferences one draw supplies


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
        if not 0.0 < self.model_lr < np.inf:
            raise ValueError("model_lr must be finite and > 0")
        if not 0.0 <= self.lcb_beta < np.inf:
            raise ValueError("lcb_beta must be finite and >= 0")


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

    def backward(self, cache: dict, dx: np.ndarray, grads: dict[str, np.ndarray]) -> None:
        """Write the gradient of each parameter into `grads`, which holds an
        array shaped like it (see `views`)."""
        p = self.params
        lam, h1, h2, x = cache["lam"], cache["h1"], cache["h2"], cache["x"]
        dz3 = dx * x * (1.0 - x)
        np.matmul(h2.T, dz3, out=grads["W3"])
        np.add.reduce(dz3, axis=0, out=grads["b3"])
        dz2 = (dz3 @ p["W3"].T) * (1.0 - h2 * h2)
        np.matmul(h1.T, dz2, out=grads["W2"])
        np.add.reduce(dz2, axis=0, out=grads["b2"])
        dz1 = (dz2 @ p["W2"].T) * (1.0 - h1 * h1)
        np.matmul(lam.T, dz1, out=grads["W1"])
        np.add.reduce(dz1, axis=0, out=grads["b1"])

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Views into a flat vector, keyed and shaped like `params`, in order."""
        views, start = {}, 0
        for k, v in self.params.items():
            views[k] = flat[start : start + np.size(v)].reshape(np.shape(v))
            start += np.size(v)
        return views

    def flatten(self) -> np.ndarray:
        """Gather the parameters into one new flat vector and return it.

        `params` keeps its keys and values, each now a view into the vector,
        so an update of the vector is an update of every layer.
        """
        flat = np.concatenate([np.ravel(v) for v in self.params.values()])
        self.params = self.views(flat)
        return flat


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
    grads = model.views(np.empty(sum(v.size for v in model.params.values())))
    loss = _SurrogateLoss(gps, constraints, ideal, beta, sharpness)(model, lam, grads)
    return loss, grads


class _SurrogateLoss:
    """One generation's surrogate loss: its GPs, penalty terms and ideal,
    set up once and evaluated at every training step."""

    def __init__(
        self,
        gps: list[GPModel],
        constraints: ConstraintSpec,
        ideal: np.ndarray,
        beta: float,
        sharpness: float,
    ):
        self.posterior = GPStack(gps)
        bounds = constraints.bounds_array()
        self.bounded = np.isfinite(bounds)
        self.bounds = np.where(self.bounded, bounds, 0.0)
        # 0 on unbounded objectives, where u is 0: their penalty terms are
        # 0 * softplus(0) and 0 * expit(0), both exactly 0
        self.penalties = np.where(self.bounded, constraints.penalties_array(), 0.0)
        self.ideal = ideal[None, :]
        self.beta = beta
        self.sharpness = sharpness

    def __call__(self, model: ParetoSetModel, lam: np.ndarray, grads: dict[str, np.ndarray]) -> float:
        """The loss at the (B, m) preferences; writes its gradient into `grads`."""
        B = lam.shape[0]
        x, cache = model.forward(lam)
        mean, std, dmean, dstd = self.posterior(x)
        lcb = (mean - self.beta * std).T  # (B, m)
        # the hinge penalty smoothed by a sharp softplus
        u = np.where(self.bounded, lcb - self.bounds, 0.0)
        su = self.sharpness * u
        pen = lcb + self.penalties * (np.logaddexp(0.0, su) / self.sharpness)
        scaled = lam * (pen - self.ideal)
        # each row's loss is its winning objective's term, so its gradient
        # flows through that objective alone; at[b] and by_obj[b] index row
        # b's winner in the flattened (B, m) and (m, B) layouts
        rows = np.arange(B)
        winner = scaled.argmax(axis=1)
        at = rows * lam.shape[1] + winner
        by_obj = winner * B + rows
        loss = float(np.add.reduce(scaled.take(at)) / B)  # np.mean's arithmetic
        dpen_dlcb = 1.0 + self.penalties.take(winner) * expit(su.take(at))
        d = x.shape[1]
        dmean_w = dmean.reshape(-1, d).take(by_obj, axis=0)  # (B, d)
        dstd_w = dstd.reshape(-1, d).take(by_obj, axis=0)
        dx = ((lam.take(at) / B) * dpen_dlcb)[:, None] * (dmean_w - self.beta * dstd_w)
        model.backward(cache, dx, grads)
        return loss


class _Adam:
    """Adam over one flat parameter vector, updated in place.

    The first and second moments are the two rows of one array, so each
    update they share is one call over both rows.
    """

    B1, B2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, size: int, lr: float):
        self.lr = lr
        self.t = 0
        self.mv = np.zeros((2, size))  # m, v
        self._ab = np.empty((2, size))
        self._a, self._b = self._ab
        self._decay = np.array([[self.B1], [self.B2]])
        self._gain = 1 - self._decay
        self._debias = np.empty((2, 1))

    def step(self, flat: np.ndarray, grad: np.ndarray) -> None:
        self.t += 1
        mv, ab, a, b = self.mv, self._ab, self._a, self._b
        # m = b1 m + (1 - b1) g;  v = b2 v + ((1 - b2) g) g
        np.multiply(mv, self._decay, out=mv)
        np.multiply(grad, self._gain, out=ab)
        np.multiply(b, grad, out=b)
        np.add(mv, ab, out=mv)
        # flat -= (lr mhat) / (sqrt(vhat) + eps), with mhat = m / (1 - b1^t)
        # and vhat = v / (1 - b2^t) in Python float powers
        self._debias[:, 0] = 1 - self.B1**self.t, 1 - self.B2**self.t
        np.divide(mv, self._debias, out=ab)
        np.multiply(a, self.lr, out=a)
        np.add(np.sqrt(b, out=b), self.EPS, out=b)
        np.subtract(flat, np.divide(a, b, out=a), out=flat)


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
    """Adam-train the model in place for `steps` updates; returns loss trace.

    `model.params` become views into one flat vector that Adam updates.
    Each step draws `batch` preferences.  One draw supplies the preferences
    of up to PREFERENCE_CHUNK steps: rows come off the stream in order, so
    they equal one draw per step, and the generator ends in the same state.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    flat = model.flatten()
    grad = np.empty_like(flat)
    grads = model.views(grad)
    opt = _Adam(flat.size, lr)
    loss_at = _SurrogateLoss(gps, constraints, ideal, beta, sharpness)
    losses: list[float] = []
    for first in range(0, steps, PREFERENCE_CHUNK):
        count = min(PREFERENCE_CHUNK, steps - first)
        lams = sample_preferences(count * batch, model.n_obj, rng).reshape(count, batch, -1)
        for step, lam in enumerate(lams, start=first):
            loss = loss_at(model, lam, grads)
            if not math.isfinite(loss):
                raise RuntimeError(
                    f"non-finite surrogate loss at step {step}: loss={loss}, "
                    f"ideal={ideal.tolist()}"
                )
            opt.step(flat, grad)
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

    Total real evaluations: n_init + generations * batch_size.  Each
    generation's state for checkpointing (network weights and that
    generation's diagnostics entry) flows through `on_generation`; `resume`
    restarts after the last completed generation, with the weights of the
    last state and the diagnostics of them all.
    """
    constraints, z, archive, records, t_done = _start(problem, constraints, ref_point, resume)
    n_init = cfg.n_init if cfg.n_init is not None else max(5, problem.dim + 1)
    N = cfg.batch_size

    if resume is None:
        diagnostics: list[dict] = []
        X0 = latin_hypercube(n_init, problem.dim, stream(seed, TAG_INIT))
        _evaluate_generation(problem, archive, X0, seed, 0)
        model = ParetoSetModel.create(
            problem.n_obj, problem.dim, cfg.hidden, stream(seed, TAG_PSL_MODEL, 0)
        )
    else:
        diagnostics = [d for state in resume["states"] for d in state["diagnostics"]]
        model = ParetoSetModel(
            params={k: np.asarray(v, dtype=float) for k, v in resume["states"][-1]["model"].items()},
            n_obj=problem.n_obj,
            dim=problem.dim,
        )

    for t in range(t_done + 1, cfg.generations + 1):
        X = archive.genes
        Y = archive.raw
        gps = gp_fit_joint(X, Y)
        ideal = Y.min(axis=0) - IDEAL_MARGIN

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
        picked = greedy_hvi_select(penalize(lcb, constraints), archive.penalized, N, z)
        _evaluate_generation(problem, archive, cand[picked], seed, t)

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
            state = {"model": {k: v.tolist() for k, v in model.params.items()}, "diagnostics": [diag]}
            on_generation(t, archive, records, state)

    return RunResult(
        archive=archive,
        records=records,
        population_indices=list(range(max(0, len(archive) - N), len(archive))),
        diagnostics=diagnostics,
    )
