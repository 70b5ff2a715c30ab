"""Deterministic multi-client FedAvg simulator with protection mechanisms.

One evaluation = decode hyperparameters, train `rounds` federated rounds
under the configured mechanism, and report (utility loss, privacy leakage,
training cost).  The K clients of a round start from the same global
model, so they train in lockstep on stacked (K, n, d) data; each keeps its
own shuffling stream, and its weights equal those of training it alone.
Every stream of randomness derives from the evaluation seed, so identical
configs are bit-identical regardless of worker count.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from . import protect
from .data import load_dataset
from .moo import aggregate_objective
from .net import ModelSpec, accuracy, init_params, loss_and_grad
from .seeding import TAG_FL_CLIENT, TAG_FL_INIT, TAG_FL_MASK, TAG_FL_MECH, stream

__all__ = ["FLRunConfig", "EvaluationResult", "local_sgd", "fedavg", "flo_evaluate"]

# ordering-only placeholder: seconds per (parameter x sample x epoch)
DEFAULT_FLOP_TIME = 1e-8


@dataclass(frozen=True)
class FLRunConfig:
    model: ModelSpec
    dataset: dict
    lr: float
    clients: int = 5
    rounds: int = 10
    local_epochs: int = 5
    batch_size: int = 64
    mechanism: str = "none"  # "none" | "rd" | "bc" | "sf"
    mechanism_params: Any = None
    seed: int = 0
    weighted: bool = False  # n_k/n federated weighting instead of 1/K
    cost_model: bool = True  # deterministic timing; False measures wall clock
    sf_average_all: bool = False  # average holes as W_old over all K instead

    def __post_init__(self):
        if self.clients < 1 or self.rounds < 0 or self.local_epochs < 1:
            raise ValueError("clients >= 1, rounds >= 0, local_epochs >= 1 required")
        if self.lr < 0:
            raise ValueError("learning rate must be nonnegative")
        if self.mechanism not in ("none", "rd", "bc", "sf"):
            raise ValueError(f"unknown mechanism {self.mechanism!r}")


@dataclass
class EvaluationResult:
    eps_u: float
    eps_p: float
    eps_c: float
    accuracy: float
    diverged: bool = False
    round_trace: list[dict] = field(default_factory=list)

    def as_flat(self) -> dict:
        return {
            "eps_u": self.eps_u,
            "eps_p": self.eps_p,
            "eps_c": self.eps_c,
            "accuracy": self.accuracy,
            "diverged": self.diverged,
        }


def local_sgd(
    params: np.ndarray,
    X: np.ndarray,
    y: np.ndarray,
    spec: ModelSpec,
    epochs: int,
    batch_size: int,
    lr: float,
    rng: np.random.Generator | list[np.random.Generator],
) -> np.ndarray:
    """Minibatch SGD on cross-entropy with rng-driven shuffling.

    One client: X (n, d), y (n,) and one generator.  K clients in lockstep:
    X (K, n, d), y (K, n) and a sequence of K generators, each shuffling its
    own client; `params` is the shared (d_w,) start or one (K, d_w) row per
    client.  Returns the updated (d_w,) or (K, d_w) parameters.  A client
    whose loss turns non-finite gets an all-NaN row from then on; the
    others train on, and the caller detects the divergence.
    """
    single = X.ndim == 2
    if single:
        X, y, rng = X[None], y[None], [rng]
    K, n = y.shape
    w = np.broadcast_to(np.asarray(params, dtype=float), (K, spec.n_params)).copy()
    rows = np.arange(K)[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(epochs):
            order = np.stack([r.permutation(n) for r in rng])
            Xs, ys = X[rows, order], y[rows, order]
            for start in range(0, n, batch_size):
                stop = start + batch_size
                loss, grad = loss_and_grad(w, Xs[:, start:stop], ys[:, start:stop], spec)
                bad = ~np.isfinite(loss)
                if bad.any():
                    w[bad] = np.nan
                    if bad.all():
                        return w[0] if single else w
                w -= lr * grad
    return w[0] if single else w


def fedavg(models: list[np.ndarray], weights=None) -> np.ndarray:
    """Componentwise (optionally weighted) mean of parameter vectors."""
    if not models:
        raise ValueError("need at least one model")
    M = np.stack([np.asarray(m, dtype=float) for m in models])
    if M.ndim != 2:
        raise ValueError("models must be flat vectors of equal dimension")
    if weights is None:
        return M.mean(axis=0)
    w = np.asarray(weights, dtype=float)
    if w.shape != (M.shape[0],):
        raise ValueError("weights must match the number of models")
    return (w[:, None] * M).sum(axis=0) / w.sum()


@functools.lru_cache(maxsize=4)
def _stacked_data(dataset_json: str, clients: int) -> tuple[np.ndarray, ...]:
    """Read-only (K, n, d) client X, (K, n) client y, test X and test y.

    Keyed by the canonical JSON of the dataset spec and the client count,
    so every evaluation in a process after the first reuses the arrays.
    """
    spec = json.loads(dataset_json)
    data = load_dataset(spec, clients, seed=int(spec.get("seed", 0)))
    arrays = (np.stack(data.client_X), np.stack(data.client_y), data.test_X, data.test_y)
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _train_time(cfg: FLRunConfig, d_w: int, n_k: int, elapsed: float) -> float:
    if cfg.cost_model:
        return DEFAULT_FLOP_TIME * d_w * n_k * cfg.local_epochs
    return elapsed


def _sf_aggregate(
    cfg: FLRunConfig,
    round_start: np.ndarray,
    locals_: np.ndarray,
    results: list[protect.SparsifyResult],
) -> np.ndarray:
    """Per-coordinate mean of shared values, falling back to the round-start
    global where no client shares (optionally averaging holes as W_old)."""
    if cfg.sf_average_all:
        stacked = np.stack(
            [np.where(r.shared_mask, w, round_start) for r, w in zip(results, locals_)]
        )
        return stacked.mean(axis=0)
    shared_sum = np.zeros_like(round_start)
    shared_cnt = np.zeros_like(round_start)
    for r, w in zip(results, locals_):
        shared_sum += np.where(r.shared_mask, w, 0.0)
        shared_cnt += r.shared_mask
    out = round_start.copy()
    has = shared_cnt > 0
    out[has] = shared_sum[has] / shared_cnt[has]
    return out


def flo_evaluate(cfg: FLRunConfig) -> EvaluationResult:
    """Run the federated loop and measure the three objectives.

    Leakage aggregates as the mean over rounds of per-round client means;
    time-like costs sum over rounds while sparsification's parameter-count
    cost averages.  Divergence and invalid mechanism configurations yield
    eps_u = 1 with the flag set, keeping the evaluator total.
    """
    X, y, test_X, test_y = _stacked_data(json.dumps(cfg.dataset, sort_keys=True), cfg.clients)
    spec = cfg.model
    d_w = spec.n_params
    K, n_k = y.shape
    weight_mask = spec.weight_mask()
    fed_weights = np.full(K, float(n_k)) if cfg.weighted else None

    if cfg.mechanism == "bc" and cfg.rounds:
        try:
            cfg.mechanism_params.checked_bits()
        except ValueError as exc:
            return EvaluationResult(
                eps_u=1.0,
                eps_p=0.0,
                eps_c=0.0,
                accuracy=0.0,
                diverged=True,
                round_trace=[{"error": str(exc)}],
            )

    global_p = init_params(spec, stream(cfg.seed, TAG_FL_INIT))

    sf_masks = None
    if cfg.mechanism == "sf":
        p = cfg.mechanism_params
        sf_masks = [
            stream(cfg.seed, TAG_FL_MASK, k).random(d_w) < p.rho for k in range(K)
        ]

    trace: list[dict] = []
    diverged = False
    for i in range(cfg.rounds):
        round_start = global_p
        t0 = time.perf_counter()
        locals_ = local_sgd(
            round_start,
            X,
            y,
            spec,
            cfg.local_epochs,
            cfg.batch_size,
            cfg.lr,
            [stream(cfg.seed, TAG_FL_CLIENT, i, k) for k in range(K)],
        )
        # the clients train together, so each is charged an equal share
        train_times = [_train_time(cfg, d_w, n_k, (time.perf_counter() - t0) / K)] * K
        protected: list[np.ndarray] = []
        sf_results: list[protect.SparsifyResult] = []
        leaks: list[float] = []
        for k, w in enumerate(locals_):
            if not np.all(np.isfinite(w)):
                diverged = True
                break
            if cfg.mechanism == "none":
                protected.append(w)
                leaks.append(1.0)
            elif cfg.mechanism == "rd":
                p = cfg.mechanism_params
                protected.append(
                    protect.rd_protect(w, p, stream(cfg.seed, TAG_FL_MECH, i, k))
                )
                leaks.append(protect.rd_leakage(p, d_w))
            elif cfg.mechanism == "bc":
                protected.append(protect.bc_protect(w, cfg.mechanism_params))
                leaks.append(0.0)
            else:  # sf
                p = cfg.mechanism_params
                res = protect.sf_protect(
                    w,
                    round_start,
                    p,
                    eligible=weight_mask,
                    connection_mask=sf_masks[k],
                )
                sf_results.append(res)
                private = res.retained_mask | res.never_public_mask
                leaks.append(protect.sf_leakage(w[private], p.c2))
        if diverged:
            break

        if cfg.mechanism == "sf":
            global_p = _sf_aggregate(cfg, round_start, locals_, sf_results)
            round_cost = protect.sf_cost([r.shared_mask for r in sf_results])
        else:
            global_p = fedavg(protected, fed_weights)
            if cfg.mechanism == "bc":
                round_cost = protect.bc_cost(d_w, cfg.mechanism_params, train_times)
            else:
                round_cost = aggregate_objective(train_times)
        round_leak = aggregate_objective(leaks)
        trace.append({"round": i, "eps_p": round_leak, "eps_c": round_cost})
        if not np.all(np.isfinite(global_p)):
            diverged = True
            break

    leak_rounds = [r["eps_p"] for r in trace]
    cost_rounds = [r["eps_c"] for r in trace]
    eps_p = float(np.mean(leak_rounds)) if leak_rounds else 0.0
    if cfg.mechanism == "sf":
        eps_c = float(np.mean(cost_rounds)) if cost_rounds else 0.0
    else:
        eps_c = float(np.sum(cost_rounds)) if cost_rounds else 0.0

    if diverged:
        return EvaluationResult(
            eps_u=1.0, eps_p=eps_p, eps_c=eps_c, accuracy=0.0,
            diverged=True, round_trace=trace,
        )
    acc = accuracy(global_p, test_X, test_y, spec)
    return EvaluationResult(
        eps_u=1.0 - acc, eps_p=eps_p, eps_c=eps_c, accuracy=acc, round_trace=trace,
    )
