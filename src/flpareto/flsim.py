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

# the lowest value of each field that shapes a run; settings.FlOptions checks the same
RUN_MINIMUMS = {"clients": 1, "rounds": 0, "local_epochs": 1, "batch_size": 1}


def check_minimums(obj, minimums: dict) -> None:
    """ValueError, naming the field first, if a field of `obj` is below its minimum."""
    for name, lo in minimums.items():
        if getattr(obj, name) < lo:
            raise ValueError(f"{name} must be >= {lo}")


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

    def __post_init__(self):
        check_minimums(self, RUN_MINIMUMS)
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
                grad *= lr
                w -= grad
    return w[0] if single else w


def fedavg(models: list[np.ndarray]) -> np.ndarray:
    """Componentwise mean of parameter vectors."""
    if not models:
        raise ValueError("need at least one model")
    M = np.stack([np.asarray(m, dtype=float) for m in models])
    if M.ndim != 2:
        raise ValueError("models must be flat vectors of equal dimension")
    return M.mean(axis=0)


@functools.lru_cache(maxsize=4)
def _stacked_data(dataset_json: str, clients: int) -> tuple[np.ndarray, ...]:
    """Read-only (K, n, d) client X, (K, n) client y, test X and test y.

    Keyed by the canonical JSON of the dataset spec and the client count,
    so every evaluation in a process after the first reuses the arrays.
    """
    spec = json.loads(dataset_json)
    data = load_dataset(spec, clients, seed=int(spec.get("seed", 0)))
    arrays = (data.client_X, data.client_y, data.test_X, data.test_y)
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _sf_aggregate(
    round_start: np.ndarray,
    locals_: np.ndarray,
    results: list[protect.SparsifyResult],
) -> np.ndarray:
    """Per-coordinate mean of shared values, falling back to the round-start
    global where no client shares."""
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
    spec, p = cfg.model, cfg.mechanism_params
    d_w = spec.n_params
    K, n_k = y.shape

    if cfg.mechanism == "bc" and cfg.rounds:
        try:
            p.checked_bits()
        except ValueError as exc:
            return EvaluationResult(
                eps_u=1.0, eps_p=0.0, eps_c=0.0, accuracy=0.0,
                diverged=True, round_trace=[{"error": str(exc)}],
            )

    global_p = init_params(spec, stream(cfg.seed, TAG_FL_INIT))
    if cfg.mechanism == "sf":  # each client's connection mask holds for the whole evaluation
        eligible = spec.weight_mask()
        sf_masks = [stream(cfg.seed, TAG_FL_MASK, k).random(d_w) < p.rho for k in range(K)]

    # each client is charged the same modelled training time every round
    train_times = [DEFAULT_FLOP_TIME * d_w * n_k * cfg.local_epochs] * K
    trace: list[dict] = []
    diverged = False
    for i in range(cfg.rounds):
        round_start = global_p
        locals_ = local_sgd(
            round_start, X, y, spec, cfg.local_epochs, cfg.batch_size, cfg.lr,
            [stream(cfg.seed, TAG_FL_CLIENT, i, k) for k in range(K)],
        )
        diverged = not np.isfinite(locals_).all()
        if diverged:
            break
        # each branch runs its mechanism per client, in client order
        if cfg.mechanism == "rd":
            global_p = fedavg(
                [protect.rd_protect(w, p, stream(cfg.seed, TAG_FL_MECH, i, k)) for k, w in enumerate(locals_)]
            )
            leaks, round_cost = [protect.rd_leakage(p, d_w)] * K, aggregate_objective(train_times)
        elif cfg.mechanism == "bc":
            global_p = fedavg([protect.bc_protect(w, p) for w in locals_])
            leaks, round_cost = [0.0] * K, protect.bc_cost(d_w, p, train_times)
        elif cfg.mechanism == "sf":
            results = [
                protect.sf_protect(w, round_start, p, eligible=eligible, connection_mask=m)
                for w, m in zip(locals_, sf_masks)
            ]
            global_p = _sf_aggregate(round_start, locals_, results)
            leaks = [
                protect.sf_leakage(w[r.retained_mask | r.never_public_mask], p.c2)
                for w, r in zip(locals_, results)
            ]
            round_cost = protect.sf_cost([r.shared_mask for r in results])
        else:  # "none": plain FedAvg shares everything
            global_p = fedavg(list(locals_))
            leaks, round_cost = [1.0] * K, aggregate_objective(train_times)
        trace.append({"round": i, "eps_p": aggregate_objective(leaks), "eps_c": round_cost})
        diverged = not np.isfinite(global_p).all()
        if diverged:
            break

    eps_p = float(np.mean([r["eps_p"] for r in trace])) if trace else 0.0
    cost_of_rounds = np.mean if cfg.mechanism == "sf" else np.sum
    eps_c = float(cost_of_rounds([r["eps_c"] for r in trace])) if trace else 0.0
    acc = 0.0 if diverged else accuracy(global_p, test_X, test_y, spec)
    return EvaluationResult(
        eps_u=1.0 - acc, eps_p=eps_p, eps_c=eps_c, accuracy=acc, diverged=diverged, round_trace=trace,
    )
