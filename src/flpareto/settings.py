"""Experimental settings: search spaces, constraints, and FL evaluators.

Three protected settings over the federated simulator:

  rd  -- Gaussian randomization; minimize (utility loss, privacy leakage),
         privacy constrained <= 0.8 with penalty 20.
  bc  -- batched encryption; minimize (utility loss, training cost),
         cost constrained <= 500 s with penalty 20.
  sf  -- sparsification; minimize (utility loss, privacy leakage, training
         cost), privacy constrained <= 0.8 with penalty 20.

Solution variables follow the published ranges: learning rate [0.01, 0.3],
noise sigma [0, 1], clip norm [1, 4], batch size {100, 200, 400, 800},
hidden widths [1, width_max], rho [0, 1], xi [0, 0.99].
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import SYNTHETIC_DEFAULTS
from .flsim import FLRunConfig, flo_evaluate
from .moo import ConstraintSpec, Problem
from .net import ModelSpec
from .protect import BatchCryptParams, RandomizationParams, SparsificationParams
from .spaces import SearchSpace, Var

__all__ = [
    "FL_SETTINGS",
    "FlOptions",
    "build_space",
    "build_constraints",
    "build_fl_problem",
    "default_ref_point",
    "make_run_config",
]

FL_SETTINGS = ("rd", "bc", "sf")

PRIVACY_BOUND = 0.8
COST_BOUND_SECONDS = 500.0
PENALTY = 20.0


def build_space(setting: str, width_max: int) -> SearchSpace:
    lr = Var("lr", "real", 0.01, 0.3)
    if setting == "rd":
        return SearchSpace((lr, Var("sigma_rd", "real", 0.0, 1.0), Var("c_clip", "real", 1.0, 4.0)))
    if setting == "bc":
        return SearchSpace(
            (
                lr,
                Var("hidden1", "int", 1, width_max),
                Var("hidden2", "int", 1, width_max),
                Var("bs", "cat", choices=(100, 200, 400, 800)),
            )
        )
    if setting == "sf":
        return SearchSpace(
            (
                lr,
                Var("hidden1", "int", 1, width_max),
                Var("hidden2", "int", 1, width_max),
                Var("rho", "real", 0.0, 1.0),
                Var("xi", "real", 0.0, 0.99),
            )
        )
    raise ValueError(f"unknown FL setting {setting!r}; choose from {FL_SETTINGS}")


def build_constraints(setting: str) -> ConstraintSpec:
    if setting == "rd":  # (eps_u, eps_p)
        return ConstraintSpec(bounds=(None, PRIVACY_BOUND), penalties=(0.0, PENALTY))
    if setting == "bc":  # (eps_u, eps_c)
        return ConstraintSpec(bounds=(None, COST_BOUND_SECONDS), penalties=(0.0, PENALTY))
    if setting == "sf":  # (eps_u, eps_p, eps_c)
        return ConstraintSpec(
            bounds=(None, PRIVACY_BOUND, None), penalties=(0.0, PENALTY, 0.0)
        )
    raise ValueError(f"unknown FL setting {setting!r}")


@dataclass(frozen=True)
class FlOptions:
    """A manifest's `fl` block; defaults but `dataset` and `width_max` are the simulator's."""

    dataset: dict = field(default_factory=dict)  # overrides of data.SYNTHETIC_DEFAULTS
    clients: int = FLRunConfig.clients
    rounds: int = FLRunConfig.rounds
    local_epochs: int = FLRunConfig.local_epochs
    batch_size: int = FLRunConfig.batch_size
    width_max: int = 32  # upper bound of the searched hidden widths
    c1: float = RandomizationParams.c1
    payload_bits: int = BatchCryptParams.payload_bits
    c2: float = SparsificationParams.c2

    def __post_init__(self):
        for name, lo in (("clients", 1), ("rounds", 0), ("local_epochs", 1), ("batch_size", 1), ("width_max", 1)):
            if getattr(self, name) < lo:
                raise ValueError(f"{name} must be >= {lo}")
        if not isinstance(self.dataset, dict):
            raise ValueError("dataset must be an object")
        if self.dataset.get("kind", "synthetic") == "synthetic":
            extra = sorted(set(self.dataset) - set(SYNTHETIC_DEFAULTS))
            if extra:
                raise ValueError(f"dataset.{extra[0]} is not a synthetic dataset field")


def _max_weight_count(fl_options: FlOptions) -> int:
    ds = {**SYNTHETIC_DEFAULTS, **fl_options.dataset}
    spec = ModelSpec(
        in_dim=int(ds["features"]),
        hidden1=fl_options.width_max,
        hidden2=fl_options.width_max,
        n_classes=int(ds["classes"]),
    )
    return int(spec.weight_mask().sum())


def default_ref_point(setting: str, fl_options: FlOptions) -> np.ndarray:
    if setting == "rd":
        return np.array([1.05, 1.05])
    if setting == "bc":
        return np.array([1.05, 600.0])
    if setting == "sf":
        return np.array([1.05, 1.05, 1.05 * _max_weight_count(fl_options)])
    raise ValueError(f"unknown FL setting {setting!r}")


def make_run_config(setting: str, values: dict, fl_options: FlOptions, seed: int) -> FLRunConfig:
    """Assemble an FLRunConfig from decoded hyperparameter values."""
    ds = {**SYNTHETIC_DEFAULTS, **fl_options.dataset}
    spec = ModelSpec(
        in_dim=int(ds["features"]),
        hidden1=int(values.get("hidden1", fl_options.width_max)),
        hidden2=int(values.get("hidden2", fl_options.width_max)),
        n_classes=int(ds["classes"]),
    )
    if setting == "rd":
        mech, params = "rd", RandomizationParams(
            sigma_rd=float(values["sigma_rd"]),
            c_clip=float(values["c_clip"]),
            c1=fl_options.c1,
        )
    elif setting == "bc":
        mech, params = "bc", BatchCryptParams(
            batch_size=int(values["bs"]),
            payload_bits=fl_options.payload_bits,
            clients=fl_options.clients,
        )
    elif setting == "sf":
        mech, params = "sf", SparsificationParams(
            rho=float(values["rho"]),
            xi=float(values["xi"]),
            c2=fl_options.c2,
        )
    else:
        raise ValueError(f"unknown FL setting {setting!r}")
    return FLRunConfig(
        model=spec,
        dataset=ds,
        lr=float(values["lr"]),
        clients=fl_options.clients,
        rounds=fl_options.rounds,
        local_epochs=fl_options.local_epochs,
        batch_size=fl_options.batch_size,
        mechanism=mech,
        mechanism_params=params,
        seed=int(seed),
    )


def _objective_tuple(setting: str, result) -> np.ndarray:
    if setting == "rd":
        return np.array([result.eps_u, result.eps_p])
    if setting == "bc":
        return np.array([result.eps_u, result.eps_c])
    return np.array([result.eps_u, result.eps_p, result.eps_c])


def build_fl_problem(setting: str, fl_options: FlOptions | dict | None = None) -> Problem:
    """An FL setting behind the same evaluator seam as the benchmarks."""
    if not isinstance(fl_options, FlOptions):
        fl_options = FlOptions(**(fl_options or {}))
    space = build_space(setting, fl_options.width_max)
    constraints = build_constraints(setting)

    def evaluate(X: np.ndarray, seeds) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        rows = []
        for genes, s in zip(X, np.atleast_1d(seeds)):
            values = space.decode(genes)
            cfg = make_run_config(setting, values, fl_options, int(s))
            rows.append(_objective_tuple(setting, flo_evaluate(cfg)))
        return np.stack(rows)

    return Problem(
        name=setting,
        dim=space.dim,
        n_obj=constraints.m,
        evaluate=evaluate,
        constraints=constraints,
        ref_point=default_ref_point(setting, fl_options),
    )
