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

import numpy as np

from .data import SYNTHETIC_DEFAULTS
from .flsim import FLRunConfig, flo_evaluate
from .moo import ConstraintSpec, Problem
from .net import ModelSpec
from .protect import BatchCryptParams, RandomizationParams, SparsificationParams
from .spaces import SearchSpace, Var

__all__ = [
    "FL_SETTINGS",
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


def build_space(setting: str, width_max: int = 32) -> SearchSpace:
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


def _max_weight_count(fl_options: dict) -> int:
    ds = {**SYNTHETIC_DEFAULTS, **fl_options.get("dataset", {})}
    width = int(fl_options.get("width_max", 32))
    spec = ModelSpec(
        in_dim=int(ds["features"]),
        hidden1=width,
        hidden2=width,
        n_classes=int(ds["classes"]),
    )
    return int(spec.weight_mask().sum())


def default_ref_point(setting: str, fl_options: dict | None = None) -> np.ndarray:
    fl_options = fl_options or {}
    if setting == "rd":
        return np.array([1.05, 1.05])
    if setting == "bc":
        return np.array([1.05, 600.0])
    if setting == "sf":
        return np.array([1.05, 1.05, 1.05 * _max_weight_count(fl_options)])
    raise ValueError(f"unknown FL setting {setting!r}")


# The fl options this module reads; a manifest may set no other
FL_OPTION_KEYS = ("dataset", "clients", "rounds", "local_epochs", "batch_size", "width_max",
                  "c1", "payload_bits", "c2", "weighted", "cost_model", "sf_average_all")


def make_run_config(setting: str, values: dict, fl_options: dict, seed: int) -> FLRunConfig:
    """Assemble an FLRunConfig from decoded hyperparameter values."""
    ds = {**SYNTHETIC_DEFAULTS, **fl_options.get("dataset", {})}
    clients = int(fl_options.get("clients", 5))
    features = int(ds.get("features", 20))
    classes = int(ds.get("classes", 2))
    default_width = int(fl_options.get("width_max", 32))
    spec = ModelSpec(
        in_dim=features,
        hidden1=int(values.get("hidden1", default_width)),
        hidden2=int(values.get("hidden2", default_width)),
        n_classes=classes,
    )
    if setting == "rd":
        mech, params = "rd", RandomizationParams(
            sigma_rd=float(values["sigma_rd"]),
            c_clip=float(values["c_clip"]),
            c1=float(fl_options.get("c1", 1.0)),
        )
    elif setting == "bc":
        mech, params = "bc", BatchCryptParams(
            batch_size=int(values["bs"]),
            payload_bits=int(fl_options.get("payload_bits", 4096)),
            clients=clients,
        )
    elif setting == "sf":
        mech, params = "sf", SparsificationParams(
            rho=float(values["rho"]),
            xi=float(values["xi"]),
            c2=float(fl_options.get("c2", 8.0)),
        )
    else:
        raise ValueError(f"unknown FL setting {setting!r}")
    return FLRunConfig(
        model=spec,
        dataset=ds,
        lr=float(values["lr"]),
        clients=clients,
        rounds=int(fl_options.get("rounds", 10)),
        local_epochs=int(fl_options.get("local_epochs", 5)),
        batch_size=int(fl_options.get("batch_size", 64)),
        mechanism=mech,
        mechanism_params=params,
        seed=int(seed),
        weighted=bool(fl_options.get("weighted", False)),
        cost_model=bool(fl_options.get("cost_model", True)),
        sf_average_all=bool(fl_options.get("sf_average_all", False)),
    )


def _objective_tuple(setting: str, result) -> np.ndarray:
    if setting == "rd":
        return np.array([result.eps_u, result.eps_p])
    if setting == "bc":
        return np.array([result.eps_u, result.eps_c])
    return np.array([result.eps_u, result.eps_p, result.eps_c])


def build_fl_problem(setting: str, fl_options: dict | None = None) -> Problem:
    """An FL setting behind the same evaluator seam as the benchmarks."""
    fl_options = dict(fl_options or {})
    space = build_space(setting, int(fl_options.get("width_max", 32)))
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
