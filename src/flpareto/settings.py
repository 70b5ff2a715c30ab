"""Experimental settings: search spaces, constraints, and FL evaluators.

Three protected settings over the federated simulator, each one
`FlSetting` record in `SETTINGS`; a setting's name is also its mechanism's:

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
from typing import Any, Callable

import numpy as np

from .data import check_spec, dataset_dims
from .flsim import RUN_MINIMUMS, FLRunConfig, check_minimums, flo_evaluate
from .moo import ConstraintSpec, Problem
from .net import ModelSpec
from .protect import BatchCryptParams, RandomizationParams, SparsificationParams
from .spaces import SearchSpace, Var

__all__ = [
    "FL_SETTINGS",
    "SETTINGS",
    "FlSetting",
    "FlOptions",
    "build_space",
    "build_constraints",
    "build_fl_problem",
    "default_ref_point",
    "make_run_config",
]

PRIVACY_BOUND = 0.8
COST_BOUND_SECONDS = 500.0
PENALTY = 20.0  # on every bounded objective
BATCH_SIZES = (100, 200, 400, 800)  # bc's searched batch sizes


@dataclass(frozen=True)
class FlSetting:
    """Everything one FL setting knows."""

    objectives: tuple[str, ...]  # EvaluationResult fields, minimized in this order
    bounds: tuple[float | None, ...]  # upper bound per objective; None = unconstrained
    ref_point: tuple[float | None, ...]  # None: 1.05 x the widest model's weight count
    variables: tuple[str, ...]  # searched, in gene order
    params: Callable[[dict, FlOptions], Any]  # mechanism parameters of decoded values


SETTINGS = {
    "rd": FlSetting(
        objectives=("eps_u", "eps_p"), bounds=(None, PRIVACY_BOUND), ref_point=(1.05, 1.05),
        variables=("lr", "sigma_rd", "c_clip"),
        params=lambda v, fl: RandomizationParams(float(v["sigma_rd"]), float(v["c_clip"]), fl.c1),
    ),
    "bc": FlSetting(
        objectives=("eps_u", "eps_c"), bounds=(None, COST_BOUND_SECONDS), ref_point=(1.05, 600.0),
        variables=("lr", "hidden1", "hidden2", "bs"),
        params=lambda v, fl: BatchCryptParams(int(v["bs"]), fl.payload_bits, fl.clients),
    ),
    "sf": FlSetting(
        objectives=("eps_u", "eps_p", "eps_c"), bounds=(None, PRIVACY_BOUND, None),
        ref_point=(1.05, 1.05, None), variables=("lr", "hidden1", "hidden2", "rho", "xi"),
        params=lambda v, fl: SparsificationParams(float(v["rho"]), float(v["xi"]), fl.c2),
    ),
}
FL_SETTINGS = tuple(SETTINGS)


def _setting(setting: str) -> FlSetting:
    if setting not in SETTINGS:
        raise ValueError(f"unknown FL setting {setting!r}; choose from {FL_SETTINGS}")
    return SETTINGS[setting]


def build_space(setting: str, width_max: int) -> SearchSpace:
    variables = {
        v.name: v
        for v in (
            Var("lr", "real", 0.01, 0.3),
            Var("sigma_rd", "real", 0.0, 1.0),
            Var("c_clip", "real", 1.0, 4.0),
            Var("hidden1", "int", 1, width_max),
            Var("hidden2", "int", 1, width_max),
            Var("bs", "cat", choices=BATCH_SIZES),
            Var("rho", "real", 0.0, 1.0),
            Var("xi", "real", 0.0, 0.99),
        )
    }
    return SearchSpace(tuple(variables[name] for name in _setting(setting).variables))


def build_constraints(setting: str) -> ConstraintSpec:
    bounds = _setting(setting).bounds
    return ConstraintSpec(bounds=bounds, penalties=tuple(0.0 if b is None else PENALTY for b in bounds))


@dataclass(frozen=True)
class FlOptions:
    """A manifest's `fl` block; defaults but `dataset` and `width_max` are the simulator's."""

    dataset: dict = field(default_factory=dict)  # overrides of data.SYNTHETIC_DEFAULTS, or an idx spec
    clients: int = FLRunConfig.clients
    rounds: int = FLRunConfig.rounds
    local_epochs: int = FLRunConfig.local_epochs
    batch_size: int = FLRunConfig.batch_size
    width_max: int = 32  # upper bound of the searched hidden widths
    c1: float = RandomizationParams.c1
    payload_bits: int = BatchCryptParams.payload_bits
    c2: float = SparsificationParams.c2

    def __post_init__(self):
        check_minimums(self, {**RUN_MINIMUMS, "width_max": 2})  # spaces.Var needs low < high
        # the mechanisms' own rules on their constants
        RandomizationParams(sigma_rd=0.0, c_clip=1.0, c1=self.c1)
        # >= 2 bits per value at the smallest searched batch size, or every bc row is invalid
        BatchCryptParams(min(BATCH_SIZES), self.payload_bits, self.clients).checked_bits()
        SparsificationParams(rho=0.0, xi=0.0, c2=self.c2)
        check_spec(self.dataset)


def _model(fl_options: FlOptions, values: dict) -> ModelSpec:
    """The model of decoded `values`; hidden widths not searched are width_max."""
    in_dim, n_classes = dataset_dims(fl_options.dataset)
    return ModelSpec(
        in_dim=in_dim,
        hidden1=int(values.get("hidden1", fl_options.width_max)),
        hidden2=int(values.get("hidden2", fl_options.width_max)),
        n_classes=n_classes,
    )


def default_ref_point(setting: str, fl_options: FlOptions) -> np.ndarray:
    ref = _setting(setting).ref_point
    if None in ref:
        widest = 1.05 * int(_model(fl_options, {}).weight_mask().sum())
        ref = tuple(widest if z is None else z for z in ref)
    return np.array(ref)


def make_run_config(setting: str, values: dict, fl_options: FlOptions, seed: int) -> FLRunConfig:
    """Assemble an FLRunConfig from decoded hyperparameter values."""
    return FLRunConfig(
        model=_model(fl_options, values),
        dataset=fl_options.dataset,
        lr=float(values["lr"]),
        clients=fl_options.clients,
        rounds=fl_options.rounds,
        local_epochs=fl_options.local_epochs,
        batch_size=fl_options.batch_size,
        mechanism=setting,
        mechanism_params=_setting(setting).params(values, fl_options),
        seed=int(seed),
    )


def build_fl_problem(setting: str, fl_options: FlOptions | dict | None = None) -> Problem:
    """An FL setting behind the same evaluator seam as the benchmarks."""
    if not isinstance(fl_options, FlOptions):
        fl_options = FlOptions(**(fl_options or {}))
    objectives = _setting(setting).objectives
    space = build_space(setting, fl_options.width_max)

    def evaluate(X: np.ndarray, seeds) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        rows = []
        for genes, s in zip(X, np.atleast_1d(seeds)):
            result = flo_evaluate(make_run_config(setting, space.decode(genes), fl_options, int(s)))
            rows.append(np.array([getattr(result, name) for name in objectives]))
        return np.stack(rows)

    return Problem(
        name=setting,
        dim=space.dim,
        n_obj=len(objectives),
        evaluate=evaluate,
        constraints=build_constraints(setting),
        ref_point=default_ref_point(setting, fl_options),
    )
