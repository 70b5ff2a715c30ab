"""Pareto trade-off search for privacy, utility and cost in federated learning.

Library layout:

    moo       dominance, non-dominated sorting, crowding, exact hypervolume,
              hinge penalties, archives
    nsga2     penalized elitist genetic search plus a random baseline
    gp, psl   Gaussian-process surrogates and preference-conditioned
              Pareto-set learning
    net, data, flsim, protect
              the federated simulator: model, datasets, training loop and
              the three protection mechanisms
    bench     analytic benchmarks
    spaces, settings, runner, cli
              hyperparameter decoding, experiment settings, artifact
              orchestration and the command line
"""

from .moo import (
    Archive,
    ConstraintSpec,
    Problem,
    aggregate_objective,
    crowding_distance,
    dominates,
    hypervolume,
    nondominated_sort,
    penalize,
)
from .nsga2 import NsgaConfig, run_nsga2, run_random_search
from .psl import PslConfig, run_psl
from .flsim import FLRunConfig, flo_evaluate
from .runner import run_manifest

__version__ = "0.1.0"

__all__ = [
    "Archive",
    "ConstraintSpec",
    "Problem",
    "aggregate_objective",
    "crowding_distance",
    "dominates",
    "hypervolume",
    "nondominated_sort",
    "penalize",
    "NsgaConfig",
    "run_nsga2",
    "run_random_search",
    "PslConfig",
    "run_psl",
    "FLRunConfig",
    "flo_evaluate",
    "run_manifest",
    "__version__",
]
