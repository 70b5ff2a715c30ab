"""The benchmark's workloads: manifests derived from a workload seed.

Each workload is a closed loop of `flpareto optimize` invocations run one
after another in one process.  `invocations` returns them in order, and
`budget` says what each output tree must hold, so the output checks do
not trust the program's own echo of its budget.

A run's repetitions rotate over `sub_seeds`: searches derived from the
run's seed.  Sizes are chosen so that one repetition takes 2 to 4 seconds
on a 2-core machine, so that a 40-second run repeats each search several
times.  Work that changes with the seed is kept small (see the notes
below), and the searches of a run average out what remains.
"""

from __future__ import annotations

import os
import random

WORKLOADS = ("fl-search", "psl-toy", "nsga2-archive")
DEFAULT_SEED = 1

# FL options for fl-search.  Everything is the simulator default (K=5
# clients, 1000 samples per client, minibatch 64, width_max 32) except
# rounds (10 -> 2) and local epochs (5 -> 1).  Every loss_and_grad call
# keeps its shape, but an evaluation gets 25x cheaper, so one repetition
# holds 48 evaluations: enough that the number that end early (bc batch
# size 800 is invalid, coarse bc quantization diverges) varies little
# between workload seeds.
FL_OPTIONS = {"rounds": 2, "local_epochs": 1}
# The smoke mode only checks metric names, so it shrinks every budget.
SMOKE_FL_OPTIONS = {
    "rounds": 1,
    "local_epochs": 1,
    "width_max": 8,
    "dataset": {"n_per_client": 64, "n_test": 64},
}


def _derived_seeds(workload: str, seed: int, count: int) -> list[int]:
    rng = random.Random(f"{workload}:{seed}")
    return rng.sample(range(1_000_000), count)


def sub_seeds(workload: str, seed: int) -> list[int]:
    """The seeds of the searches a run of `workload` rotates over.

    fl-search already runs six searches (two seeds, three settings) per
    repetition, so a run repeats one; the other workloads run one search
    per repetition, so a run rotates over three.
    """
    return _derived_seeds(f"{workload}/run", seed, 1 if workload == "fl-search" else 3)


def invocations(workload: str, seed: int, smoke: bool = False) -> list[tuple[str, dict]]:
    """(output tree, manifest without out_dir) per invocation, in order.

    Invocations that share an output tree are legs of one search: a later
    leg raises `generations` and resumes from the earlier leg's checkpoints.
    """
    if workload == "fl-search":
        seeds = _derived_seeds(workload, seed, 2)
        fl = SMOKE_FL_OPTIONS if smoke else FL_OPTIONS
        return [
            (setting, {
                "algorithm": "nsga2",
                "setting": setting,
                "seeds": seeds,
                "population": 4,
                "generations": 1,
                "workers": os.cpu_count() or 1,
                "fl": dict(fl),
            })
            for setting in ("rd", "bc", "sf")
        ]
    if workload == "psl-toy":
        # The default psl block except model_lr (1e-5 -> 1e-3).  At 1e-5 the
        # model hardly leaves its zero-initialized output layer, the 1000
        # candidates sit near the box centre, and whether greedy HVI skips
        # them as dominated flips with the seed: 3,751 to 9,986 hypervolume
        # calls over 2 generations across 8 seeds.  At 1e-3 every seed
        # makes about 10,000.  One generation keeps a repetition near 2 s.
        psl = {"candidates": 40, "model_steps": 20} if smoke else {"model_lr": 1e-3}
        return [
            ("psl", {
                "algorithm": "psl",
                "setting": "constrained_toy",
                "seeds": _derived_seeds(workload, seed, 1),
                "population": 5,
                "generations": 1,
                "psl": psl,
            })
        ]
    if workload == "nsga2-archive":
        seeds = _derived_seeds(workload, seed, 1)
        population, legs = (8, (2, 3)) if smoke else (60, (14, 18))
        return [
            ("archive", {
                "algorithm": "nsga2",
                "setting": "constrained_toy",
                "seeds": seeds,
                "population": population,
                "generations": generations,
            })
            for generations in legs
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def budget(manifest: dict) -> tuple[int, int]:
    """(evaluations per archive, trace rows per seed) the tree must hold."""
    n, t = manifest["population"], manifest["generations"]
    if manifest["algorithm"] == "psl":
        # run_psl's default initial design for constrained_toy (dim 3)
        return max(5, 3 + 1) + t * n, t
    return n + t * n, t
