"""The generation loop all three engines share (nsga2.run_search)."""

import dataclasses

import numpy as np
import pytest

from flpareto import nsga2, psl, runner
from flpareto.bench import constrained_toy_problem
from flpareto.moo import Archive
from flpareto.nsga2 import NsgaConfig, run_nsga2, run_random_search
from flpareto.psl import PslConfig, run_psl

T = 3
ENGINES = {
    "nsga2": lambda **kw: run_nsga2(constrained_toy_problem(), NsgaConfig(population_size=6, generations=T), 1, **kw),
    "psl": lambda **kw: run_psl(
        constrained_toy_problem(),
        PslConfig(generations=T, batch_size=2, n_candidates=10, n_init=4, model_steps=10),
        1,
        **kw,
    ),
    "random": lambda **kw: run_random_search(constrained_toy_problem(), 5, T, 1, **kw),
}


def _columns(archive: Archive) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return archive.genes, archive.raw, archive.generation


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_resume_from_every_generation_matches_direct_run(engine):
    saved = {}

    def keep(t, archive, records, state):
        # appends replace the archive's columns, so these stay generation t's
        saved[t] = (_columns(archive), list(records), state)

    direct = ENGINES[engine](on_generation=keep)
    assert sorted(saved) == list(range(1, T + 1))
    for k in range(1, T):
        (genes, raw, generation), records, _ = saved[k]
        archive = Archive(constraints=constrained_toy_problem().constraints)
        archive.append_batch(genes, raw, generation)
        states = [saved[t][2] for t in range(1, k + 1)]
        resumed = ENGINES[engine](resume={"generation": k, "archive": archive, "records": records, "states": states})
        for got, want in zip(_columns(resumed.archive), _columns(direct.archive)):
            assert got.tobytes() == want.tobytes()
        assert resumed.records == direct.records
        assert resumed.population_indices == direct.population_indices
        assert resumed.diagnostics == direct.diagnostics


# perfbench's tracer wraps nsga2._record and psl._record, and names each
# generation span after the module whose _record ran; this pins that each
# engine's generations go through its own module's name
@pytest.mark.parametrize("engine, owner", [("nsga2", "nsga2"), ("random", "nsga2"), ("psl", "psl")])
def test_each_generation_recorded_through_its_engines_module(monkeypatch, engine, owner):
    calls = {"nsga2": 0, "psl": 0}
    for name, mod in (("nsga2", nsga2), ("psl", psl)):

        def counting(*args, _name=name, _original=mod._record):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(mod, "_record", counting)
    ENGINES[engine]()
    assert calls == {"nsga2": 0, "psl": 0, owner: T}


# the tracer opens its engine span on runner.run_nsga2 and runner.run_psl
@pytest.mark.parametrize("algorithm", ["nsga2", "psl", "random"])
def test_runner_dispatches_through_its_own_names(monkeypatch, tmp_path, algorithm):
    calls = []
    for name in ("run_nsga2", "run_psl"):
        original = getattr(runner, name)
        monkeypatch.setattr(
            runner, name, lambda *a, _name=name, _original=original, **kw: calls.append(_name) or _original(*a, **kw)
        )
    manifest = runner.normalize_manifest({
        "algorithm": algorithm,
        "setting": "zdt1",
        "seeds": [0],
        "generations": 1,
        "population": 2,
        "dim": 3,
        "psl": {"candidates": 10, "model_steps": 5, "n_init": 4},
        "out_dir": str(tmp_path),
    })
    runner._run_one_seed(manifest, 0, tmp_path)
    assert calls == ([] if algorithm == "random" else [f"run_{algorithm}"])


LIBRARY = {
    "nsga2": lambda problem: run_nsga2(problem, NsgaConfig(population_size=4, generations=T), 1),
    "psl": lambda problem: run_psl(
        problem, PslConfig(generations=T, batch_size=4, n_candidates=10, n_init=4, model_steps=10), 1
    ),
    "random": lambda problem: run_random_search(problem, 4, T, 1),
}


# runner._build_problem is the one place a run's problem is built: a baseline
# manifest with its own reference point searches what the library call on the
# replaced problem searches
@pytest.mark.parametrize("algorithm", sorted(LIBRARY))
def test_runner_builds_the_runs_problem(tmp_path, algorithm):
    z = [2.0, 2.0, 0.9]
    manifest = runner.normalize_manifest({
        "algorithm": algorithm,
        "setting": "constrained_toy",
        "constraint_mode": "mofl-baseline",
        "ref_point": z,
        "seeds": [1],
        "generations": T,
        "population": 4,
        "psl": {"candidates": 10, "model_steps": 10, "n_init": 4},
        "out_dir": str(tmp_path),
    })
    got = runner._run_one_seed(manifest, 1, tmp_path)
    toy = constrained_toy_problem()
    want = LIBRARY[algorithm](
        dataclasses.replace(toy, constraints=toy.constraints.with_zero_penalties(), ref_point=np.array(z))
    )
    for column in ("genes", "raw", "penalized"):
        assert getattr(got.archive, column).tobytes() == getattr(want.archive, column).tobytes()
    assert got.records == want.records
