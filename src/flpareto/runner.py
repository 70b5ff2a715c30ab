"""Experiment orchestration: manifests, seeded runs, artifacts, resume.

A run manifest (JSON) names the algorithm, the setting (an FL mechanism or
a benchmark), the constraint mode, seeds and budget.  `run_manifest`
executes one run per seed and writes byte-reproducible artifacts:

    manifest.json          normalized manifest echo
    trace.csv              seed,generation,hv_feasible,hv_all,feasible_count
    archive_seed<S>.json   every evaluation with raw/penalized objectives
    summary.json           mean/std HV per generation across seeds
    checkpoints/seed<S>.json   per-generation state, enables resume

Checkpoints survive completion; re-running the same manifest (or one with
a larger generation budget) resumes from the last completed generation.
"""

from __future__ import annotations

import concurrent.futures
import csv
import hashlib
import json
import os
from itertools import repeat
from pathlib import Path

import numpy as np

from .bench import BENCHMARKS, get_benchmark
from .moo import Archive, ConstraintSpec, Problem
from .nsga2 import GenerationRecord, NsgaConfig, RunResult, run_nsga2, run_random_search
from .psl import PslConfig, run_psl
from .schema import SCHEMA_VERSION, TRACE_COLUMNS
from .settings import FL_OPTION_KEYS, FL_SETTINGS, build_fl_problem, default_ref_point

__all__ = ["normalize_manifest", "check_fl_options", "run_manifest", "load_front_file"]

ALGORITHMS = ("nsga2", "psl", "random")
CONSTRAINT_MODES = ("cmofl", "mofl-baseline")

_GA_DEFAULTS = {
    "crossover_prob": 0.9,
    "mutation_prob": 0.1,
    "eta_crossover": 2.0,
    "eta_mutation": 20.0,
    "chromosome": "real",
    "bits_per_var": 12,
}
_PSL_DEFAULTS = {
    "n_init": None,
    "candidates": 1000,
    "model_steps": 1000,
    "model_lr": 1e-5,
    "model_batch": 16,
    "lcb_beta": 0.1,
    "hidden": [64, 64],
    "warm_start": True,
    "hvi_use_penalized": True,
}


class ManifestError(ValueError):
    """Invalid manifest; the message names the offending field."""


def _require(cond: bool, field: str, msg: str) -> None:
    if not cond:
        raise ManifestError(f"manifest field {field!r}: {msg}")


def _reject_unknown(given: dict, known, prefix: str = "") -> None:
    extra = sorted(set(given) - set(known))
    _require(not extra, ",".join(prefix + k for k in extra), "unknown field(s)")


def check_fl_options(fl: dict) -> dict:
    """Validate a manifest's `fl` block: known keys, integer fields >= their bounds."""
    fl = dict(fl)
    _reject_unknown(fl, FL_OPTION_KEYS, "fl.")
    for key, lo in (("clients", 1), ("rounds", 0), ("local_epochs", 1), ("batch_size", 1), ("width_max", 1)):
        if key in fl:
            fl[key] = int(fl[key])
            _require(fl[key] >= lo, f"fl.{key}", f"must be >= {lo}")
    return fl


def normalize_manifest(raw: dict) -> dict:
    """Validate a manifest and fill in defaults (field-level errors)."""
    known = {
        "algorithm", "setting", "constraint_mode", "seeds", "generations",
        "population", "ref_point", "dim", "workers", "out_dir", "fl", "ga",
        "psl", "checkpoint_every",
    }
    _reject_unknown(raw, known)

    m = dict(raw)
    _require(m.get("algorithm") in ALGORITHMS, "algorithm", f"must be one of {ALGORITHMS}")
    setting = m.get("setting")
    valid_settings = tuple(FL_SETTINGS) + tuple(sorted(BENCHMARKS))
    _require(setting in valid_settings, "setting", f"must be one of {valid_settings}")
    m["constraint_mode"] = m.get("constraint_mode", "cmofl")
    _require(
        m["constraint_mode"] in CONSTRAINT_MODES,
        "constraint_mode",
        f"must be one of {CONSTRAINT_MODES}",
    )
    seeds = m.get("seeds")
    _require(
        isinstance(seeds, list) and seeds and all(isinstance(s, int) and s >= 0 for s in seeds),
        "seeds",
        "must be a nonempty list of nonnegative integers",
    )
    _require(len(set(seeds)) == len(seeds), "seeds", "must not repeat")
    m["generations"] = int(m.get("generations", 20))
    _require(m["generations"] >= 0, "generations", "must be >= 0")
    m["population"] = int(m.get("population", 20))
    _require(m["population"] >= 1, "population", "must be >= 1")
    if m["algorithm"] == "nsga2":
        _require(m["population"] >= 2, "population", "must be >= 2 for nsga2")
    m["workers"] = int(m.get("workers", 1))
    _require(m["workers"] >= 1, "workers", "must be >= 1")
    m["out_dir"] = str(m.get("out_dir", "runs/out"))
    m["checkpoint_every"] = int(m.get("checkpoint_every", 1))
    _require(m["checkpoint_every"] >= 1, "checkpoint_every", "must be >= 1")

    if m.get("dim") is not None:
        _require(setting in BENCHMARKS, "dim", "only benchmarks take a dimension")
        m["dim"] = int(m["dim"])
        _require(m["dim"] >= 2, "dim", "must be >= 2")

    if m.get("ref_point") is not None:
        rp = m["ref_point"]
        _require(
            isinstance(rp, list) and all(isinstance(v, (int, float)) for v in rp),
            "ref_point",
            "must be a list of numbers",
        )
        m["ref_point"] = [float(v) for v in rp]

    m["fl"] = check_fl_options(m.get("fl", {}))

    for block, defaults in (("ga", _GA_DEFAULTS), ("psl", _PSL_DEFAULTS)):
        _reject_unknown(m.get(block, {}), defaults, f"{block}.")
        m[block] = {**defaults, **m.get(block, {})}
    ga = m["ga"]
    _require(ga["chromosome"] in ("real", "binary"), "ga.chromosome", "must be 'real' or 'binary'")
    for key in ("crossover_prob", "mutation_prob"):
        _require(0.0 <= float(ga[key]) <= 1.0, f"ga.{key}", "must lie in [0, 1]")
    _require(int(m["psl"]["candidates"]) >= m["population"], "psl.candidates", "must be >= population")
    return m


def _build_problem(manifest: dict) -> Problem:
    if manifest["setting"] in BENCHMARKS:
        return get_benchmark(manifest["setting"], manifest.get("dim"))
    return build_fl_problem(manifest["setting"], manifest["fl"])


def _constraints_for_mode(problem: Problem, mode: str) -> ConstraintSpec:
    return problem.constraints.with_zero_penalties() if mode == "mofl-baseline" else problem.constraints


def _ref_point(manifest: dict, problem: Problem) -> np.ndarray:
    if manifest.get("ref_point") is not None:
        z = np.asarray(manifest["ref_point"], dtype=float)
        if z.shape != (problem.n_obj,):
            raise ManifestError(
                f"manifest field 'ref_point': needs {problem.n_obj} components for setting "
                f"{manifest['setting']!r}"
            )
        return z
    if manifest["setting"] in FL_SETTINGS:
        return default_ref_point(manifest["setting"], manifest["fl"])
    return np.asarray(problem.ref_point, dtype=float)


def _core_hash(manifest: dict) -> str:
    """Hash of run-defining fields; budget/output/worker fields excluded."""
    core = {
        k: manifest[k]
        for k in ("algorithm", "setting", "constraint_mode", "population", "dim", "fl", "ga", "psl", "ref_point")
        if k in manifest
    }
    blob = json.dumps(core, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _json_default(obj):
    """json's hook for what it cannot encode: numpy arrays and scalars."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _dump_json(path: Path, obj) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(obj, sort_keys=True, indent=1, default=_json_default) + "\n")
    os.replace(tmp, path)


def _archive_to_dict(archive: Archive) -> dict:
    return {
        "solutions": archive.genes.tolist(),
        "raw": archive.raw.tolist(),
        "penalized": archive.penalized.tolist(),
        "feasible": archive.feasible.tolist(),
        "generation": archive.generation.tolist(),
    }


def _archive_from_dict(d: dict, constraints: ConstraintSpec) -> Archive:
    archive = Archive(constraints=constraints)
    archive.append_batch(d["solutions"], d["raw"], d["generation"])
    return archive


def _records_to_list(records: list[GenerationRecord]) -> list[dict]:
    return [
        {
            "generation": r.generation,
            "hv_feasible": r.hv_feasible,
            "hv_all": r.hv_all,
            "feasible_count": r.feasible_count,
            "best": list(r.best),
            "evaluations": r.evaluations,
        }
        for r in records
    ]


def _records_from_list(rows: list[dict]) -> list[GenerationRecord]:
    return [
        GenerationRecord(
            generation=int(r["generation"]),
            hv_feasible=float(r["hv_feasible"]),
            hv_all=float(r["hv_all"]),
            feasible_count=int(r["feasible_count"]),
            best=tuple(float(v) for v in r["best"]),
            evaluations=int(r["evaluations"]),
        )
        for r in rows
    ]


def _run_one_seed(manifest: dict, seed: int, out: Path) -> RunResult:
    """Run one seed; rebuilds its own Problem, so it can run in a worker process."""
    problem = _build_problem(manifest)
    constraints = _constraints_for_mode(problem, manifest["constraint_mode"])
    z = _ref_point(manifest, problem)
    algo = manifest["algorithm"]
    T = manifest["generations"]
    ckpt_dir = out / "checkpoints"
    ckpt_dir.mkdir(parents=True, exist_ok=True)
    ckpt_path = ckpt_dir / f"seed{seed}.json"
    core = _core_hash(manifest)

    resume = None
    if ckpt_path.exists():
        snap = json.loads(ckpt_path.read_text())
        if snap.get("core_hash") == core and snap.get("generation", 0) <= T:
            resume = {
                "generation": int(snap["generation"]),
                "archive": _archive_from_dict(snap["archive"], constraints),
                "records": _records_from_list(snap["records"]),
                "state": snap["state"],
            }

    every = manifest["checkpoint_every"]

    def checkpoint(t: int, archive: Archive, records: list, state: dict) -> None:
        if t % every and t != T:
            return
        _dump_json(
            ckpt_path,
            {
                "schema_version": SCHEMA_VERSION,
                "core_hash": core,
                "seed": seed,
                "generation": t,
                "records": _records_to_list(records),
                "archive": _archive_to_dict(archive),
                "state": state,
            },
        )

    if algo == "nsga2":
        cfg = NsgaConfig(
            population_size=manifest["population"],
            generations=T,
            crossover_prob=float(manifest["ga"]["crossover_prob"]),
            mutation_prob=float(manifest["ga"]["mutation_prob"]),
            eta_crossover=float(manifest["ga"]["eta_crossover"]),
            eta_mutation=float(manifest["ga"]["eta_mutation"]),
            chromosome=manifest["ga"]["chromosome"],
            bits_per_var=int(manifest["ga"]["bits_per_var"]),
        )
        return run_nsga2(
            problem, cfg, seed, constraints=constraints, ref_point=z,
            on_generation=checkpoint, resume=resume,
        )
    if algo == "psl":
        p = manifest["psl"]
        cfg = PslConfig(
            generations=T,
            batch_size=manifest["population"],
            n_candidates=int(p["candidates"]),
            n_init=None if p["n_init"] is None else int(p["n_init"]),
            model_steps=int(p["model_steps"]),
            model_lr=float(p["model_lr"]),
            model_batch=int(p["model_batch"]),
            hidden=tuple(int(h) for h in p["hidden"]),
            lcb_beta=float(p["lcb_beta"]),
            warm_start=bool(p["warm_start"]),
            hvi_use_penalized=bool(p["hvi_use_penalized"]),
        )
        return run_psl(
            problem, cfg, seed, constraints=constraints, ref_point=z,
            on_generation=checkpoint, resume=resume,
        )
    return run_random_search(
        problem, manifest["population"], T, seed,
        constraints=constraints, ref_point=z,
        on_generation=checkpoint, resume=resume,
    )


def _write_trace(path: Path, per_seed: dict[int, list[GenerationRecord]]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TRACE_COLUMNS)
        for seed, records in per_seed.items():
            for r in records:
                writer.writerow(
                    [
                        seed,
                        r.generation,
                        repr(float(r.hv_feasible)),
                        repr(float(r.hv_all)),
                        r.feasible_count,
                    ]
                )


def _write_summary(path: Path, manifest: dict, results: dict[int, RunResult]) -> None:
    seeds = list(results)
    T = manifest["generations"]
    per_gen = []
    for t in range(1, T + 1):
        hv_f = [results[s].records[t - 1].hv_feasible for s in seeds]
        hv_a = [results[s].records[t - 1].hv_all for s in seeds]
        fc = [results[s].records[t - 1].feasible_count for s in seeds]
        per_gen.append(
            {
                "generation": t,
                "hv_feasible_mean": float(np.mean(hv_f)),
                "hv_feasible_std": float(np.std(hv_f)),
                "hv_all_mean": float(np.mean(hv_a)),
                "hv_all_std": float(np.std(hv_a)),
                "feasible_count_mean": float(np.mean(fc)),
            }
        )
    final = {
        str(s): {
            "hv_feasible": results[s].records[-1].hv_feasible if results[s].records else None,
            "best_per_objective": list(results[s].records[-1].best) if results[s].records else None,
            "evaluations": len(results[s].archive),
        }
        for s in seeds
    }
    _dump_json(
        path,
        {
            "schema_version": SCHEMA_VERSION,
            "constraint_mode": manifest["constraint_mode"],
            "per_generation": per_gen,
            "final": final,
        },
    )


def run_manifest(manifest: dict) -> dict:
    """Execute every seed of a normalized manifest; returns artifact paths."""
    manifest = normalize_manifest(manifest)
    out = Path(manifest["out_dir"])
    out.mkdir(parents=True, exist_ok=True)

    # seeds are the only parallel axis; concurrent.futures imports its process
    # pool (and multiprocessing) on first use, so serial runs never load it
    seeds = manifest["seeds"]
    workers = min(manifest["workers"], len(seeds))
    if workers == 1:
        runs = [_run_one_seed(manifest, seed, out) for seed in seeds]
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            runs = list(pool.map(_run_one_seed, repeat(manifest), seeds, repeat(out)))
    results: dict[int, RunResult] = dict(zip(seeds, runs))

    # out_dir and workers are execution details that must not break the
    # byte-identical-artifacts guarantee, so the echo omits them
    echo = {k: v for k, v in manifest.items() if k not in ("out_dir", "workers")}
    _dump_json(out / "manifest.json", {"schema_version": SCHEMA_VERSION, **echo})
    _write_trace(out / "trace.csv", {s: r.records for s, r in results.items()})
    for seed, res in results.items():
        _dump_json(
            out / f"archive_seed{seed}.json",
            {
                "schema_version": SCHEMA_VERSION,
                "seed": seed,
                **_archive_to_dict(res.archive),
                "front_indices": res.archive.front_indices(),
                "population_indices": list(res.population_indices),
            },
        )
    _write_summary(out / "summary.json", manifest, results)
    paths = {
        "manifest": str(out / "manifest.json"),
        "trace": str(out / "trace.csv"),
        "summary": str(out / "summary.json"),
        "archives": [str(out / f"archive_seed{s}.json") for s in manifest["seeds"]],
    }
    return paths


def load_front_file(path) -> tuple[np.ndarray, np.ndarray | None]:
    """Read objective vectors from an archive JSON or a bare list file.

    Returns (raw objectives, feasible mask or None for bare lists).
    """
    payload = json.loads(Path(path).read_text())
    if isinstance(payload, dict):
        if "raw" not in payload:
            raise ValueError(f"{path}: archive file lacks a 'raw' field")
        Y = np.asarray(payload["raw"], dtype=float)
        feas = (
            np.asarray(payload["feasible"], dtype=bool)
            if "feasible" in payload
            else None
        )
        return Y, feas
    if not payload:
        return np.empty((0, 0)), None
    Y = np.asarray(payload, dtype=float)
    if Y.ndim != 2:
        raise ValueError(f"{path}: expected a list of objective vectors")
    return Y, None
