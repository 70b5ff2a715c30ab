"""Experiment orchestration: manifests, seeded runs, artifacts, resume.

A run manifest (JSON) names the algorithm, the setting (an FL mechanism or
a benchmark), the constraint mode, seeds and budget.  `run_manifest`
executes one run per seed and writes byte-reproducible artifacts:

    manifest.json          normalized manifest echo
    trace.csv              seed,generation,hv_feasible,hv_all,feasible_count
    archive_seed<S>.json   every evaluation with raw/penalized objectives
    summary.json           mean/std HV per generation across seeds
    checkpoints/seed<S>.json   per-generation state, enables resume

A checkpoint holds only what resume reads: the records, the archive's
solutions, raw objectives and generations (penalties and feasibility are
derived from raw), and the engine's state (NSGA-II: population and its
archive indices; PSL: network weights and diagnostics; random search:
nothing).  Checkpoints survive completion; re-running the same manifest
(or one with a larger generation budget) resumes from the last completed
generation.
"""

from __future__ import annotations

import concurrent.futures
import csv
import dataclasses
import hashlib
import json
import numbers
import os
import types
import typing
from itertools import repeat
from pathlib import Path

import numpy as np

from .bench import BENCHMARKS, get_benchmark
from .moo import Archive, ConstraintSpec, Problem
from .nsga2 import GenerationRecord, NsgaConfig, RunResult, run_nsga2, run_random_search
from .psl import PslConfig, run_psl
from .schema import SCHEMA_VERSION, TRACE_COLUMNS
from .settings import FL_SETTINGS, FlOptions, build_fl_problem

__all__ = ["normalize_manifest", "fl_options", "algorithm_config", "run_manifest", "load_front_file"]

ALGORITHMS = ("nsga2", "psl", "random")
CONSTRAINT_MODES = ("cmofl", "mofl-baseline")

# An algorithm's manifest block holds its config class's fields, less those
# the manifest sets at top level, and under one rename
_BLOCKS = {"nsga2": ("ga", NsgaConfig), "psl": ("psl", PslConfig)}
_TOP_LEVEL = {"population_size": "population", "batch_size": "population", "generations": "generations"}
_BLOCK_KEY = {"n_candidates": "candidates"}


class ManifestError(ValueError):
    """Invalid manifest; the message names the offending field."""


def _field_error(field: str, msg: str) -> ManifestError:
    return ManifestError(f"manifest field {field!r}: {msg}")


def _require(cond: bool, field: str, msg: str) -> None:
    if not cond:
        raise _field_error(field, msg)


def _reject_unknown(given: dict, known, prefix: str = "") -> None:
    extra = sorted(set(given) - set(known))
    _require(not extra, ",".join(prefix + k for k in extra), "unknown field(s)")


def _coerce(value, hint):
    """A JSON value as a config field annotated `hint` takes it."""
    if isinstance(hint, types.UnionType):  # `int | None`
        return None if value is None else _coerce(value, typing.get_args(hint)[0])
    if typing.get_origin(hint) is tuple:
        return tuple(_coerce(v, typing.get_args(hint)[0]) for v in value)
    if hint in (int, float):
        # JSON numbers only, integral for int; a bool is also a numbers.Real
        number = isinstance(value, numbers.Real) and not isinstance(value, bool)
        if not number or (hint is int and not float(value).is_integer()):
            raise ValueError(f"must be {'an integer' if hint is int else 'a number'}, got {value!r}")
        return hint(value)
    if hint is bool and not isinstance(value, bool):
        raise ValueError(f"must be true or false, got {value!r}")
    return value


def _number(value, hint, field: str):
    """A top-level JSON number by `_coerce`'s rule; errors name `field`."""
    try:
        return _coerce(value, hint)
    except ValueError as exc:
        raise _field_error(field, str(exc)) from None


def _integer(m: dict, field: str, default, lo: int) -> int:
    """Top-level integer `field` of manifest `m`, by `_coerce`'s rule, >= lo."""
    value = _number(m.get(field, default), int, field)
    _require(value >= lo, field, f"must be >= {lo}")
    return value


def _config(cls, values: dict, field_name):
    """Build config `cls` from JSON `values`; errors name `field_name(field)`.

    The classes' own checks raise ValueError with the field's name first.
    """
    hints = typing.get_type_hints(cls)
    _reject_unknown(values, hints, field_name(""))  # field_name("") is the block prefix
    kwargs = {}
    for name, value in values.items():
        try:
            kwargs[name] = _coerce(value, hints[name])
        except (TypeError, ValueError) as exc:
            raise _field_error(field_name(name), str(exc)) from None
    try:
        return cls(**kwargs)
    except ValueError as exc:
        name, _, msg = str(exc).partition(" ")
        raise _field_error(field_name(name), msg) from None


def fl_options(fl: dict) -> FlOptions:
    """A manifest's `fl` block as FlOptions; errors name the `fl.*` field."""
    return _config(FlOptions, fl, lambda name: f"fl.{name}")


def algorithm_config(manifest: dict) -> NsgaConfig | PslConfig | None:
    """The chosen algorithm's config from a normalized manifest; None for random."""
    if manifest["algorithm"] not in _BLOCKS:
        return None
    block, cls = _BLOCKS[manifest["algorithm"]]
    field_of = {key: name for name, key in _BLOCK_KEY.items()}
    values = {f.name: manifest[_TOP_LEVEL[f.name]] for f in dataclasses.fields(cls) if f.name in _TOP_LEVEL}
    values.update((field_of.get(k, k), v) for k, v in manifest[block].items())
    return _config(cls, values, lambda name: _TOP_LEVEL.get(name) or f"{block}.{_BLOCK_KEY.get(name, name)}")


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
    _require(isinstance(seeds, list) and seeds, "seeds", "must be a nonempty list of nonnegative integers")
    m["seeds"] = seeds = [_number(s, int, "seeds") for s in seeds]
    _require(min(seeds) >= 0, "seeds", "must be a nonempty list of nonnegative integers")
    _require(len(set(seeds)) == len(seeds), "seeds", "must not repeat")
    m["generations"] = _integer(m, "generations", 20, 0)
    m["population"] = _integer(m, "population", 20, 1)
    m["workers"] = _integer(m, "workers", 1, 1)
    m["out_dir"] = str(m.get("out_dir", "runs/out"))
    m["checkpoint_every"] = _integer(m, "checkpoint_every", 1, 1)

    if m.get("dim") is not None:
        _require(setting in BENCHMARKS, "dim", "only benchmarks take a dimension")
        m["dim"] = _integer(m, "dim", None, 2)

    if m.get("ref_point") is not None:
        rp = m["ref_point"]
        _require(isinstance(rp, list), "ref_point", "must be a list of numbers")
        m["ref_point"] = [_number(v, float, "ref_point") for v in rp]
        _require(all(np.isfinite(m["ref_point"])), "ref_point", f"must be finite, got {rp!r}")

    # the echo keeps only the given fl keys, with integer fields as integers
    fl = m.get("fl", {})
    opts, hints = fl_options(fl), typing.get_type_hints(FlOptions)
    m["fl"] = {k: getattr(opts, k) if hints[k] is int else v for k, v in fl.items()}

    for block, cls in _BLOCKS.values():
        fields = dataclasses.fields(cls)
        defaults = {_BLOCK_KEY.get(f.name, f.name): f.default for f in fields if f.name not in _TOP_LEVEL}
        _reject_unknown(m.get(block, {}), defaults, f"{block}.")
        m[block] = {**defaults, **m.get(block, {})}
    algorithm_config(m)
    return m


def _build_problem(manifest: dict) -> Problem:
    if manifest["setting"] in BENCHMARKS:
        return get_benchmark(manifest["setting"], manifest.get("dim"))
    return build_fl_problem(manifest["setting"], fl_options(manifest["fl"]))


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
    return np.asarray(problem.ref_point, dtype=float)


# hashed into core_hash, so a checkpoint in an older layout starts the run afresh
CHECKPOINT_FORMAT = 2


def _core_hash(manifest: dict) -> str:
    """Hash of run-defining fields; budget/output/worker fields excluded."""
    core = {
        k: manifest[k]
        for k in ("algorithm", "setting", "constraint_mode", "population", "dim", "fl", "ga", "psl", "ref_point")
        if k in manifest
    }
    core["checkpoint_format"] = CHECKPOINT_FORMAT
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
    """The archive columns a checkpoint stores and resume reads."""
    return {
        "solutions": archive.genes.tolist(),
        "raw": archive.raw.tolist(),
        "generation": archive.generation.tolist(),
    }


def _archive_from_dict(d: dict, constraints: ConstraintSpec) -> Archive:
    archive = Archive(constraints=constraints)
    archive.append_batch(d["solutions"], d["raw"], d["generation"])
    return archive


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
                "records": [GenerationRecord(**row) for row in snap["records"]],
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
                "records": [dataclasses.asdict(r) for r in records],
                "archive": _archive_to_dict(archive),
                "state": state,
            },
        )

    cfg = algorithm_config(manifest)
    run = dict(constraints=constraints, ref_point=z, on_generation=checkpoint, resume=resume)
    if cfg is None:
        return run_random_search(problem, manifest["population"], T, seed, **run)
    return (run_nsga2 if algo == "nsga2" else run_psl)(problem, cfg, seed, **run)


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
                "penalized": res.archive.penalized.tolist(),
                "feasible": res.archive.feasible.tolist(),
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
