"""Experiment orchestration: manifests, seeded runs, artifacts, resume.

A run manifest (JSON) names the algorithm, the setting (an FL mechanism or
a benchmark), the constraint mode, seeds and budget.  `run_manifest`
executes one run per seed and writes byte-reproducible artifacts:

    manifest.json          normalized manifest echo
    trace.csv              seed,generation,hv_feasible,hv_all,feasible_count
    archive_seed<S>.json   every evaluation with raw/penalized objectives
    summary.json           mean/std HV per generation across seeds
    checkpoints/seed<S>.jsonl  per-generation state, enables resume

A checkpoint is append-only JSON lines and holds only what resume reads.
Its header line names the schema version, the run configuration's hash
and the seed.  Each completed generation appends one line: that
generation's record, the archive rows added since the previous line
(solutions, raw objectives and generations; penalties and feasibility are
derived from raw), and the engine's state (NSGA-II: the population's
archive indices; PSL: network weights and that generation's diagnostics;
random search: nothing).  Checkpoints survive completion; re-running the
same manifest (or one with a larger generation budget) resumes from the
last complete line, after cutting off a torn one; a smaller budget than
that line's generation is refused.  A checkpoint whose header does not
match starts the run afresh.
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
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from .bench import BENCHMARKS, get_benchmark
from .moo import Archive, ConstraintSpec, Problem
from .nsga2 import GenerationRecord, NsgaConfig, RunResult, run_nsga2, run_random_search
from .psl import PslConfig, run_psl
from .schema import SCHEMA_VERSION, TRACE_COLUMNS
from .settings import FL_SETTINGS, FlOptions, build_fl_problem

__all__ = [
    "read_manifest", "normalize_manifest", "finite_ref_point", "fl_options", "algorithm_config", "run_manifest",
    "load_front_file",
]

ALGORITHMS = ("nsga2", "psl", "random")
CONSTRAINT_MODES = ("cmofl", "mofl-baseline")
MANIFEST_KEYS = frozenset({
    "algorithm", "setting", "constraint_mode", "seeds", "generations", "population",
    "ref_point", "dim", "workers", "out_dir", "fl", "ga", "psl",
})

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
    _require(isinstance(fl, dict), "fl", "must be an object")
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


def read_manifest(path) -> dict:
    """The manifest JSON object stored at `path`."""
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except ValueError as exc:
            raise ManifestError(f"manifest {path}: not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ManifestError(f"manifest {path}: must be a JSON object, got {type(raw).__name__}")
    return raw


def finite_ref_point(values, name: str) -> np.ndarray:
    """`values` as a reference point; ValueError, naming `name` first,
    unless every component is finite."""
    z = np.asarray(values, dtype=float)
    if not np.isfinite(z).all():
        raise ValueError(f"{name} must be finite, got {list(values)!r}")
    return z


def normalize_manifest(raw: dict) -> dict:
    """Validate a manifest and fill in defaults (field-level errors)."""
    if not isinstance(raw, dict):
        raise ManifestError(f"manifest must be a JSON object, got {type(raw).__name__}")
    _reject_unknown(raw, MANIFEST_KEYS)

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

    if m.get("dim") is not None:
        _require(setting in BENCHMARKS, "dim", "only benchmarks take a dimension")
        m["dim"] = _integer(m, "dim", None, 2)

    if m.get("ref_point") is not None:
        rp = m["ref_point"]
        _require(isinstance(rp, list), "ref_point", "must be a list of numbers")
        m["ref_point"] = [_number(v, float, "ref_point") for v in rp]
        try:
            finite_ref_point(m["ref_point"], "ref_point")
        except ValueError as exc:
            raise _field_error("ref_point", str(exc).partition(" ")[2]) from None

    # the echo keeps only the given fl keys, with integer fields as integers
    fl = m.get("fl", {})
    opts, hints = fl_options(fl), typing.get_type_hints(FlOptions)
    m["fl"] = {k: getattr(opts, k) if hints[k] is int else v for k, v in fl.items()}

    for block, cls in _BLOCKS.values():
        fields = dataclasses.fields(cls)
        defaults = {_BLOCK_KEY.get(f.name, f.name): f.default for f in fields if f.name not in _TOP_LEVEL}
        given = m.get(block, {})
        _require(isinstance(given, dict), block, "must be an object")
        _reject_unknown(given, defaults, f"{block}.")
        m[block] = {**defaults, **given}
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
CHECKPOINT_FORMAT = 4


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


_SCALARS = frozenset({int, float, bool, type(None)})
_compact = json.JSONEncoder(separators=(",", ":")).encode  # the C encoder
_encode_str = json.encoder.encode_basestring_ascii


def _scalar(x) -> str:
    """json's text for None, a bool, an int or a float."""
    if x is None:
        return "null"
    if x is True or x is False:
        return "true" if x else "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if x != x:
        return "NaN"
    if x == float("inf") or x == float("-inf"):
        return "Infinity" if x > 0 else "-Infinity"
    return float.__repr__(x)


def _key(k) -> str:
    """A dict key as json writes it, before quoting."""
    if isinstance(k, str):
        return k
    if k is None or isinstance(k, (int, float)):
        return _scalar(k)
    raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")


def _pretty(obj, level: int) -> str:
    """`json.dumps(obj, sort_keys=True, indent=1, default=_json_default)`,
    nested `level` deep.

    json's indenting encoder is pure Python.  A list of numbers, or of
    nonempty rows of numbers, is written by one call to the C encoder
    instead; its text then holds no `,`, `[` or `]` but its separators and
    brackets, so `str.replace` can indent it.
    """
    if isinstance(obj, str):
        return _encode_str(obj)
    if obj is None or isinstance(obj, (int, float)):
        return _scalar(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner, outer = "\n" + " " * (level + 1), "\n" + " " * level
        types = set(map(type, obj))
        if types <= _SCALARS:
            body = _compact(obj)[1:-1].replace(",", "," + inner)
        elif types <= {list, tuple} and all(obj) and set(map(type, chain.from_iterable(obj))) <= _SCALARS:
            row = inner + " "
            body = (
                _compact(obj)[1:-1]
                .replace("],[", "]\0[")
                .replace(",", "," + row)
                .replace("\0", "," + inner)
                .replace("[", "[" + row)
                .replace("]", inner + "]")
            )
        else:
            body = ("," + inner).join(_pretty(v, level + 1) for v in obj)
        return "[" + inner + body + outer + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner, outer = "\n" + " " * (level + 1), "\n" + " " * level
        body = ("," + inner).join(
            _encode_str(_key(k)) + ": " + _pretty(v, level + 1) for k, v in sorted(obj.items())
        )
        return "{" + inner + body + outer + "}"
    return _pretty(_json_default(obj), level)


def _dump_json(path: Path, obj) -> None:
    """Write `obj` as `json.dumps(obj, sort_keys=True, indent=1, default=_json_default)` does."""
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(_pretty(obj, 0) + "\n")
    os.replace(tmp, path)


def _archive_to_dict(archive: Archive, start: int = 0) -> dict:
    """The archive columns a checkpoint stores and resume reads, from row `start` on."""
    return {
        "solutions": archive.genes[start:].tolist(),
        "raw": archive.raw[start:].tolist(),
        "generation": archive.generation[start:].tolist(),
    }


def _archive_from_dict(d: dict, constraints: ConstraintSpec) -> Archive:
    archive = Archive(constraints=constraints)
    archive.append_batch(d["solutions"], d["raw"], d["generation"])
    return archive


def _read_checkpoint(path: Path) -> tuple[list[dict], int]:
    """The complete lines of a checkpoint file, parsed, and the byte length
    they span.  Reading stops at a torn or unreadable line."""
    lines, end = [], 0
    data = path.read_bytes() if path.exists() else b""
    while (stop := data.find(b"\n", end)) >= 0:
        try:
            lines.append(json.loads(data[end:stop]))
        except ValueError:
            break
        end = stop + 1
    return lines, end


def _json_line(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=_json_default) + "\n"


def _run_one_seed(manifest: dict, seed: int, out: Path) -> RunResult:
    """Run one seed; rebuilds its own Problem, so it can run in a worker process."""
    problem = _build_problem(manifest)
    constraints = _constraints_for_mode(problem, manifest["constraint_mode"])
    z = _ref_point(manifest, problem)
    algo = manifest["algorithm"]
    T = manifest["generations"]
    ckpt_dir = out / "checkpoints"
    ckpt_dir.mkdir(parents=True, exist_ok=True)
    ckpt_path = ckpt_dir / f"seed{seed}.jsonl"
    header = {"schema_version": SCHEMA_VERSION, "core_hash": _core_hash(manifest), "seed": seed}

    resume = None
    lines, end = _read_checkpoint(ckpt_path)
    if lines and lines[0] == header:
        done = lines[-1].get("generation", 0)
        _require(
            done <= T,
            "generations",
            f"{T} is below the generation of checkpoint {ckpt_path} ({done}); "
            "raise it or use another out_dir",
        )
        with open(ckpt_path, "r+b") as fh:
            fh.truncate(end)  # drop a torn last line
        if done:
            gens = lines[1:]
            resume = {
                "generation": done,
                "archive": _archive_from_dict(
                    {k: [row for g in gens for row in g["archive"][k]] for k in gens[0]["archive"]},
                    constraints,
                ),
                "records": [GenerationRecord(**g["record"]) for g in gens],
                "states": [g["state"] for g in gens],
            }
    else:
        ckpt_path.write_text(_json_line(header))
    written = len(resume["archive"]) if resume else 0

    def checkpoint(t: int, archive: Archive, records: list, state: dict) -> None:
        """Append generation t: its record, the rows added since the last
        line and the engine state."""
        nonlocal written
        line = _json_line({
            "generation": t,
            "record": dataclasses.asdict(records[-1]),
            "archive": _archive_to_dict(archive, written),
            "state": state,
        })
        with open(ckpt_path, "a") as fh:
            fh.write(line)
        written = len(archive)

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
