"""Command-line entry points: optimize, evaluate, hv, benchmark.

    flpareto optimize  --config run.json [--seed N ...] [--workers N]
                       [--out DIR] [--baseline]
    flpareto evaluate  --setting rd --seed 0 --param lr=0.1 --param sigma_rd=0.5 ...
    flpareto hv        --file front.json --ref 3 3
    flpareto benchmark --name zdt1 --algorithm nsga2 [--seed N ...] ...

Environment overrides: FLPARETO_OUT (output directory) and FLPARETO_WORKERS
(an integer: seeds run at once, one process each, capped at the seed count;
evaluations within a seed run serially).  CLI flags beat both.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .bench import BENCHMARKS
from .moo import EvaluationError, hypervolume
from .runner import ALGORITHMS, ManifestError, fl_options, load_front_file, read_manifest, run_manifest
from .settings import FL_SETTINGS, build_space, make_run_config
from .flsim import flo_evaluate

__all__ = ["main"]


def _apply_common_overrides(manifest: dict, args) -> dict:
    if os.environ.get("FLPARETO_OUT"):
        manifest["out_dir"] = os.environ["FLPARETO_OUT"]
    if os.environ.get("FLPARETO_WORKERS"):
        value = os.environ["FLPARETO_WORKERS"]
        try:
            manifest["workers"] = int(value)
        except ValueError:
            raise ValueError(f"FLPARETO_WORKERS must be an integer, got {value!r}") from None
    if args.seed:
        manifest["seeds"] = list(args.seed)
    if args.workers is not None:
        manifest["workers"] = args.workers
    if args.out is not None:
        manifest["out_dir"] = args.out
    if getattr(args, "baseline", False):
        manifest["constraint_mode"] = "mofl-baseline"
    return manifest


def _cmd_optimize(args) -> int:
    manifest = _apply_common_overrides(read_manifest(args.config), args)
    paths = run_manifest(manifest)
    print(json.dumps(paths, indent=1, sort_keys=True))
    return 0


def _cmd_benchmark(args) -> int:
    manifest = {
        "algorithm": args.algorithm,
        "setting": args.name,
        "seeds": list(args.seed) if args.seed else [0],
        "out_dir": args.out or f"runs/{args.name}-{args.algorithm}",
    }
    for key in ("generations", "population", "dim"):
        if getattr(args, key) is not None:
            manifest[key] = getattr(args, key)
    manifest = _apply_common_overrides(manifest, args)
    paths = run_manifest(manifest)
    print(json.dumps(paths, indent=1, sort_keys=True))
    return 0


def _parse_params(pairs: list[str]) -> dict:
    values: dict = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"--param expects name=value, got {pair!r}")
        name, _, val = pair.partition("=")
        try:
            num = float(val)
            values[name] = int(num) if num.is_integer() and "." not in val else num
        except ValueError:
            values[name] = val
    return values


def _cmd_evaluate(args) -> int:
    if args.seed < 0:
        raise ValueError(f"--seed must be a nonnegative integer, got {args.seed}")
    opts = fl_options(read_manifest(args.config).get("fl", {}) if args.config else {})
    space = build_space(args.setting, opts.width_max)
    values = _parse_params(args.param or [])
    space.validate(values)
    cfg = make_run_config(args.setting, values, opts, args.seed)
    result = flo_evaluate(cfg)
    print(" ".join(f"{k}={getattr(result, k)!r}" for k in ("eps_u", "eps_p", "eps_c", "accuracy", "diverged")))
    return 0


def _cmd_hv(args) -> int:
    Y, feasible = load_front_file(args.file)
    z = np.asarray(args.ref, dtype=float)
    if Y.size and Y.shape[1] != z.shape[0]:
        raise ValueError(
            f"front has {Y.shape[1]} objectives but --ref gives {z.shape[0]}"
        )
    if feasible is not None:
        Y = Y[feasible]
    above = int(np.sum(~np.all(Y <= z, axis=1))) if Y.size else 0
    if above:
        print(f"warning: {above} point(s) exceed the reference and were excluded", file=sys.stderr)
    print(repr(hypervolume(Y, z)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flpareto",
        description="Pareto trade-off search for privacy, utility and cost in simulated federated learning",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--seed", type=int, action="append", help="run seed (repeatable)")
        p.add_argument("--workers", type=int, default=None)
        p.add_argument("--out", type=str, default=None)

    p_opt = sub.add_parser("optimize", help="run a manifest of seeded optimizations")
    p_opt.add_argument("--config", required=True, help="manifest JSON path")
    add_common(p_opt)
    p_opt.add_argument("--baseline", action="store_true", help="force all penalty coefficients to 0")
    p_opt.set_defaults(func=_cmd_optimize)

    p_ev = sub.add_parser("evaluate", help="single federated evaluation of explicit hyperparameters")
    p_ev.add_argument("--setting", required=True, choices=FL_SETTINGS)
    p_ev.add_argument("--param", action="append", help="name=value (repeatable)")
    p_ev.add_argument("--config", default=None, help="optional manifest JSON supplying fl options")
    p_ev.add_argument("--seed", type=int, default=0, help="evaluation seed")
    p_ev.set_defaults(func=_cmd_evaluate)

    p_hv = sub.add_parser("hv", help="exact hypervolume of a stored front")
    p_hv.add_argument("--file", required=True)
    p_hv.add_argument("--ref", type=float, nargs="+", required=True)
    p_hv.set_defaults(func=_cmd_hv)

    p_b = sub.add_parser("benchmark", help="optimize a named benchmark without a config file")
    p_b.add_argument("--name", required=True, choices=sorted(BENCHMARKS))
    p_b.add_argument("--algorithm", default="nsga2", choices=ALGORITHMS)
    p_b.add_argument("--generations", type=int, default=None)
    p_b.add_argument("--population", type=int, default=None)
    p_b.add_argument("--dim", type=int, default=None)
    add_common(p_b)
    p_b.add_argument("--baseline", action="store_true")
    p_b.set_defaults(func=_cmd_benchmark)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ManifestError, ValueError, OSError, EvaluationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
