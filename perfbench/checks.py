"""Output checks on one flpareto output tree, and the tree's digest.

A failed check marks the invocation that wrote the tree as failed, which
feeds the benchmark's failure count.  Each check reads the artifacts
themselves and compares them with the budget the benchmark asked for.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

from workloads import budget


def tree_digest(root: Path) -> str:
    """SHA-256 over every file under root: relative path, then content."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def check_tree(tree: Path, manifest: dict) -> list[str]:
    """Problems found in the output tree of `manifest`; empty when sound."""
    evaluations, rows = budget(manifest)
    problems = []
    try:
        for seed in manifest["seeds"]:
            archive = json.loads((tree / f"archive_seed{seed}.json").read_text())
            n = len(archive["raw"])
            if n != evaluations:
                problems.append(f"seed {seed}: archive holds {n} evaluations, budget is {evaluations}")
            if any(len(archive[k]) != n for k in ("solutions", "penalized", "feasible", "generation")):
                problems.append(f"seed {seed}: archive columns differ in length")
            values = [v for row in archive["raw"] + archive["penalized"] for v in row]
            if not all(math.isfinite(v) for v in values):
                problems.append(f"seed {seed}: archive holds a non-finite objective")
        with open(tree / "trace.csv", newline="") as fh:
            trace = list(csv.DictReader(fh))
        for seed in manifest["seeds"]:
            hv = [float(r["hv_feasible"]) for r in trace if int(r["seed"]) == seed]
            if len(hv) != rows:
                problems.append(f"seed {seed}: trace.csv has {len(hv)} rows, expected {rows}")
            if any(b < a for a, b in zip(hv, hv[1:])):
                problems.append(f"seed {seed}: hv_feasible decreases")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems.append(f"unreadable output: {exc!r}")
    return problems


def final_hv(tree: Path) -> dict[str, float]:
    """Final feasible hypervolume per seed, as summary.json reports it."""
    final = json.loads((tree / "summary.json").read_text())["final"]
    return {seed: entry["hv_feasible"] for seed, entry in final.items()}
