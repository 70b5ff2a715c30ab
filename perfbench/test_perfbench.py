"""The benchmark's own checks, on tiny budgets (run.py --smoke).

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from checks import check_tree, tree_digest
from tracer import LAYERS, PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_declared_metrics_match_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    declared = [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]]
    assert declared == list(run.END_TO_END)
    declared = [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]
    assert declared == list(PER_LAYER)
    assert {name.split(".")[0] for name, _, _ in PER_LAYER} == set(LAYERS)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_reports_every_declared_metric(workload, trace):
    proc = _bench("--workload", workload, "--smoke", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {n: v["unit"] for n, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}


def test_each_output_check_fails_on_a_corrupted_tree(tmp_path):
    tree_name, manifest = workloads.invocations("nsga2-archive", 1, smoke=True)[-1]
    run.run_worker("nsga2-archive", 1, tmp_path / "rep", 60, smoke=True)
    good = tmp_path / "rep" / "out" / tree_name
    assert check_tree(good, manifest) == []
    seed = manifest["seeds"][0]

    def corrupted(name, edit):
        bad = tmp_path / name
        shutil.copytree(good, bad)
        edit(bad)
        return bad

    def edit_archive(change):
        def edit(tree):
            path = tree / f"archive_seed{seed}.json"
            archive = json.loads(path.read_text())
            change(archive)
            path.write_text(json.dumps(archive))
        return edit

    def edit_trace(change):
        def edit(tree):
            path = tree / "trace.csv"
            lines = path.read_text().splitlines()
            path.write_text("\n".join(change(lines)) + "\n")
        return edit

    def drop_entry(archive):
        for key in ("solutions", "raw", "penalized", "feasible", "generation"):
            archive[key].pop()

    def poison(archive):
        archive["raw"][0][0] = float("nan")

    def shrink_last_hv(lines):
        cells = lines[-1].split(",")
        cells[2] = "0.0"
        return lines[:-1] + [",".join(cells)]

    cases = {
        "budget": (edit_archive(drop_entry), "budget is"),
        "finite": (edit_archive(poison), "non-finite"),
        "rows": (edit_trace(lambda lines: lines[:-1]), "rows, expected"),
        "monotone": (edit_trace(shrink_last_hv), "hv_feasible decreases"),
    }
    for name, (edit, message) in cases.items():
        problems = check_tree(corrupted(name, edit), manifest)
        assert any(message in p for p in problems), (name, problems)

    flipped = corrupted("digest", lambda tree: (tree / "summary.json").write_text("{}\n"))
    assert tree_digest(flipped) != tree_digest(good)


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "psl-toy", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
