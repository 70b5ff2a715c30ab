import concurrent.futures
import csv
import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

from flpareto import runner
from flpareto.bench import get_benchmark
from flpareto.cli import main
from flpareto.runner import (
    ManifestError,
    algorithm_config,
    load_front_file,
    normalize_manifest,
    run_manifest,
)
from flpareto.schema import ARCHIVE_FIELDS, SUMMARY_GENERATION_FIELDS, TRACE_COLUMNS
from flpareto.spaces import SearchSpace, Var


def _hash_dir(out: Path) -> dict[str, str]:
    digests = {}
    for p in sorted(out.rglob("*")):
        if p.is_file():
            digests[str(p.relative_to(out))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return digests


def _zdt_manifest(out, **kw):
    m = {
        "algorithm": "nsga2",
        "setting": "zdt1",
        "seeds": [0],
        "generations": 4,
        "population": 8,
        "dim": 4,
        "out_dir": str(out),
    }
    m.update(kw)
    return m


def _psl_manifest(out, **kw):
    psl = {"candidates": 20, "model_steps": 20, "n_init": 4}
    return _zdt_manifest(out, **{"algorithm": "psl", "population": 2, "dim": 3, "psl": psl, **kw})


def _legacy_core_hash(manifest: dict) -> str:
    """core_hash as computed before the checkpoint format number joined it."""
    keys = ("algorithm", "setting", "constraint_mode", "population", "dim", "fl", "ga", "psl", "ref_point")
    core = {k: manifest[k] for k in keys if k in manifest}
    return hashlib.sha256(json.dumps(core, sort_keys=True, default=str).encode()).hexdigest()[:16]


class TestManifestValidation:
    def test_unknown_field_named(self):
        with pytest.raises(ManifestError, match="bogus"):
            normalize_manifest(_zdt_manifest("x", bogus=1))

    def test_bad_algorithm(self):
        with pytest.raises(ManifestError, match="algorithm"):
            normalize_manifest(_zdt_manifest("x", algorithm="annealing"))

    def test_bad_seeds(self):
        with pytest.raises(ManifestError, match="seeds"):
            normalize_manifest(_zdt_manifest("x", seeds=[]))
        with pytest.raises(ManifestError, match="seeds"):
            normalize_manifest(_zdt_manifest("x", seeds=[1, 1]))

    def test_tiny_population_for_nsga2(self):
        with pytest.raises(ManifestError, match="population"):
            normalize_manifest(_zdt_manifest("x", population=1))

    # the seeds [0, 1] / workers 2 case raises inside worker processes
    @pytest.mark.parametrize("seeds,workers", [([0], 1), ([0, 1], 2)], ids=["serial", "processes"])
    def test_ref_point_dimension_checked(self, tmp_path, capsys, seeds, workers):
        m = _zdt_manifest(tmp_path / "r", ref_point=[1.0, 1.0, 1.0], seeds=seeds, workers=workers)
        with pytest.raises(ManifestError, match="ref_point"):
            run_manifest(m)
        cfg = tmp_path / "m.json"
        cfg.write_text(json.dumps(m))
        assert main(["optimize", "--config", str(cfg)]) == 2
        assert "ref_point" in capsys.readouterr().err

    @pytest.mark.parametrize("block,key", [("ga", "mutation_rate"), ("psl", "steps"), ("fl", "client")])
    def test_unknown_nested_field_named(self, block, key):
        with pytest.raises(ManifestError, match=f"{block}.{key}"):
            normalize_manifest(_zdt_manifest("x", **{block: {key: 1}}))

    def test_defaults_filled(self):
        m = normalize_manifest(_zdt_manifest("x"))
        assert m["constraint_mode"] == "cmofl"
        assert m["workers"] == 1
        assert m["ga"]["crossover_prob"] == 0.9
        assert m["psl"]["candidates"] == 1000

    @pytest.mark.parametrize("algorithm", ["nsga2", "random"])
    def test_psl_block_not_checked_for_other_algorithms(self, algorithm):
        m = normalize_manifest(_zdt_manifest("x", algorithm=algorithm, population=1001))
        assert m["population"] == 1001
        assert m["psl"]["candidates"] == 1000

    def test_psl_candidates_below_population_rejected(self):
        with pytest.raises(ManifestError, match="psl.candidates"):
            normalize_manifest(_zdt_manifest("x", algorithm="psl", psl={"candidates": 7}))

    @pytest.mark.parametrize(
        "algorithm,block,key,value",
        [
            ("nsga2", "ga", "bits_per_var", 0),
            ("psl", "psl", "model_batch", 0),
            ("psl", "psl", "hidden", [0, 0]),
            ("psl", "psl", "model_steps", 2.7),
            ("psl", "psl", "model_steps", True),
            ("psl", "psl", "model_lr", "1e-3"),
            ("psl", "psl", "hidden", [True, 4]),
            ("nsga2", "ga", "crossover_prob", True),
            ("nsga2", "fl", "rounds", True),
            ("psl", "psl", "n_init", 1),
            ("psl", "psl", "warm_start", "false"),
            ("psl", "psl", "hvi_use_penalized", 0),
            ("nsga2", "fl", "weighted", "false"),
            ("nsga2", "fl", "cost_model", "no"),
            ("nsga2", "fl", "sf_average_all", 1),
        ],
    )
    def test_out_of_range_config_field_named(self, algorithm, block, key, value):
        m = _zdt_manifest("x", algorithm=algorithm, **{block: {key: value}})
        with pytest.raises(ManifestError, match=f"'{block}.{key}'"):
            normalize_manifest(m)

    def test_json_false_reaches_the_config(self):
        m = normalize_manifest(_zdt_manifest("x", algorithm="psl", psl={"warm_start": False}, fl={"weighted": False}))
        assert algorithm_config(m).warm_start is False
        assert m["fl"] == {"weighted": False}

    # JSON numbers only: a bool or a numeric string is rejected, not cast
    @pytest.mark.parametrize("key", ["generations", "population", "workers", "checkpoint_every", "dim", "seeds"])
    def test_non_integral_top_level_integer_named(self, key):
        given = (lambda v: [v]) if key == "seeds" else (lambda v: v)
        for bad in (2.7, True, "3"):
            with pytest.raises(ManifestError, match=f"'{key}'.*{re.escape(repr(bad))}"):
                normalize_manifest(_zdt_manifest("x", **{key: given(bad)}))
        m = normalize_manifest(_zdt_manifest("x", **{key: given(3.0)}))
        value = m[key][0] if key == "seeds" else m[key]
        assert value == 3 and isinstance(value, int)

    @pytest.mark.parametrize("ref_point", [[True, 11.0], ["11", 11.0], [11.0, float("nan")], [float("inf"), 11.0]])
    def test_ref_point_takes_finite_numbers(self, ref_point):
        with pytest.raises(ManifestError, match="'ref_point'"):
            normalize_manifest(_zdt_manifest("x", ref_point=ref_point))

    def test_integral_json_values_keep_their_echo(self):
        m = normalize_manifest(_zdt_manifest(
            "x", algorithm="psl", psl={"model_steps": 20.0, "hidden": [8.0, 4]}, fl={"rounds": 2.0},
        ))
        assert m["psl"]["model_steps"] == 20.0 and isinstance(m["psl"]["model_steps"], float)
        assert m["fl"] == {"rounds": 2} and isinstance(m["fl"]["rounds"], int)
        cfg = algorithm_config(m)
        assert cfg.model_steps == 20 and isinstance(cfg.model_steps, int)
        assert cfg.hidden == (8, 4)
        assert (cfg.batch_size, cfg.generations) == (8, 4)

    def test_synthetic_dataset_typo_named(self):
        with pytest.raises(ManifestError, match="fl.dataset.featurs"):
            normalize_manifest(_zdt_manifest("x", fl={"dataset": {"featurs": 7}}))
        idx = {"kind": "idx", "train_images": "a", "train_labels": "b"}
        assert normalize_manifest(_zdt_manifest("x", fl={"dataset": idx}))["fl"] == {"dataset": idx}


class TestOptimizeArtifacts:
    def test_trace_has_exactly_t_rows_per_seed(self, tmp_path):
        out = tmp_path / "run"
        run_manifest(_zdt_manifest(out, seeds=[0, 1], generations=5))
        with open(out / "trace.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(TRACE_COLUMNS)
        body = rows[1:]
        assert len(body) == 2 * 5
        per_seed = {}
        for r in body:
            per_seed.setdefault(r[0], []).append(int(r[1]))
        assert per_seed == {"0": [1, 2, 3, 4, 5], "1": [1, 2, 3, 4, 5]}

    # the artifacts hold exactly the frozen schema's fields, whatever the
    # checkpoints hold
    def test_archive_fields_frozen(self, tmp_path):
        out = tmp_path / "run"
        run_manifest(_zdt_manifest(out, seeds=[0, 1]))
        for seed in (0, 1):
            payload = json.loads((out / f"archive_seed{seed}.json").read_text())
            assert sorted(payload) == sorted(ARCHIVE_FIELDS)
            assert len(payload["solutions"]) == 8 + 4 * 8
        rows = json.loads((out / "summary.json").read_text())["per_generation"]
        assert len(rows) == 4
        assert all(sorted(row) == sorted(SUMMARY_GENERATION_FIELDS) for row in rows)

    def test_rerun_is_byte_identical(self, tmp_path):
        out = tmp_path / "run"
        run_manifest(_zdt_manifest(out, seeds=[0, 1]))
        first = _hash_dir(out)
        run_manifest(_zdt_manifest(out, seeds=[0, 1]))
        assert _hash_dir(out) == first

    def test_worker_count_does_not_change_bytes(self, tmp_path, monkeypatch):
        pools = []

        class SpyPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SpyPool)
        a, b = tmp_path / "w1", tmp_path / "w4"
        run_manifest(_zdt_manifest(a, seeds=[0, 1], workers=1))
        assert pools == []
        run_manifest(_zdt_manifest(b, seeds=[0, 1], workers=4))
        assert pools == [2]  # capped at the seed count
        assert _hash_dir(a) == _hash_dir(b)

    # constrained_toy checkpoints hold infeasible rows, which the resume must
    # re-penalize to reproduce the direct run's bytes
    @pytest.mark.parametrize(
        "algorithm,setting",
        [
            pytest.param("nsga2", "zdt1", id="zdt1"),
            pytest.param("nsga2", "constrained_toy", id="constrained_toy"),
            pytest.param("random", "constrained_toy", id="random"),
        ],
    )
    def test_resume_extends_budget_identically(self, tmp_path, algorithm, setting):
        m = dict(algorithm=algorithm, setting=setting)
        direct = tmp_path / "direct"
        run_manifest(_zdt_manifest(direct, generations=6, **m))
        resumed = tmp_path / "resumed"
        run_manifest(_zdt_manifest(resumed, generations=3, **m))
        snap = json.loads((resumed / "checkpoints" / "seed0.json").read_text())
        bounds = get_benchmark(setting, 4).constraints.bounds_array()
        assert np.all(np.asarray(snap["archive"]["raw"]) <= bounds) == (setting == "zdt1")
        run_manifest(_zdt_manifest(resumed, generations=6, **m))
        ha, hb = _hash_dir(direct), _hash_dir(resumed)
        assert ha == hb

    def test_resume_from_worker_checkpoints(self, tmp_path):
        direct = tmp_path / "direct"
        run_manifest(_zdt_manifest(direct, seeds=[0, 1], generations=6, workers=1))
        resumed = tmp_path / "resumed"
        run_manifest(_zdt_manifest(resumed, seeds=[0, 1], generations=3, workers=2))
        for seed in (0, 1):
            snap = json.loads((resumed / "checkpoints" / f"seed{seed}.json").read_text())
            assert snap["generation"] == 3
        run_manifest(_zdt_manifest(resumed, seeds=[0, 1], generations=6, workers=2))
        assert _hash_dir(direct) == _hash_dir(resumed)

    def test_resume_psl(self, tmp_path):
        direct = tmp_path / "direct"
        run_manifest(_psl_manifest(direct, generations=4))
        resumed = tmp_path / "resumed"
        run_manifest(_psl_manifest(resumed, generations=2))
        run_manifest(_psl_manifest(resumed, generations=4))
        assert _hash_dir(direct) == _hash_dir(resumed)

    def test_resumed_psl_keeps_diagnostics(self, tmp_path, monkeypatch):
        def run(out, generations):
            return runner._run_one_seed(normalize_manifest(_psl_manifest(out, generations=generations)), 0, out)

        direct = run(tmp_path / "direct", 4)
        run(tmp_path / "resumed", 2)
        reads = []
        read = runner._archive_from_dict
        monkeypatch.setattr(runner, "_archive_from_dict", lambda *a: reads.append(a) or read(*a))
        resumed = run(tmp_path / "resumed", 4)
        assert len(reads) == 1  # the second half really resumed
        assert [d["generation"] for d in direct.diagnostics] == [1, 2, 3, 4]
        assert resumed.diagnostics == direct.diagnostics

    @pytest.mark.parametrize(
        "algorithm,state",
        [("nsga2", {"population", "population_indices"}), ("psl", {"model", "diagnostics"}), ("random", set())],
    )
    def test_checkpoint_holds_what_resume_reads(self, tmp_path, algorithm, state):
        manifest = _psl_manifest if algorithm == "psl" else _zdt_manifest
        run_manifest(manifest(tmp_path, algorithm=algorithm, generations=2))
        snap = json.loads((tmp_path / "checkpoints" / "seed0.json").read_text())
        assert set(snap) == {"schema_version", "core_hash", "seed", "generation", "records", "archive", "state"}
        assert set(snap["archive"]) == {"solutions", "raw", "generation"}
        assert set(snap["state"]) == state

    # records tampered in a checkpoint reach trace.csv only if it is resumed
    def test_checkpoint_without_format_number_ignored(self, tmp_path):
        direct, out = tmp_path / "direct", tmp_path / "stale"
        run_manifest(_zdt_manifest(direct, generations=3))
        run_manifest(_zdt_manifest(out, generations=3))
        ckpt = out / "checkpoints" / "seed0.json"
        snap = json.loads(ckpt.read_text())
        snap["records"][-1]["hv_all"] = -1.0
        ckpt.write_text(json.dumps(snap))
        run_manifest(_zdt_manifest(out, generations=3))
        assert _hash_dir(out)["trace.csv"] != _hash_dir(direct)["trace.csv"]
        snap["core_hash"] = _legacy_core_hash(normalize_manifest(_zdt_manifest(out, generations=3)))
        ckpt.write_text(json.dumps(snap))
        run_manifest(_zdt_manifest(out, generations=3))
        assert _hash_dir(out) == _hash_dir(direct)

    def test_baseline_mode_zeroes_penalties_but_keeps_flags(self, tmp_path):
        out = tmp_path / "bl"
        m = {
            "algorithm": "nsga2",
            "setting": "constrained_toy",
            "constraint_mode": "mofl-baseline",
            "seeds": [0],
            "generations": 2,
            "population": 6,
            "out_dir": str(out),
        }
        run_manifest(m)
        payload = json.loads((out / "archive_seed0.json").read_text())
        raw = np.asarray(payload["raw"])
        pen = np.asarray(payload["penalized"])
        feas = np.asarray(payload["feasible"])
        assert np.array_equal(raw, pen)  # alpha = 0
        assert np.array_equal(feas, raw[:, 2] <= 0.8)  # bounds still classify


class TestCli:
    def test_optimize_and_hv_roundtrip(self, tmp_path, capsys):
        cfg = tmp_path / "m.json"
        out = tmp_path / "run"
        cfg.write_text(json.dumps(_zdt_manifest(out)))
        assert main(["optimize", "--config", str(cfg)]) == 0
        capsys.readouterr()
        assert main(["hv", "--file", str(out / "archive_seed0.json"), "--ref", "11", "11"]) == 0
        val = float(capsys.readouterr().out.strip())
        assert val > 0.0

    def test_hv_bare_list_and_exclusion_warning(self, tmp_path, capsys):
        f = tmp_path / "front.json"
        f.write_text("[[1.0, 2.0], [2.0, 1.0]]")
        assert main(["hv", "--file", str(f), "--ref", "3", "3"]) == 0
        assert float(capsys.readouterr().out.strip()) == 3.0
        f2 = tmp_path / "front2.json"
        f2.write_text("[[1.0, 2.0], [9.0, 9.0]]")
        assert main(["hv", "--file", str(f2), "--ref", "3", "3"]) == 0
        captured = capsys.readouterr()
        assert "excluded" in captured.err
        f3 = tmp_path / "empty.json"
        f3.write_text("[]")
        assert main(["hv", "--file", str(f3), "--ref", "3", "3"]) == 0

    def test_evaluate_accepts_in_range_values(self, capsys):
        rc = main([
            "evaluate", "--setting", "rd", "--seed", "0",
            "--param", "lr=0.1", "--param", "sigma_rd=0.5", "--param", "c_clip=2",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "eps_u=" in out and "eps_p=" in out and "eps_c=" in out

    def test_evaluate_rejects_out_of_range_naming_bounds(self, capsys):
        rc = main([
            "evaluate", "--setting", "rd", "--seed", "0",
            "--param", "lr=0.1", "--param", "sigma_rd=1.5", "--param", "c_clip=2",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "sigma_rd" in err and "[0.0, 1.0]" in err

    def test_evaluate_config_rejects_unknown_fl_field(self, tmp_path, capsys):
        cfg = tmp_path / "m.json"
        cfg.write_text(json.dumps({"fl": {"client": 3}}))
        rc = main([
            "evaluate", "--setting", "rd", "--seed", "0", "--config", str(cfg),
            "--param", "lr=0.1", "--param", "sigma_rd=0.5", "--param", "c_clip=2",
        ])
        assert rc == 2
        assert "fl.client" in capsys.readouterr().err

    def test_evaluate_config_rejects_dataset_typo(self, tmp_path, capsys):
        cfg = tmp_path / "m.json"
        cfg.write_text(json.dumps({"fl": {"dataset": {"featurs": 7}}}))
        rc = main([
            "evaluate", "--setting", "rd", "--seed", "0", "--config", str(cfg),
            "--param", "lr=0.1", "--param", "sigma_rd=0.5", "--param", "c_clip=2",
        ])
        assert rc == 2
        assert "fl.dataset.featurs" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key,value", [("clients", 0), ("rounds", -1), ("local_epochs", 0), ("batch_size", 0), ("width_max", 0)]
    )
    def test_fl_bounds_named(self, tmp_path, capsys, key, value):
        with pytest.raises(ManifestError, match=f"'fl.{key}'"):
            normalize_manifest(_zdt_manifest("x", fl={key: value}))
        cfg = tmp_path / "m.json"
        cfg.write_text(json.dumps({"fl": {key: value}}))
        rc = main([
            "evaluate", "--setting", "rd", "--seed", "0", "--config", str(cfg),
            "--param", "lr=0.1", "--param", "sigma_rd=0.5", "--param", "c_clip=2",
        ])
        assert rc == 2
        assert f"fl.{key}" in capsys.readouterr().err

    def test_evaluate_deterministic_output(self, capsys):
        args = [
            "evaluate", "--setting", "rd", "--seed", "7",
            "--param", "lr=0.05", "--param", "sigma_rd=0.2", "--param", "c_clip=3",
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_benchmark_subcommand(self, tmp_path, capsys):
        rc = main([
            "benchmark", "--name", "zdt1", "--algorithm", "random",
            "--generations", "2", "--population", "4", "--dim", "3",
            "--seed", "1", "--out", str(tmp_path / "b"),
        ])
        assert rc == 0
        assert (tmp_path / "b" / "trace.csv").exists()

    def test_benchmark_budget_defaults_from_manifest(self, tmp_path, capsys):
        out = tmp_path / "b"
        assert main(["benchmark", "--name", "zdt1", "--algorithm", "random", "--out", str(out)]) == 0
        echo = json.loads((out / "manifest.json").read_text())
        assert (echo["generations"], echo["population"]) == (20, 20)

    def test_env_override_out_dir(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "m.json"
        cfg.write_text(json.dumps(_zdt_manifest(tmp_path / "ignored")))
        target = tmp_path / "env_out"
        monkeypatch.setenv("FLPARETO_OUT", str(target))
        assert main(["optimize", "--config", str(cfg)]) == 0
        assert (target / "trace.csv").exists()


class TestSpaces:
    def test_decode_bounds_and_categories(self):
        space = SearchSpace((
            Var("lr", "real", 0.01, 0.3),
            Var("width", "int", 1, 16),
            Var("bs", "cat", choices=(100, 200, 400, 800)),
        ))
        lo = space.decode([0.0, 0.0, 0.0])
        hi = space.decode([1.0, 1.0, 1.0])
        assert lo == {"lr": 0.01, "width": 1, "bs": 100}
        assert hi == {"lr": pytest.approx(0.3), "width": 16, "bs": 800}

    def test_validate_names_variable_and_range(self):
        space = SearchSpace((Var("lr", "real", 0.01, 0.3),))
        with pytest.raises(ValueError, match=r"lr=0\.5.*\[0\.01, 0\.3\]"):
            space.validate({"lr": 0.5})
        with pytest.raises(ValueError, match="missing"):
            space.validate({})
        with pytest.raises(ValueError, match="unknown"):
            space.validate({"lr": 0.1, "zzz": 1})
