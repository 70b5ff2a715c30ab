import concurrent.futures
import csv
import dataclasses
import hashlib
import json
import re
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from flpareto import nsga2, runner
from flpareto.bench import get_benchmark
from flpareto.cli import main
from flpareto.data import SYNTHETIC_DEFAULTS
from flpareto.runner import (
    ManifestError,
    algorithm_config,
    load_front_file,
    normalize_manifest,
    run_manifest,
)
from flpareto.schema import ARCHIVE_FIELDS, SUMMARY_GENERATION_FIELDS, TRACE_COLUMNS
from flpareto.settings import FlOptions
from flpareto.spaces import SearchSpace, Var

README = Path(__file__).resolve().parent.parent / "README.md"


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


def _checkpoint(out: Path, seed: int = 0) -> list[dict]:
    """The lines of a seed's checkpoint: the header, then one per generation."""
    return [json.loads(line) for line in (out / "checkpoints" / f"seed{seed}.jsonl").read_text().splitlines()]


def _legacy_core_hash(manifest: dict, checkpoint_format: int | None = None) -> str:
    """core_hash as computed before the checkpoint format number joined it,
    or at an older `checkpoint_format`; the `ga` block then still held the
    binary chromosome's keys."""
    keys = ("algorithm", "setting", "constraint_mode", "population", "dim", "fl", "ga", "psl", "ref_point")
    core = {k: manifest[k] for k in keys if k in manifest}
    core["ga"] = {**core["ga"], "chromosome": "real", "bits_per_var": 12}
    if checkpoint_format is not None:
        core["checkpoint_format"] = checkpoint_format
    return hashlib.sha256(json.dumps(core, sort_keys=True, default=str).encode()).hexdigest()[:16]


class TestManifestValidation:
    def test_unknown_field_named(self):
        with pytest.raises(ManifestError, match="bogus"):
            normalize_manifest(_zdt_manifest("x", bogus=1))

    # deleted options are refused by name, as unknown fields
    def test_checkpoint_every_refused(self):
        with pytest.raises(ManifestError, match="'checkpoint_every': unknown"):
            normalize_manifest(_zdt_manifest("x", checkpoint_every=1))

    @pytest.mark.parametrize("raw", [[1], "x", None, 3])
    def test_non_object_manifest_refused(self, raw):
        with pytest.raises(ManifestError, match="manifest must be a JSON object"):
            normalize_manifest(raw)

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
            ("psl", "psl", "model_batch", 0),
            ("psl", "psl", "hidden", [0, 0]),
            ("psl", "psl", "model_steps", 2.7),
            ("psl", "psl", "model_steps", True),
            ("psl", "psl", "model_lr", "1e-3"),
            ("psl", "psl", "hidden", [True, 4]),
            ("nsga2", "ga", "crossover_prob", True),
            ("nsga2", "fl", "rounds", True),
            ("psl", "psl", "n_init", 1),
            # deleted options are refused by name, as unknown fields
            ("nsga2", "ga", "bits_per_var", 0),
            ("nsga2", "ga", "chromosome", "binary"),
            ("psl", "psl", "warm_start", "false"),
            ("psl", "psl", "hvi_use_penalized", 0),
            ("nsga2", "fl", "weighted", "false"),
            ("nsga2", "fl", "sf_average_all", "false"),
            ("nsga2", "fl", "cost_model", "no"),
            ("nsga2", "fl", "sf_average_all", 1),
            ("psl", "psl", "warm_start", True),
            ("psl", "psl", "hvi_use_penalized", True),
            ("nsga2", "fl", "sf_average_all", False),
            ("nsga2", "fl", "cost_model", True),
            ("psl", "psl", "model_lr", float("nan")),
            ("psl", "psl", "model_lr", -1.0),
            ("psl", "psl", "lcb_beta", -5.0),
            ("psl", "psl", "lcb_beta", float("inf")),
            ("nsga2", "ga", "eta_crossover", -3.0),
            ("nsga2", "ga", "eta_mutation", float("nan")),
        ],
    )
    def test_out_of_range_config_field_named(self, algorithm, block, key, value):
        m = _zdt_manifest("x", algorithm=algorithm, **{block: {key: value}})
        with pytest.raises(ManifestError, match=f"'{block}.{key}'"):
            normalize_manifest(m)

    @pytest.mark.parametrize(
        "block,value", [("fl", [1]), ("ga", []), ("psl", 5), ("fl", None), ("ga", None), ("ga", "xy")]
    )
    def test_non_object_block_named(self, block, value):
        with pytest.raises(ManifestError, match=f"'{block}': must be an object"):
            normalize_manifest(_zdt_manifest("x", **{block: value}))

    def test_readme_manifest_schema_matches_code(self):
        text = README.read_text()
        block = re.search(r"### Manifest schema\n\n```jsonc\n(.*?)\n```", text, re.S).group(1)
        schema = json.loads(re.sub(r"\s*//.*", "", block))
        assert set(schema) == runner.MANIFEST_KEYS
        defaults = normalize_manifest(_zdt_manifest("x"))
        assert schema["ga"] == defaults["ga"]
        assert schema["psl"] == json.loads(json.dumps(defaults["psl"]))  # hidden as a list
        assert schema["fl"] == {**dataclasses.asdict(FlOptions()), "dataset": SYNTHETIC_DEFAULTS}

    # JSON numbers only: a bool or a numeric string is rejected, not cast
    @pytest.mark.parametrize("key", ["generations", "population", "workers", "dim", "seeds"])
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
        idx = {"kind": "idx", "train_images": "a", "train_labels": "b", "test_images": "c", "test_labels": "d"}
        assert normalize_manifest(_zdt_manifest("x", fl={"dataset": idx}))["fl"] == {"dataset": idx}

    @pytest.mark.parametrize(
        "dataset,field",
        [
            ({"kind": "idx", "train_image": "a", "train_labels": "b", "test_images": "c", "test_labels": "d"},
             "fl.dataset.train_image"),
            ({"kind": "idx", "train_images": "a", "train_labels": "b", "test_images": "c"}, "fl.dataset.test_labels"),
            ({"kind": "csv"}, "fl.dataset.kind"),
            ({"kind": ["idx"]}, "fl.dataset.kind"),
        ],
    )
    def test_dataset_spec_errors_named(self, dataset, field):
        with pytest.raises(ManifestError, match=re.escape(f"'{field}'")):
            normalize_manifest(_zdt_manifest("x", fl={"dataset": dataset}))

    @pytest.mark.parametrize(
        "field,value",
        [
            ("n_per_client", 0), ("n_test", 0), ("features", 0), ("classes", 1), ("classes", 2.5),
            ("noise", -1), ("noise", float("inf")), ("separation", float("nan")), ("separation", -0.5),
            ("seed", -1), ("n_test", True), ("features", "20"),
        ],
    )
    def test_dataset_values_checked(self, field, value):
        with pytest.raises(ManifestError, match=re.escape(f"'fl.dataset.{field}'")):
            normalize_manifest(_zdt_manifest("x", fl={"dataset": {field: value}}))
        with pytest.raises(ValueError, match=re.escape(f"dataset.{field} ")):
            FlOptions(dataset={field: value}, rounds=1, local_epochs=1)

    def test_dataset_values_accepted(self):
        ds = {"n_per_client": 1, "n_test": 1.0, "features": 1, "classes": 2, "noise": 0, "separation": 0.0, "seed": 0}
        assert normalize_manifest(_zdt_manifest("x", fl={"dataset": ds}))["fl"] == {"dataset": ds}
        idx = {"kind": "idx", "train_images": "a", "train_labels": "b", "test_images": "c", "test_labels": "d"}
        with pytest.raises(ManifestError, match=re.escape("'fl.dataset.classes'")):
            normalize_manifest(_zdt_manifest("x", fl={"dataset": {**idx, "classes": 1}}))


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
        raw = [row for line in _checkpoint(resumed)[1:] for row in line["archive"]["raw"]]
        bounds = get_benchmark(setting, 4).constraints.bounds_array()
        assert np.all(np.asarray(raw) <= bounds) == (setting == "zdt1")
        run_manifest(_zdt_manifest(resumed, generations=6, **m))
        ha, hb = _hash_dir(direct), _hash_dir(resumed)
        assert ha == hb

    def test_checkpoint_past_budget_refused(self, tmp_path, monkeypatch):
        run_manifest(_zdt_manifest(tmp_path, generations=6))
        ckpt = tmp_path / "checkpoints" / "seed0.jsonl"
        before = ckpt.read_bytes()
        with pytest.raises(ManifestError, match="'generations': 3 .*seed0.jsonl \\(6\\)"):
            run_manifest(_zdt_manifest(tmp_path, generations=3))
        assert ckpt.read_bytes() == before
        calls = []
        monkeypatch.setattr(nsga2, "evaluate_batch", lambda *a: calls.append(a))
        run_manifest(_zdt_manifest(tmp_path, generations=6))
        assert calls == []  # the 6-generation state was resumed as it stood
        assert ckpt.read_bytes() == before

    def test_resume_from_worker_checkpoints(self, tmp_path):
        direct = tmp_path / "direct"
        run_manifest(_zdt_manifest(direct, seeds=[0, 1], generations=6, workers=1))
        resumed = tmp_path / "resumed"
        run_manifest(_zdt_manifest(resumed, seeds=[0, 1], generations=3, workers=2))
        for seed in (0, 1):
            assert _checkpoint(resumed, seed)[-1]["generation"] == 3
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
        [("nsga2", {"population_indices"}), ("psl", {"model", "diagnostics"}), ("random", set())],
    )
    def test_checkpoint_holds_what_resume_reads(self, tmp_path, algorithm, state):
        manifest = _psl_manifest if algorithm == "psl" else _zdt_manifest
        run_manifest(manifest(tmp_path, algorithm=algorithm, generations=2))
        header, *lines = _checkpoint(tmp_path)
        assert set(header) == {"schema_version", "core_hash", "seed"}
        assert [line["generation"] for line in lines] == [1, 2]
        archive = json.loads((tmp_path / "archive_seed0.json").read_text())
        for line in lines:
            assert set(line) == {"generation", "record", "archive", "state"}
            assert set(line["archive"]) == {"solutions", "raw", "generation"}
            assert set(line["state"]) == state
        # each line holds only the rows and diagnostics its generation added
        for key in ("solutions", "raw", "generation"):
            assert [row for line in lines for row in line["archive"][key]] == archive[key]
        assert lines[1]["archive"]["generation"] == [2] * len(lines[1]["archive"]["raw"])
        if algorithm == "psl":
            assert [[d["generation"] for d in line["state"]["diagnostics"]] for line in lines] == [[1], [2]]

    # records tampered in a checkpoint reach trace.csv only if it is resumed
    def test_checkpoint_without_format_number_ignored(self, tmp_path):
        direct, out = tmp_path / "direct", tmp_path / "stale"
        run_manifest(_zdt_manifest(direct, generations=3))
        run_manifest(_zdt_manifest(out, generations=3))
        ckpt = out / "checkpoints" / "seed0.jsonl"
        lines = _checkpoint(out)
        lines[-1]["record"]["hv_all"] = -1.0
        ckpt.write_text("".join(json.dumps(line) + "\n" for line in lines))
        run_manifest(_zdt_manifest(out, generations=3))
        assert _hash_dir(out)["trace.csv"] != _hash_dir(direct)["trace.csv"]
        lines[0]["core_hash"] = _legacy_core_hash(normalize_manifest(_zdt_manifest(out, generations=3)))
        ckpt.write_text("".join(json.dumps(line) + "\n" for line in lines))
        run_manifest(_zdt_manifest(out, generations=3))
        assert _hash_dir(out) == _hash_dir(direct)

    # format 3 also stored the population's genes; such a file is not resumed
    def test_format_3_checkpoint_starts_afresh(self, tmp_path):
        direct, out = tmp_path / "direct", tmp_path / "stale"
        run_manifest(_zdt_manifest(direct, generations=3))
        run_manifest(_zdt_manifest(out, generations=3))
        solutions = json.loads((out / "archive_seed0.json").read_text())["solutions"]
        header, *lines = _checkpoint(out)
        header["core_hash"] = _legacy_core_hash(normalize_manifest(_zdt_manifest(out, generations=3)), 3)
        for line in lines:
            line["state"]["population"] = [solutions[i] for i in line["state"]["population_indices"]]
            line["record"]["hv_all"] = -1.0
        (out / "checkpoints" / "seed0.jsonl").write_text("".join(json.dumps(x) + "\n" for x in [header, *lines]))
        run_manifest(_zdt_manifest(out, generations=3))
        assert _hash_dir(out) == _hash_dir(direct)

    @pytest.mark.parametrize("manifest", [_zdt_manifest, _psl_manifest], ids=["nsga2", "psl"])
    def test_checkpoint_is_append_only(self, tmp_path, monkeypatch, manifest):
        written = []
        line = runner._json_line
        monkeypatch.setattr(runner, "_json_line", lambda obj: written.append(line(obj)) or written[-1])
        ckpt = tmp_path / "checkpoints" / "seed0.jsonl"
        run_manifest(manifest(tmp_path, generations=3))
        first = ckpt.read_bytes()
        run_manifest(manifest(tmp_path, generations=6))
        final = ckpt.read_bytes()
        assert final.startswith(first) and len(final) > len(first)
        assert sum(len(s.encode()) for s in written) == len(final)

    # a run cut off while writing a line resumes from the line before it
    @pytest.mark.parametrize(
        "keep",
        [lambda data: len(data) - 10, lambda data: data.index(b"\n") + 7],
        ids=["last-line", "first-line"],
    )
    @pytest.mark.parametrize("manifest", [_zdt_manifest, _psl_manifest], ids=["nsga2", "psl"])
    def test_resume_after_torn_line(self, tmp_path, manifest, keep):
        direct, resumed = tmp_path / "direct", tmp_path / "resumed"
        run_manifest(manifest(direct, generations=6))
        run_manifest(manifest(resumed, generations=3))
        ckpt = resumed / "checkpoints" / "seed0.jsonl"
        data = ckpt.read_bytes()
        ckpt.write_bytes(data[: keep(data)])
        run_manifest(manifest(resumed, generations=6))
        assert _hash_dir(direct) == _hash_dir(resumed)

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


_JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 1e-300])
    | st.text(alphabet=st.sampled_from(',[]"\\ a\0\u00e9'))
)
_NUMBERS = st.integers() | st.floats() | st.booleans() | st.none()
_NUMPY = (
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=3))
    | hnp.arrays(np.int64, st.integers(0, 3))
    | st.floats().map(np.float64)
    | st.integers(-(2**63), 2**63 - 1).map(np.int64)
    | st.booleans().map(np.bool_)
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS | _NUMPY | st.lists(st.lists(_NUMBERS, min_size=1, max_size=4), max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=3), inner, max_size=4)
    | st.dictionaries(st.integers(), inner, max_size=4),
    max_leaves=20,
)


# the C-encoded artifact writer must give json's indented text exactly
@settings(max_examples=300, deadline=None)
@given(_JSON_VALUES)
def test_dump_json_writes_what_json_dumps_writes(obj):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "x.json"
        runner._dump_json(path, obj)
        want = json.dumps(obj, sort_keys=True, indent=1, default=runner._json_default) + "\n"
        assert path.read_text() == want


class TestCli:
    def test_failed_evaluation_is_an_error(self, tmp_path, capsys):
        # valid images, so the run starts; the missing labels file fails the first evaluation
        images = tmp_path / "imgs.idx3-ubyte"
        images.write_bytes(struct.pack(">iiii", 0x803, 4, 2, 2) + bytes(16))
        paths = {"train_images": str(images), "test_images": str(images)}
        paths.update(dict.fromkeys(("train_labels", "test_labels"), str(tmp_path / "missing")))
        cfg = tmp_path / "m.json"
        cfg.write_text(json.dumps({
            "algorithm": "nsga2", "setting": "rd", "seeds": [0], "generations": 0, "population": 2,
            "out_dir": str(tmp_path / "run"),
            "fl": {"dataset": {"kind": "idx", **paths}, "clients": 2, "rounds": 1, "local_epochs": 1},
        }))
        assert main(["optimize", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert re.search(r"^error: evaluator failed on solution \[.*missing", err, re.M)

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

    @pytest.mark.parametrize("bad", ["inf", "nan", "1e400"])
    def test_hv_rejects_non_finite_ref(self, tmp_path, capsys, bad):
        f = tmp_path / "front.json"
        f.write_text("[[1.0, 2.0], [2.0, 1.0]]")
        assert main(["hv", "--file", str(f), "--ref", "3", bad]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.search(r"^error: --ref must be finite", captured.err, re.M)

    def test_evaluate_rejects_repeated_param(self, capsys):
        rc = main([
            "evaluate", "--setting", "rd", "--seed", "0",
            "--param", "lr=0.1", "--param", "sigma_rd=0.5", "--param", "c_clip=2", "--param", "lr=0.2",
        ])
        assert rc == 2
        assert re.search(r"^error: --param lr given more than once", capsys.readouterr().err, re.M)

    def test_evaluate_rejects_negative_seed_by_name(self, capsys):
        rc = main([
            "evaluate", "--setting", "rd", "--seed", "-1",
            "--param", "lr=0.1", "--param", "sigma_rd=0.5", "--param", "c_clip=2",
        ])
        assert rc == 2
        assert re.search(r"^error: .*--seed\b", capsys.readouterr().err, re.M)

    @pytest.mark.parametrize("lr", ["inf", "1e400"])
    def test_evaluate_rejects_infinite_param(self, capsys, lr):
        rc = main([
            "evaluate", "--setting", "rd", "--seed", "0",
            "--param", f"lr={lr}", "--param", "sigma_rd=0.5", "--param", "c_clip=2",
        ])
        assert rc == 2
        assert re.search(r"^error: .*\blr\b", capsys.readouterr().err, re.M)

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

    def test_config_path_that_is_a_directory_is_an_error(self, tmp_path, capsys):
        # any OSError opening the manifest is a usage error, not a traceback
        assert main(["optimize", "--config", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Is a directory" in err

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

    def test_env_workers_not_an_integer_named(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "m.json"
        cfg.write_text(json.dumps(_zdt_manifest(tmp_path / "out")))
        monkeypatch.setenv("FLPARETO_WORKERS", "abc")
        assert main(["optimize", "--config", str(cfg)]) == 2
        assert "error: FLPARETO_WORKERS" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("workers", [None, "2"], ids=["no-env", "env-workers"])
    @pytest.mark.parametrize("body", ["[1]", '"x"'])
    @pytest.mark.parametrize("command", [["optimize"], ["evaluate", "--setting", "rd"]])
    def test_non_object_manifest_named(self, tmp_path, monkeypatch, capsys, command, body, workers):
        cfg = tmp_path / "m.json"
        cfg.write_text(body)
        if workers is not None:
            monkeypatch.setenv("FLPARETO_WORKERS", workers)
        assert main([*command, "--config", str(cfg)]) == 2
        assert f"error: manifest {cfg}: must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["optimize"], ["evaluate", "--setting", "rd"]])
    def test_invalid_json_manifest_named(self, tmp_path, capsys, command):
        cfg = tmp_path / "m.json"
        cfg.write_text("{")
        assert main([*command, "--config", str(cfg)]) == 2
        assert f"error: manifest {cfg}: not valid JSON: " in capsys.readouterr().err

    # evaluate runs one evaluation under one seed; it writes no files
    @pytest.mark.parametrize("flag", [["--workers", "2"], ["--out", "x"]])
    def test_evaluate_refuses_run_flags(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "--setting", "rd", *flag, "--param", "lr=0.1"])
        assert exc.value.code == 2

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
