"""Golden SHA-256 digests of small NSGA-II runs.

Every output file of a 2-seed, population-4, 2-generation run on rd, bc
and sf (2 federated rounds of 1 local epoch) is pinned byte for byte, so a
refactor of the simulator, the mechanisms or the runner that changes any
objective, trace value or artifact byte fails here.  The same runs at 2
workers, and random search at the same size, are pinned as well, so the
FL settings' bytes are checked across worker counts and under a second
engine.  Two benchmark runs pin NSGA-II itself at sizes where many pairs
are varied per generation: constrained_toy at population 60 for 4
generations (3 objectives, one bound) and zdt1 at the odd population 7
for 3 generations, where each generation drops its last pair's second
child.

The digests hold for this platform: numpy 2.4.6 with scipy-openblas
0.3.31 on x86-64.  Another BLAS or numpy build may round matmuls
differently; re-record them there, and declare the change, rather than
loosening the comparison.
"""

import hashlib
from pathlib import Path

import pytest

from flpareto.runner import run_manifest

GOLDEN = {
    "rd": {
        "archive_seed0.json": "1b5a9952b8f61fc70e5c01176b417b4727dbdc253259c018bfd3720ba659ce2f",
        "archive_seed1.json": "79c00560310fd4a9998aa1c85cf3495c703b14ff41a92e883af226b0969cf914",
        "checkpoints/seed0.jsonl": "33803f55664c22351cb48f7a340e9da5f535638e8fa1cc7a990465540ab476f2",
        "checkpoints/seed1.jsonl": "d2d8f47b670f4dbb1d9accb9f24bd30eaa8f7fc19db2174b20c14e1acaf8142f",
        "manifest.json": "dc3d227e8700f668e6f98019afd31b708bb3ac5f5adc1f39850b307209d647e0",
        "summary.json": "3267b68e0ec403e0c62466b845e8fdbd444878273c4ddb977896129fc4ffcb8f",
        "trace.csv": "89fc6f06850577980259e3e75feb4152bb42e6e9d0da82f67143fd2a0534ac33",
    },
    "bc": {
        "archive_seed0.json": "912e22a5a458ca58afc5406b1d517b7e829dde07872454ef716084c6963f2caa",
        "archive_seed1.json": "b10c81847404cd88062648c76a178928cbe2af7e214a48b47e76cd7e29d0ea50",
        "checkpoints/seed0.jsonl": "4d295725c29f99e62ca8d40e82598f9f9540399849aefa872a9ace69b317ec2e",
        "checkpoints/seed1.jsonl": "541e0c0de08aa288dc1c9fe6dbd16b3105c1d82d50b0535d98de30c4fad422a8",
        "manifest.json": "c91e4b6043c8ef5aadfaa217f7f004d597c588bdf4e968638ae77995d78125fc",
        "summary.json": "b8f7e0a50d6f6a9f29b53af8829b620631ab776bea61cf656f38499b99a6dedb",
        "trace.csv": "e0bce8ed711f7085c09f72a80e9f773dbdaf3de526e8361dac76d2f60425cca3",
    },
    "sf": {
        "archive_seed0.json": "43dd89f74a7aa30f63678987500d48eeecdcc143ab548f239170bc2007ee79ee",
        "archive_seed1.json": "b02371f994cefd7189a4bc0cdc7d3d8a7e5029b1122f8457ba8b4ef0fa45af0a",
        "checkpoints/seed0.jsonl": "0d854a3d7567e7cc4dcf2ba19ae03668abea292331b287b82294ef764cb1812f",
        "checkpoints/seed1.jsonl": "1ca2c227c8650a5ed9259189c793b4bfdd197bc728dabfbd0be22c72da60eaa6",
        "manifest.json": "dc5457c0a34140e9a698d33d919d0a526e83506276bc011900d8adda60bd9cdb",
        "summary.json": "38884ac9b8c9057986d92617a1767652adead71e28173cc479b72df56e42ccd5",
        "trace.csv": "397de717e92fb477d97a9292c4fe935ea06daaa21c09bc131fa4395a74ce12ad",
    },
}

# random search at the FL golden size: seeds [0, 1], 2 generations of 4 rows
GOLDEN_RANDOM = {
    "bc": {
        "archive_seed0.json": "40d860e2002644a8c0156afb2f2220afaff246adecca49d1467084ee3e3d84e1",
        "archive_seed1.json": "62ee1cbed3d3b06feb93a3f97cfb543d763b1cedc47cd95b9445b3dea2e93448",
        "checkpoints/seed0.jsonl": "0e70c2bda47e03010a0e90eb1a68301facfccf0788b293a05a3a3c978c08e03f",
        "checkpoints/seed1.jsonl": "6e3ca1aa7a16ae33b45aeafc5f6334b5db961145d9844007cc3435c2233e125e",
        "manifest.json": "8b77629ac7bed2d19dfd4dda2f2c5979f412dff68a3dc7a2164579d843d3a6ef",
        "summary.json": "577b0324265fac09945bb43f6753cd96c7da27a7ff7d7415a70483476f58a11e",
        "trace.csv": "6d147910ce87129b47b36e70358a1a7be4d55a81f12fbd52f3b6d3f71a5a7839",
    },
    "rd": {
        "archive_seed0.json": "a03a38f7318f80bb352d8343c6d02a8ef802c19533044ee6fa317a2efbb3f730",
        "archive_seed1.json": "d0f6a31e4c9063f49865424bc375edc8f2751712e00bd6f2ad2b3ffa69cc7a7c",
        "checkpoints/seed0.jsonl": "94559ee40da2b23c8fdf5d9f8a2dbf836d9b10d51d41a5f4c828886710fec7ae",
        "checkpoints/seed1.jsonl": "b3b624edf5adc6157afa279d717636f73242f65de417b183a7955160a5c23466",
        "manifest.json": "904ab72d5f5c6c729d20591c715c787b9ec70a036ec74f8d8df7489ccc40d593",
        "summary.json": "b72a6e11352c3ac78a78d862064efcd5826ba7b70f411f7155817238a7a0a7cf",
        "trace.csv": "07f4b014b01f6b7ff07d5f2c97b31239f35c5f6c92adeb2eacca17bd11e21db3",
    },
    "sf": {
        "archive_seed0.json": "d6d8d489240d53ccbe7ae63133133540e0b46bb58a545857079bb8360359a0bc",
        "archive_seed1.json": "b14500da621f4b4b0864b295ce0d4bbe0fc6fc3c4315a569c3cba71299107060",
        "checkpoints/seed0.jsonl": "923d4c9c761aa6d858d4ec0a2ca80e44199a97e9a8bb77b6490025401c4281c1",
        "checkpoints/seed1.jsonl": "cf200c83b8698cfcbcdb55d814d34fe524c9d53fd6403deaa643466d707cdf49",
        "manifest.json": "76e8dfc6b00a9372cee493fe48103b63dd7df08f902768e0b6b828435e002e3a",
        "summary.json": "d556eebc08775894b26590ce705d2408489a201a10c2c79cfd26ab885e5faab1",
        "trace.csv": "a76a5e8e1b7c636548f9c81f685f28e7d39f4c11962b3e37c29fa35aecd21de7",
    },
}

GOLDEN_BENCHMARKS = {
    "constrained_toy": {
        "archive_seed0.json": "50d582dfd00a1489c925d65b2b07457204c8bcc51b8ffda83d8c4eacd37ce0a1",
        "archive_seed1.json": "db30f106a0dfd59bcadaf6c44192dc4d803e4c502bdf3d0d7b2dc1a97bdc0615",
        "checkpoints/seed0.jsonl": "beca9a6494cecbd4df3627a934c5f8813feb2a88bd24d61e450f48e72e6408f8",
        "checkpoints/seed1.jsonl": "ed7701f2d2e9bc33391019d13a3c82d33160c748dfb4e53ef7dd856d57f3108d",
        "manifest.json": "2f95eb8426f14809dbeaadf8e391b08653a8702bb3d108412d71893f5fef5c0b",
        "summary.json": "e381be11ce8e22b9f6a384b4f0b54524fe1b66499ec73bfb673c84f064794b62",
        "trace.csv": "dd5feff2f8676607627841acf966f27b8ebba26f2a7d57d85d0dab704b639650",
    },
    "zdt1": {
        "archive_seed0.json": "115b0a9ed5a53e63393719dcad76cd92f8fc5bf0b8d829585640abfaa242783b",
        "archive_seed1.json": "f0657218c4d7c2ddfa9d52fabb2d8cb4605d4d534d9709d24d8ee2925938ac3b",
        "checkpoints/seed0.jsonl": "03d47a115735a8e4783a8337fefe7ade084beff7a9ad1721bc3a917f3d826ac9",
        "checkpoints/seed1.jsonl": "862db396dd83f32c1bf62b2e3e5c81f725f8502e85b18e57d612ee495775ea25",
        "manifest.json": "e14ea5d8d8527b676dcdb0281b4762f12999682faa48bec78783e0501ae9f698",
        "summary.json": "df09d6000ec1a5ece502f9b9b9d02bf0d072a1ecbd2f6f89d04b9da1db0beeb9",
        "trace.csv": "bf428a444178549a3fb6a236990488324edabd97c392f3eaf512bea7711e926e",
    },
}
BENCHMARK_BUDGETS = {
    "constrained_toy": {"population": 60, "generations": 4},
    "zdt1": {"population": 7, "generations": 3},
}


def _hash_tree(out: Path) -> dict[str, str]:
    return {
        p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }


def run_fl_golden(out: Path, algorithm: str, setting: str, workers: int = 1) -> dict[str, str]:
    """Digests of a 2-seed, 2-generation, population-4 search at 2 rounds x 1 epoch."""
    run_manifest(
        {
            "algorithm": algorithm,
            "setting": setting,
            "seeds": [0, 1],
            "generations": 2,
            "population": 4,
            "workers": workers,
            "fl": {"rounds": 2, "local_epochs": 1},
            "out_dir": str(out),
        }
    )
    return _hash_tree(out)


@pytest.mark.parametrize("setting", sorted(GOLDEN))
def test_fl_run_artifacts_match_golden_digests(tmp_path, setting):
    assert run_fl_golden(tmp_path, "nsga2", setting) == GOLDEN[setting]


@pytest.mark.parametrize("setting", sorted(GOLDEN))
def test_fl_run_artifacts_at_two_workers_match_golden_digests(tmp_path, setting):
    assert run_fl_golden(tmp_path, "nsga2", setting, workers=2) == GOLDEN[setting]


@pytest.mark.parametrize("setting", sorted(GOLDEN_RANDOM))
def test_fl_random_search_artifacts_match_golden_digests(tmp_path, setting):
    assert run_fl_golden(tmp_path, "random", setting) == GOLDEN_RANDOM[setting]


@pytest.mark.parametrize("setting", sorted(GOLDEN_BENCHMARKS))
def test_benchmark_run_artifacts_match_golden_digests(tmp_path, setting):
    run_manifest(
        {
            "algorithm": "nsga2",
            "setting": setting,
            "seeds": [0, 1],
            **BENCHMARK_BUDGETS[setting],
            "out_dir": str(tmp_path),
        }
    )
    assert _hash_tree(tmp_path) == GOLDEN_BENCHMARKS[setting]
