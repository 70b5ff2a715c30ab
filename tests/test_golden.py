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
        "archive_seed0.json": "92db1fc0e2fcba6a96c9646499f6827e2f04d0df3aa9f3fd197481b0dddf2432",
        "archive_seed1.json": "3b1dd6bea96b18c39429852bf77b396a7a5c3e3adc97ac2f4c5338706d050cd3",
        "checkpoints/seed0.jsonl": "33803f55664c22351cb48f7a340e9da5f535638e8fa1cc7a990465540ab476f2",
        "checkpoints/seed1.jsonl": "d2d8f47b670f4dbb1d9accb9f24bd30eaa8f7fc19db2174b20c14e1acaf8142f",
        "manifest.json": "d50336076a5899f55fadafca927279fbd05f47c8a2185922864e67d4214ba39a",
        "summary.json": "9cc87611e9026368103f801afec60c8a09b0de4bdddfc7bd2ff71888c33ca1c5",
        "trace.csv": "89fc6f06850577980259e3e75feb4152bb42e6e9d0da82f67143fd2a0534ac33",
    },
    "bc": {
        "archive_seed0.json": "dac27564c2934c57af833f820bea41cab559c118c2ada7d8afde1288a69ece0f",
        "archive_seed1.json": "98e653a2618b8d93d521a2e9b0f7c5e9d11708b067442a7ee7eaaa93a20580c0",
        "checkpoints/seed0.jsonl": "4d295725c29f99e62ca8d40e82598f9f9540399849aefa872a9ace69b317ec2e",
        "checkpoints/seed1.jsonl": "541e0c0de08aa288dc1c9fe6dbd16b3105c1d82d50b0535d98de30c4fad422a8",
        "manifest.json": "37639b3ba1f02c0674962c6a5b48f69387987cd6ac80463539f28d2729655013",
        "summary.json": "8c6cf5e69de6aacbe9ddceb9e316207efe0e95a89750dce70134cd7ac6171b5b",
        "trace.csv": "e0bce8ed711f7085c09f72a80e9f773dbdaf3de526e8361dac76d2f60425cca3",
    },
    "sf": {
        "archive_seed0.json": "29d7232ff30efdb1f339c7ee12e33d12ead4125128b2bda880418ada972efcf7",
        "archive_seed1.json": "25f67927967a583440e910fb2f35550b89df66b8259c0eeac5e51f82c994074d",
        "checkpoints/seed0.jsonl": "0d854a3d7567e7cc4dcf2ba19ae03668abea292331b287b82294ef764cb1812f",
        "checkpoints/seed1.jsonl": "1ca2c227c8650a5ed9259189c793b4bfdd197bc728dabfbd0be22c72da60eaa6",
        "manifest.json": "b809fb379ee96386934a1effe6438e9cb8f5e832b4367c8bc5bbff52979c06a0",
        "summary.json": "216efa35ca71e1075e8dbcf255b56762596e8fe26f307797092b2991ecd19d86",
        "trace.csv": "397de717e92fb477d97a9292c4fe935ea06daaa21c09bc131fa4395a74ce12ad",
    },
}

# random search at the FL golden size: seeds [0, 1], 2 generations of 4 rows
GOLDEN_RANDOM = {
    "bc": {
        "archive_seed0.json": "86195c7d89215cf15faff646a8c4ba693bc1f840f3c734124012654794a2d461",
        "archive_seed1.json": "86b61c9eadbabc55df2ca9cd178b0a9b24b07745c027ec3046db711c94b576be",
        "checkpoints/seed0.jsonl": "0e70c2bda47e03010a0e90eb1a68301facfccf0788b293a05a3a3c978c08e03f",
        "checkpoints/seed1.jsonl": "6e3ca1aa7a16ae33b45aeafc5f6334b5db961145d9844007cc3435c2233e125e",
        "manifest.json": "c942b8d8aa0a34f9fe917727aa4efa0d07d5f6619fab32e843f3d84446c8c05d",
        "summary.json": "66a6cd1a88f32bc3392e429a883594614891407516702df7b5d91f99322c39cc",
        "trace.csv": "6d147910ce87129b47b36e70358a1a7be4d55a81f12fbd52f3b6d3f71a5a7839",
    },
    "rd": {
        "archive_seed0.json": "354a43eed6e7cc6b31cbeb62f491f0053d901664e97b8570817d99e83dffe8d5",
        "archive_seed1.json": "941f9fa812ce9fe8014d786a90e74eacdc174698925762396592ac240f08d597",
        "checkpoints/seed0.jsonl": "94559ee40da2b23c8fdf5d9f8a2dbf836d9b10d51d41a5f4c828886710fec7ae",
        "checkpoints/seed1.jsonl": "b3b624edf5adc6157afa279d717636f73242f65de417b183a7955160a5c23466",
        "manifest.json": "cdd18f3428594c7dac7557a102242b0f9b944d4620ee5520af816813aa4fb239",
        "summary.json": "ae5f0f39703594ecae89276cf7a497c5937d2d4414ff0ff5e66b0f5141d79517",
        "trace.csv": "07f4b014b01f6b7ff07d5f2c97b31239f35c5f6c92adeb2eacca17bd11e21db3",
    },
    "sf": {
        "archive_seed0.json": "9554968dfee1b7903285da1cfe3d539b942f224a8f3d3746e122ae4eb4cb636e",
        "archive_seed1.json": "21999575b1df4c155a39bdabe3ac3fb8c8d660b8fd4480f673b91b6de62a6793",
        "checkpoints/seed0.jsonl": "923d4c9c761aa6d858d4ec0a2ca80e44199a97e9a8bb77b6490025401c4281c1",
        "checkpoints/seed1.jsonl": "cf200c83b8698cfcbcdb55d814d34fe524c9d53fd6403deaa643466d707cdf49",
        "manifest.json": "89bdc0135830c3b080212aec9d4f6091450c383bf2e0d04e431fa2a714d70c30",
        "summary.json": "508c0ed9b46639342cd7694b38be80cb5530e354792acd500d48dfb937af2010",
        "trace.csv": "a76a5e8e1b7c636548f9c81f685f28e7d39f4c11962b3e37c29fa35aecd21de7",
    },
}

GOLDEN_BENCHMARKS = {
    "constrained_toy": {
        "archive_seed0.json": "98245900e2c22d27438132267b11406b47d70a2788dff6425342177d6e0c642c",
        "archive_seed1.json": "e6f6983f3329a7da218bb21595ad44614f0ff2dc35337c8f8f440454ab32bce3",
        "checkpoints/seed0.jsonl": "beca9a6494cecbd4df3627a934c5f8813feb2a88bd24d61e450f48e72e6408f8",
        "checkpoints/seed1.jsonl": "ed7701f2d2e9bc33391019d13a3c82d33160c748dfb4e53ef7dd856d57f3108d",
        "manifest.json": "3ab322081a7c3e655cb9d4c1bd776b98e913e879a5aa952f7bcaba357524c89f",
        "summary.json": "93339ec7ef09e7979824854aa5abab125644bac025c47c3de75696aeba8a2bd3",
        "trace.csv": "dd5feff2f8676607627841acf966f27b8ebba26f2a7d57d85d0dab704b639650",
    },
    "zdt1": {
        "archive_seed0.json": "94754a3115a165cd5aa23be2839d281726dddc7111e7e2f61ad0230a45350550",
        "archive_seed1.json": "de0f3146e1d25681bc2430786d567bc874c5a7c4463a86217c647c55a8239228",
        "checkpoints/seed0.jsonl": "03d47a115735a8e4783a8337fefe7ade084beff7a9ad1721bc3a917f3d826ac9",
        "checkpoints/seed1.jsonl": "862db396dd83f32c1bf62b2e3e5c81f725f8502e85b18e57d612ee495775ea25",
        "manifest.json": "1efa36e279736beaf612d076251839cd7fed2ca812251ac84af47f8b56872190",
        "summary.json": "56e468b771e7e2319e25642b1fbdaaff9d64e8586f5f49b91db31396dbb27d95",
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
