"""Golden SHA-256 digests of small NSGA-II runs on the FL settings.

Every output file of a 2-seed, population-4, 2-generation run on rd, bc
and sf (2 federated rounds of 1 local epoch) is pinned byte for byte, so a
refactor of the simulator, the mechanisms or the runner that changes any
objective, trace value or artifact byte fails here.

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
        "checkpoints/seed0.jsonl": "33a9031fe0b736fda48a193a10cdb3c8021c9c3953e027a82917b036bae09757",
        "checkpoints/seed1.jsonl": "76f0fd33ee4b8b985bd5595c81e5bf6763587cb40888dbbf891793a0dfff17e6",
        "manifest.json": "ac71928ddb9c8710d7317315d72f6376af382db4c09b22da3cb46eec78b682eb",
        "summary.json": "3267b68e0ec403e0c62466b845e8fdbd444878273c4ddb977896129fc4ffcb8f",
        "trace.csv": "89fc6f06850577980259e3e75feb4152bb42e6e9d0da82f67143fd2a0534ac33",
    },
    "bc": {
        "archive_seed0.json": "912e22a5a458ca58afc5406b1d517b7e829dde07872454ef716084c6963f2caa",
        "archive_seed1.json": "b10c81847404cd88062648c76a178928cbe2af7e214a48b47e76cd7e29d0ea50",
        "checkpoints/seed0.jsonl": "1ac3c55f059f72ec47c26ab6677ae64d591c3907a69724dd5bc65e5a9c4a07bb",
        "checkpoints/seed1.jsonl": "d028b8456fbce64b12ec09386cf0cda7424328c077a41df10771ddb7612bfd29",
        "manifest.json": "4bc43293683159d2c2fcac6733f8d10ae293ab824c5662e406db61a14b4975de",
        "summary.json": "b8f7e0a50d6f6a9f29b53af8829b620631ab776bea61cf656f38499b99a6dedb",
        "trace.csv": "e0bce8ed711f7085c09f72a80e9f773dbdaf3de526e8361dac76d2f60425cca3",
    },
    "sf": {
        "archive_seed0.json": "43dd89f74a7aa30f63678987500d48eeecdcc143ab548f239170bc2007ee79ee",
        "archive_seed1.json": "b02371f994cefd7189a4bc0cdc7d3d8a7e5029b1122f8457ba8b4ef0fa45af0a",
        "checkpoints/seed0.jsonl": "e9d0177ea4f4ea189c3e59ed6a6842b59b9b132b74d75e7d5c4157dfb6e6e601",
        "checkpoints/seed1.jsonl": "eb1ac7627fa9cfa6a7c304d53bdb5d48bb9da7d2e2cd5014f66455c293ffb475",
        "manifest.json": "8ca89460c9932663fcc70a1c976832938b565f1a801b88a02e37fb6679c8d087",
        "summary.json": "38884ac9b8c9057986d92617a1767652adead71e28173cc479b72df56e42ccd5",
        "trace.csv": "397de717e92fb477d97a9292c4fe935ea06daaa21c09bc131fa4395a74ce12ad",
    },
}


def _hash_tree(out: Path) -> dict[str, str]:
    return {
        p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }


@pytest.mark.parametrize("setting", sorted(GOLDEN))
def test_fl_run_artifacts_match_golden_digests(tmp_path, setting):
    run_manifest(
        {
            "algorithm": "nsga2",
            "setting": setting,
            "seeds": [0, 1],
            "generations": 2,
            "population": 4,
            "workers": 1,
            "fl": {"rounds": 2, "local_epochs": 1},
            "out_dir": str(tmp_path),
        }
    )
    assert _hash_tree(tmp_path) == GOLDEN[setting]
