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
        "checkpoints/seed0.json": "6e4dce6b1d2cb57334e824ba204dc0dd3083a44190eb735d3b3ed5c8bb0e90da",
        "checkpoints/seed1.json": "6833d31bd7ef9f089414f65bce40e6136e210008eaf32f3aecfd9e8ef3719c9d",
        "manifest.json": "36fd5de0bbc86c83e916c5758e4252ca1263e59e49ba01a1e37afba7dbc8f4df",
        "summary.json": "3267b68e0ec403e0c62466b845e8fdbd444878273c4ddb977896129fc4ffcb8f",
        "trace.csv": "89fc6f06850577980259e3e75feb4152bb42e6e9d0da82f67143fd2a0534ac33",
    },
    "bc": {
        "archive_seed0.json": "912e22a5a458ca58afc5406b1d517b7e829dde07872454ef716084c6963f2caa",
        "archive_seed1.json": "b10c81847404cd88062648c76a178928cbe2af7e214a48b47e76cd7e29d0ea50",
        "checkpoints/seed0.json": "73cce8cf855e9078e7dd375e21b982aeaff5739075beb70d4454d393f707d274",
        "checkpoints/seed1.json": "aa91b324db8a31a4bb2a1584f290a690433cbe328b36a6c37a5b2fa747637d20",
        "manifest.json": "aa84245c8594f75935c51813ca83092e654ba4337715c64c6cae30c46b0f6ea8",
        "summary.json": "b8f7e0a50d6f6a9f29b53af8829b620631ab776bea61cf656f38499b99a6dedb",
        "trace.csv": "e0bce8ed711f7085c09f72a80e9f773dbdaf3de526e8361dac76d2f60425cca3",
    },
    "sf": {
        "archive_seed0.json": "43dd89f74a7aa30f63678987500d48eeecdcc143ab548f239170bc2007ee79ee",
        "archive_seed1.json": "b02371f994cefd7189a4bc0cdc7d3d8a7e5029b1122f8457ba8b4ef0fa45af0a",
        "checkpoints/seed0.json": "9c9c2f10ff0c1d4968cba34e5575b1086d41a2c4a766cae6a4796c7ee7e6c793",
        "checkpoints/seed1.json": "b61ec643560ee755e5c92dd4c8044f09c02dc289448e8e817ead76d57cfa8582",
        "manifest.json": "34aa94c57501edc09e2851a9b8c340624bf25b0a5cd04ba4892738050169cebd",
        "summary.json": "3fb065fbd87d09d246c10914af304db6ca8707172352a9e724f94c89b7e81cfd",
        "trace.csv": "b01c58414d9f312d57885ddb2978b851777164bde88b041cdf6f3908e49e341d",
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
