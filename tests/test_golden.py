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
        "checkpoints/seed0.json": "adc2a88313628fdb982f691f567fe7132e4a65f3a1571be3ff6f8036b02f1bc4",
        "checkpoints/seed1.json": "f25e8d521bc597d5daf8d041662292d66d7caca41206fb6dd4e5eaec0ce835af",
        "manifest.json": "93e58bfbdf1254b02d5af82e51c43f285b4bba20a59ff295eb2aa9d182debb3f",
        "summary.json": "3267b68e0ec403e0c62466b845e8fdbd444878273c4ddb977896129fc4ffcb8f",
        "trace.csv": "89fc6f06850577980259e3e75feb4152bb42e6e9d0da82f67143fd2a0534ac33",
    },
    "bc": {
        "archive_seed0.json": "912e22a5a458ca58afc5406b1d517b7e829dde07872454ef716084c6963f2caa",
        "archive_seed1.json": "b10c81847404cd88062648c76a178928cbe2af7e214a48b47e76cd7e29d0ea50",
        "checkpoints/seed0.json": "bc5f41003c5075ae722fcee883fc40ad00a3942c0a6df6dcdbd2965c7de38cdf",
        "checkpoints/seed1.json": "0ef337c2a635accb5cf46a451608e1c5cd95dfaf2a8c16324264e02e0b986fce",
        "manifest.json": "bcaed40159f92a9358dcde215133b9b7e2f8285cd63803bc4dd90a2b55b372a5",
        "summary.json": "b8f7e0a50d6f6a9f29b53af8829b620631ab776bea61cf656f38499b99a6dedb",
        "trace.csv": "e0bce8ed711f7085c09f72a80e9f773dbdaf3de526e8361dac76d2f60425cca3",
    },
    "sf": {
        "archive_seed0.json": "43dd89f74a7aa30f63678987500d48eeecdcc143ab548f239170bc2007ee79ee",
        "archive_seed1.json": "b02371f994cefd7189a4bc0cdc7d3d8a7e5029b1122f8457ba8b4ef0fa45af0a",
        "checkpoints/seed0.json": "f4857263d6c6d42ee66ef4d24669587f70cfd804f73f2b1a7c6a65f8df6be162",
        "checkpoints/seed1.json": "9407ba7a8d222cf682af3d3e274be08c3e27a631a10d3d7bfdf4123a6fce0595",
        "manifest.json": "f01b1ca5d0e59d94cd67ae30f28d71f67fb1bf4e4c7118336de67585062c56fd",
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
