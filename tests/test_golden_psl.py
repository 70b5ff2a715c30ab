"""Golden SHA-256 digests of small PSL runs.

Every output file of a one-seed, 2-generation PSL search is pinned byte
for byte: on constrained_toy (3 objectives, one bound) and on zdt1
(2 objectives).  The checkpoints hold the trained network's weights, so a
change to the GP posterior, the surrogate loss, its gradients or the Adam
update that moves any bit of the training fails here, as does any change
to the candidates greedy HVI picks.  `model_lr` 1e-3 makes the 300 Adam
steps move the network well away from its zero-initialized output layer.

The digests hold for the platform named in test_golden.py; re-record them
elsewhere, and declare the change, rather than loosening the comparison.
"""

import pytest

from flpareto.runner import run_manifest
from test_golden import _hash_tree

GOLDEN_PSL = {
    "constrained_toy": {
        "archive_seed3.json": "1773986157f659b495b4ee4f0106627617649aceb080e616f031e2969add476c",
        "checkpoints/seed3.json": "a133164ba62ce2ad4d679cd3ef08683d80396cffe8096324b494addd1e9fbad0",
        "manifest.json": "79abd84d145a54575cfeefcf53d3d1a5da796cc6227cebe840c97f6af1453809",
        "summary.json": "bc139957f497102078619e41396ec5d893e7da6c64ae57bf97d0bf74ad424fec",
        "trace.csv": "a5f03c84794265a22915bd1ee90b2de03aa253f348fff7316e0576cc98636bbb",
    },
    "zdt1": {
        "archive_seed3.json": "2dcf6faa46f413ab87ae8d977f2c2c8a35cac729c698fd6ff0c7ce466e434bc4",
        "checkpoints/seed3.json": "43df5a6124277a5646d77f39044762da86b829a85de60b29d730b9920930cd8b",
        "manifest.json": "921cec96ca9d5bd463d68aa07921f98db2703cdf41dbe39b92423084375e106c",
        "summary.json": "ada131caf5b4931e188ee1c0d4c6af1efe91d2f55eed68f75d4f191d6b848eab",
        "trace.csv": "4ab4b102ca40be0ad711a5b0ec1e539bec24aeef979693ec0fbfa6ffcfd2676a",
    },
}


@pytest.mark.parametrize("setting", sorted(GOLDEN_PSL))
def test_psl_run_artifacts_match_golden_digests(tmp_path, setting):
    run_manifest(
        {
            "algorithm": "psl",
            "setting": setting,
            "seeds": [3],
            "generations": 2,
            "population": 4,
            "dim": 4,
            "psl": {"candidates": 200, "model_steps": 300, "model_lr": 1e-3},
            "out_dir": str(tmp_path),
        }
    )
    assert _hash_tree(tmp_path) == GOLDEN_PSL[setting]
