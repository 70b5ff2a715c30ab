"""Golden SHA-256 digests of small PSL runs.

Every output file of a one-seed, 2-generation PSL search is pinned byte
for byte: on constrained_toy (3 objectives, one bound) and on zdt1
(2 objectives).  The checkpoints hold the trained network's weights, so a
change to the GP posterior, the surrogate loss, its gradients or the Adam
update that moves any bit of the training fails here, as does any change
to the candidates greedy HVI picks.  `model_lr` 1e-3 makes the 300 Adam
steps move the network well away from its zero-initialized output layer.
Those two runs fit their GPs on 5 and 9 rows; a third, 3-generation run at
population 20 fits its last GPs on 45 rows, a size at which the order of
the posterior's reductions decides their rounding.

The digests hold for the platform named in test_golden.py; re-record them
elsewhere, and declare the change, rather than loosening the comparison.
"""

import pytest

from flpareto.runner import run_manifest
from test_golden import _hash_tree

GOLDEN_PSL = {
    "constrained_toy": {
        "archive_seed3.json": "1773986157f659b495b4ee4f0106627617649aceb080e616f031e2969add476c",
        "checkpoints/seed3.jsonl": "80e9bbeae140732b132b1b2c9dbddc677a757f42e374014e63270e420e56c33e",
        "manifest.json": "4e616c93f668c1bb3b42b3ba8583633440b9afe74eda16780dbaa43c2e5459eb",
        "summary.json": "e1ee0c6fba508f7f08cefb9e9e0289445ec03d16305255fa99a60e2a46b6bb2b",
        "trace.csv": "92ec913ea4a8542a3dcca4913313241639391857399108cd0ad4b6eb87e8c72e",
    },
    "zdt1": {
        "archive_seed3.json": "2dcf6faa46f413ab87ae8d977f2c2c8a35cac729c698fd6ff0c7ce466e434bc4",
        "checkpoints/seed3.jsonl": "fadbfba042370372e3d6bc5e9428daf09fdfe2db0e11576551987f6beb349ab9",
        "manifest.json": "05fce9fb22f17884af9678464df1ba99f5889f3bc43cf70c33c0bf83fb5fead9",
        "summary.json": "ada131caf5b4931e188ee1c0d4c6af1efe91d2f55eed68f75d4f191d6b848eab",
        "trace.csv": "4ab4b102ca40be0ad711a5b0ec1e539bec24aeef979693ec0fbfa6ffcfd2676a",
    },
}

GOLDEN_PSL_LARGE = {
    "archive_seed5.json": "676cccd8167b1c61e06973e586491fb96f3420237eaec163a506199b6d29af67",
    "checkpoints/seed5.jsonl": "6d58402d176316ec7d43cfa3cbca4c7b5d6dc7a0444c93213bfcf2e4d60f1aec",
    "manifest.json": "62f114e0178f593d8b8c678fe6ab52312700b6f462f13f8fe2f3e2ab81d16c61",
    "summary.json": "392c8eb0b33ae98ef2d8a2bc335415f9d50f551089cb27865ebbd1c70f73e76c",
    "trace.csv": "9105ed3991550fe17e18f9b069b37051d68f23e9aa284eae2c12ac70c0b0788e",
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


def test_psl_run_on_a_larger_archive_matches_golden_digests(tmp_path):
    run_manifest(
        {
            "algorithm": "psl",
            "setting": "constrained_toy",
            "seeds": [5],
            "generations": 3,
            "population": 20,
            "psl": {"candidates": 200, "model_steps": 300, "model_lr": 1e-3},
            "out_dir": str(tmp_path),
        }
    )
    assert _hash_tree(tmp_path) == GOLDEN_PSL_LARGE
