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
the posterior's reductions decides their rounding.  On rd, bc and sf, PSL
runs at the FL golden size of test_golden.py, so the simulator's bits
feed the GPs and the picks.

The digests hold for the platform named in test_golden.py; re-record them
elsewhere, and declare the change, rather than loosening the comparison.
"""

import pytest

from flpareto.runner import run_manifest
from test_golden import _hash_tree, run_fl_golden

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

# PSL at the FL golden size (default psl block): seeds [0, 1], 2 generations of 4 rows
GOLDEN_PSL_FL = {
    "bc": {
        "archive_seed0.json": "f0acadb378b7167a1dd897a0b1fcf2a7a5fd93ac9872650f050a7449c9cee9f1",
        "archive_seed1.json": "a67d9ac7d2a6f179d1984857ecda6b2c3651795805f40144c12c679925a1e420",
        "checkpoints/seed0.jsonl": "52e111a5146bbeb1bc92ab34480e05b7d15354fb350c17bded8059e1db094b44",
        "checkpoints/seed1.jsonl": "ad70f251767c24ba28f41d9643115f1fdbedffc7a969f1a8729ff077d09c71fd",
        "manifest.json": "385ed016a70267118f6df8a21533f32421fa53c7e16f113f5500b32379fc9f8e",
        "summary.json": "db97abbb1226518db302bee9da97c17a9248d69e3e2341c4240f1a941bac93e8",
        "trace.csv": "733be9ced210c7a14fc51e53702170ee1464c1595c905b5be90e7263c0e8cb2f",
    },
    "rd": {
        "archive_seed0.json": "dc2d734060732406ac8d16750608a5ef20ef97c4c30b13afbf9e64d147b70edd",
        "archive_seed1.json": "2634263b6daedc33ff730d6a52a3157ecf7b77b7e317ce9417173c056b3b4da1",
        "checkpoints/seed0.jsonl": "4ac4ae240d329fcd360b1bcfbb1065687eaa3e22efccc2adb17cfba8cfa82642",
        "checkpoints/seed1.jsonl": "74fbc0f5f8389b8a2928c7a2bb5776d545387f76e6104715d5ba31596767aea8",
        "manifest.json": "76b741317163744b3556aa694ea13a7f2fb82498f5c48e7210c7baf70b8eed0a",
        "summary.json": "95512878e83b9995c978099aafd4cdb5354c82760ad3b23eee643eb4ab671507",
        "trace.csv": "10a10a5677680603bb4bbe40f73527d96d48bec3bfa1d61a8a0e8d35eb19d8c0",
    },
    "sf": {
        "archive_seed0.json": "6588250692f2df08370726f447ecca72de7a61164e6da77161ae5961a095d8bf",
        "archive_seed1.json": "fc9cd2807128926080ff2404950d6be0afc39ce2cbece1075b01e9acb1dfd8ba",
        "checkpoints/seed0.jsonl": "d2fed65c59fb8ab71bf4fe1af33aec29f4852e039618166cd36c46c8dd09009d",
        "checkpoints/seed1.jsonl": "31a896f0c3b84879d134f23c6111efdffd6864889aaa8fe6ea47f94403909226",
        "manifest.json": "199e98c627fa6a7fb0fc6e8fa6cf2a5f4c2d582c01866f1acc80d2720b8b8245",
        "summary.json": "cbfa4049ba36d9ef10e877e60baeef8309ff9a9f1eb9d21d0da1105ee1cb1adb",
        "trace.csv": "25efad7ddb7eeeb1f7fef76f44a3a49772d7dff9043ce02172d59c084b2a815d",
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


@pytest.mark.parametrize("setting", sorted(GOLDEN_PSL_FL))
def test_psl_fl_run_artifacts_match_golden_digests(tmp_path, setting):
    assert run_fl_golden(tmp_path, "psl", setting) == GOLDEN_PSL_FL[setting]
