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
        "archive_seed3.json": "7199c08bb313a381f5fb80a444152a05a8b2c738e9f8016c19e4bd9e75f7ad43",
        "checkpoints/seed3.jsonl": "57208a301bf342954bd9427aba0a8236e28d1c6fd68eb1263cf01991d3611c18",
        "manifest.json": "6d3ec850ee5180b9182de73deedc5c98886058034c02ed72eaf9c761abc8290d",
        "summary.json": "bc90415cb53aedfc9473230fd7ebe6e461f0eb68930fbb5045d834ac818053e4",
        "trace.csv": "1b111f1cd0e6d5bcde612b880cee5eb758b09f9f55e5239702bf97b8f814f3db",
    },
    "zdt1": {
        "archive_seed3.json": "23dd8f1ba8eba712f07a274da7274ed65426c5bd51f315afbe399e2c52e98bb2",
        "checkpoints/seed3.jsonl": "4e5411219c9694f390e1789eaee1abed87bb91b4181ed606fe5e82083beabf4d",
        "manifest.json": "344e513614f0e128a5246575d954bb5d0b3fd652a9ca8a5da7ac7113b4506e06",
        "summary.json": "7c74729a8af68242c79ecc034f4c0acc14d2a1f83c339b0397627b19ae074673",
        "trace.csv": "4ab4b102ca40be0ad711a5b0ec1e539bec24aeef979693ec0fbfa6ffcfd2676a",
    },
}

# PSL at the FL golden size (default psl block): seeds [0, 1], 2 generations of 4 rows
GOLDEN_PSL_FL = {
    "bc": {
        "archive_seed0.json": "755b1d7d38a6120ef291d370a0a1ace430458961773459f5797cb90a025753fb",
        "archive_seed1.json": "9acbe30042fe832ef7ad2674952b092442a92b4c3a1fc879e1f79c63beb14bb3",
        "checkpoints/seed0.jsonl": "427380f8ee984338c18cf7d12875db0621abcf5c79cdf20fab1a1633a3b3cf06",
        "checkpoints/seed1.jsonl": "f38272c43c1d5c884841738326725a1dd704e510bc6f10cf3b8da4be9bed1545",
        "manifest.json": "851c5a14f82440223299e064d41b21dcefc845267c4a8683d3054a38feb31a69",
        "summary.json": "6cd26670fb4c1cf816dc896b85ef2f0f40b13777c0a8d0ee88daf65370024688",
        "trace.csv": "733be9ced210c7a14fc51e53702170ee1464c1595c905b5be90e7263c0e8cb2f",
    },
    "rd": {
        "archive_seed0.json": "c693ecd780af64ea3811f528491af534494f3e6ca4f0abed4bcf6714822539cb",
        "archive_seed1.json": "906f7e2f24ef09ca5437b351134f2922066e8db4950b65e9c57a35ec0dd55e4b",
        "checkpoints/seed0.jsonl": "9da78af7eae080baa0a33da18b58a0017ed4fd37f1afcaed2acd71b327468399",
        "checkpoints/seed1.jsonl": "5d23e65246675a4b69af41749c0c802aa24210ccbf5feae87cddc59e11567243",
        "manifest.json": "f2a66e9e63d77adf3798ee7aad7e0f81991bef0871ec711e5282dedf22f867f4",
        "summary.json": "8884a937e3aaa20514754809c838a85b8be777a6a7d09a5289812f0128f9a276",
        "trace.csv": "10a10a5677680603bb4bbe40f73527d96d48bec3bfa1d61a8a0e8d35eb19d8c0",
    },
    "sf": {
        "archive_seed0.json": "df138b5b2455cfe6d2c3cd31b2df18800ef7c2e23a26380f563bfc82323af9eb",
        "archive_seed1.json": "76fd13f7d50a62f8e6a8c90053e759f1ba4e56bc582c54d81df1d708162f9af7",
        "checkpoints/seed0.jsonl": "5667f65449c9da27e0b439727a74526ad0ae726f5400333724072411805a9b05",
        "checkpoints/seed1.jsonl": "8c110efba178557a3527263249ed541d3781f359697895de07ac440762037ddd",
        "manifest.json": "fed7d71bc99654d2bb65fda9b6d9d18544291b3e6cfdf3479cab1a3babf57c42",
        "summary.json": "c4561cb4092a37c51db41e8eab0e655ec08d33dd7bd4ab35b78b7f8e2ebb0306",
        "trace.csv": "829cf7a4879c729bd0060988440c7055653b8309defbd7bf7253399487178858",
    },
}

GOLDEN_PSL_LARGE = {
    "archive_seed5.json": "52df58a9de772d1aa3b71581d2e48e765aeaef7d7ce7e25b849f2781b98ec96d",
    "checkpoints/seed5.jsonl": "dbeb4de9853b5647add351d7411e84dd38473693064cfbfb7f63ba96b0d2a529",
    "manifest.json": "2eb3cb994245d0a0d6c858d8dc7013c0cdd64ac6516be1806f4bdf5dda1619ae",
    "summary.json": "71d4363e42283e42d3a6376eaf840e0dcdeed57abc32f58c6e2fee54c1c2d522",
    "trace.csv": "627ba947437d88f7b85d3162a63330e039436b4f815afccc514eaaafc5dba238",
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
