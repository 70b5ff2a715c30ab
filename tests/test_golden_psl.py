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
        "archive_seed3.json": "c7f4ccb67eae0c341fcf58743bbe65dcd2df66786fb044ea6dbf27c235574ef9",
        "checkpoints/seed3.jsonl": "80e9bbeae140732b132b1b2c9dbddc677a757f42e374014e63270e420e56c33e",
        "manifest.json": "6d3ec850ee5180b9182de73deedc5c98886058034c02ed72eaf9c761abc8290d",
        "summary.json": "e4960c84e8ab33d4285a883de4e7700c6e546f9a25f103a9ec0a4c2fbd75f46b",
        "trace.csv": "92ec913ea4a8542a3dcca4913313241639391857399108cd0ad4b6eb87e8c72e",
    },
    "zdt1": {
        "archive_seed3.json": "19c11693b1785a2a2e980dd23658bd24464d05ccedb2cb92487bbbb28c9c2864",
        "checkpoints/seed3.jsonl": "fadbfba042370372e3d6bc5e9428daf09fdfe2db0e11576551987f6beb349ab9",
        "manifest.json": "344e513614f0e128a5246575d954bb5d0b3fd652a9ca8a5da7ac7113b4506e06",
        "summary.json": "274356dfa8567917a6ad5a69195aaa3d1541687395a724061240b3ee59872dd5",
        "trace.csv": "4ab4b102ca40be0ad711a5b0ec1e539bec24aeef979693ec0fbfa6ffcfd2676a",
    },
}

# PSL at the FL golden size (default psl block): seeds [0, 1], 2 generations of 4 rows
GOLDEN_PSL_FL = {
    "bc": {
        "archive_seed0.json": "d2bbb49f877dddd459535e7cd571b277eab0a3b13e285eaa826d5b8941392a5e",
        "archive_seed1.json": "583c554e0f5fac1ce845a1f5a40066ba839a255a41726f4224d44b87cbe44913",
        "checkpoints/seed0.jsonl": "52e111a5146bbeb1bc92ab34480e05b7d15354fb350c17bded8059e1db094b44",
        "checkpoints/seed1.jsonl": "ad70f251767c24ba28f41d9643115f1fdbedffc7a969f1a8729ff077d09c71fd",
        "manifest.json": "851c5a14f82440223299e064d41b21dcefc845267c4a8683d3054a38feb31a69",
        "summary.json": "6cd26670fb4c1cf816dc896b85ef2f0f40b13777c0a8d0ee88daf65370024688",
        "trace.csv": "733be9ced210c7a14fc51e53702170ee1464c1595c905b5be90e7263c0e8cb2f",
    },
    "rd": {
        "archive_seed0.json": "4bd5501499437d7b7245cc209385d7b18d9b8ba37ccfca26b23e27adc27fbb37",
        "archive_seed1.json": "e09bb7aa087080892837d70ceaf5f51ab6a48c5dad7c1c6ca2483cb60993fd37",
        "checkpoints/seed0.jsonl": "4ac4ae240d329fcd360b1bcfbb1065687eaa3e22efccc2adb17cfba8cfa82642",
        "checkpoints/seed1.jsonl": "74fbc0f5f8389b8a2928c7a2bb5776d545387f76e6104715d5ba31596767aea8",
        "manifest.json": "f2a66e9e63d77adf3798ee7aad7e0f81991bef0871ec711e5282dedf22f867f4",
        "summary.json": "8884a937e3aaa20514754809c838a85b8be777a6a7d09a5289812f0128f9a276",
        "trace.csv": "10a10a5677680603bb4bbe40f73527d96d48bec3bfa1d61a8a0e8d35eb19d8c0",
    },
    "sf": {
        "archive_seed0.json": "ae6335c1eb4e1b40b0f44e6be43139f45fe387d08a576e59d794556102e2bb51",
        "archive_seed1.json": "2e3f409743875630c77161a70efadf169ec6d6b4c7090de1fcc1a95d85d93db0",
        "checkpoints/seed0.jsonl": "d2fed65c59fb8ab71bf4fe1af33aec29f4852e039618166cd36c46c8dd09009d",
        "checkpoints/seed1.jsonl": "31a896f0c3b84879d134f23c6111efdffd6864889aaa8fe6ea47f94403909226",
        "manifest.json": "fed7d71bc99654d2bb65fda9b6d9d18544291b3e6cfdf3479cab1a3babf57c42",
        "summary.json": "879fe07bcc568d3841c10f07ec2150800893258c30cf2a65dbdb3bae634eef4e",
        "trace.csv": "25efad7ddb7eeeb1f7fef76f44a3a49772d7dff9043ce02172d59c084b2a815d",
    },
}

GOLDEN_PSL_LARGE = {
    "archive_seed5.json": "ed33612705b7d29351a16d044d0a9e2763d53a824a169a8f9131b23db68ed013",
    "checkpoints/seed5.jsonl": "6d58402d176316ec7d43cfa3cbca4c7b5d6dc7a0444c93213bfcf2e4d60f1aec",
    "manifest.json": "2eb3cb994245d0a0d6c858d8dc7013c0cdd64ac6516be1806f4bdf5dda1619ae",
    "summary.json": "83cca562891f031bc48f979cf5d306576d438413de5bb8c463eebbef0085b0c1",
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
