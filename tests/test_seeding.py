import numpy as np
import pytest

from flpareto.moo import Archive, ConstraintSpec, Problem
from flpareto.nsga2 import _evaluate_generation
from flpareto.seeding import TAG_EVAL, spawn_seeds

from conftest import oracle_spawn_seed

# 1, 2 and 3 little-endian words, at the word boundaries
SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, 2**64 + 5]


@pytest.mark.parametrize("seed", SEEDS)
def test_spawn_seeds_match_seed_sequence(seed):
    for t in (0, 1, 10**6):
        for count in (0, 1, 60):
            got = spawn_seeds(seed, TAG_EVAL, t, count=count)
            assert got.dtype == np.uint64 and got.shape == (count,)
            assert got.tolist() == [oracle_spawn_seed(seed, TAG_EVAL, t, i) for i in range(count)]


def test_spawn_seeds_rejects_negative_keys():
    with pytest.raises(ValueError):
        spawn_seeds(-1, TAG_EVAL, 0, count=3)


# each dtype np.array gives the batch: int64 (seed 0, t 7, 3 rows), uint64
# (seed 2, t 1, 3 rows) and float64 (mixed halves, rounded to 53 bits)
@pytest.mark.parametrize("seed, t, n", [(0, 7, 3), (2, 1, 3), (0, 0, 60), (2**32, 1, 1), (2**64 + 5, 7, 13)])
def test_evaluate_generation_hands_each_row_its_seed(seed, t, n):
    received = []

    def evaluate(X, seeds):
        received.extend(int(s) for s in seeds)
        return np.zeros((X.shape[0], 2))

    cs = ConstraintSpec.unconstrained(2)
    problem = Problem("recorder", dim=3, n_obj=2, evaluate=evaluate, constraints=cs, ref_point=np.ones(2))
    _evaluate_generation(problem, Archive(constraints=cs), np.zeros((n, 3)), seed, t)
    want = np.array([oracle_spawn_seed(seed, TAG_EVAL, t, i) for i in range(n)])
    assert received == [int(s) for s in want]
