# Surrogate-assisted search when evaluations are scarce.
#
# With only 105 evaluations (5 initial + 20 rounds of 5), the
# preference-conditioned surrogate optimizer picks each batch by greedy
# hypervolume improvement over Gaussian-process predictions, and clearly
# beats spending the same budget on uniform random sampling.

import dataclasses

import numpy as np

from flpareto import NsgaConfig, PslConfig, run_nsga2, run_psl, run_random_search
from flpareto.bench import zdt1_problem

problem = dataclasses.replace(zdt1_problem(dim=10), ref_point=np.array([1.1, 11.0]))
seeds = range(3)

rows = {}
for seed in seeds:
    psl = run_psl(problem, PslConfig(generations=20, batch_size=5, n_init=5), seed=seed)
    rnd = run_random_search(problem, 5, 20, seed=seed)
    ga = run_nsga2(problem, NsgaConfig(population_size=5, generations=20), seed=seed)
    rows[seed] = (psl, rnd, ga)
    print(f"seed {seed}: surrogate {psl.records[-1].hv_feasible:.2f}  "
          f"random {rnd.records[-1].hv_feasible:.2f}  "
          f"genetic {ga.records[-1].hv_feasible:.2f}  "
          f"({len(psl.archive)} evaluations each)")

med = lambda i: np.median([rows[s][i].records[-1].hv_feasible for s in seeds])
print(f"\nmedian hypervolume at budget 105: surrogate {med(0):.2f}, "
      f"random {med(1):.2f}, genetic {med(2):.2f}")

# the surrogate run also logs its GP hyperparameters and model losses
diag = rows[0][0].diagnostics[-1]
print("\nlast-generation surrogate diagnostics:")
print("  gp hyperparameters:", diag["gp_hyper"])
print("  model loss first->last:",
      round(diag["model_loss_first"], 4), "->", round(diag["model_loss_last"], 4))
