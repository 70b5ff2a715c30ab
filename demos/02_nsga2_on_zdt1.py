# Evolutionary search on the ZDT1 benchmark.
#
# The analytic front is f2 = 1 - sqrt(f1); with reference point (1, 1) the
# best achievable hypervolume is 2/3.

import numpy as np

from flpareto import NsgaConfig, run_nsga2
from flpareto.bench import zdt1_problem

problem = zdt1_problem(dim=10)
cfg = NsgaConfig(population_size=50, generations=150)

result = run_nsga2(problem, cfg, seed=0)

print("generation  hypervolume")
for rec in result.records[::15] + [result.records[-1]]:
    print(f"{rec.generation:>10}  {rec.hv_feasible:.4f}")
print(f"\nanalytic optimum: {2/3:.4f}")
print(f"evaluations used: {len(result.archive)}")

# the final population approximates the front
pop = result.archive.raw[result.population_indices]
order = np.argsort(pop[:, 0])
print("\nfinal front sample (f1, f2, analytic f2):")
for f1, f2 in pop[order][::10]:
    print(f"  {f1:.3f}  {f2:.3f}  {1 - np.sqrt(f1):.3f}")
