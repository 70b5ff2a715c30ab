# Constraint handling vs the unconstrained baseline.
#
# The toy problem trades two convex quadratics against a synthetic privacy
# objective p = 1 - x1, constrained to p <= 0.8 (so x1 >= 0.2 is feasible).
# The baseline is the same engine with every penalty coefficient zeroed;
# it spends part of its evaluation budget in the infeasible region.

import numpy as np

from flpareto import NsgaConfig, run_nsga2
from flpareto.bench import constrained_toy_problem

problem = constrained_toy_problem(dim=3)
cfg = NsgaConfig(population_size=10, generations=10)
seeds = range(5)

curves = {"constrained": [], "baseline": []}
feasible_evals = {"constrained": 0, "baseline": 0}
for seed in seeds:
    cm = run_nsga2(problem, cfg, seed=seed)
    bl = run_nsga2(
        problem, cfg, seed=seed,
        constraints=problem.constraints.with_zero_penalties(),
    )
    curves["constrained"].append([r.hv_feasible for r in cm.records])
    curves["baseline"].append([r.hv_feasible for r in bl.records])
    feasible_evals["constrained"] += int(cm.archive.feasible.sum())
    feasible_evals["baseline"] += int(bl.archive.feasible.sum())

med_cm = np.median(curves["constrained"], axis=0)
med_bl = np.median(curves["baseline"], axis=0)

print("generation  constrained  baseline   gap")
for t in range(cfg.generations):
    print(f"{t + 1:>10}  {med_cm[t]:>11.3f}  {med_bl[t]:>8.3f}  {med_cm[t] - med_bl[t]:+.3f}")

total = cfg.population_size * (cfg.generations + 1) * len(list(seeds))
print(f"\nfeasible evaluations out of {total}:")
for k, v in feasible_evals.items():
    print(f"  {k}: {v}")
