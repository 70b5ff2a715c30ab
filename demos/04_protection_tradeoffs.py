# Privacy / utility / cost trade-offs of the protection mechanisms.
#
# A single federated evaluation returns (utility loss, privacy leakage,
# training cost).  Sweeping a mechanism's strength traces its trade-off
# curve without any optimizer in the loop.  The run's data and federation
# fields are an FlOptions (the manifest's `fl` block); the class of
# `mechanism_params` names the mechanism.

import numpy as np

from flpareto import FLRunConfig, FlOptions, flo_evaluate
from flpareto.data import SYNTHETIC_DEFAULTS
from flpareto.net import ModelSpec
from flpareto.protect import RandomizationParams, SparsificationParams

spec = ModelSpec(in_dim=20, hidden1=32, hidden2=32, n_classes=2)
base = dict(model=spec, lr=0.1, fl=FlOptions(dataset=dict(SYNTHETIC_DEFAULTS)), seed=7)

print("no protection:")
res = flo_evaluate(FLRunConfig(**base))
print(f"  eps_u={res.eps_u:.3f}  eps_p={res.eps_p:.3f}  eps_c={res.eps_c:.3f}s")

print("\nGaussian randomization, clip 2.0, sweeping noise:")
print("  sigma   eps_u   eps_p")
for sigma in (0.0, 0.1, 0.2, 0.4, 0.8):
    cfg = FLRunConfig(**base, mechanism_params=RandomizationParams(sigma_rd=sigma, c_clip=2.0))
    r = flo_evaluate(cfg)
    print(f"  {sigma:>5.2f}  {r.eps_u:.3f}   {r.eps_p:.3f}")

print("\nsparsification, sweeping connection probability (xi = 0.3):")
print("  rho    eps_u   eps_p   shared-params")
for rho in (0.1, 0.3, 0.6, 0.9, 1.0):
    cfg = FLRunConfig(**base, mechanism_params=SparsificationParams(rho=rho, xi=0.3))
    r = flo_evaluate(cfg)
    print(f"  {rho:>4.1f}  {r.eps_u:.3f}   {r.eps_p:.3f}   {r.eps_c:>8.1f}")

print("\nnoise hurts utility but buys privacy; sharing less does both at")
print("the price of slower federated convergence.")
