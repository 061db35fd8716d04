"""Ruin probabilities three ways: renewal solver, closed form, Monte Carlo.

The solver handles any claim family; exponential claims admit the classic
closed form, and the ladder sampler provides a model-independent check.
"""

import numpy as np

from ruinbounds import (Exponential, RiskModel, exact_ruin_exponential,
                        mc_estimates, pk_truncated_series, ruin_probability)

model = RiskModel(lam=0.5, c=0.5, claims=Exponential(2.0))
print(f"loading theta = {model.theta:.2f}, modulus phi = {model.phi:.2f}")

psi = ruin_probability(model, u_max=12.0)
us = (0.0, 0.5, 1.0, 2.0, 5.0)
# one draw of 10^6 paths, counted at every u
mcs = mc_estimates(model, "psi", us, 1_000_000, seed=1)
print("\n   u     solver      closed      MC (n=10^6)       |solver-closed|")
for u, mc in zip(us, mcs):
    closed = exact_ruin_exponential(model, u)
    print(f"  {u:4.1f}  {psi(u):.7f}  {closed:.7f}  "
          f"{mc.estimate:.5f} +- {mc.standard_error:.5f}   "
          f"{abs(psi(u) - closed):.2e}")

# The compound geometric series converges geometrically; thirty terms
# reproduce the solver to its own discretization accuracy.
series = pk_truncated_series(model, 30, u_max=12.0)
gap = np.max(np.abs(series.values - psi.values))
print(f"\n30-term compound geometric series: sup gap to solver = {gap:.2e}"
      f" (remainder bound phi^31 = {model.phi**31:.1e})")
