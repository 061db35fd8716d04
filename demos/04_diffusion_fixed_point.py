"""Diffusion-perturbed surplus: the compound geometric tail K-bar, its
fixed-point iterates with error certificates, and the split of total ruin
into oscillation-caused and claim-caused parts.
"""

import numpy as np

from ruinbounds import (Exponential, PerturbedModel, RiskModel, decompose,
                        k_exact_exponential, k_iterate_erlang, k_iterates,
                        k_tail, psi_total)

# matched-rate case: beta = c/D, so one ladder step is Erlang(2, beta)
pm = PerturbedModel(RiskModel(lam=0.5, c=0.5, claims=Exponential(2.0)), D=0.25)
print(f"b0 = c/D = {pm.b0:g}, phi = {pm.phi:g}")

exact = k_exact_exponential(pm, 1.0)
print(f"\nexact K-bar(1) = {exact:.7f}")

print("\nfixed-point iterates from K_0 = 0.4 (value at u = 1):")
trace = k_iterates(pm, 0.4, 5, u_max=6.0)
for n in range(1, 6):
    op = trace.iterates[n - 1](1.0)
    closed = k_iterate_erlang(pm, 0.4, n, 1.0)
    cert = trace.a_priori[n - 1]
    print(f"  n = {n}: operator {op:.7f}  closed form {closed:.7f}  "
          f"true err {abs(closed - exact):.1e}  a priori bound {cert:.1e}")
print(f"  a posteriori bound on K_5: {trace.a_posteriori_error_bound(5):.1e}")

# The total ruin probability and its split into psi_d (ruin by oscillation)
# and psi_s (ruin by a claim) solve K-bar's renewal equation with the
# oscillation tail e^{-b0 u} added to its forcing, or in place of it.
k = k_tail(pm, u_max=10.0)
t = psi_total(pm, u_max=10.0)
psi_d, psi_s = decompose(pm, u_max=10.0)
print("\n   u    K-bar     psi_t     psi_d     psi_s")
for u in (0.0, 0.5, 1.0, 2.0):
    print(f"  {u:3.1f}  {k(u):.6f}  {t(u):.6f}  {psi_d(u):.6f}  {psi_s(u):.6f}")
print("(psi_d(0) = 1: from zero surplus the oscillation ruins immediately)")
