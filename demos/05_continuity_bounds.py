"""The three continuity bounds with their component breakdowns.

Each bound caps how far a model perturbation can move an output quantity;
the reports expose every additive piece so the dominant driver is visible.
"""

from ruinbounds import (Exponential, HyperExponential, PerturbedModel,
                        RiskModel, dk1, dk2, dk3, nu_gamma, ruin_probability)

mix = HyperExponential((0.5, 0.5), (1.25, 5.0 / 6.0))
m = RiskModel(5.0 / 6.0, 3.0, mix)
mt = RiskModel(5.0 / 6.0, 3.0, Exponential(1.0))

# weighted-L1 bound on the ruin probabilities
rep = dk1(m, mt, gamma=0.0)
print("DK1 (gamma = 0):", f"{rep.value:.4f}")
for name in ("prefactor", "nu_gamma_plus_one_term", "nu_gamma_ml_term",
             "intensity_term"):
    print(f"  {name:24} {rep.components[name]:.6f}")
psi_m = ruin_probability(m, u_max=35.0)
psi_t = ruin_probability(mt, u_max=35.0)
print(f"  exact nu_0(psi, psi~) = {nu_gamma(psi_m, psi_t, 0.0):.4f}"
      f"  (bound/exact = {rep.value / nu_gamma(psi_m, psi_t, 0.0):.1f})")

# uniform bound on the deficit tails
rep2 = dk2(m, mt, y=0.5)
print(f"\nDK2 (y = 0.5): {rep2.value:.4f}")
for note in rep2.convention_notes:
    print("  note:", note)

# perturbed model bound: claim-law and diffusion changes enter separately
pm = PerturbedModel(RiskModel(0.6, 1.0, Exponential(3.0)), D=0.5)
pmt = PerturbedModel(RiskModel(0.6, 1.0,
                               HyperExponential((0.5, 0.5), (2.0, 6.0))),
                     D=1.0 / 3.0)
rep3 = dk3(pm, pmt)
print(f"\nDK3: {rep3.value:.4f}")
for name in ("h1_kantorovich_term", "diffusion_ratio_term",
             "claims_kantorovich_term", "mean_ratio_term", "intensity_term"):
    print(f"  {name:24} {rep3.components[name]:.6f}")
print("  hypotheses held:", ", ".join(n for n, _ in rep3.preconditions))
