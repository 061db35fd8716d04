"""Continuity bounds: how far apart can two models push psi, the deficit
tail, and the perturbed compound geometric tail.

Each bound is returned as a ``BoundReport`` carrying its additive pieces,
the contraction modulus behind its prefactor, and the hypotheses it
checked, so a caller can see exactly what the number is made of.  A
hypothesis that fails raises ``PreconditionError``; net profit is
``RiskModel``'s to check, at construction.
"""

from __future__ import annotations

from typing import NamedTuple

from .classical import RiskModel, weighted_psi_moment
from .diffusion import PerturbedModel
from .errors import PreconditionError
from .metrics import GridFunction, kantorovich, nu_gamma, q_y

__all__ = ["BoundReport", "dk1", "dk2", "dk3"]


class BoundReport(NamedTuple):
    """A bound value with its build: named components, the contraction
    modulus, the ``(name, ok)`` hypotheses checked, all of which held (a
    failed one raises), and any convention notes."""

    kind: str
    value: float
    components: dict
    contraction_modulus: float
    preconditions: list = ()
    convention_notes: list = ()


def _check(m, mt, *hypotheses):
    """The shared premium rate c, then each ``(name, ok)`` hypothesis:
    raise on the first that fails, else return them all."""
    pre = [("shared premium rate c",
            abs(m.c - mt.c) <= 1e-12 * max(m.c, mt.c)), *hypotheses]
    for name, ok in pre:
        if not ok:
            raise PreconditionError(f"hypothesis violated: {name}")
    return pre


def _ml(model, gamma, psi):
    """ML_gamma of one model: E X^2 / (2 theta mu) exactly at gamma = 0,
    else ``weighted_psi_moment``, solving for psi unless it is passed."""
    if gamma == 0.0:
        return model.claims.second_moment() / (2.0 * model.theta * model.mu)
    return weighted_psi_moment(model, gamma, psi=psi)


def dk1(m: RiskModel, mt: RiskModel, gamma: float = 0.0,
        psi: GridFunction | None = None,
        psi_tilde: GridFunction | None = None) -> BoundReport:
    """Weighted-L1 continuity bound for the ruin probability:

        nu_gamma(psi, psi~) <= c/(c - lam*M_gamma) * ( nu_{gamma+1}(F, F~)/(gamma+1)
                               + nu_gamma(F, F~) * ML_gamma
                               + |lam - lam~|/c * M~_{gamma+1} * (1 + ML_gamma) )

    with M_gamma the weighted tail moment of the first claim law and
    ML_gamma a weighted moment of a ruin probability.  Requires a shared
    premium rate and lam*M_gamma/c < 1.

    Convention: the proof leaves open whose ruin probability enters
    ML_gamma.  The bound rises with ML_gamma, so the larger of the two
    models' values is used, and the bound holds whichever is meant; the
    notes name both.  At gamma = 0 both are closed form; at gamma > 0 each
    model's psi is solved unless passed as ``psi`` or ``psi_tilde``.
    """
    mx = m.claims.weighted_tail_moment(gamma)
    contraction = m.lam * mx / m.c
    pre = _check(m, mt, ("contraction lam*M_gamma/c < 1", contraction < 1.0))

    ml_first, ml_tilde = _ml(m, gamma, psi), _ml(mt, gamma, psi_tilde)
    ml = max(ml_first, ml_tilde)

    nu_g = nu_gamma(m.claims, mt.claims, gamma)
    nu_g1 = nu_gamma(m.claims, mt.claims, gamma + 1.0)
    mt_g1 = mt.claims.weighted_tail_moment(gamma + 1.0)

    prefactor = m.c / (m.c - m.lam * mx)
    term1 = nu_g1 / (gamma + 1.0)
    term2 = nu_g * ml
    term3 = abs(m.lam - mt.lam) / m.c * mt_g1 * (1.0 + ml)
    value = prefactor * (term1 + term2 + term3)

    notes = [f"ML convention: larger of first model ML_gamma={ml_first:.10g} "
             f"and second model ML~_gamma={ml_tilde:.10g}"]

    return BoundReport(kind="dk1", value=value,
                       components={"prefactor": prefactor,
                                   "nu_gamma_plus_one_term": term1,
                                   "nu_gamma_ml_term": term2,
                                   "intensity_term": term3,
                                   "nu_gamma": nu_g,
                                   "nu_gamma_plus_one": nu_g1,
                                   "m_gamma": mx,
                                   "ml_gamma": ml},
                       contraction_modulus=contraction,
                       preconditions=pre, convention_notes=notes)


def dk2(m: RiskModel, mt: RiskModel, y: float) -> BoundReport:
    """Uniform bound on the deficit-at-ruin tails:

        sup_u |G-bar(u,y) - G~-bar(u,y)| <= [lam * Q_y(F, F~) + |lam - lam~| mu~]
                                             / (c - lam * mu).

    When the models share lam and mu (so c = lam (1+theta) mu), the bound
    reduces to Q_y / (theta mu), noted on the report.
    """
    qy = q_y(m.claims, mt.claims, y)
    pre = _check(m, mt)
    prefactor = 1.0 / (m.c - m.lam * m.mu)
    term_q = m.lam * qy
    term_i = abs(m.lam - mt.lam) * mt.mu
    value = prefactor * (term_q + term_i)

    notes = []
    if m.lam == mt.lam and abs(m.mu - mt.mu) <= 1e-9 * m.mu:
        notes.append(
            f"lam and mu shared: bound reduces to Q_y/(theta*mu) = "
            f"{qy / (m.theta * m.mu):.10g}")

    return BoundReport(kind="dk2", value=value,
                       components={"prefactor": prefactor,
                                   "q_y_term": term_q,
                                   "intensity_term": term_i,
                                   "q_y": qy},
                       contraction_modulus=m.phi,
                       preconditions=pre, convention_notes=notes)


def dk3(pm: PerturbedModel, pmt: PerturbedModel) -> BoundReport:
    """Uniform bound on the perturbed compound geometric tails:

        sup_u |K-bar - K~-bar| <= [ lam mu ( (c/D) K(H1, H1~) + |D~-D|/D
                                   + K(F, F~)/mu + |mu~-mu|/mu )
                                   + |lam mu - lam~ mu~| ] / (c - lam mu)

    under D >= D~ and mu >= mu~.  The oscillation laws are exponential, so
    K(H1, H1~) = |D - D~|/c in closed form.
    """
    m, mt = pm.base, pmt.base
    pre = _check(m, mt,
                 ("D >= D~ (swap the arguments otherwise)", pm.D >= pmt.D),
                 ("mu >= mu~ (swap the arguments otherwise)", m.mu >= mt.mu))

    k_h1 = abs(pm.D - pmt.D) / m.c
    k_ff = kantorovich(m.claims, mt.claims)

    lam_mu = m.lam * m.mu
    prefactor = 1.0 / (m.c - lam_mu)
    t_h1 = (m.c / pm.D) * k_h1
    t_dr = abs(pmt.D - pm.D) / pm.D
    t_ff = k_ff / m.mu
    t_mr = abs(mt.mu - m.mu) / m.mu
    t_int = abs(lam_mu - mt.lam * mt.mu)
    value = prefactor * (lam_mu * (t_h1 + t_dr + t_ff + t_mr) + t_int)

    notes = [f"K(H1, H1~) closed form {k_h1:.10g}"]

    return BoundReport(kind="dk3", value=value,
                       components={"prefactor": prefactor,
                                   "claim_scale": lam_mu,
                                   "h1_kantorovich_term": t_h1,
                                   "diffusion_ratio_term": t_dr,
                                   "claims_kantorovich_term": t_ff,
                                   "mean_ratio_term": t_mr,
                                   "intensity_term": t_int,
                                   "k_h1": k_h1,
                                   "k_ff": k_ff},
                       contraction_modulus=m.phi,
                       preconditions=pre, convention_notes=notes)
