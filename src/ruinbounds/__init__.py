"""Ruin probabilities, deficit-at-ruin tails, diffusion-perturbed compound
geometric tails, continuity bounds between risk models, and Monte Carlo
verification by exact ladder sampling."""

from .bounds import BoundReport, dk1, dk2, dk3
from .classical import (RiskModel, adjustment_rate, deficit_tail,
                        deficit_tail_family, exact_ruin_exponential,
                        pk_truncated_series, ruin_probability,
                        weighted_psi_moment)
from .diffusion import (PerturbedModel, decompose, k_exact_exponential,
                        k_iterate_erlang, k_iterates, k_tail, psi_total)
from .distributions import (ClaimDistribution, Erlang, Exponential,
                            HyperExponential, partial_exp_sum)
from .errors import (GridMismatchError, PreconditionError, RuinboundsError,
                     TruncationError)
from .metrics import GridFunction, kantorovich, nu_gamma, q_y, sup_distance
from .oracle import MCEstimate, estimate as mc_estimate
from .renewal import DEFAULT_H, IterationTrace, RenewalProblem, iterate, solve

__version__ = "0.1.0"

__all__ = [
    "BoundReport", "dk1", "dk2", "dk3",
    "RiskModel", "adjustment_rate", "deficit_tail", "deficit_tail_family",
    "exact_ruin_exponential", "pk_truncated_series", "ruin_probability",
    "weighted_psi_moment",
    "PerturbedModel", "decompose", "k_exact_exponential", "k_iterate_erlang",
    "k_iterates", "k_tail", "psi_total",
    "ClaimDistribution", "Erlang", "Exponential", "HyperExponential",
    "partial_exp_sum",
    "GridMismatchError", "PreconditionError", "RuinboundsError",
    "TruncationError",
    "GridFunction", "kantorovich", "nu_gamma", "q_y", "sup_distance",
    "MCEstimate", "mc_estimate",
    "DEFAULT_H", "IterationTrace", "RenewalProblem", "iterate", "solve",
]
