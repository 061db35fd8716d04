"""Diffusion-perturbed surplus: compound geometric tail K-bar, fixed-point
iterates, total ruin probability and its decomposition.

Oscillation record highs are exponential with rate b0 = c/D, claim record
highs follow the equilibrium law, so one ladder step has law
A = Exp(b0) * F_e (convolution), the model's ``ladder``: phase-type, with
density a(t) = e_1 exp(T t) t_exit exact at any t and tail
A-bar(t) = Fe-bar(t) + a(t) / b0 (``distributions._Ladder``).  K-bar
solves the defective renewal equation with modulus phi = 1/(1+theta),
kernel a and forcing phi * A-bar, built by ``classical._problem`` as psi's
is.  The total ruin probability psi_t and its oscillation-caused part psi_d
solve the same equation on the same kernel, with the oscillation tail
e^{-b0 u} added to the forcing or in place of it, so one solver and one
cached inverse carry all three.
"""

from __future__ import annotations

import math

import numpy as np

from .classical import RiskModel, _problem
from .distributions import _Ladder, _Value, partial_exp_sum
from .errors import PreconditionError
from .metrics import GridFunction
from .renewal import (DEFAULT_H, IterationTrace, RenewalProblem, _as_tail,
                      iterate, solve)

__all__ = [
    "PerturbedModel",
    "k_tail",
    "k_exact_exponential",
    "k_iterates",
    "k_iterate_erlang",
    "psi_total",
    "decompose",
]

_RATE_MATCH = 1e-9  # relative threshold for "b0 equals a claim rate"


class PerturbedModel(_Value):
    """Classical model plus an independent Brownian perturbation.

    D = sigma^2 / 2 is the diffusion coefficient; b0 = c/D the rate of the
    oscillation record-high law.
    """

    __slots__ = _fields = ("base", "D")

    def __init__(self, base: RiskModel, D: float):
        if not isinstance(base, RiskModel):
            raise TypeError("base must be a RiskModel")
        super().__init__(base, D)
        if not 0 < self.D < math.inf:       # nan fails too
            raise ValueError("diffusion coefficient must be positive and finite")

    @property
    def b0(self) -> float:
        return self.base.c / self.D

    @property
    def phi(self) -> float:
        return self.base.phi

    @property
    def theta(self) -> float:
        return self.base.theta

    @property
    def ladder(self) -> _Ladder:
        return _Ladder(self.phi, self.base.claims, self.b0)


def k_tail(pm: PerturbedModel, h: float = DEFAULT_H,
           u_max: float | None = None) -> GridFunction:
    """Compound geometric tail K-bar on a grid; K-bar(0) = phi exactly."""
    return _as_tail(solve(_problem(pm, h, u_max)))


def k_exact_exponential(pm: PerturbedModel, u):
    """Exact K-bar for exponential claims: theta*(D1 e^{-s1 u} + D2 e^{-s2 u}).

    s1 < s2 are the roots of s^2 - (b0 + beta) s + (theta/(1+theta)) b0 beta;
    the discriminant (b0-beta)^2 + 4 b0 beta/(1+theta) is positive, so both
    roots are real, and computing the larger root first avoids cancellation
    when b0 is close to beta.
    """
    claims = pm.base.claims
    if claims.shapes != (1,):
        raise PreconditionError("closed form requires exponential claims")
    beta, b0, theta = claims.rates[0], pm.b0, pm.theta
    product = theta / (1.0 + theta) * b0 * beta
    disc = math.sqrt((b0 - beta) ** 2 + 4.0 * b0 * beta / (1.0 + theta))
    s2 = 0.5 * (b0 + beta + disc)
    s1 = product / s2
    denom = theta * (1.0 + theta) * disc
    d1 = s2 / denom
    d2 = -s1 / denom
    arr = np.asarray(u, dtype=float)
    out = theta * (d1 * np.exp(-s1 * arr) + d2 * np.exp(-s2 * arr))
    return float(out) if np.ndim(u) == 0 else out


def k_iterates(pm: PerturbedModel, k0: float | GridFunction, n: int,
               h: float = DEFAULT_H,
               u_max: float | None = None) -> IterationTrace:
    """The n-th fixed-point iterate K_n of K-bar from the start K_0 = k0.

    A constant k0 must lie in [0, 1] (the interior is the textbook case;
    the endpoints are admitted as limits).  A GridFunction k0 on the same
    grid, such as an earlier trace's ``last``, continues that iteration.
    The renewal operator contracts with modulus phi, so the trace carries
    the a priori and a posteriori error bound of every iterate K_1, ...,
    K_n, but only K_n itself.
    """
    if not isinstance(k0, GridFunction) and not 0.0 <= k0 <= 1.0:
        raise PreconditionError("starting constant must lie in [0, 1]")
    return iterate(_problem(pm, h, u_max), k0, n)


def k_iterate_erlang(pm: PerturbedModel, k0: float, n: int, u: float) -> float:
    """Exact n-th iterate at one point for the matched-rate case beta = c/D,
    where one ladder step is Erlang(2, beta):

        K_1(u) = phi k + phi (1-k) e^{-z} S_1(z),            z = beta u,
        K_n(u) = phi e^{-z} S_1(z)
                 + sum_{m=2}^{n-1} phi^m e^{-z} [S_{2m-1}(z) - S_{2m-3}(z)]
                 + phi^n k (1 - e^{-z} S_{2n-3}(z))
                 + phi^n (1-k) e^{-z} [S_{2n-1}(z) - S_{2n-3}(z)],

    with S_m the partial exponential sums.
    """
    claims = pm.base.claims
    if claims.shapes != (1,):
        raise PreconditionError("matched-rate closed form requires exponential claims")
    beta = claims.rates[0]
    if abs(beta - pm.b0) > _RATE_MATCH * pm.b0:
        raise PreconditionError(
            f"closed form needs beta = c/D; got beta={beta}, c/D={pm.b0}")
    if not 0.0 <= k0 <= 1.0:
        raise PreconditionError("starting constant must lie in [0, 1]")
    if n < 1:
        raise ValueError("n must be >= 1")
    phi = pm.phi
    z = beta * u
    e = math.exp(-z)
    if n == 1:
        return phi * k0 + phi * (1.0 - k0) * e * partial_exp_sum(1, z)
    total = phi * e * partial_exp_sum(1, z)
    for m in range(2, n):
        total += phi**m * e * (partial_exp_sum(2 * m - 1, z)
                               - partial_exp_sum(2 * m - 3, z))
    total += phi**n * k0 * (1.0 - e * partial_exp_sum(2 * n - 3, z))
    total += phi**n * (1.0 - k0) * e * (partial_exp_sum(2 * n - 1, z)
                                        - partial_exp_sum(2 * n - 3, z))
    return total


def psi_total(pm: PerturbedModel, h: float = DEFAULT_H,
              u_max: float | None = None) -> GridFunction:
    """Total ruin probability psi_t on a grid; psi_t(0) = 1.

    Conditioning on the first ladder step, which is missing with
    probability 1-phi (then one last oscillation record high decides),
    gives K-bar's renewal equation with one more forcing term,

        psi_t = (1-phi) H1-bar + phi A-bar + phi a * psi_t,

    H1-bar(u) = e^{-b0 u} the tail of one oscillation record high.
    """
    p = _problem(pm, h, u_max)
    forcing = p.forcing + (1.0 - pm.phi) * np.exp(-pm.b0 * p.grid)
    return _as_tail(solve(RenewalProblem(p.phi, forcing, p.kernel, p.h)))


def decompose(pm: PerturbedModel, h: float = DEFAULT_H,
              u_max: float | None = None):
    """Split psi_t = psi_d + psi_s into oscillation-caused and claim-caused
    ruin (Dufresne & Gerber, Insurance Math. Econom. 10(1), 1991).

    The oscillation record high that starts each ladder step ruins with
    probability H1-bar, so psi_d solves the renewal equation on K-bar's
    kernel

        psi_d = H1-bar + phi a * psi_d,

    and the difference of the psi_t and K-bar equations gives
    psi_t = K-bar + (1-phi) psi_d, hence psi_s = K-bar - phi psi_d.  Then
    psi_d(0) = 1 and psi_s(0) = 0 exactly: ruin from zero initial surplus
    is immediate and caused by oscillation, never by a claim.  Neither part
    is monotone in general, so both come back as plain grid functions.
    """
    p = _problem(pm, h, u_max)
    psi_d = solve(RenewalProblem(p.phi, np.exp(-pm.b0 * p.grid), p.kernel,
                                 p.h)).values
    psi_s = solve(p).values - pm.phi * psi_d
    return GridFunction(p.h, psi_d), GridFunction(p.h, psi_s)
