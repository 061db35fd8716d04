"""Classical (non-perturbed) risk model quantities.

The ruin probability and the deficit-at-ruin tail both solve defective
renewal equations with the equilibrium density of the claim law as kernel
and modulus phi = lambda * mu / c:

    psi(u)      : forcing phi * Fe-bar(u)
    G-bar(u, y) : forcing phi * Fe-bar(u + y)

so both delegate to the generic renewal solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .distributions import ClaimDistribution, Exponential, _de_quadrature
from .errors import PreconditionError
from .metrics import GridFunction
from .renewal import DEFAULT_H, RenewalProblem, solve, trapezoid_convolution

__all__ = [
    "RiskModel",
    "ruin_probability",
    "exact_ruin_exponential",
    "weighted_psi_moment",
    "deficit_tail",
    "deficit_tail_family",
    "adjustment_rate",
    "pk_truncated_series",
    "default_u_max",
]


@dataclass(frozen=True)
class RiskModel:
    """Compound Poisson surplus: intensity lam, premium rate c, claim law.

    Construction enforces the net profit condition phi = lam * mu / c < 1.
    """

    lam: float
    c: float
    claims: ClaimDistribution

    def __post_init__(self):
        if self.lam <= 0 or self.c <= 0:
            raise ValueError("intensity and premium rate must be positive")
        if self.phi >= 1.0:
            raise PreconditionError(
                f"net profit condition fails: lam*mu/c = {self.phi:.6f} >= 1")

    @property
    def mu(self) -> float:
        return self.claims.mean()

    @property
    def phi(self) -> float:
        """Contraction modulus lam * mu / c = 1/(1 + theta)."""
        return self.lam * self.mu / self.c

    @property
    def theta(self) -> float:
        """Relative security loading."""
        return self.c / (self.lam * self.mu) - 1.0


def _u_max(phi: float, rate: float, floor: float = 10.0) -> float:
    # smallest U with phi * exp(-rate U) / (1 - phi) below 1e-9, at least floor
    u = np.log(phi / ((1.0 - phi) * 1e-9)) / rate
    return float(max(floor, np.ceil(u)))


def default_u_max(model: RiskModel, floor: float = 10.0) -> float:
    """Smallest U with phi * exp(-r U) / (1 - phi) below 1e-9, r the slowest
    exponential rate of the claim law; clipped from below by ``floor``."""
    return _u_max(model.phi, model.claims.slowest_rate, floor)


def _psi_problem(model, h, u_max, y=0.0):
    if y < 0:
        raise ValueError("y must be >= 0")
    fe = model.claims.equilibrium()
    mu = model.mu
    kernel = lambda t: model.claims.tail(t) / mu
    forcing = lambda t: model.phi * fe.tail(t + y)
    return RenewalProblem(phi=model.phi, forcing=forcing, kernel=kernel,
                          h=h, u_max=u_max)


def ruin_probability(model: RiskModel, h: float = DEFAULT_H,
                     u_max: float | None = None) -> GridFunction:
    """Infinite-time ruin probability psi = G-bar(., 0) on a uniform grid.

    psi(0) = phi holds exactly at the origin node (the forcing equals phi
    there and the convolution term vanishes).
    """
    psi = deficit_tail(model, 0.0, h=h, u_max=u_max)
    return GridFunction(psi.h, psi.values, is_tail=True)


def exact_ruin_exponential(model: RiskModel, u) -> float:
    """Closed form psi(u) = phi * exp(-beta (1 - phi) u) for exponential
    claims; the analytic anchor for solver and Monte Carlo checks."""
    if not isinstance(model.claims, Exponential):
        raise PreconditionError("closed form requires exponential claims")
    beta, phi = model.claims.beta, model.phi
    arr = phi * np.exp(-beta * (1.0 - phi) * np.asarray(u, dtype=float))
    return float(arr) if np.ndim(u) == 0 else arr


def adjustment_rate(model: RiskModel) -> float:
    """Lundberg decay rate R of psi: the root of phi * E exp(R Y) = 1 with Y
    the equilibrium law.  Exists for every light-tailed family in scope."""
    fe = model.claims.equilibrium()
    phi = model.phi
    top = fe.slowest_rate

    def g(r):
        return phi * fe.mgf(r) - 1.0

    lo, hi = 0.0, top * (1.0 - 1e-12)
    # g(0) = phi - 1 < 0 and g -> +inf at the slowest rate
    while g(hi) < 0:
        hi = top - (top - hi) * 0.1
        if top - hi < 1e-15 * top:
            raise PreconditionError("no Lundberg root below the slowest rate")
    # bisect until the midpoint rounds to an endpoint
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if g(mid) < 0:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return mid


def weighted_psi_moment(model: RiskModel, gamma: float,
                        h: float = DEFAULT_H, u_max: float | None = None,
                        psi: GridFunction | None = None) -> float:
    """Integral of (1+z)^gamma * psi(z) dz over [0, inf).

    Trapezoid over the solver grid plus an analytic remainder: past the grid
    end, psi is extrapolated as psi(U) * exp(-R (z - U)) with R the Lundberg
    rate.  ``psi`` may be passed in to reuse an existing solve.  Where
    (1+z)^gamma overflows float, the moment is reported as ``math.inf``.
    """
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    if psi is None:
        psi = ruin_probability(model, h=h, u_max=u_max)
    z = psi.grid
    with np.errstate(over="ignore", invalid="ignore"):
        core = float(np.trapezoid((1.0 + z) ** gamma * psi.values, dx=psi.h))
    R = adjustment_rate(model)
    U = psi.u_max
    (tail_w,) = _de_quadrature(lambda z: np.exp(-R * (z - U)), (U,), R, gamma)
    total = core + float(psi.values[-1]) * float(tail_w)
    return total if math.isfinite(total) else math.inf


def deficit_tail(model: RiskModel, y: float, h: float = DEFAULT_H,
                 u_max: float | None = None) -> GridFunction:
    """Defective tail G-bar(., y): probability of ruin with deficit > y.

    G-bar(u, 0) coincides with psi(u); G-bar(0, y) = phi * Fe-bar(y).  For
    y > 0, G-bar(., y) need not be monotone in u (it can rise near u = 0),
    so it is returned as a plain grid function, not a tail.
    """
    return deficit_tail_family(model, (y,), h=h, u_max=u_max)[y]


def deficit_tail_family(model: RiskModel, ys, h: float = DEFAULT_H,
                        u_max: float | None = None) -> dict:
    """G-bar(., y) for several y at once, reusing one kernel evaluation.

    The kernel (equilibrium density) does not depend on y; only the forcing
    changes, so the kernel is sampled once and ``solve``, which keeps the
    reciprocal of the last kernel's Toeplitz column, builds that once.
    """
    if u_max is None:
        u_max = default_u_max(model)
    psi_problem = _psi_problem(model, h, u_max)
    kernel = psi_problem.kernel(psi_problem.grid)
    return {y: solve(replace(_psi_problem(model, h, u_max, y), kernel=kernel))
            for y in ys}


def pk_truncated_series(model: RiskModel, n_terms: int, h: float = DEFAULT_H,
                        u_max: float | None = None) -> GridFunction:
    """Truncated compound-geometric series for psi:

        sum_{n=1}^{N} (1-phi) phi^n * tail of the n-fold equilibrium sum,

    with the convolution powers built by repeated grid convolution.  The
    remainder beyond N is at most phi^(N+1).  Independent of the Volterra
    scheme except for sharing the trapezoid rule, so it cross-checks the
    solver.
    """
    if u_max is None:
        u_max = default_u_max(model)
    problem = _psi_problem(model, h, u_max)
    grid = problem.grid
    fe_tail = model.claims.equilibrium().tail(grid)
    fe_dens = problem.kernel(grid)
    phi = model.phi
    tail_k = fe_tail.copy()          # tail of the 1-fold sum
    acc = (1.0 - phi) * phi * tail_k
    for k in range(2, n_terms + 1):
        # survival of the k-fold sum from the (k-1)-fold one
        tail_k = fe_tail + trapezoid_convolution(tail_k, fe_dens, h)
        acc += (1.0 - phi) * phi**k * tail_k
    return GridFunction(h, acc, is_tail=True)
