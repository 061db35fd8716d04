"""Classical (non-perturbed) risk model quantities.

The ruin probability and the deficit-at-ruin tail both solve defective
renewal equations with modulus phi = lambda * mu / c and, as kernel, the
density of one ladder step, a draw of the equilibrium law of the claims:

    psi(u)      : forcing phi * Fe-bar(u)
    G-bar(u, y) : forcing phi * Fe-bar(u + y)

The perturbed model's K-bar is the same equation on its own ladder step, so
``_problem`` builds either model's equation from the model's ``ladder``
(``distributions._Ladder``), and every quantity delegates to the generic
renewal solver.
"""

from __future__ import annotations

import math

import numpy as np

from .distributions import (ClaimDistribution, _de_quadrature,
                            _finite_tails, _Ladder, _Value)
from .errors import PreconditionError
from .metrics import GridFunction
from .renewal import (DEFAULT_H, RenewalProblem, _as_tail, _convolution,
                      _spectra, nodes, solve)

__all__ = [
    "RiskModel",
    "ruin_probability",
    "exact_ruin_exponential",
    "weighted_psi_moment",
    "deficit_tail_family",
    "adjustment_rate",
    "pk_truncated_series",
]


class RiskModel(_Value):
    """Compound Poisson surplus: intensity lam, premium rate c, claim law.

    Construction enforces the net profit condition phi = lam * mu / c < 1.
    """

    __slots__ = _fields = ("lam", "c", "claims")

    def __init__(self, lam: float, c: float, claims: ClaimDistribution):
        super().__init__(lam, c, claims)
        if not all(0 < x < math.inf for x in (self.lam, self.c)):  # nan fails too
            raise ValueError("intensity and premium rate must be positive and finite")
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

    @property
    def ladder(self) -> _Ladder:
        return _Ladder(self.phi, self.claims)


def _problem(model, h, u_max):
    """The renewal problem of psi (a RiskModel) or of K-bar (a
    PerturbedModel): the model's ladder density as kernel and phi times
    its tail as forcing; u_max None means the ladder's default end."""
    ladder = model.ladder
    grid = _grid(ladder, h, u_max)
    kernel, tail = ladder.on_grid(grid, h)
    return RenewalProblem(phi=ladder.phi, forcing=ladder.phi * tail,
                          kernel=kernel, h=h)


def _grid(ladder, h, u_max):
    """The nodes 0, h, ... to u_max, or to the ladder's default end."""
    return nodes(h, ladder.default_end() if u_max is None else u_max)


def ruin_probability(model: RiskModel, h: float = DEFAULT_H,
                     u_max: float | None = None) -> GridFunction:
    """Infinite-time ruin probability psi = G-bar(., 0) on a uniform grid.

    psi(0) = phi holds exactly at the origin node (the forcing equals phi
    there and the convolution term vanishes).
    """
    return _as_tail(solve(_problem(model, h, u_max)))


def exact_ruin_exponential(model: RiskModel, u) -> float:
    """Closed form psi(u) = phi * exp(-beta (1 - phi) u) for exponential
    claims; the analytic anchor for solver and Monte Carlo checks."""
    if model.claims.shapes != (1,):
        raise PreconditionError("closed form requires exponential claims")
    beta, phi = model.claims.rates[0], model.phi
    arr = phi * np.exp(-beta * (1.0 - phi) * np.asarray(u, dtype=float))
    return float(arr) if np.ndim(u) == 0 else arr


def adjustment_rate(model) -> float:
    """Lundberg decay rate R of psi, or of K-bar for a PerturbedModel: the
    root of phi * E exp(R A) = 1 with A one ladder step.  Exists for every
    light-tailed family in scope."""
    return model.ladder.decay_rate()


def weighted_psi_moment(model: RiskModel, gamma: float,
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
        psi = ruin_probability(model)
    z = psi.grid
    with np.errstate(over="ignore", invalid="ignore"):
        core = float(np.trapezoid((1.0 + z) ** gamma * psi.values, dx=psi.h))
    R = adjustment_rate(model)
    U = psi.u_max
    (tail_w,) = _de_quadrature(lambda z: np.exp(-R * (z - U)), (U,), R, gamma)
    total = core + float(psi.values[-1]) * float(tail_w)
    return total if math.isfinite(total) else math.inf


def deficit_tail_family(model: RiskModel, ys, h: float = DEFAULT_H,
                        u_max: float | None = None) -> dict:
    """G-bar(., y) for several y at once, reusing one kernel evaluation.

    The kernel (the ladder density) does not depend on y; only the forcing
    phi * Fe-bar(grid + y) changes, psi's at y = 0, and it is sampled only
    for the y asked.  ``solve``, which keeps the reciprocal of the last
    kernel's Toeplitz column, builds that once.  G-bar(., 0) is psi and
    G-bar(0, y) = phi * Fe-bar(y); for y > 0, G-bar(., y) can rise near
    u = 0, so each comes back as a plain grid function, not a tail.
    """
    if any(y < 0 for y in ys):
        raise ValueError("y must be >= 0")
    ladder = model.ladder
    grid = _grid(ladder, h, u_max)
    kernel, tail = ladder.density(grid, h), ladder.fe.tail
    return {y: solve(RenewalProblem(
        phi=ladder.phi, forcing=ladder.phi * _finite_tails(tail, grid + y),
        kernel=kernel, h=h)) for y in ys}


def pk_truncated_series(model: RiskModel, n_terms: int, h: float = DEFAULT_H,
                        u_max: float | None = None) -> GridFunction:
    """Truncated compound-geometric series for psi:

        sum_{n=1}^{N} (1-phi) phi^n * tail of the n-fold equilibrium sum,

    with the convolution powers built by repeated grid convolution.  The
    remainder beyond N is at most phi^(N+1).  Independent of the Volterra
    scheme except for sharing the trapezoid rule, so it cross-checks the
    solver.
    """
    p = _problem(model, h, u_max)
    fe_tail = model.claims.equilibrium().tail(p.grid)
    phi = model.phi
    spectra = _spectra(p.kernel)     # every term reads them
    tail_k = fe_tail.copy()          # tail of the 1-fold sum
    acc = (1.0 - phi) * phi * tail_k
    for k in range(2, n_terms + 1):
        # survival of the k-fold sum from the (k-1)-fold one
        tail_k = fe_tail + _convolution(tail_k, p.kernel, spectra, h)
        acc += (1.0 - phi) * phi**k * tail_k
    return _as_tail(GridFunction(h, acc))
