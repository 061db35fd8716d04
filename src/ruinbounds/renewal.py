"""Defective renewal (Volterra second kind) solver and contraction iteration.

Everything downstream is an instance of one equation,

    x(u) = z(u) + phi * int_0^u x(u - t) kappa(t) dt,      0 < phi < 1,

with kappa a probability density on [0, inf).  The grid scheme is the
trapezoid rule with an implicit diagonal: kappa(0) > 0 for exponential-type
kernels, and treating the diagonal term explicitly would cost an order of
accuracy.  The map x -> z + phi*(x conv kappa) contracts with modulus phi,
which yields a priori and a posteriori error certificates for the
fixed-point iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import trapezoid
from scipy.signal import fftconvolve

from .errors import PreconditionError
from .metrics import GridFunction

__all__ = ["RenewalProblem", "IterationTrace", "solve", "iterate", "residual"]

DEFAULT_H = 2.0**-10


def _on_grid(f, grid):
    if callable(f):
        return np.asarray(f(grid), dtype=float)
    arr = np.asarray(f, dtype=float)
    if arr.shape != grid.shape:
        raise ValueError("grid data length does not match the grid")
    return arr


@dataclass(frozen=True)
class RenewalProblem:
    """One defective renewal equation, discretized on [0, u_max].

    ``kernel`` and ``forcing`` may be callables (evaluated on the grid) or
    arrays already sampled on it.  The kernel is a probability density; its
    mass inside the window may be less than 1 when u_max cuts the support,
    which is harmless because the forward recursion never looks past u.
    """

    phi: float
    forcing: object
    kernel: object
    h: float = DEFAULT_H
    u_max: float = 10.0

    def __post_init__(self):
        if not 0.0 <= self.phi < 1.0:
            raise PreconditionError(
                f"contraction requires modulus phi in [0, 1); got {self.phi}")
        if self.h <= 0 or self.u_max <= self.h:
            raise PreconditionError("need h > 0 and u_max > h")

    @property
    def grid(self) -> np.ndarray:
        n = int(round(self.u_max / self.h))
        return np.arange(n + 1) * self.h

    def arrays(self):
        grid = self.grid
        z = _on_grid(self.forcing, grid)
        k = _on_grid(self.kernel, grid)
        if np.any(k < -1e-12):
            raise PreconditionError("kernel density must be nonnegative")
        mass = trapezoid(k, dx=self.h)
        # trapezoid overshoots a convex density by O(h^2); allow that much
        if mass > 1.0 + max(1e-6, 10.0 * self.h**2):
            raise PreconditionError(
                f"kernel mass {mass:.6f} exceeds 1; not a probability density")
        return grid, z, k


def solve(problem: RenewalProblem) -> GridFunction:
    """Grid values of the unique fixed point.

    Forward trapezoid recursion, O(h^2): the node u_i couples only to
    earlier nodes, except for the diagonal kappa(0) term which is solved
    implicitly.
    """
    grid, z, k = problem.arrays()
    phi, h = problem.phi, problem.h
    n = len(grid)
    x = np.empty(n)
    x[0] = z[0]
    # contiguous reversed kernel keeps the inner dot on the BLAS fast path
    krev = k[::-1].copy()
    denom = 1.0 - 0.5 * phi * h * k[0]
    for i in range(1, n):
        s = 0.5 * k[i] * x[0]
        if i > 1:
            s += np.dot(x[1:i], krev[n - i:n - 1])
        x[i] = (z[i] + phi * h * s) / denom
    return GridFunction(h, x)


def trapezoid_convolution(x: np.ndarray, k: np.ndarray, h: float) -> np.ndarray:
    """Trapezoid discretization of int_0^{u_i} x(u_i - t) k(t) dt for all i."""
    full = fftconvolve(x, k)[:len(x)]
    return h * (full - 0.5 * x[0] * k - 0.5 * x * k[0])


def _apply(problem, z, k, xv):
    return z + problem.phi * trapezoid_convolution(xv, k, problem.h)


def residual(problem: RenewalProblem, x: GridFunction) -> float:
    """Sup-norm defect of x as a solution of the equation."""
    grid, z, k = problem.arrays()
    if len(x) != len(grid) or abs(x.h - problem.h) > 1e-12 * problem.h:
        raise PreconditionError("grid of x does not match the problem grid")
    return float(np.max(np.abs(x.values - _apply(problem, z, k, x.values))))


@dataclass(frozen=True)
class IterationTrace:
    """Record of a fixed-point iteration x_{j+1} = T x_j.

    For iterate j (1-based), ``a_priori[j-1]`` is the Banach bound
    phi^j/(1-phi) * sup|x_1 - x_0| on its true error, and
    ``residuals[j-1]`` is the computable defect sup|T x_j - x_j|.  The
    defect itself is at most phi/(1-phi) * sup|x_j - x_{j-1}| and bounds
    the true error after division by 1-phi.
    """

    phi: float
    x0: GridFunction
    iterates: list = field(default_factory=list)
    a_priori: np.ndarray = None
    residuals: np.ndarray = None

    @property
    def n(self) -> int:
        return len(self.iterates)

    def a_posteriori_error_bound(self, j: int) -> float:
        """Error bound for iterate j (1-based) from its residual."""
        return float(self.residuals[j - 1]) / (1.0 - self.phi)


def iterate(problem: RenewalProblem, x0, n: int) -> IterationTrace:
    """Apply the renewal operator n times starting from x0.

    x0 may be a constant or a GridFunction on the problem grid.  Returns the
    iterates with their error certificates.
    """
    if n < 1:
        raise ValueError("need at least one iteration")
    grid, z, k = problem.arrays()
    if isinstance(x0, GridFunction):
        if len(x0) != len(grid):
            raise PreconditionError("x0 grid does not match the problem grid")
        cur = x0.values.copy()
    else:
        cur = np.full(len(grid), float(x0))
    x0_gf = GridFunction(problem.h, cur)
    phi = problem.phi
    iterates, sups = [], []
    prev = cur
    for _ in range(n):
        cur = _apply(problem, z, k, prev)
        iterates.append(GridFunction(problem.h, cur))
        sups.append(float(np.max(np.abs(cur - prev))))
        prev = cur
    # one extra application prices the final a posteriori residual
    nxt = _apply(problem, z, k, prev)
    residuals = np.array(sups[1:] + [float(np.max(np.abs(nxt - prev)))])
    first_step = sups[0]
    a_priori = np.array([phi**j / (1.0 - phi) * first_step for j in range(1, n + 1)])
    return IterationTrace(phi=phi, x0=x0_gf, iterates=iterates,
                          a_priori=a_priori, residuals=residuals)
