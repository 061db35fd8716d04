"""Defective renewal (Volterra second kind) solver and contraction iteration.

Everything downstream is an instance of one equation,

    x(u) = z(u) + phi * int_0^u x(u - t) kappa(t) dt,      0 < phi < 1,

with kappa a probability density on [0, inf).  The grid scheme is the
trapezoid rule with an implicit diagonal: kappa(0) > 0 for exponential-type
kernels, and treating the diagonal term explicitly would cost an order of
accuracy.  On the grid the scheme is a lower-triangular Toeplitz system,
which ``solve`` inverts in O(n log n) as a power-series reciprocal
(Newton doubling with FFT products; Brent & Kung, J. ACM 25(4), 1978, and
for fast convolution in Volterra equations Hairer, Lubich & Schlichte,
SIAM J. Sci. Stat. Comput. 6(3), 1985).  The map x -> z + phi*(x conv
kappa) contracts with modulus phi, which yields a priori and a posteriori
error certificates for the fixed-point iteration.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.fft import irfft, rfft

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
    which is harmless because the scheme is causal: the value at u depends
    only on the kernel and the forcing on [0, u].
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
        mass = np.trapezoid(k, dx=self.h)
        # trapezoid overshoots a convex density by O(h^2); allow that much
        if mass > 1.0 + max(1e-6, 10.0 * self.h**2):
            raise PreconditionError(
                f"kernel mass {mass:.6f} exceeds 1; not a probability density")
        return grid, z, k


def solve(problem: RenewalProblem) -> GridFunction:
    """Grid values of the unique fixed point, in O(n log n).

    The trapezoid scheme, O(h^2), with the diagonal kappa(0) term implicit,
    is a lower-triangular Toeplitz system C y = r in y = x[1:], x_0 = z_0,
    with first column c_0 = 1 - phi h k_0 / 2, c_p = -phi h k_p and
    right-hand side r_i = z_i + phi h k_i x_0 / 2.  Its inverse is
    multiplication by the power series 1/c(t), built by Newton doubling and
    applied with real-FFT products.  One refinement step follows: the
    residual C y - r is formed in ``np.longdouble`` and the correction
    comes from the same float64 inverse.  FFT products alone are off by up
    to a few units in the last place of max|x|; after the step every node
    is within about half of one such unit of the exact solution of the
    float64 system.  The step gains only where ``np.longdouble`` is wider than
    float64 (80-bit extended on x86-64); where the two are the same type
    the result keeps the float64 accuracy of the FFT products.
    The discrete equation must be defective, as the continuous one is: a
    step with margin c(1) = sum_p c_p <= 0 raises ``PreconditionError``.
    When c(1) > 0, 1/c(t) has nonnegative coefficients (c_p <= 0 for
    p >= 1) summing to 1/c(1), so sup|y| <= sup|r|/c(1).
    """
    c, x = _system(problem)
    b = _reciprocal(c.tobytes())
    r = x[1:]
    y = _product(b, r, np.float64)
    d = _product(c, y, np.longdouble)
    d -= r
    y -= _product(b, d, np.float64)
    x[1:] = y
    return GridFunction(problem.h, x)


def _system(problem):
    """First column c of the Toeplitz matrix, and the forcing z with the
    right-hand side r in place of z[1:].  The sampled grid and kernel are
    dropped on return, which lowers the solve's peak memory."""
    _, z, k = problem.arrays()
    w = problem.phi * problem.h
    c = -w * k[:-1]
    c[0] = 1.0 - 0.5 * w * k[0]
    # c_p <= 0 for p >= 1, so c(1) > 0 also gives c_0 > 0
    margin = c.sum()
    if margin <= 0.0:
        raise PreconditionError(
            f"discrete equation is not defective: margin c(1) = {margin:.3g} "
            f"<= 0 at phi = {problem.phi:g} and step h = {problem.h:g}; "
            f"a smaller step is needed (h < 2/(phi kappa(0)) = "
            f"{2.0 / (problem.phi * k[0]):g} is necessary)")
    x = z.copy()
    x[1:] += 0.5 * w * k[1:] * z[0]
    return c, x


@lru_cache(maxsize=1)
def _smooth_sizes():
    """The 5-smooth integers 2^a 3^b 5^c up to 2^32, ascending; no grid
    that fits in memory needs a longer FFT."""
    sizes = [1]
    for p in (2, 3, 5):
        grown = []
        for s in sizes:
            while s <= 2**32:
                grown.append(s)
                s *= p
        sizes = grown
    return tuple(sorted(sizes))


def _fast_len(n):
    """Smallest 5-smooth integer >= n: the real-FFT length that the FFT's
    radix-2/3/5 kernels handle fastest.  Fixing these sizes fixes the
    rounding of every FFT product, and so the table bytes."""
    sizes = _smooth_sizes()
    return sizes[bisect_left(sizes, n)]


def _product(a, x, dtype):
    """(a x) mod t^m for power series a and x of m terms, in ``dtype``.

    The low halves multiply in full and the two cross terms only up to t^m,
    so every FFT has length about m, not 2m; spectra are made as needed and
    dropped early, because peak memory binds before time does.
    """
    m = len(a)
    half = (m + 1) // 2
    size = _fast_len(m)
    a_lo = rfft(np.asarray(a[:half], dtype), size)
    x_lo = rfft(np.asarray(x[:half], dtype), size)
    out = irfft(a_lo * x_lo, size)[:m]
    x_lo *= rfft(np.asarray(a[half:], dtype), size)
    a_lo *= rfft(np.asarray(x[half:], dtype), size)
    x_lo += a_lo
    del a_lo
    out[half:] += irfft(x_lo, size)[:m - half]
    return out


@lru_cache(maxsize=1)
def _reciprocal(coeffs: bytes) -> np.ndarray:
    """First coefficients of 1/c(t) for the float64 coefficients in
    ``coeffs``, by Newton doubling b <- b (2 - c b) (Brent & Kung, J. ACM
    25(4), 1978).  Kept for the last kernel, so the deficit tails for
    several y on one kernel build it once."""
    c = np.frombuffer(coeffs)
    sizes = [len(c)]
    while sizes[-1] > 1:
        sizes.append((sizes[-1] + 1) // 2)
    b = np.empty(len(c))
    b[0] = 1.0 / c[0]
    k = 1
    for K in reversed(sizes[:-1]):
        size = _fast_len(K)
        B = rfft(b[:k], size)
        # coefficients k..K-1 of c b; the cyclic wrap only reaches below k
        e = rfft(c[:K], size)
        e *= B
        e = rfft(irfft(e, size)[k:K], size)
        e *= B
        b[k:K] = -irfft(e, size)[:K - k]
        k = K
    b.flags.writeable = False
    return b


def trapezoid_convolution(x: np.ndarray, k: np.ndarray, h: float) -> np.ndarray:
    """Trapezoid discretization of int_0^{u_i} x(u_i - t) k(t) dt for all i.

    x and k are sampled on the same grid; only the first len(x) terms of
    their convolution are needed, which is the truncated product that
    ``solve`` uses, with every FFT about len(x) long.
    """
    full = _product(x, k, np.float64)
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
