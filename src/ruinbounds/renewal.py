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
SIAM J. Sci. Stat. Comput. 6(3), 1985).  One refinement step, with a
residual that integer-valued float64 FFT products make exact where it
cancels, leaves every node within rounding of the exact solution of the
grid system.  Each product of two series in half spectra, the solve's
two, its residual's three and the iteration's, goes through ``_cross``.
The map x -> z + phi*(x conv kappa) contracts with modulus phi, which
yields a priori and a posteriori error certificates for the fixed-point
iteration.

A ``RenewalProblem`` is this equation sampled: z and kappa at the nodes
0, h, ..., n h, checked once when the problem is built.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from numpy.fft import irfft, rfft

from .distributions import _Value
from .errors import PreconditionError
from .metrics import GridFunction

__all__ = ["RenewalProblem", "IterationTrace", "solve", "iterate"]

DEFAULT_H = 2.0**-10


def nodes(h: float, u_max: float) -> np.ndarray:
    """The grid 0, h, ..., n h with n = round(u_max / h).

    A grid of more nodes than the longest FFT length of the solver
    (``_smooth_sizes``) raises ``PreconditionError`` before anything is
    allocated.
    """
    steps = u_max / h
    count = int(round(steps)) + 1 if math.isfinite(steps) else math.inf
    longest = _smooth_sizes()[-1]
    if count > longest:
        raise PreconditionError(
            f"step h = {h:g} to u_max = {u_max:g} gives {count:.10g} nodes, "
            f"more than the solver's longest FFT length {longest}; raise h "
            f"or lower u_max")
    return np.arange(count) * h


class RenewalProblem(_Value):
    """One defective renewal equation: z and kappa sampled at the nodes
    0, h, ..., n h, checked when the problem is built and kept read-only.

    The kernel is a probability density; its mass inside the window may be
    less than 1 when the grid end cuts the support, which is harmless
    because the scheme is causal: the value at u depends only on the kernel
    and the forcing on [0, u].
    """

    __slots__ = _fields = ("phi", "forcing", "kernel", "h")

    def __init__(self, phi: float, forcing, kernel, h: float = DEFAULT_H):
        if not 0.0 <= phi < 1.0:
            raise PreconditionError(
                f"contraction requires modulus phi in [0, 1); got {phi}")
        if not h > 0:
            raise PreconditionError(f"need a step h > 0; got {h}")
        z = np.array(forcing, dtype=float)
        k = np.array(kernel, dtype=float)
        if z.ndim != 1 or len(z) < 2 or k.shape != z.shape:
            raise ValueError("forcing and kernel must be sampled on one grid "
                             "of at least two nodes")
        if np.any(k < -1e-12):
            raise PreconditionError("kernel density must be nonnegative")
        mass = np.trapezoid(k, dx=h)
        # trapezoid overshoots a density by h^2 |kappa'(0)| / 12 to leading
        # order; allow six times that, with the secant (k_0 - k_1)/h for
        # -kappa'(0), which covers an exponential density at any step
        if mass > 1.0 + max(1e-6, 0.5 * h * (k[0] - k[1])):
            raise PreconditionError(
                f"kernel mass {mass:.6f} exceeds 1; not a probability density")
        z.flags.writeable = k.flags.writeable = False
        super().__init__(phi, z, k, h)

    @property
    def u_max(self) -> float:
        return (len(self.forcing) - 1) * self.h

    @property
    def grid(self) -> np.ndarray:
        return np.arange(len(self.forcing)) * self.h


def solve(problem: RenewalProblem) -> GridFunction:
    """Grid values of the unique fixed point, in O(n log n).

    The trapezoid scheme, O(h^2), with the diagonal kappa(0) term implicit,
    is a lower-triangular Toeplitz system C y = r in y = x[1:], x_0 = z_0,
    with first column c_0 = 1 - phi h k_0 / 2, c_p = -phi h k_p and
    right-hand side r_i = z_i + phi h k_i x_0 / 2.  Its inverse is
    multiplication by the power series b = 1/c(t), built by Newton doubling
    and applied with real-FFT products from b's two half spectra, which
    ``_reciprocal`` keeps for the last kernel.  One refinement step
    follows: the residual C y - r comes from float64 FFTs of an error-free
    split of c and y (``_residual``), so its accuracy does not depend on
    the platform, and the correction from the same float64 inverse.  The
    kernel side of that split is kept beside b, so a solve on the last
    kernel transforms only r, y and the residual: 16 real FFTs.  FFT
    products alone are off by up to a few units in the last place of
    max|x|; after the step every node is within about half of one such
    unit of the exact solution of the float64 system.
    The discrete equation must be defective, as the continuous one is: a
    step with margin c(1) = sum_p c_p <= 0 raises ``PreconditionError``.
    When c(1) > 0, 1/c(t) has nonnegative coefficients (c_p <= 0 for
    p >= 1) summing to 1/c(1), so sup|y| <= sup|r|/c(1).
    """
    h = problem.h
    c, x = _system(problem)
    # what solve needs of the problem and of c is in x and the inverse; a
    # problem passed as a temporary is freed here, c in any case
    del problem
    inverse = _reciprocal(c.tobytes())
    del c
    r = x[1:]
    y = _product(inverse.b, r)
    y -= _product(inverse.b, _residual(inverse.split, y, r))
    x[1:] = y
    return GridFunction(h, x)


def _as_tail(x: GridFunction) -> GridFunction:
    """x itself, once checked as a tail: values in [0, 1], none rising
    (each up to 1e-9 of solver noise).

    Grid values that leave [0, 1] or rise come from a step too coarse for
    the kernel, which the margin c(1) of a grid ending inside the kernel's
    support can miss; they raise ``PreconditionError``.
    """
    v = x.values
    if v.min() < -1e-9 or v.max() > 1.0 + 1e-9:
        fault = "lie in [0, 1]"
    elif np.any(np.diff(v) > 1e-9):
        fault = "be nonincreasing"
    else:
        return x
    raise PreconditionError(f"tail-type grid values must {fault} at step "
                            f"h = {x.h:g}; a smaller step is needed")


def _system(problem):
    """First column c of the Toeplitz matrix, and the forcing z with the
    right-hand side r in place of z[1:]."""
    z, k = problem.forcing, problem.kernel
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


def _halves(v, size):
    """Spectra of the first ceil(m/2) of the m terms of v and of the rest,
    each zero-padded to ``size``."""
    half = (len(v) + 1) // 2
    return rfft(v[:half], size), rfft(v[half:], size)


def _assemble(lo, cross, m, size):
    """Coefficients 0..m-1 of the product of two series of m terms, from
    the spectra of the product of their first halves and of the sum of its
    two cross terms.  The cross terms count only up to t^m, so every FFT
    has length about m, not 2m."""
    half = (m + 1) // 2
    out = irfft(lo, size)[:m]
    del lo      # spent: freed here when the caller passed a temporary
    out[half:] += irfft(cross, size)[:m - half]
    return out


def _cross(a, x, out=(None, None)):
    """The two products of the half-spectrum pairs a = (a_lo, a_hi) and
    x = (x_lo, x_hi) that ``_assemble`` reads: a_lo x_lo, and the cross
    term x_lo a_hi + a_lo x_hi.  numpy's complex product may fuse a
    multiply-add, so a b and b a can differ in the last bit; this operand
    order keeps the bytes of every table.  ``out`` names two spectra the
    caller has spent, for the cross term: the first may be x_lo or a_hi,
    the second a_lo or x_hi."""
    (a_lo, a_hi), (x_lo, x_hi) = a, x
    lo = a_lo * x_lo
    cross = np.multiply(x_lo, a_hi, out=out[0])
    cross += np.multiply(a_lo, x_hi, out=out[1])
    return lo, cross


def _product(a, x):
    """(a x) mod t^m for power series a and x of m terms, a given by its two
    half spectra ``_halves(a, _fast_len(m))``.  They are only read, never
    written, so several products with one a transform it once.
    """
    m = len(x)
    size = _fast_len(m)
    xs = _halves(x, size)
    lo, cross = _cross(a, xs, out=xs)
    del xs
    return _assemble(lo, cross, m, size)


def _integer_bound(size):
    """1/(16 gamma_N), gamma_N = 2 (6 log2 N + 3) eps.  A real-FFT product
    of length N of integer vectors C and Y is within ||C||_2 ||Y||_2 gamma_N
    of its integer coefficients (after Percival, Math. Comp. 72(241), 2003);
    up to this bound that is 1/16, so ``np.rint`` returns them exactly."""
    return 1.0 / (32.0 * (6.0 * math.log2(size) + 3.0) * 2.0**-52)


def _scale(v, bits):
    """Exponent e with 2^(bits-1) < 2^e ||v||_2 <= 2^bits, or 0 where v is
    zero or not finite (a NaN then reaches the solution, which
    ``GridFunction`` rejects).

    v is first scaled by the power of two of its largest entry, so the sum
    of squares can neither overflow nor underflow and e moves by exactly
    -k when v is scaled by 2^k.
    """
    top = np.max(np.abs(v))
    if not 0.0 < top < math.inf:
        return 0
    e = int(np.frexp(top)[1])
    w = np.ldexp(v, -e)
    return bits - e - math.ceil(0.5 * math.log2(np.sum(w * w)))


def _split(v):
    """The error-free split v = 2^-e V + v' of ``_residual``, as (e, V, v'):
    V is integer-valued with ||V||_2 <= 2^bits + sqrt(m)/2, bits the
    largest that keeps the product of two such norms within
    ``_integer_bound``."""
    m = len(v)
    bits = math.floor(math.log2(math.sqrt(_integer_bound(_fast_len(m)))
                                - 0.5 * math.sqrt(m)))
    e = _scale(v, bits)
    V = np.rint(np.ldexp(v, e))
    low = np.ldexp(V, -e)
    np.subtract(v, low, out=low)
    return e, V, low


def _residual(kernel, y, r):
    """C y - r for the Toeplitz system of ``solve``, with float64 FFTs only.

    Both factors split without error (Ozaki, Ogita, Oishi & Rump, Numer.
    Algorithms 59, 2012): c = 2^-s C + c' and y = 2^-t Y + y', with C and
    Y integer-valued and ||C||_2 ||Y||_2 <= (2^bits + sqrt(m)/2)^2 <=
    ``_integer_bound`` (``_split``).  So rint of their FFT product is C Y
    exactly, and 2^-(s+t) C Y - r is exact wherever r is near it.  The low
    parts 2^-s C y' + c' y take their spectra from those of C and Y by
    linearity; they are small, and their FFTs' rounding is the only error.
    ``kernel`` is c's side, s and the half spectra of C and of c', which
    ``_reciprocal`` keeps with the inverse; it is only read.
    """
    m = len(y)
    size = _fast_len(m)
    s, C, c_low = kernel
    t, Y, y_low = _split(y)
    Y = _halves(Y, size)
    d = _assemble(*_cross(C, Y), m, size)
    np.rint(d, out=d)
    np.ldexp(d, -(s + t), out=d)
    d -= r
    # low parts c' y + 2^-s C y'; the spectra of y = 2^-t Y + y' and of
    # 2^-s C follow from those of Y and C by linearity.  Each product
    # writes its cross term into spectra spent by then, because peak
    # memory binds before time does
    w = _halves(y_low, size)
    del y_low
    for Y_half, w_half in zip(Y, w):
        Y_half *= np.ldexp(1.0, -t)
        Y_half += w_half
    lo, cross = _cross(c_low, Y, out=Y)
    del Y
    S = tuple(half * np.ldexp(1.0, -s) for half in C)
    lo_s, cross_s = _cross(S, w, out=w)
    del S, w
    lo += lo_s
    cross += cross_s
    d += _assemble(lo, cross, m, size)
    return d


def _newton(c):
    """First len(c) coefficients b of 1/c(t), by Newton doubling
    b <- b (2 - c b) (Brent & Kung, J. ACM 25(4), 1978), and the spectrum
    of b's first ceil(m/2) of m coefficients at length ``_fast_len(m)``,
    the low half spectrum of ``_halves``, which the last step forms."""
    sizes = [len(c)]
    while sizes[-1] > 1:
        sizes.append((sizes[-1] + 1) // 2)
    b = np.empty(len(c))
    b[0] = 1.0 / c[0]
    # with one coefficient no step runs, and this is the spectrum
    B = rfft(b[:1], 1)
    k = 1
    for K in reversed(sizes[:-1]):
        size = _fast_len(K)
        B = rfft(b[:k], size)
        # coefficients k..K-1 of c b; the cyclic wrap only reaches below k
        e = rfft(c[:K], size)
        e *= B
        e = irfft(e, size)
        e = rfft(e[k:K], size)
        e *= B
        b[k:K] = -irfft(e, size)[:K - k]
        k = K
    return b, B


class _Inverse(NamedTuple):
    """What ``solve`` keeps of the last kernel's column c, read-only: the
    two half spectra of b = 1/c(t), and c's error-free split (``_split``)
    for ``_residual``: its scale s and the half spectra of C and c'."""

    b: tuple
    split: tuple


@lru_cache(maxsize=1)
def _reciprocal(coeffs: bytes) -> _Inverse:
    """``_Inverse`` of the float64 coefficients c in ``coeffs``: b's low
    half spectrum from Newton's last step, the high one transformed once.
    Kept for the last kernel: the deficit tails for several y on one
    kernel, psi_d beside K-bar in ``decompose``, and successive commands
    in one process on one kernel build it once, and every product and
    residual of ``solve`` reads it.  Six spectra of about m/2 + 1 complex
    values: about 48 bytes per node."""
    c = np.frombuffer(coeffs)
    size = _fast_len(len(c))
    b, lo = _newton(c)
    hi = rfft(b[(len(b) + 1) // 2:], size)
    del b
    s, C, low = _split(c)
    C = _halves(C, size)
    low = _halves(low, size)
    for spectrum in (lo, hi, *C, *low):
        spectrum.flags.writeable = False
    return _Inverse((lo, hi), (s, C, low))


def _spectra(k):
    """The two half spectra ``_halves`` of k at length ``_fast_len(len(k))``."""
    return _halves(k, _fast_len(len(k)))


def _convolution(x, k, spectra, h):
    """Trapezoid discretization of int_0^{u_i} x(u_i - t) k(t) dt for all
    i, x and k sampled on one grid and k also given by its ``_spectra``.
    Only the first len(x) terms of the convolution are needed, the
    truncated product of ``solve``, so every FFT is about len(x) long.
    The spectra are only read, so several convolutions with one k
    transform it once."""
    m = len(k)
    size = _fast_len(m)
    x_lo, x_hi = _halves(x, size)
    # x's spectra are ``_cross``'s a, the order that keeps the bytes of
    # every iterate
    lo, cross = _cross((x_lo, x_hi), spectra, out=(x_hi, x_lo))
    del x_lo, x_hi
    full = _assemble(lo, cross, m, size)
    return h * (full - 0.5 * x[0] * k - 0.5 * x * k[0])


def _apply(problem, xv, spectra):
    """T xv = z + phi (xv conv kappa), ``spectra`` being the kernel's."""
    return problem.forcing + problem.phi * _convolution(
        xv, problem.kernel, spectra, problem.h)


class IterationTrace(NamedTuple):
    """Record of a fixed-point iteration x_{j+1} = T x_j, j < n.

    Only the last iterate x_n is kept; the certificates of every iterate
    are.  For iterate j (1-based), ``a_priori[j-1]`` is the Banach bound
    phi^j/(1-phi) * sup|x_1 - x_0| on its true error, and
    ``residuals[j-1]`` is the computable defect sup|T x_j - x_j|.  The
    defect itself is at most phi/(1-phi) * sup|x_j - x_{j-1}| and bounds
    the true error after division by 1-phi.
    """

    phi: float
    last: GridFunction
    a_priori: np.ndarray
    residuals: np.ndarray

    @property
    def n(self) -> int:
        return len(self.a_priori)

    def a_posteriori_error_bound(self, j: int) -> float:
        """Error bound for iterate j (1-based) from its residual."""
        return float(self.residuals[j - 1]) / (1.0 - self.phi)


def iterate(problem: RenewalProblem, x0, n: int) -> IterationTrace:
    """Apply the renewal operator n times starting from x0.

    x0 may be a constant or a GridFunction on the problem grid, of the
    same step and length.  Returns x_n with the error certificates of
    x_1, ..., x_n; only the current and the previous iterate are held
    while it runs.  Iterate j is the ``last`` of a call with n = j, and
    of j chained calls ``iterate(problem, x, 1)``, bit for bit.
    """
    if n < 1:
        raise ValueError("need at least one iteration")
    if not isinstance(x0, GridFunction):
        x0 = GridFunction(problem.h, np.full(len(problem.forcing), float(x0)))
    if len(x0) != len(problem.forcing) or abs(x0.h - problem.h) > 1e-12 * problem.h:
        raise PreconditionError("grid of x0 does not match the problem grid")
    phi = problem.phi
    # every application reads the kernel's spectra, transformed once
    spectra = _spectra(problem.kernel)
    x, steps = x0.values, []
    # n applications reach x_n, and one more prices its a posteriori residual
    for _ in range(n + 1):
        prev = x
        x = _apply(problem, prev, spectra)
        steps.append(float(np.max(np.abs(x - prev))))
    a_priori = np.array([phi**j / (1.0 - phi) * steps[0] for j in range(1, n + 1)])
    return IterationTrace(phi, GridFunction(problem.h, prev), a_priori,
                          np.array(steps[1:]))
