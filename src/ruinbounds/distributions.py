"""Claim-size laws.

Every claim law is a mixture of Erlang laws, and so phase-type: one class,
``ClaimDistribution``, is built from its components (weights, shapes,
rates), component i being Erlang(k_i, r_i).  Exponential,
hyperexponential, Erlang and common-rate Erlang mixtures are thin
constructors of it.  The class gives the survival function, density,
moments and mgf in closed form, the equilibrium transform as another Erlang
mixture, an exact sampler, and the phase-type pair (alpha, T) that the
perturbed model's ladder law is built from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import PreconditionError, TruncationError

__all__ = [
    "ClaimDistribution",
    "Exponential",
    "HyperExponential",
    "Erlang",
    "ErlangMixture",
    "partial_exp_sum",
]

# An improper tail integral is truncated where the analytic envelope of its
# integrand drops below _TAIL_EPSILON.
_TAIL_EPSILON = 1e-13

# Gauss-Legendre nodes per panel, and panel width in units of 1/rate
_GL_NODES = 40
_PANEL_WIDTH = 4.0


def partial_exp_sum(m, z):
    """Partial exponential sum S_m(z) = sum_{r=0}^m z^r / r!.

    S_{-1}(z) = 0 by convention.  The accumulation is generic: passing a
    ``fractions.Fraction`` keeps the arithmetic exact, floats stay floats.
    Same-sign term accumulation is stable for z up to ~1e3 as long as the
    result itself is representable.
    """
    if m < -1:
        raise ValueError("m must be >= -1")
    if m == -1:
        return 0 * z
    total = 1 + 0 * z  # one, in the arithmetic of z
    term = 1 + 0 * z
    for r in range(1, m + 1):
        term = term * z / r
        total = total + term
    return total


@lru_cache(maxsize=1)
def _legendre_rule():
    rule = np.polynomial.legendre.leggauss(_GL_NODES)
    for arr in rule:
        arr.flags.writeable = False
    return rule


def _gauss_legendre(f, points, rate):
    """Integrals of f over [points[i], points[i + 1]] for every i.

    Each stretch is cut into equal panels at most 4/rate wide, rate being
    the fastest decay rate of the integrand, and each panel takes 40-node
    Gauss-Legendre; f is called once, on the array of all nodes.  A stretch
    whose integrand overflows to inf or nan integrates to ``math.inf``.
    """
    x, w = _legendre_rule()
    pts = np.asarray(points, dtype=float)
    width = np.diff(pts)
    count = np.maximum(1, np.ceil(width * rate / _PANEL_WIDTH)).astype(int)
    first = np.cumsum(count) - count        # first panel of each stretch
    step = np.repeat(width / count, count)
    left = (np.repeat(pts[:-1], count)
            + (np.arange(count.sum()) - np.repeat(first, count)) * step)
    with np.errstate(over="ignore", invalid="ignore"):
        nodes = left[:, None] + (0.5 * step)[:, None] * (x + 1.0)
        out = np.add.reduceat((f(nodes) @ w) * (0.5 * step), first)
    return np.where(np.isfinite(out), out, math.inf)


@dataclass(frozen=True, init=False)
class ClaimDistribution:
    """Claim-size law: a mixture of Erlang laws, component i being
    Erlang(shapes[i], rates[i]) with probability weights[i].

    Constructible from components, ``ClaimDistribution(weights, shapes,
    rates)``; the four parametric families are thin constructors of it.
    Every quantity but the weighted tail moment has a closed form: the tail
    is sum_i w_i exp(-r_i t) S_{k_i - 1}(r_i t) with S the partial
    exponential sum, and the law is phase-type, each component a chain of
    k_i exponential stages at rate r_i.  Equality and hashing compare the
    class and the components.
    """

    weights: tuple
    shapes: tuple
    rates: tuple

    # family of the equilibrium law; None keeps the class of the law itself
    _equilibrium_type = None

    def __init__(self, weights, shapes, rates):
        w = np.asarray(weights, dtype=float)
        k = np.asarray(shapes)
        r = np.asarray(rates, dtype=float)
        if w.ndim != 1 or len(w) == 0 or k.shape != w.shape or r.shape != w.shape:
            raise ValueError("weights, shapes and rates must be 1-d sequences "
                             "of equal length")
        if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-9:
            raise ValueError(f"weights must be >= 0 and sum to 1 (got {w.sum()!r})")
        if np.any(k != k.astype(int)) or np.any(k.astype(int) < 1):
            raise ValueError("shapes must be positive integers")
        if np.any(r <= 0):
            raise ValueError("rates must be positive")
        # merge components whose shapes agree and whose rates coincide to
        # machine accuracy, keeping the order of first appearance
        parts = []
        for wi, ki, ri in zip(w / w.sum(), k.astype(int), r):
            for n, (wj, kj, rj) in enumerate(parts):
                if kj == ki and abs(ri - rj) <= 1e-12 * ri:
                    parts[n] = (wj + wi, kj, rj)
                    break
            else:
                parts.append((wi, ki, ri))
        wm, km, rm = zip(*parts)
        object.__setattr__(self, "weights", tuple(float(x) for x in wm))
        object.__setattr__(self, "shapes", tuple(int(x) for x in km))
        object.__setattr__(self, "rates", tuple(float(x) for x in rm))
        object.__setattr__(self, "_parts",
                           tuple(zip(self.weights, self.shapes, self.rates)))

    @classmethod
    def _of(cls, weights, shapes, rates):
        # an instance of cls from components, bypassing the family signature
        law = object.__new__(cls)
        ClaimDistribution.__init__(law, weights, shapes, rates)
        return law

    def _erlang_sum(self, t, stage):
        """sum_i w_i exp(-z_i) stage(k_i, r_i, z_i), z_i = r_i t."""
        if np.ndim(t) == 0:
            # the cutoff search calls this point by point; plain floats
            # cost a fraction of 0-d numpy arithmetic
            x, exp = float(t), math.exp
            negative = x < 0
        else:
            x, exp = np.asarray(t, dtype=float), np.exp
            negative = np.any(x < 0)
        if negative:
            raise ValueError("claim sizes are nonnegative; got a negative argument")
        return sum(w * exp(-r * x) * stage(k, r, r * x) for w, k, r in self._parts)

    def tail(self, t):
        """Survival function F-bar(t) = 1 - F(t); a float for a scalar t."""
        # P(Erlang(k, r) > t) = e^{-z} S_{k-1}(z)
        return self._erlang_sum(t, lambda k, r, z: partial_exp_sum(k - 1, z))

    def density(self, t):
        # Erlang(k, r) density = e^{-z} r z^{k-1} / (k-1)!
        return self._erlang_sum(
            t, lambda k, r, z: r * z ** (k - 1) / math.factorial(k - 1))

    def mean(self):
        return float(sum(w * k / r for w, k, r in self._parts))

    def second_moment(self):
        return float(sum(w * k * (k + 1) / r**2 for w, k, r in self._parts))

    def equilibrium(self):
        """Integrated-tail (equilibrium) transform of this law."""
        # stage j of component i leaves an Erlang(j, r_i) residual with
        # weight w_i / (r_i mu); construction merges equal (shape, rate) pairs
        mu = self.mean()
        stages = [(w / (r * mu), j, r) for w, k, r in self._parts
                  for j in range(1, k + 1)]
        return (self._equilibrium_type or type(self))._of(*zip(*stages))

    def mgf(self, r):
        """E exp(rX) for r below the slowest rate."""
        if r >= self.slowest_rate:
            raise PreconditionError("mgf diverges at and beyond the slowest rate")
        return float(sum(w * (b / (b - r)) ** k for w, k, b in self._parts))

    def sample(self, rng, size):
        if len(self._parts) == 1:
            # gamma(1, s) draws exactly what exponential(s) draws
            return rng.gamma(self.shapes[0], 1.0 / self.rates[0], size)
        idx = np.searchsorted(np.cumsum(self.weights), rng.random(size),
                              side="right").clip(0, len(self._parts) - 1)
        draws = rng.gamma(np.asarray(self.shapes, dtype=float)[idx])
        draws /= np.asarray(self.rates)[idx]
        return draws

    def phase_type(self):
        """Start vector alpha and sub-generator T with
        tail(t) = alpha exp(T t) 1."""
        d = sum(self.shapes)
        alpha, T = np.zeros(d), np.zeros((d, d))
        i = 0
        for w, k, r in self._parts:
            alpha[i] = w
            T[i:i + k, i:i + k] = r * (np.eye(k, k=1) - np.eye(k))
            i += k
        return alpha, T

    @property
    def slowest_rate(self):
        """Rate of the slowest component; the tail is
        O(poly(t) * exp(-slowest_rate * t))."""
        return min(self.rates)

    # -- quadrature-backed operations -----------------------------------

    def weighted_tail_moment(self, gamma: float) -> float:
        """Weighted tail moment: integral of (1+t)^gamma * tail(t) over [0, inf).

        Equals (E(X+1)^(gamma+1) - 1)/(gamma+1); the identity is exercised
        by the test suite.  Where (1+t)^gamma overflows float before the
        tail has decayed, the moment is reported as ``math.inf``, and any
        hypothesis that bounds it fails.
        """
        if gamma < 0:
            raise ValueError("gamma must be >= 0")
        try:
            T = self.tail_cutoff(gamma)
        except OverflowError:
            return math.inf
        (val,) = _gauss_legendre(lambda t: (1.0 + t) ** gamma * self.tail(t),
                                 (0.0, T), max(self.rates))
        return float(val) + self._tail_remainder(T, gamma)

    def tail_cutoff(self, gamma: float) -> float:
        """Truncation point T past which (1+t)^gamma * tail(t) integrates to
        below 1e-13 (estimated from the exponential envelope)."""
        r = self.slowest_rate
        T = max(1.0, 20.0 / r)
        for _ in range(200):
            if self._tail_remainder(T, gamma) < _TAIL_EPSILON:
                return T
            T *= 1.5
        raise TruncationError("tail does not decay within a workable window")

    def _tail_remainder(self, T: float, gamma: float) -> float:
        # First-order envelope estimate of int_T^inf (1+t)^gamma tail(t) dt.
        # A factor 4 absorbs polynomial slack (Erlang-type components).
        r = self.slowest_rate
        top = (1.0 + T) ** gamma * self.tail(T)
        return 4.0 * top / r * (1.0 + gamma / (r * (1.0 + T)))


class Exponential(ClaimDistribution):
    """Exponential claim sizes with rate beta (mean 1/beta)."""

    def __init__(self, beta):
        super().__init__((1.0,), (1,), (beta,))

    beta = property(lambda self: self.rates[0])


class HyperExponential(ClaimDistribution):
    """Mixture of exponentials: tail(t) = sum_i p_i exp(-beta_i t).

    Components are sorted by rate, and components with equal rates are
    merged at construction (their weights added).
    """

    def __init__(self, weights, rates):
        w = np.asarray(weights, dtype=float)
        b = np.asarray(rates, dtype=float)
        if w.shape != b.shape or w.ndim != 1:
            raise ValueError("weights and rates must be 1-d sequences of equal length")
        order = np.argsort(b)
        super().__init__(w[order], np.ones(len(w), dtype=int), b[order])


class ErlangMixture(ClaimDistribution):
    """Mixture of Erlang laws sharing one rate.

    Mainly the image of ``Erlang.equilibrium``; closed under a further
    equilibrium transform, which keeps repeated transforms exact.
    """

    def __init__(self, weights, shapes, beta):
        super().__init__(weights, shapes, [beta] * len(weights))

    beta = property(lambda self: self.rates[0])


class Erlang(ClaimDistribution):
    """Erlang claim sizes: shape k (positive integer), rate beta."""

    _equilibrium_type = ErlangMixture

    def __init__(self, shape, beta):
        super().__init__((1.0,), (shape,), (beta,))

    shape = property(lambda self: self.shapes[0])
    beta = property(lambda self: self.rates[0])
