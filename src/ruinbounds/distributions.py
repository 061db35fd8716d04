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

# Double-exponential quadrature (Takahasi & Mori 1974): the trapezoid rule,
# step 1/64 in x, on tanh-sinh nodes (x in [-4, 4]) for a finite stretch and
# on exp-sinh nodes exp(pi/2 sinh x) / rate, out to 800 decay lengths, for
# the stretch to infinity.
_DE_STEP = 1.0 / 64
_DE_REACH = 800.0

# exp(-z) is 0.0 for z >= 746: capping z there in the partial sum changes no
# tail and keeps the sum finite for shapes up to about 520
_EXP_UNDERFLOW = 746.0


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
def _de_rule():
    # (nodes, weights) of the tanh-sinh rule on [0, 1] and of the exp-sinh
    # rule on [0, inf) at unit rate
    x = np.arange(-256, 257) * _DE_STEP
    u = 0.5 * np.pi * np.sinh(x)
    dx = 0.5 * np.pi * np.cosh(x) * _DE_STEP
    s = np.exp(u)
    keep = s <= _DE_REACH
    rule = (1.0 / (1.0 + np.exp(-2.0 * u)), 0.5 * dx / np.cosh(u) ** 2,
            s[keep], (dx * s)[keep])
    for arr in rule:
        arr.flags.writeable = False
    return rule


def _exp_sinh(lower, rate):
    """Exp-sinh nodes and weights for [lower, inf), in units of 1/rate."""
    s, w = _de_rule()[2:]
    return lower + s / rate, w / rate


def _weighted(t, gamma, tails):
    # (1+t)^gamma * tails, 0.0 where a tail is 0.0 even if the weight
    # overflows; tails that are not finite (shapes above about 520) raise
    if not np.isfinite(tails).all():
        raise TruncationError("claim tails overflow float far out "
                              "(an Erlang shape above about 520)")
    with np.errstate(over="ignore", invalid="ignore"):
        return np.where(tails == 0.0, 0.0, (1.0 + t) ** gamma * tails)


def _breaks(points, laws):
    # points plus the means past points[0] of the Erlang components of shape
    # 2 or more: such a tail drops over mean / sqrt(shape), which a rule
    # spread to a slower rate's scale steps over unless a stretch ends there
    means = {k / r for law in laws for _, k, r in law._parts if k > 1}
    return sorted({*points, *(m for m in means if m > points[0])})


def _de_quadrature(tails, points, rate, gamma):
    """Integrals of (1+t)^gamma tails(t) over [points[i], points[i + 1]] for
    every i, and over [points[-1], inf) last, rate being the slowest decay
    rate of the tails.

    tails is called once, on the array of all nodes: 513 tanh-sinh nodes
    per finite stretch and 394 exp-sinh nodes for the last.  A stretch where
    (1+t)^gamma overflows float before the tails reach 0.0 integrates to
    ``math.inf``.
    """
    y, wy = _de_rule()[:2]
    pts = np.asarray(points, dtype=float)
    width = np.diff(pts)[:, None]
    t_inf, w_inf = _exp_sinh(pts[-1], rate)
    nodes = np.concatenate([(pts[:-1, None] + width * y).ravel(), t_inf])
    weights = np.concatenate([(width * wy).ravel(), w_inf])
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.add.reduceat(_weighted(nodes, gamma, tails(nodes)) * weights,
                              np.arange(len(pts)) * len(y))
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
        x = np.asarray(t, dtype=float)
        if np.any(x < 0):
            raise ValueError("claim sizes are nonnegative; got a negative argument")
        out = sum(w * np.exp(-r * x)
                  * stage(k, r, np.minimum(r * x, _EXP_UNDERFLOW))
                  for w, k, r in self._parts)
        return float(out) if x.ndim == 0 else out

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

    def weighted_tail_moment(self, gamma: float) -> float:
        """Weighted tail moment: integral of (1+t)^gamma * tail(t) over [0, inf).

        Equals (E(X+1)^(gamma+1) - 1)/(gamma+1); the identity is exercised
        by the test suite.  Where (1+t)^gamma overflows float before the
        tail has reached 0.0, the moment is reported as ``math.inf``, and any
        hypothesis that bounds it fails.
        """
        if gamma < 0:
            raise ValueError("gamma must be >= 0")
        pieces = _de_quadrature(self.tail, _breaks((0.0,), (self,)),
                                self.slowest_rate, gamma)
        return float(pieces.sum())


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
