"""Claim-size laws.

Every claim law is a mixture of Erlang laws, and so phase-type: one class,
``ClaimDistribution``, is built from its components (weights, shapes,
rates), component i being Erlang(k_i, r_i).  ``Exponential``,
``HyperExponential``, ``Erlang`` and ``ErlangMixture`` (common rate) are
functions that return one; construction drops components of weight 0 and
sorts and merges the rest, so two spellings of one law compare and hash
equal.  The class gives the survival function, density, moments and log
mgf in closed form, the equilibrium transform as another Erlang mixture, an
exact sampler, and the phase-type pair (alpha, T).

``_Ladder`` is the law of one ladder step of either risk model: P(N >= n)
= phi^n record highs, each a claim ladder height from the equilibrium law,
after an Exp(b0) oscillation record high once diffusion is added.  psi,
G-bar, K-bar and psi_t are its compound geometric tails, so it gives their
renewal kernel and forcing, default grid end, decay rate and paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby

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
_TAYLOR_DEGREE = 20  # of the matrix exponential at 1-norm <= 1


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


def _breaks(points, laws):
    # points plus the means past points[0] of the Erlang components of shape
    # 2 or more: such a tail drops over mean / sqrt(shape), which a rule
    # spread to a slower rate's scale steps over unless a stretch ends there
    means = {k / r for law in laws for _, k, r in law._parts if k > 1}
    return sorted({*points, *(m for m in means if m > points[0])})


def _de_nodes(points, rate):
    """Nodes and weights of the rule over [points[0], inf), with the index
    at which each stretch starts.

    513 tanh-sinh nodes on each [points[i], points[i + 1]], then 394
    exp-sinh nodes in units of 1/rate on [points[-1], inf).  The nodes
    ascend, but for one rounding where two stretches meet.
    """
    y, wy, s, ws = _de_rule()
    pts = np.asarray(points, dtype=float)
    width = np.diff(pts)[:, None]
    nodes = np.concatenate([(pts[:-1, None] + width * y).ravel(),
                            pts[-1] + s / rate])
    weights = np.concatenate([(width * wy).ravel(), ws / rate])
    return nodes, weights, np.arange(len(pts)) * len(y)


def _de_quadrature(tails, points, rate, gamma):
    """Integrals of (1+t)^gamma tails(t) over [points[i], points[i + 1]] for
    every i, and over [points[-1], inf) last, rate being the slowest decay
    rate of the tails.

    tails is called once, on the array of all nodes.  A node where the
    tails are 0.0 contributes 0.0 even where (1+t)^gamma overflows; at a
    node where the weight overflows before the tails reach 0.0, the term
    is formed in log space, sign(f) exp(gamma log1p(t) + log|f|), and only
    those nodes are, so every finite integral keeps its bits.  An integral
    past the float range is ``math.inf``, and tails that are not finite
    (shapes above about 520) raise ``TruncationError``.
    """
    nodes, weights, starts = _de_nodes(points, rate)
    with np.errstate(over="ignore", invalid="ignore"):
        f = tails(nodes)
        if not np.isfinite(f).all():
            raise TruncationError("claim tails overflow float far out "
                                  "(an Erlang shape above about 520)")
        weight = (1.0 + nodes) ** gamma
        terms = np.where(f == 0.0, 0.0, weight * f)
        far = np.isinf(weight) & (f != 0.0)
        if far.any():
            terms[far] = np.sign(f[far]) * np.exp(
                gamma * np.log1p(nodes[far]) + np.log(np.abs(f[far])))
        out = np.add.reduceat(terms * weights, starts)
    return np.where(np.isfinite(out), out, math.inf)


def _claim_sizes(t):
    """t as a float array, refused if any entry is negative."""
    x = np.asarray(t, dtype=float)
    if np.any(x < 0):
        raise ValueError("claim sizes are nonnegative; got a negative argument")
    return x


def _standard_gamma(rng, shape, size):
    # standard_gamma(1) draws exactly what standard_exponential draws, which
    # skips the per-draw shape dispatch
    if shape == 1:
        return rng.standard_exponential(size)
    return rng.standard_gamma(shape, size)


def _geometric_record_counts(rng, size: int, phi: float) -> np.ndarray:
    # inversion: P(N >= n) = phi^n, using 1-U in (0, 1] to dodge log(0);
    # log1p(-U) / log phi >= 0 is formed in the uniforms' own buffer, and
    # the integer cast truncates it to its floor
    x = rng.random(size)
    np.negative(x, out=x)
    np.log1p(x, out=x)
    x /= math.log(phi)
    return x.astype(np.int64)


def _exponentials(rng, scale: float, size: int) -> np.ndarray:
    # exponential(scale) is scale * standard_exponential(), bit for bit
    draws = rng.standard_exponential(size)
    draws *= scale
    return draws


def _running_sums(values: np.ndarray) -> np.ndarray:
    """Running sums of values, with a leading 0."""
    cs = np.empty(len(values) + 1)
    cs[0] = 0.0
    np.cumsum(values, out=cs[1:])
    return cs


def _path_edges(cs: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Running sums cs, with their leading 0, at every path's start and
    then at its end: path i holds the values ends[i-1]..ends[i] - 1, the
    first path from 0.  Adjacent differences are the path sums."""
    edges = np.empty(len(ends) + 1)
    edges[0] = 0.0
    edges[1:] = cs[ends]
    return edges


def _path_sums(values: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Every path's sum of values, the paths cut at ``ends``."""
    return np.diff(_path_edges(_running_sums(values), ends))


@dataclass(frozen=True, init=False)
class ClaimDistribution:
    """Claim-size law: a mixture of Erlang laws, component i being
    Erlang(shapes[i], rates[i]) with probability weights[i].

    Constructible from components, ``ClaimDistribution(weights, shapes,
    rates)``; the four parametric families are functions that build it.
    Every quantity but the weighted tail moment has a closed form: the tail
    is sum_i w_i exp(-r_i t) S_{k_i - 1}(r_i t) with S the partial
    exponential sum, and the law is phase-type, each component the last
    k_i of a chain of exponential stages at rate r_i.  Construction puts
    the components in a canonical form, so equality and hashing compare
    laws, whatever constructor or order of components built them.
    """

    weights: tuple
    shapes: tuple
    rates: tuple

    def __init__(self, weights, shapes, rates):
        w = np.asarray(weights, dtype=float)
        k = np.asarray(shapes)
        r = np.asarray(rates, dtype=float)
        if w.ndim != 1 or len(w) == 0 or k.shape != w.shape or r.shape != w.shape:
            raise ValueError("weights, shapes and rates must be 1-d sequences "
                             "of equal length")
        total = math.fsum(w)    # correctly rounded: one value in every order
        if np.any(w < 0) or not abs(total - 1.0) <= 1e-9:   # nan fails too
            raise ValueError(f"weights must be >= 0 and sum to 1 (got {total!r})")
        if np.any(k != k.astype(int)) or np.any(k.astype(int) < 1):
            raise ValueError("shapes must be positive integers")
        if not np.all(np.isfinite(r) & (r > 0)):
            raise ValueError("rates must be positive and finite")
        # drop the components of weight 0, then, in (rate, shape) order,
        # merge those whose shapes agree and whose rates coincide to machine
        # accuracy, each group weighing the fsum of its weights
        kept = [part for part in zip(w / total, k.astype(int), r) if part[0] > 0]
        groups = []
        for wi, ki, ri in sorted(kept, key=lambda part: (part[2], part[1])):
            for ws, kj, rj in groups:
                if kj == ki and abs(ri - rj) <= 1e-12 * ri:
                    ws.append(wi)
                    break
            else:
                groups.append(([wi], ki, ri))
        wm, km, rm = zip(*((math.fsum(ws), kj, rj) for ws, kj, rj in groups))
        object.__setattr__(self, "weights", tuple(float(x) for x in wm))
        object.__setattr__(self, "shapes", tuple(int(x) for x in km))
        object.__setattr__(self, "rates", tuple(float(x) for x in rm))
        object.__setattr__(self, "_parts",
                           tuple(zip(self.weights, self.shapes, self.rates)))

    def _erlang_sum(self, t, term):
        """sum_i term(w_i, k_i, r_i, z_i), z_i = r_i t."""
        x = _claim_sizes(t)
        out = sum(term(w, k, r, r * x) for w, k, r in self._parts)
        return float(out) if x.ndim == 0 else out

    def tail(self, t):
        """Survival function F-bar(t) = 1 - F(t); a float for a scalar t.

        The sum over components, in canonical order, of
        w e^{-z} S_{k-1}(z), z = r t, S_{k-1} being ``partial_exp_sum`` at
        z capped at 746.  Components at one rate share z, e^{-z} and one
        running partial sum, read at each shape as it ascends: its steps
        are those of ``partial_exp_sum``, so every component's term keeps
        its bits, and Erlang(k, r).equilibrium() costs O(k) per node, not
        O(k^2).  An exponential component (k = 1) is w e^{-z} alone: S_0
        is exactly 1.0, so skipping it changes no bit.
        """
        x = _claim_sizes(t)
        out = 0
        for r, parts in groupby(self._parts, key=lambda part: part[2]):
            z = r * x
            e = np.exp(-z)
            j = 0   # degree of the running partial sum, once it is formed
            for w, k, _ in parts:
                if k == 1:
                    out = out + w * e
                    continue
                if j == 0:
                    capped = np.minimum(z, _EXP_UNDERFLOW)
                    term = total = 1 + 0 * capped
                while j < k - 1:
                    j += 1
                    term = term * capped / j
                    total = total + term
                out = out + w * e * total
        return float(out) if x.ndim == 0 else out

    def density(self, t):
        # Erlang(k, r) density r z^{k-1} e^{-z} / (k-1)!, formed in log space
        # so that neither z^{k-1} nor (k-1)! leaves the float range
        def term(w, k, r, z):
            with np.errstate(divide="ignore"):
                power = (k - 1) * np.log(z) if k > 1 else 0.0
            return w * r * np.exp(power - z - math.lgamma(k))
        return self._erlang_sum(t, term)

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
        return ClaimDistribution(*zip(*stages))

    def log_mgf(self, r):
        """log E exp(rX) for r below the slowest rate.

        Formed as a log-sum-exp of the components' log of
        w_i (r_i/(r_i - r))^k_i, so no shape overflows float near the
        slowest rate.
        """
        if r >= self.slowest_rate:
            raise PreconditionError("mgf diverges at and beyond the slowest rate")
        terms = [math.log(w) - k * math.log1p(-r / b) for w, k, b in self._parts]
        top = max(terms)
        return top + math.log(sum(math.exp(t - top) for t in terms))

    def sample(self, rng, size):
        """size independent draws of the law from the generator rng.

        A mixture draws size uniforms first; each picks the first component
        whose cumulative weight exceeds it (the last component if none
        does).  One standard-gamma draw of that component's shape follows
        per sample, divided by its rate.  A single component draws no
        uniforms: its standard-gamma draws are multiplied by 1/rate, which
        is what ``rng.gamma(k, 1/rate)`` computes.  The draws, and where
        they leave rng, equal bit for bit those of ``searchsorted`` over the
        cumulative weights followed by ``rng.gamma``, the reference the
        tests keep.
        """
        if len(self._parts) == 1:
            draws = _standard_gamma(rng, self.shapes[0], size)
            draws *= 1.0 / self.rates[0]
            return draws
        u = rng.random(size)
        # the number of cumulative weights at or below u, the last one left
        # out: searchsorted(side="right") clipped to the last component
        idx = np.zeros(size, dtype=np.intp)
        for edge in np.cumsum(self.weights)[:-1]:
            idx += u >= edge
        if len(set(self.shapes)) == 1:
            draws = _standard_gamma(rng, self.shapes[0], size)
        else:
            draws = rng.standard_gamma(np.asarray(self.shapes, dtype=float).take(idx))
        draws /= np.asarray(self.rates).take(idx)
        return draws

    def phase_type(self):
        """Start vector alpha and sub-generator T with tail(t) =
        alpha exp(T t) 1: one chain of stages per rate, as long as the
        largest shape at it, which Erlang(k, r) enters k stages before its
        end.  So Erlang(k, r) and its equilibrium law have k stages."""
        longest = {r: k for _, k, r in self._parts}   # shapes ascend per rate
        d = sum(longest.values())
        alpha, T, ends = np.zeros(d), np.zeros((d, d)), {}
        i = 0
        for r, n in longest.items():
            T[i:i + n, i:i + n] = r * (np.eye(n, k=1) - np.eye(n))
            i = ends[r] = i + n
        for w, k, r in self._parts:
            alpha[ends[r] - k] = w
        return alpha, T

    @property
    def slowest_rate(self):
        """Rate of the slowest component; the tail is
        O(poly(t) * exp(-slowest_rate * t))."""
        return min(self.rates)

    def weighted_tail_moment(self, gamma: float) -> float:
        """Weighted tail moment: integral of (1+t)^gamma * tail(t) over [0, inf).

        Equals (E(X+1)^(gamma+1) - 1)/(gamma+1); the identity is exercised
        by the test suite.  A moment past the float range is reported as
        ``math.inf``, and any hypothesis that bounds it fails.  Memoised
        per law and gamma (``_weighted_tail_moment``).
        """
        if gamma < 0:
            raise ValueError("gamma must be >= 0")
        return _weighted_tail_moment(self, float(gamma))


def _expm(A):
    """exp(A) for a matrix or a stack of matrices.

    exp(A / 2^s) with |A / 2^s|_1 <= 1 from its degree-20 Taylor polynomial
    in Horner form, whose truncation error is below 1/21! there, then
    squared s times (Higham, SIAM J. Matrix Anal. Appl. 26(4), 2005).  The
    polynomial uses no divided differences (e^a - e^b)/(a - b), so nearly
    equal diagonal entries, b0 one rounding off a claim rate, cost no
    accuracy.
    """
    norm = float(np.max(np.abs(A).sum(axis=-2), initial=0.0))
    s = max(0, math.ceil(math.log2(norm))) if norm > 0 else 0
    X = A / 2.0**s
    eye = np.eye(A.shape[-1])
    E = eye + X / _TAYLOR_DEGREE
    for k in range(_TAYLOR_DEGREE - 1, 0, -1):
        E = eye + X @ E / k
    for _ in range(s):
        E = E @ E
    return E


class _Ladder:
    """Law of one ladder step, with the modulus phi of the record count:
    the equilibrium law F_e of the claims, or, given b0, A = Exp(b0) * F_e,
    phase-type with an Exp(b0) stage before F_e's phases (Dufresne &
    Gerber, Insurance Math. Econom. 10(1), 1991).  F_e's phases are the
    claims' own, entered at alpha (-T)^-1 / mu: A has k + 1 on Erlang(k)."""

    def __init__(self, phi: float, claims: ClaimDistribution, b0=None):
        self.phi, self.claims, self.b0 = phi, claims, b0
        self.fe = claims.equilibrium()
        rate = claims.slowest_rate
        self.slowest_rate = rate if b0 is None else min(b0, rate)

    def default_end(self) -> float:
        """Smallest U with phi exp(-r U) / (1 - phi) below 1e-9, r the
        slowest rate of the step law; at least 10."""
        u = np.log(self.phi / ((1.0 - self.phi) * 1e-9)) / self.slowest_rate
        return float(max(10.0, np.ceil(u)))

    def density(self, grid: np.ndarray, h: float):
        """Density of the step law at the nodes grid = 0, h, ...

        Without b0 it is the claim tail over the mean.  With b0 it is
        a(t) = e_1 exp(T t) t_exit, node i m + j being
        (e_1 E^{i m}) (E^j t_exit) with E = exp(T h), so about 2 sqrt(n)
        matrix-vector products give all n values.
        """
        if self.b0 is None:
            return self.claims.tail(grid) / self.claims.mean()
        pe, Te = self.fe.phase_type()
        d = len(pe)
        T = np.zeros((d + 1, d + 1))
        T[0, 0] = -self.b0
        T[0, 1:] = self.b0 * pe
        T[1:, 1:] = Te
        # the first stage only feeds the claim phases, so it never exits itself
        exit_rates = np.concatenate(([0.0], -Te.sum(axis=1)))
        step = _expm(T * h)
        n = len(grid)
        m = int(math.ceil(math.sqrt(n)))
        big = np.linalg.matrix_power(step, m)
        cols, rows = np.empty((d + 1, m)), np.empty((m, d + 1))
        v, r = exit_rates, np.eye(d + 1)[0]
        for i in range(m):
            cols[:, i], rows[i] = v, r
            v, r = step @ v, r @ big
        return (rows @ cols).ravel()[:n]

    def on_grid(self, grid: np.ndarray, h: float):
        """Density and tail of the step law at the nodes grid = 0, h, ...:
        ``density`` and Fe-bar, to which b0 adds a(t) / b0, as
        A-bar(t) = Fe-bar(t) + a(t) / b0."""
        a, tail = self.density(grid, h), self.fe.tail(grid)
        return a, tail if self.b0 is None else tail + a / self.b0

    def log_mgf(self, r: float) -> float:
        """log E exp(r A) of one step A, for r below the slowest rate."""
        out = self.fe.log_mgf(r)
        return out if self.b0 is None else out - math.log1p(-r / self.b0)

    def decay_rate(self) -> float:
        """Lundberg rate R: the root of phi E exp(R A) = 1.

        The bisection tests the sign of log phi + log E exp(r A), so no
        shape overflows float near the slowest rate.
        """
        log_phi = math.log(self.phi)
        # log phi < 0 at r = 0, and the mgf diverges at the slowest rate
        lo, hi = 0.0, self.slowest_rate
        # bisect until the midpoint rounds to an endpoint
        mid = 0.5 * (lo + hi)
        while lo < mid < hi:
            if log_phi + self.log_mgf(mid) >= 0:
                hi = mid
            else:
                lo = mid
            mid = 0.5 * (lo + hi)
        return mid

    def sample_paths(self, rng, size: int):
        """size paths of the ladder sum, drawn from rng.

        Draws the record counts, then, with b0, every path's Exp(b0)
        heights, then every path's claim ladder heights.  Returns the
        counts, their running sums (where each path's draws end), the
        claim heights path after path, and each path's sum of Exp(b0)
        heights (None without b0), which a path's total adds to the sum of
        its claim heights.
        """
        counts = _geometric_record_counts(rng, size, self.phi)
        ends = np.cumsum(counts)
        total = int(counts.sum())
        oscillations = None
        if self.b0 is not None:
            oscillations = _path_sums(_exponentials(rng, 1.0 / self.b0, total),
                                      ends)
        return counts, ends, self.fe.sample(rng, total), oscillations


@lru_cache(maxsize=256)
def _weighted_tail_moment(law, gamma):
    # a pure function of the law's value and gamma: the bounds ask for one
    # law's moment once per table row, and equal laws hash equal; gamma
    # comes in as a float, so 1 and 1.0 share an entry and a result
    pieces = _de_quadrature(law.tail, _breaks((0.0,), (law,)),
                            law.slowest_rate, gamma)
    return float(pieces.sum())


def Exponential(beta):
    """Exponential claim sizes with rate beta (mean 1/beta)."""
    return ClaimDistribution((1.0,), (1,), (beta,))


def HyperExponential(weights, rates):
    """Mixture of exponentials: tail(t) = sum_i p_i exp(-beta_i t)."""
    return ClaimDistribution(weights, np.ones(np.shape(weights), dtype=int),
                             rates)


def ErlangMixture(weights, shapes, beta):
    """Mixture of Erlang laws sharing one rate; the equilibrium transform
    of such a mixture is another."""
    return ClaimDistribution(weights, shapes, [beta] * len(weights))


def Erlang(shape, beta):
    """Erlang claim sizes: shape k (positive integer), rate beta."""
    return ClaimDistribution((1.0,), (shape,), (beta,))
