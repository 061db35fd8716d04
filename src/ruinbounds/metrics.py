"""Probability metrics between claim laws and between grid functions.

The weighted L1 distance nu_gamma drives everything else: the Kantorovich
distance is its gamma = 0 case, the truncated variant integrates from y
instead of 0.  Tail differences of two light-tailed laws cross finitely
often.  The crossings are bracketed on the nodes of the double-exponential
rule that integrates the metrics, and bisected; each stretch between two
crossings, the last one running to infinity, is then integrated on its own
by that rule, so the absolute value never degrades the integration order.
Stretches are also cut at the mean of every Erlang component of shape 2 or
more, where its tail drops.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .distributions import (ClaimDistribution, _breaks, _de_nodes,
                            _de_quadrature, _Value)
from .errors import GridMismatchError, TruncationError

__all__ = [
    "GridFunction",
    "nu_gamma",
    "kantorovich",
    "q_y",
    "sup_distance",
]

_BISECT_TOL = 1e-12
_ROUNDING = 4 * np.finfo(float).eps  # tails this close, relatively, have no sign
_HALVINGS = 8   # bisection steps per evaluation of the tails


class GridFunction(_Value):
    """A function sampled on the uniform grid {0, h, 2h, ...}."""

    __slots__ = _fields = ("h", "values")

    def __init__(self, h, values):
        v = np.asarray(values, dtype=float)
        if h <= 0:
            raise ValueError("grid step must be positive")
        if v.ndim != 1 or len(v) < 2:
            raise ValueError("need at least two grid values")
        if not np.all(np.isfinite(v)):
            raise ValueError("grid values must be finite")
        super().__init__(float(h), v.copy())
        self.values.setflags(write=False)

    def __len__(self):
        return len(self.values)

    @property
    def grid(self) -> np.ndarray:
        return np.arange(len(self.values)) * self.h

    @property
    def u_max(self) -> float:
        return (len(self.values) - 1) * self.h

    def __call__(self, u):
        arr = np.asarray(u, dtype=float)
        if np.any(arr < 0) or np.any(arr > self.u_max + 1e-12):
            raise ValueError("argument outside the grid domain")
        out = np.interp(arr, self.grid, self.values)
        return float(out) if np.ndim(u) == 0 else out


def _common_grid(x: GridFunction, y: GridFunction):
    if abs(x.h - y.h) > 1e-12 * max(x.h, y.h):
        raise GridMismatchError(f"grid steps differ: {x.h} vs {y.h}")
    n = min(len(x), len(y))
    return x.h, x.values[:n], y.values[:n]


def sup_distance(x: GridFunction, y: GridFunction) -> float:
    """Max over the nodes of the shorter grid of |x - y|."""
    _, xv, yv = _common_grid(x, y)
    return float(np.max(np.abs(xv - yv)))


# ---------------------------------------------------------------------------
# crossing isolation
# ---------------------------------------------------------------------------

def _bisect(f, lo, hi):
    """Bisect every bracket [lo[i], hi[i]] of a sign change of the array
    function f at once, to width 1e-12 in at most 200 halvings.

    A round makes eight halvings from one call of f, on the 257 points
    lo + (hi - lo) j / 256 of every bracket: the piece that ends at the
    first point at or past the sign change is the bracket eight bisection
    steps keep.  Tail evaluations cost about as much on a few hundred
    points as on one, so rounds, not points, set the time.
    """
    frac = np.arange(2**_HALVINGS + 1) / 2**_HALVINGS
    rows = np.arange(len(lo))
    for _ in range(200 // _HALVINGS):
        width = hi - lo
        if not (width > _BISECT_TOL).any():
            break
        pts = lo[:, None] + width[:, None] * frac
        fp = f(pts)
        past = ((fp < 0) != (fp[:, :1] < 0)) | (fp == 0.0)
        past[:, 0], past[:, -1] = False, True
        j = past.argmax(axis=1)
        lo, hi = pts[rows, j - 1], pts[rows, j]
    return 0.5 * (lo + hi)


@lru_cache(maxsize=256)
def _crossings(F, G, lower):
    """Interior sign changes of F.tail - G.tail on [lower, inf), a tuple.

    Scanned on the nodes of the double-exponential rule that integrates the
    metrics (``distributions._de_nodes``), which sit dense near lower and
    near every Erlang mean and sparse far out, then bisected to 1e-12.
    Nodes where the tails agree to rounding carry no sign and are skipped.
    Memoised like ``_nu_gamma_distributions``: the crossings do not depend
    on gamma, so nu_gamma and nu_{gamma+1} of one pair scan once.
    """
    t = _de_nodes(_breaks([lower], (F, G)),
                  min(F.slowest_rate, G.slowest_rate))[0]
    with np.errstate(over="ignore", invalid="ignore"):
        # far out, tails of shape above 520 are nan; such nodes are skipped
        f, g = F.tail(t), G.tail(t)
    keep = np.abs(f - g) > _ROUNDING * np.maximum(f, g)
    t, above = t[keep], (f > g)[keep]
    flips = np.flatnonzero(above[:-1] != above[1:])
    return tuple(_bisect(lambda t: F.tail(t) - G.tail(t), t[flips],
                         t[flips + 1]).tolist())


@lru_cache(maxsize=256)
def _nu_gamma_distributions(F, G, gamma, lower):
    """nu_gamma(F, G) over [lower, inf), memoised on the laws' values and
    the floats gamma and lower: the bounds of one table ask for the same
    pair and gamma in every row, and equal laws hash equal.

    A distance past the float range is ``math.inf``, like
    ``weighted_tail_moment``; the stretches between crossings keep one
    sign, and so do their pieces.
    """
    pts = _breaks([lower, *_crossings(F, G, lower)], (F, G))
    pieces = _de_quadrature(lambda t: F.tail(t) - G.tail(t), pts,
                            min(F.slowest_rate, G.slowest_rate), gamma)
    return float(np.abs(pieces).sum())


def _grid_remainder(d_abs, h, t_end, gamma):
    # extrapolate |x - y| geometrically from its last decade
    tail = d_abs[-max(8, len(d_abs) // 20):]
    if tail[-1] <= 0 or tail[0] <= tail[-1]:
        return 0.0
    rate = np.log(tail[0] / tail[-1]) / ((len(tail) - 1) * h)
    if rate <= 0:
        return 0.0
    top = tail[-1] * (1.0 + t_end) ** gamma
    return float(top / rate * (1.0 + gamma / (rate * (1.0 + t_end))))


def _nu_gamma_grids(x, y, gamma):
    h, xv, yv = _common_grid(x, y)
    d = xv - yv
    n = len(d)
    t = np.arange(n) * h
    scale = max(np.max(np.abs(d)), 1.0)
    if abs(d[-1]) > 1e-6 * scale:
        raise TruncationError(
            "grid difference has not decayed at the domain end; extend the grid")
    w = (1.0 + t) ** gamma
    g = np.abs(d) * w
    a, b = d[:-1], d[1:]
    cross = (np.sign(a) * np.sign(b)) < 0
    # plain trapezoid cells
    plain = 0.5 * h * (g[:-1] + g[1:])
    # cells with a sign change: split at the linear-interpolation root
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = np.where(cross, a / (a - b), 0.5)
    left = 0.5 * (frac * h) * g[:-1]
    right = 0.5 * ((1.0 - frac) * h) * g[1:]
    cells = np.where(cross, left + right, plain)
    return float(cells.sum() + _grid_remainder(np.abs(d), h, t[-1], gamma))


def nu_gamma(x, y, gamma: float = 0.0) -> float:
    """Weighted L1 distance: integral of (1+t)^gamma |x(t) - y(t)| dt.

    Accepts two claim distributions (their tails are compared) or two grid
    functions on a common grid.
    """
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    if isinstance(x, ClaimDistribution) and isinstance(y, ClaimDistribution):
        return _nu_gamma_distributions(x, y, float(gamma), 0.0)
    if isinstance(x, GridFunction) and isinstance(y, GridFunction):
        return _nu_gamma_grids(x, y, gamma)
    raise TypeError("nu_gamma compares two ClaimDistributions or two GridFunctions")


def kantorovich(F, G) -> float:
    """L1 distance between distribution functions; |F - G| = |F-bar - G-bar|,
    so this is nu_gamma at gamma = 0."""
    return nu_gamma(F, G, 0.0)


def q_y(F: ClaimDistribution, G: ClaimDistribution, y: float) -> float:
    """Tail-truncated Kantorovich distance: integral of |F-bar - G-bar| over
    [y, inf).  Coincides with ``kantorovich`` at y = 0."""
    if y < 0:
        raise ValueError("y must be >= 0")
    return _nu_gamma_distributions(F, G, 0.0, float(y))
