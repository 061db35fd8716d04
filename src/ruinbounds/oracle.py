"""Monte Carlo by exact ladder sampling, and the table of quantities.

``_QUANTITIES``, which ``cli`` dispatches on, gives each quantity's model
class, grid route and hit rule: ``ruin`` psi, ``deficit`` G-bar(., y),
``ktail`` K-bar, ``psit`` psi_t and ``iterate`` (no hit rule), with
``psi``, ``k_tail`` and ``psi_t`` aliases of ``ruin``, ``ktail``, ``psit``.

No numerical integration is shared with the solvers: ruin events are
sampled from the geometric number of record highs and exact draws of the
ladder steps, the model's ``ladder`` (``distributions._Ladder``).  The
record count N is geometric with P(N = n) = (1-phi) phi^n and is sampled
by inversion; claim ladder heights follow the equilibrium law (exact
samplers exist for every family in scope) and, in the perturbed model,
oscillation ladder heights are exponential with rate b0 = c/D.

Streams: the samples are cut into blocks of ``BLOCK_SIZE`` paths, and
block b draws from its own PCG64 generator (explicitly constructed, never a
platform default) seeded through SeedSequence((seed, b)).  A block draws
its record counts, then its oscillation heights (perturbed model only,
standard exponentials times D/c), then its claim ladder heights
(``ClaimDistribution.sample``), then, for psi_t, one last oscillation
record high per path.  It counts its hits at every requested u from one
set of paths and returns the integer counts; each estimate is the sum of
its counts over n_samples.  The blocks run on the package's thread map, up
to one thread per CPU the process may use, each taking the next block as
soon as it is free, and numpy releases the interpreter lock while it draws
and sums; since no block reads another's stream and integer addition is
exact in any order, an estimate depends only on (seed, n_samples),
whatever the number of CPUs or the thread that drew each block.
"""

from __future__ import annotations

import math
import time
from collections import namedtuple
from functools import partial
from typing import NamedTuple

import numpy as np

from ._parallel import thread_map
from .classical import RiskModel, deficit_tail, ruin_probability
from .diffusion import PerturbedModel, k_iterates, k_tail, psi_total
from .distributions import (_exponentials, _path_edges, _path_sums,
                            _running_sums)
from .errors import PreconditionError

__all__ = ["MCEstimate", "estimate", "estimates", "BLOCK_SIZE"]

BLOCK_SIZE = 2**16


class MCEstimate(NamedTuple):
    """A Monte Carlo probability estimate with its binomial standard error,
    the number of blocks it was drawn in and its wall time in seconds
    (which equality ignores)."""

    estimate: float
    standard_error: float
    n_samples: int
    seed: int
    quantity: str
    blocks: int
    seconds: float

    def __eq__(self, other):
        return (self[:-1] == other[:-1] if type(other) is type(self)
                else NotImplemented)

    def __ne__(self, other):    # tuple's own != would compare seconds too
        return not self == other

    def __hash__(self):
        return hash(self[:-1])


def _rng_for_block(seed: int, block: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, block))))


def _deficit_hits(values, counts, ends, u, y):
    """Paths that are ruined with a deficit above y: a count for a scalar u,
    an array of counts for an array of u.

    A path is its segment of ``counts`` draws of ``values``, ending where
    the running sums ``ends`` of the counts say, and s runs over its
    partial sums.  It is ruined when its total exceeds u, and then
    a hit unless some s has 0 < fl(s - u) <= y.  The partial sums rise
    along a path and fl(s - u) rises with s, so this is the rule "the
    deficit fl(s - u) at the first s above u exceeds y", without locating
    that first s.
    """
    cs = _running_sums(values)
    edges = _path_edges(cs, ends)
    totals = np.diff(edges)
    rise = np.repeat(edges[:-1], counts)
    np.subtract(cs[1:], rise, out=rise)
    hits = []
    for ui in np.atleast_1d(u):
        ruined = totals > ui
        over = rise - ui
        near = np.flatnonzero((over > 0) & (over <= y))
        ruined[np.searchsorted(ends, near, side="right")] = False
        hits.append(np.count_nonzero(ruined))
    return np.array(hits) if np.ndim(u) else hits[0]


def _exceedances(totals: np.ndarray, us: np.ndarray) -> np.ndarray:
    """How many totals exceed each u."""
    return np.array([np.count_nonzero(totals > u) for u in us])


def _sum_hits(ladder, us, y, rng, size, last=False):
    """psi and K-bar: the ladder sum exceeds u; psi_t, given ``last``: the
    ladder sum plus one last oscillation record high does."""
    _, ends, heights = ladder.sample_paths(rng, size)
    totals = _path_sums(heights, ends)
    if last:
        totals += _exponentials(rng, 1.0 / ladder.b0, size)
    return _exceedances(totals, us)


def _deficit_rule(ladder, us, y, rng, size):
    counts, ends, heights = ladder.sample_paths(rng, size)
    return _deficit_hits(heights, counts, ends, us, y)


# a row of the table: the model class; the grid route, (model, options y,
# k0 and n, step, grid end) -> GridFunction; the Monte Carlo hit rule,
# (ladder, us, y, rng, size) -> a block's hit count at each u, or None
_Quantity = namedtuple("_Quantity", "model grid hits")
_QUANTITIES = {
    "ruin": _Quantity(RiskModel, lambda m, o, h, end: ruin_probability(
        m, h, end), _sum_hits),
    "deficit": _Quantity(RiskModel, lambda m, o, h, end: deficit_tail(
        m, o.y, h, end), _deficit_rule),
    "ktail": _Quantity(PerturbedModel, lambda m, o, h, end: k_tail(
        m, h, end), _sum_hits),
    "psit": _Quantity(PerturbedModel, lambda m, o, h, end: psi_total(
        m, h, end), partial(_sum_hits, last=True)),
    "iterate": _Quantity(PerturbedModel, lambda m, o, h, end: k_iterates(
        m, o.k0, o.n, h, end).last, None),
}
_ALIASES = {"psi": "ruin", "k_tail": "ktail", "psi_t": "psit"}
_SAMPLED = tuple(name for name, q in _QUANTITIES.items() if q.hits)


def _canonical(name: str) -> str:
    """The table's name of quantity ``name``, which may be an alias."""
    return _ALIASES.get(name, name)


def estimates(model, quantity: str, us, n_samples: int, seed: int,
              y: float | None = None) -> list[MCEstimate]:
    """Estimate one ruin-type probability at each initial surplus in us.

    quantity: ``ruin``, ``deficit`` (needs y), ``ktail`` or ``psit``, or an
    alias, of a model of its class (see ``_QUANTITIES``).  The paths are
    drawn once and counted at every u, so each estimate is the one
    ``estimate`` gives at its u alone, and every one reports the call's
    wall time.  Deterministic given (seed, n_samples); same seed gives
    bit-identical results, and ktail/psit estimates from one seed are
    pathwise ordered.
    """
    quantity = _canonical(quantity)
    if quantity not in _SAMPLED:
        raise ValueError(f"no Monte Carlo estimate of {quantity!r}; "
                         f"expected one of {_SAMPLED}")
    row = _QUANTITIES[quantity]
    if n_samples < 1:
        raise ValueError("need at least one sample")
    us = np.asarray(us, dtype=float)
    if us.ndim != 1 or len(us) == 0:
        raise ValueError("need a 1-d sequence of at least one surplus u")
    if not np.all(us >= 0):                 # nan fails too
        raise ValueError("initial surplus must be a number >= 0")
    if row.hits is _deficit_rule:
        if y is None or math.isnan(y):
            raise ValueError("deficit estimation needs a number y")
        if y < 0:
            raise ValueError("y must be >= 0")
    if not isinstance(model, row.model):
        raise PreconditionError(f"{quantity} is a quantity of a "
                                f"{row.model.__name__}")

    start = time.perf_counter()
    block_hits = partial(row.hits, model.ladder, us, y)
    sizes = [min(BLOCK_SIZE, n_samples - done)
             for done in range(0, n_samples, BLOCK_SIZE)]
    hits = sum(thread_map(lambda b: block_hits(_rng_for_block(seed, b), sizes[b]),
                          range(len(sizes))))
    seconds = time.perf_counter() - start

    return [MCEstimate(p, math.sqrt(p * (1.0 - p) / n_samples), n_samples, seed,
                       quantity, len(sizes), seconds)
            for p in (int(h) / n_samples for h in hits)]


def estimate(model, quantity: str, u: float, n_samples: int, seed: int,
             y: float | None = None) -> MCEstimate:
    """The one estimate of ``estimates`` at [u]."""
    return estimates(model, quantity, [u], n_samples, seed, y=y)[0]
