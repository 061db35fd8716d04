"""Exact phase-type oracles used by the tests.

Every claim law in the tests is phase-type PH(alpha, T) with exit rates
t = -T 1, and so is one ladder step of the perturbed model: an Exp(c/D)
stage followed by the equilibrium law's phases.  The quantities the grid
solvers approximate are then matrix exponentials (Asmussen & Albrecher,
*Ruin Probabilities*, 2nd ed., 2010, ch. IX):

    psi(u)   = a+ exp((T + t a+) u) 1,       a+ = phi pi_e,
    K-bar(u) = the same on the ladder pair,   a+ = phi e_1,
    psi_t(u) = an Exp(b0) stage, then the ladder-sum pair,
    psi_d(u) = e_1 exp((T_A + phi t_A e_1) u) e_1,
    K_n(u)   = phi - (1-k0) phi^n A^{*n}(u) - (1-phi) sum_{0<i<n} phi^i A^{*i}(u),

with pi_e = alpha (-T)^-1 / mu the equilibrium start vector and A^{*i} the
distribution function of i ladder steps, the PH law of i chained copies of
the ladder pair.  psi_d is the mass that the ladder sum, started with mass
1 and continued with weight phi, holds in the Exp(b0) stage of a step at
time u: the sum over n of phi^n P(S_n <= u < S_n + L_o), an oscillation
record high crossing u.  None of this shares a discretization with the
renewal solver.  The claim pairs come from ``phase_type()``, which
``test_phase_type.py`` checks against pairs built there.  Matrix
exponentials go through ``distributions._expm``: scipy's ``expm`` loses
accuracy on triangular matrices with nearly equal diagonal entries.

The module also keeps former code paths as references that the current
ones must match bit for bit: the claim sampler and record-count sampler,
written with ``searchsorted`` and ``rng.gamma``; the path sums of a Monte
Carlo block, formed from each path's start and end; the claim tail, which
formed every component through the partial exponential sum; the renewal
solve, whose two products each transformed the reciprocal anew and whose
residual split and transformed the kernel's column anew; the trapezoid
convolution, which transformed the kernel on every call; and the two
renewal problems of psi and K-bar, built by separate functions before one
ladder law built both.
"""

import math

import numpy as np

from ruinbounds.distributions import _expm, _running_sums, partial_exp_sum
from ruinbounds.renewal import (RenewalProblem, _assemble, _fast_len, _halves,
                                _integer_bound, _newton, _product, _scale,
                                _system, nodes)

__all__ = ["psi_exact", "psi_decay_rate", "k_bar_exact", "k_decay_rate",
           "psi_total_exact", "psi_d_exact", "k_iterate_exact",
           "ladder_at", "reference_sample",
           "reference_geometric_record_counts", "reference_segment_sums",
           "reference_tail",
           "reference_product", "reference_residual", "reference_solve",
           "reference_trapezoid_convolution", "reference_psi_problem",
           "reference_k_problem"]


def _at(start, M, u, right=None):
    """start exp(M u) right (right defaults to the ones vector), for a scalar
    or an array of u."""
    u = np.asarray(u, dtype=float)
    right = np.ones(len(start)) if right is None else right
    out = start @ _expm(u[..., None, None] * M) @ right
    return float(out) if out.ndim == 0 else out


def _exit(T):
    return -T.sum(axis=1)


def _equilibrium_start(alpha, T):
    w = np.linalg.solve(-T.T, alpha)       # alpha (-T)^-1
    return w / w.sum()


def _ladder_pair(pm):
    """(e_1, T_A): an Exp(b0) stage, then the equilibrium law's phases."""
    alpha, T = pm.base.claims.phase_type()
    d = len(alpha)
    TA = np.zeros((d + 1, d + 1))
    TA[0, 0] = -pm.b0
    TA[0, 1:] = pm.b0 * _equilibrium_start(alpha, T)
    TA[1:, 1:] = T
    return np.eye(d + 1)[0], TA


def _compound_geometric_generator(start, T, phi):
    a = phi * start
    return a, T + np.outer(_exit(T), a)


def _psi_generator(model):
    alpha, T = model.claims.phase_type()
    return _compound_geometric_generator(_equilibrium_start(alpha, T), T,
                                         model.phi)


def psi_exact(model, u):
    """Ruin probability of a classical model with phase-type claims."""
    return _at(*_psi_generator(model), u)


def psi_decay_rate(model):
    """Lundberg rate R of psi: minus the dominant eigenvalue of its
    generator."""
    return -float(np.max(np.linalg.eigvals(_psi_generator(model)[1]).real))


def k_bar_exact(pm, u):
    """Compound geometric tail K-bar of a perturbed model."""
    return _at(*_compound_geometric_generator(*_ladder_pair(pm), pm.phi), u)


def k_decay_rate(pm):
    """Decay rate of K-bar: minus the dominant eigenvalue of
    T_A + phi t_A e_1."""
    M = _compound_geometric_generator(*_ladder_pair(pm), pm.phi)[1]
    return -float(np.max(np.linalg.eigvals(M).real))


def ladder_at(ladder, t):
    """Density and tail of one ladder step at t: node 1 of the grid of
    step t."""
    kernel, tail = ladder.on_grid(np.array([0.0, t]), t)
    return float(kernel[1]), float(tail[1])


def psi_total_exact(pm, u):
    """Total ruin probability psi_t of a perturbed model: one oscillation
    record high on top of the compound geometric ladder sum K."""
    start, TA = _ladder_pair(pm)
    a, M = pm.phi * start, TA + pm.phi * np.outer(_exit(TA), start)
    d = len(start)
    S = np.zeros((d + 1, d + 1))
    S[0, 0] = -pm.b0
    S[0, 1:] = pm.b0 * a
    S[1:, 1:] = M
    return _at(np.eye(d + 1)[0], S, u)


def psi_d_exact(pm, u):
    """Oscillation-caused part psi_d of the total ruin probability."""
    start, TA = _ladder_pair(pm)
    return _at(start, TA + pm.phi * np.outer(_exit(TA), start), u, start)


def k_iterate_exact(pm, k0, n, u):
    """n-th fixed-point iterate K_n of K-bar from the constant K_0 = k0."""
    start, TA = _ladder_pair(pm)
    d = len(start)
    # n chained ladder steps; mass left in the first i blocks at time u is
    # the tail of A^{*i}
    M = np.kron(np.eye(n), TA) + np.kron(np.eye(n, k=1),
                                         np.outer(_exit(TA), start))
    big_start = np.concatenate([start, np.zeros((n - 1) * d)])
    blocks = np.kron(np.tri(n).T, np.ones((d, 1)))  # column i: blocks <= i
    tails = np.atleast_2d(_at(big_start, M, u, blocks))
    cdf = 1.0 - tails                                 # A^{*i}, i = 1..n
    phi = pm.phi
    powers = phi ** np.arange(1, n)
    out = (phi - (1.0 - k0) * phi**n * cdf[..., n - 1]
           - (1.0 - phi) * (cdf[..., :n - 1] @ powers))
    return float(out[0]) if np.ndim(u) == 0 else out


# The former ``ClaimDistribution.sample``, verbatim but for ``law`` in place
# of ``self``.
def reference_sample(law, rng, size):
    if len(law._parts) == 1:
        # gamma(1, s) draws exactly what exponential(s) draws
        return rng.gamma(law.shapes[0], 1.0 / law.rates[0], size)
    idx = np.searchsorted(np.cumsum(law.weights), rng.random(size),
                          side="right").clip(0, len(law._parts) - 1)
    draws = rng.gamma(np.asarray(law.shapes, dtype=float)[idx])
    draws /= np.asarray(law.rates)[idx]
    return draws


# The former ``oracle._geometric_record_counts``, verbatim.
def reference_geometric_record_counts(rng, size: int, phi: float) -> np.ndarray:
    # inversion: P(N >= n) = phi^n, using 1-U in (0, 1] to dodge log(0)
    u = rng.random(size)
    return np.floor(np.log1p(-u) / math.log(phi)).astype(np.int64)


# The former ``distributions._segment_sums``, verbatim but for its name: a
# Monte Carlo block's path sums, each path cut from ``starts`` to ``ends``.
def reference_segment_sums(values: np.ndarray, ends: np.ndarray, starts: np.ndarray) -> np.ndarray:
    cs = _running_sums(values)
    return cs[ends] - cs[starts]


# The former ``ClaimDistribution.tail``, verbatim but for ``law`` in place of
# ``self``: an exponential component too goes through S_0.
def reference_tail(law, t):
    def term(w, k, r, z):
        capped = np.minimum(z, 746.0)
        return w * np.exp(-z) * partial_exp_sum(k - 1, capped)
    return law._erlang_sum(t, term)


# The former ``renewal._product``, verbatim: it transforms a itself and
# reuses a's spectrum as scratch.
def reference_product(a, x):
    size = _fast_len(len(a))
    a_lo, a_hi = _halves(a, size)
    x_lo, x_hi = _halves(x, size)
    lo = a_lo * x_lo
    x_lo *= a_hi
    a_lo *= x_hi
    x_lo += a_lo
    del a_lo, a_hi, x_hi
    return _assemble(lo, x_lo, len(a), size)


# The former ``renewal._residual``, verbatim but for its name and docstring:
# it splits and transforms the column c on every call.
def reference_residual(c, y, r):
    m = len(c)
    size = _fast_len(m)
    bits = math.floor(math.log2(math.sqrt(_integer_bound(size))
                                - 0.5 * math.sqrt(m)))
    s, t = _scale(c, bits), _scale(y, bits)
    C, Y = np.rint(np.ldexp(c, s)), np.rint(np.ldexp(y, t))
    c_low, y_low = c - np.ldexp(C, -s), y - np.ldexp(Y, -t)
    C_lo, C_hi = _halves(C, size)
    Y_lo, Y_hi = _halves(Y, size)
    del C, Y
    d = _assemble(C_lo * Y_lo, Y_lo * C_hi + C_lo * Y_hi, m, size)
    d = np.ldexp(np.rint(d), -(s + t)) - r
    C_lo *= np.ldexp(1.0, -s)
    C_hi *= np.ldexp(1.0, -s)
    w_lo, w_hi = _halves(y_low, size)
    del y_low
    lo, cross = C_lo * w_lo, w_lo * C_hi + C_lo * w_hi
    del C_lo, C_hi
    Y_lo *= np.ldexp(1.0, -t)
    Y_lo += w_lo
    Y_hi *= np.ldexp(1.0, -t)
    Y_hi += w_hi
    w_lo, w_hi = _halves(c_low, size)
    del c_low
    lo += w_lo * Y_lo
    cross += Y_lo * w_hi + w_lo * Y_hi
    del Y_lo, Y_hi, w_lo, w_hi
    return d + _assemble(lo, cross, m, size)


# The former ``renewal.solve``, on the grid values: each of its two products
# transforms the reciprocal b, which comes from the uncached Newton routine,
# and its residual splits and transforms the column c anew.
def reference_solve(problem):
    c, x = _system(problem)
    b = _newton(c)[0]
    r = x[1:]
    y = reference_product(b, r)
    y -= reference_product(b, reference_residual(c, y, r))
    x[1:] = y
    return x


# The former ``renewal.trapezoid_convolution``, verbatim but for its name and
# docstring: it transforms x and k on every call.
def reference_trapezoid_convolution(x, k, h):
    full = _product(_halves(x, _fast_len(len(x))), k)
    return h * (full - 0.5 * x[0] * k - 0.5 * x * k[0])


# The former ``classical._psi_problem`` and ``diffusion._k_problem``,
# verbatim but for their names and the names of what they call, with the
# functions they called: the default grid ends and the ladder density grid.
def _u_max(phi: float, rate: float) -> float:
    # smallest U with phi * exp(-rate U) / (1 - phi) below 1e-9, at least 10
    u = np.log(phi / ((1.0 - phi) * 1e-9)) / rate
    return float(max(10.0, np.ceil(u)))


def reference_default_u_max(model) -> float:
    return _u_max(model.phi, model.claims.slowest_rate)


def reference_psi_problem(model, h, u_max, y=0.0):
    grid = nodes(h, reference_default_u_max(model) if u_max is None else u_max)
    fe = model.claims.equilibrium()
    return RenewalProblem(phi=model.phi, forcing=model.phi * fe.tail(grid + y),
                          kernel=model.claims.tail(grid) / model.mu, h=h)


def _ladder_phase_type(pm):
    pe, Te = pm.base.claims.equilibrium().phase_type()
    d = len(pe)
    T = np.zeros((d + 1, d + 1))
    T[0, 0] = -pm.b0
    T[0, 1:] = pm.b0 * pe
    T[1:, 1:] = Te
    # the first stage only feeds the claim phases, so it never exits itself
    exit_rates = np.concatenate(([0.0], -Te.sum(axis=1)))
    return T, exit_rates


def _ladder_density_grid(pm, n: int, h: float) -> np.ndarray:
    T, exit_rates = _ladder_phase_type(pm)
    step = _expm(T * h)
    m = int(math.ceil(math.sqrt(n)))
    big = np.linalg.matrix_power(step, m)
    cols, rows = np.empty((len(T), m)), np.empty((m, len(T)))
    v, r = exit_rates, np.eye(len(T))[0]
    for i in range(m):
        cols[:, i], rows[i] = v, r
        v, r = step @ v, r @ big
    return (rows @ cols).ravel()[:n]


def reference_k_default_u_max(pm) -> float:
    return _u_max(pm.phi, min(pm.b0, pm.base.claims.slowest_rate))


def reference_k_problem(pm, h, u_max):
    grid = nodes(h, reference_k_default_u_max(pm) if u_max is None else u_max)
    a = _ladder_density_grid(pm, len(grid), h)
    abar = pm.base.claims.equilibrium().tail(grid) + a / pm.b0
    return RenewalProblem(phi=pm.phi, forcing=pm.phi * abar, kernel=a, h=h)
