"""The package's numpy kernels against scipy, which is a test dependency only.

Each kernel stands in for a scipy routine: the FFT length search for
``scipy.fft.next_fast_len``, the Taylor matrix exponential for
``scipy.linalg.expm``, the double-exponential rule for
``scipy.integrate.quad``, the Lundberg bisection for
``scipy.optimize.brentq`` and the Erlang tail for ``scipy.stats.gamma.sf``.
The quadrature references find the tail crossings on a dense scan of their
own, solve them with ``brentq``, and integrate between them with ``quad``,
the last stretch to infinity, so they share no node, crossing, truncation
point or remainder with the package.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize, stats
from scipy.fft import next_fast_len
from scipy.linalg import expm

from ruinbounds import (ClaimDistribution, Erlang, RiskModel, adjustment_rate,
                        nu_gamma, q_y, ruin_probability, weighted_psi_moment)
from ruinbounds.distributions import _expm
from ruinbounds.renewal import _fast_len

EPS = np.finfo(float).eps


def _law(components):
    w = np.array([c[0] for c in components])
    return ClaimDistribution(w / w.sum(), [c[1] for c in components],
                             [c[2] for c in components])


COMPONENT = st.tuples(st.floats(0.05, 1.0), st.integers(1, 4), st.floats(0.3, 8.0))
LAWS = st.lists(COMPONENT, min_size=1, max_size=3).map(_law)
# shapes up to 30 and rates 1e-3 ... 40, drawn evenly in log rate
WIDE_COMPONENT = st.tuples(st.floats(0.05, 1.0), st.integers(1, 30),
                           st.floats(-3.0, math.log10(40.0)).map(lambda x: 10.0**x))
WIDE_LAWS = st.lists(WIDE_COMPONENT, min_size=1, max_size=3).map(_law)
GAMMAS = st.floats(0.0, 3.0)


def _quad(f, a, b):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        return integrate.quad(f, a, b, epsabs=1e-16, epsrel=1e-13, limit=500)[0]


def _reach(F, G):
    # past this, each Erlang tail of F and G (shapes up to 30) is below 4e-23
    return (60.0 + 2 * max(F.shapes + G.shapes)) / min(F.rates + G.rates)


def scipy_crossings(F, G, lower=0.0):
    # sign changes of F.tail - G.tail past lower on a scan of its own:
    # geometric nodes from 1e-8 / (fastest rate) for the fast parts, linear
    # ones for the slow; nodes where the tails agree to rounding carry no sign
    end = _reach(F, G)
    t = lower + np.union1d(np.geomspace(1e-8 / max(F.rates + G.rates), end, 20_000),
                           np.linspace(0.0, end, 20_001))
    f, g = F.tail(t), G.tail(t)
    keep = np.abs(f - g) > 4 * EPS * np.maximum(f, g)
    t, above = t[keep], (f > g)[keep]
    i = np.flatnonzero(above[:-1] != above[1:])
    diff = lambda s: F.tail(s) - G.tail(s)
    return [optimize.brentq(diff, a, b, xtol=1e-300, rtol=4 * EPS)
            for a, b in zip(t[i], t[i + 1])]


def quad_nu_gamma(F, G, gamma, lower=0.0):
    # quad between the crossings, the last stretch to infinity; the
    # stretches are also cut on a geometric ladder, so that quad resolves
    # parts whose scales differ by up to 1e5
    ladder = np.geomspace(1e-2 / max(F.rates + G.rates), _reach(F, G), 12)
    cuts = {*scipy_crossings(F, G, lower), *(lower + ladder)}
    pts = [lower, *sorted(cuts), np.inf]
    diff = lambda t: (1.0 + t) ** gamma * (F.tail(t) - G.tail(t))
    return sum(abs(_quad(diff, a, b)) for a, b in zip(pts[:-1], pts[1:]))


def quad_tail_moment(F, gamma):
    return _quad(lambda t: (1.0 + t) ** gamma * F.tail(t), 0.0, np.inf)


def brentq_adjustment_rate(model):
    # the mgf of the equilibrium law's Erlang components, formed here
    fe = model.claims.equilibrium()
    mgf = lambda r: sum(w * (b / (b - r)) ** k
                        for w, k, b in zip(fe.weights, fe.shapes, fe.rates))
    g = lambda r: model.phi * mgf(r) - 1.0
    return optimize.brentq(g, 0.0, fe.slowest_rate * (1.0 - 1e-12),
                           xtol=1e-15, rtol=1e-15)


def scipy_expm(A):
    # scipy's expm at 1-norm <= 1, where it is exact to rounding, squared in
    # long double.  Called on the whole matrix it is not that accurate: on
    # the generators below it strays up to 2.4e-13 (relative to the largest
    # entry) from a 40-digit exponential, which ``_expm`` meets to 4e-15.
    norm = float(np.max(np.abs(A).sum(axis=-2)))
    s = max(0, math.ceil(math.log2(norm))) if norm > 0 else 0
    E = expm(A / 2.0**s).astype(np.longdouble)
    for _ in range(s):
        E = E @ E
    return E


def test_fast_len_matches_next_fast_len():
    # equal FFT lengths keep every FFT product, and so the table bytes, fixed
    n = range(1, 2**18 + 1)
    got = [_fast_len(k) for k in n]
    want = [next_fast_len(k, real=True) for k in n]
    assert [k for k, a, b in zip(n, got, want) if a != b] == []


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(1, 4), st.floats(0.01, 30.0),
       st.integers(0, 2**32 - 1))
def test_expm_matches_scipy(d, batch, scale, seed):
    # a stack of random phase-type sub-generators: nonnegative transition
    # rates off the diagonal, a nonnegative exit rate from every phase
    rng = np.random.default_rng(seed)
    T = rng.uniform(0.0, 1.0, (batch, d, d)) * (rng.random((batch, d, d)) < 0.6)
    T[:, range(d), range(d)] = 0.0
    T[:, range(d), range(d)] = -(T.sum(axis=-1) + rng.uniform(0.0, 1.0, (batch, d)))
    T *= scale
    got, want = _expm(T), scipy_expm(T)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("t", [0.1, 1.0, 5.0])
def test_expm_nearly_equal_diagonal(t):
    # the ladder generator at b0 = 6.437500000000001 on an Exp(6.4375)
    # claim phase: the superdiagonal b0 e^{-b0 t} (e^{delta t} - 1)/delta,
    # delta = b0 - beta exact, is where divided differences cancel
    b0, beta = 6.437500000000001, 6.4375
    delta = b0 - beta
    E = _expm(np.array([[-b0, b0], [0.0, -beta]]) * t)
    assert E[0, 1] == pytest.approx(
        b0 * math.exp(-b0 * t) * math.expm1(delta * t) / delta, rel=1e-13)
    assert E[0, 0] == pytest.approx(math.exp(-b0 * t), rel=1e-13)
    assert E[1, 1] == pytest.approx(math.exp(-beta * t), rel=1e-13)


@settings(max_examples=40, deadline=None)
@given(LAWS, LAWS, GAMMAS, st.floats(0.0, 3.0))
def test_double_exponential_metrics_match_quad(F, G, gamma, y):
    assert nu_gamma(F, G, gamma) == pytest.approx(quad_nu_gamma(F, G, gamma),
                                                  rel=1e-12)
    assert q_y(F, G, y) == pytest.approx(quad_nu_gamma(F, G, 0.0, y), rel=1e-12)
    assert F.weighted_tail_moment(gamma) == pytest.approx(
        quad_tail_moment(F, gamma), rel=1e-12)


@settings(max_examples=10, deadline=None)
@given(WIDE_LAWS, WIDE_LAWS, GAMMAS, st.floats(0.0, 3.0))
def test_metrics_across_rate_scales_match_quad(F, G, gamma, y):
    assert nu_gamma(F, G, gamma) == pytest.approx(quad_nu_gamma(F, G, gamma),
                                                  rel=1e-12)
    assert q_y(F, G, y) == pytest.approx(quad_nu_gamma(F, G, 0.0, y), rel=1e-12)


@settings(max_examples=50, deadline=None)
@given(WIDE_LAWS)
def test_tail_matches_gamma_sf(F):
    # out to where each component's tail is below 4e-23
    t = np.linspace(0.0, _reach(F, F), 257)
    expect = sum(w * stats.gamma.sf(t, k, scale=1.0 / r)
                 for w, k, r in zip(F.weights, F.shapes, F.rates))
    assert F.tail(t) == pytest.approx(expect, rel=1e-12)


def test_high_shape_tail_matches_gamma_sf():
    # z^{k-1} and (k-1)! leave the float range at these points
    assert Erlang(120, 1.0).tail(500.0) == pytest.approx(
        stats.gamma.sf(500.0, 120), rel=1e-11)
    t = np.array([100.0, 200.0, 250.0])
    assert Erlang(200, 1.0).tail(t) == pytest.approx(stats.gamma.sf(t, 200),
                                                     rel=1e-11)


@settings(max_examples=25, deadline=None)
@given(LAWS, st.floats(0.1, 0.9), GAMMAS)
def test_weighted_psi_moment_matches_quad(F, phi, gamma):
    model = RiskModel(phi / F.mean(), 1.0, F)
    psi = ruin_probability(model, h=2.0**-5, u_max=10.0)
    R = brentq_adjustment_rate(model)
    U = psi.u_max
    core = integrate.trapezoid((1.0 + psi.grid) ** gamma * psi.values, dx=psi.h)
    tail_w = _quad(lambda s: (1.0 + U + s) ** gamma * np.exp(-R * s), 0.0, np.inf)
    assert weighted_psi_moment(model, gamma, psi=psi) == pytest.approx(
        core + psi.values[-1] * tail_w, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(LAWS, st.floats(0.01, 0.99))
def test_adjustment_rate_matches_brentq(F, phi):
    model = RiskModel(phi / F.mean(), 1.0, F)
    assert adjustment_rate(model) == pytest.approx(brentq_adjustment_rate(model),
                                                   rel=1e-13)
