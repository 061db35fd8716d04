"""The Erlang-mixture core against matrix exponentials of its phase-type form.

Each drawn law is a mixture of Erlang(k_i, r_i) components.  The reference
(alpha, T) is built here from the weights, shapes and rates alone: component
i is a chain of k_i stages at rate r_i, entered at its first stage with
probability w_i.  Every closed form of the core, the law's own
``phase_type()`` pair, and the ladder density and tail of the perturbed
model on a grid must agree with alpha exp(T t) expressions, and the grid
iterates of K-bar must come within O(h^2) of the exact phase-type iterates
of ``helpers``.  The law's own pair is smaller than the reference where
components share a rate: they share one chain, as long as their largest
shape.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from helpers import k_iterate_exact, ladder_at
from ruinbounds import (ClaimDistribution, Erlang, PerturbedModel, RiskModel,
                        k_iterates)
from ruinbounds.renewal import nodes

# a few shared rates make equal (shape, rate) pairs, which the equilibrium merges
RATES = st.one_of(st.floats(0.3, 8.0), st.sampled_from([0.5, 2.0]))
COMPONENT = st.tuples(st.floats(0.05, 1.0), st.integers(1, 4), RATES)
MIXTURES = st.lists(COMPONENT, min_size=1, max_size=3)
POINTS = st.lists(st.floats(0.0, 10.0), min_size=1, max_size=4)


def build(components):
    w = np.array([c[0] for c in components])
    w /= w.sum()
    shapes = [c[1] for c in components]
    rates = [c[2] for c in components]
    return ClaimDistribution(w, shapes, rates), reference(w, shapes, rates)


def reference(weights, shapes, rates):
    d = sum(shapes)
    alpha, T = np.zeros(d), np.zeros((d, d))
    i = 0
    for w, k, r in zip(weights, shapes, rates):
        alpha[i] = w
        for j in range(k):
            T[i + j, i + j] = -r
            if j + 1 < k:
                T[i + j, i + j + 1] = r
        i += k
    return alpha, T


def ref_expm(A):
    # through an orthogonal similarity: scipy's expm then takes its general
    # route, not the triangular one, which loses accuracy when two diagonal
    # entries nearly agree
    Q = np.linalg.qr(np.random.default_rng(len(A)).normal(size=A.shape))[0]
    return Q.T @ expm(Q @ A @ Q.T) @ Q


def close(got, expect):
    return got == pytest.approx(expect, rel=1e-9, abs=1e-13)


@settings(max_examples=60, deadline=None)
@given(MIXTURES, POINTS)
def test_tail_matches_phase_type(components, ts):
    law, (alpha, T) = build(components)
    own_alpha, own_T = law.phase_type()
    for t in ts:
        E = ref_expm(T * t)
        assert close(law.tail(t), alpha @ E.sum(axis=1))
        assert close(own_alpha @ ref_expm(own_T * t).sum(axis=1),
                     alpha @ E.sum(axis=1))
    arr = np.array(ts)
    assert close(law.tail(arr), [alpha @ ref_expm(T * t).sum(axis=1) for t in ts])


def stage_count(law):
    """The sum over distinct rates of the largest shape at each."""
    longest = {}
    for k, r in zip(law.shapes, law.rates):
        longest[r] = max(k, longest.get(r, 0))
    return sum(longest.values())


@st.composite
def erlang_mixtures(draw):
    """Erlang mixtures: up to four shapes, 1-40, at one rate."""
    shapes = draw(st.lists(st.integers(1, 40), min_size=1, max_size=4))
    w = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=len(shapes),
                               max_size=len(shapes))))
    return ClaimDistribution(w / w.sum(), shapes, [draw(RATES)] * len(shapes))


@settings(max_examples=60, deadline=None)
@given(st.one_of(MIXTURES.map(lambda components: build(components)[0]),
                 erlang_mixtures()))
def test_one_chain_per_rate(law):
    for claims in (law, law.equilibrium()):
        alpha, T = claims.phase_type()
        assert len(alpha) == T.shape[0] == stage_count(claims)
        assert math.fsum(alpha) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("k", [1, 3, 30, 60])
def test_erlang_equilibrium_has_k_stages(k):
    # the equilibrium law of Erlang(k, r) is the k components Erlang(1..k, r)
    alpha, T = Erlang(k, 2.5).equilibrium().phase_type()
    assert T.shape == (k, k)
    assert alpha == pytest.approx(np.full(k, 1.0 / k), rel=1e-14)
    assert np.array_equal(T, Erlang(k, 2.5).phase_type()[1])


@settings(max_examples=60, deadline=None)
@given(MIXTURES, st.floats(-2.0, 0.95))
def test_moments_and_mgf(components, frac):
    law, (alpha, T) = build(components)
    ones = np.ones(len(alpha))
    m1 = np.linalg.solve(-T, ones)
    assert close(law.mean(), alpha @ m1)
    assert close(law.second_moment(), 2.0 * alpha @ np.linalg.solve(-T, m1))
    s = frac * law.slowest_rate
    exit_rates = -T.sum(axis=1)
    expect = alpha @ np.linalg.solve(-(T + s * np.eye(len(alpha))), exit_rates)
    assert close(math.exp(law.log_mgf(s)), expect)
    # E X^j = j! alpha (-T)^-j 1, and the weighted tail moment of integer
    # order g is (E(1+X)^(g+1) - 1)/(g+1)
    moments, v = [1.0], ones
    for j in range(1, 5):
        v = np.linalg.solve(-T, v)
        moments.append(math.factorial(j) * alpha @ v)
    for g in range(4):
        shifted = sum(math.comb(g + 1, j) * moments[j] for j in range(g + 2))
        assert law.weighted_tail_moment(g) == pytest.approx(
            (shifted - 1.0) / (g + 1), rel=1e-10)


@settings(max_examples=60, deadline=None)
@given(MIXTURES, POINTS)
def test_equilibrium_tail(components, ts):
    law, (alpha, T) = build(components)
    pi_e = np.linalg.solve(-T.T, alpha) / (alpha @ np.linalg.solve(-T, np.ones(len(alpha))))
    eq = law.equilibrium()
    assert len(set(zip(eq.shapes, eq.rates))) == len(eq.shapes)
    for t in ts:
        assert close(eq.tail(t), pi_e @ ref_expm(T * t).sum(axis=1))


@settings(max_examples=40, deadline=None)
@given(MIXTURES, st.floats(0.1, 0.9), st.one_of(st.floats(0.3, 8.0), st.just(None)),
       POINTS)
@example([(1.0, 1, 6.4375)], 0.5, None, [1.0])   # b0 = 6.437500000000001
@example([(1.0, 30, 6.0)], 0.5, 2.0, [0.5, 5.0])   # a 30-stage chain
@example([(0.6, 30, 6.0), (0.4, 2, 6.0)], 0.7, None, [1.0, 4.5])  # one chain for both
def test_ladder_density(components, phi, b0, ts):
    # b0 = None puts the oscillation rate on a claim rate, the matched case
    law, (alpha, T) = build(components)
    c = 1.0
    pm = PerturbedModel(RiskModel(phi * c / law.mean(), c, law),
                        c / (law.rates[0] if b0 is None else b0))
    b0 = pm.b0      # c / (c / b0) may sit one rounding away from b0
    pi_e = np.linalg.solve(-T.T, alpha) / law.mean()
    d = len(alpha)
    L = np.zeros((d + 1, d + 1))
    L[0, 0], L[0, 1:], L[1:, 1:] = -b0, b0 * pi_e, T
    exit_rates = np.concatenate(([0.0], -T.sum(axis=1)))
    ladder = pm.ladder
    for t in ts:
        a, abar = ladder_at(ladder, t)
        assert close(a, ref_expm(L * t)[0] @ exit_rates)
        assert close(abar, ref_expm(L * t)[0].sum())
    h = 2.0**-6
    kernel, tail = ladder.on_grid(nodes(h, 10.0), h)
    for i in (0, 1, 7, 200, 640):
        E = ref_expm(L * (i * h))
        assert kernel[i] == pytest.approx(E[0] @ exit_rates, rel=1e-9, abs=1e-12)
        assert tail[i] == pytest.approx(E[0].sum(), rel=1e-9, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(MIXTURES, st.floats(0.1, 0.9), st.floats(0.3, 8.0), st.floats(0.0, 1.0),
       st.integers(1, 5))
def test_k_iterates(components, phi, b0, k0, n):
    # the trapezoid error is O((r h)^2) with r the fastest rate in the model
    law, _ = build(components)
    pm = PerturbedModel(RiskModel(phi / law.mean(), 1.0, law), 1.0 / b0)
    h = 2.0**-6
    g = k_iterates(pm, k0, n, h=h, u_max=4.0).iterates[-1]
    us = g.grid[::8]
    rate = max(max(law.rates), pm.b0)
    assert np.max(np.abs(g(us) - k_iterate_exact(pm, k0, n, us))) <= 0.5 * (rate * h)**2
