"""Relations that hold exactly, with no oracle: the unit of money changes no
number, and the bounds vanish between identical models.  (The metrics'
exact symmetry is in ``test_metrics.py``.)

Measuring money and time in units 2^k times larger divides the claim rates
and lambda by 2^k, keeps c, and multiplies D, u, y, h and u_max by 2^k.
Scaling by a power of two is exact in floating point as long as nothing
overflows or goes subnormal, so every grid output and every Monte Carlo
estimate on the rescaled model is bit-identical to the original's.  The
default grids are not in the law's units, so the grids are given.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ruinbounds import (ClaimDistribution, PerturbedModel, RiskModel,
                        decompose, deficit_tail_family, dk1, dk2, dk3,
                        k_iterates, k_tail, mc_estimates, psi_total,
                        ruin_probability)

H, U_MAX = 2.0**-5, 4.0                   # 129 nodes
US, Y, N_SAMPLES = (0.0, 0.5, 1.5), 0.4, 3000

# (weight, shape, rate) of each Erlang component: Exp, hyperexponential,
# Erlang and their mixtures
COMPONENTS = st.lists(st.tuples(st.floats(0.05, 1.0), st.integers(1, 4),
                                st.floats(0.3, 8.0)), min_size=1, max_size=3)
ERLANG = [(1.0, 3, 3.0)]
HYPER = [(0.3, 1, 0.5), (0.7, 1, 3.0)]
MIX124 = [(0.5, 1, 2.0), (0.3, 2, 3.0), (0.2, 4, 5.0)]


def law(components, s=1.0):
    """The claim law of the components in a unit of money s times larger."""
    w = np.array([c[0] for c in components])
    return ClaimDistribution(w / w.sum(), [c[1] for c in components],
                             [c[2] / s for c in components])


def model(components, phi, D, s=1.0):
    """A perturbed model with c = 1, in units of money and time s times
    larger: the rates and lambda divided by s, D multiplied by it."""
    claims = law(components)
    return PerturbedModel(RiskModel(phi / claims.mean() / s, 1.0,
                                    law(components, s)), D * s)


def grid_outputs(pm, s):
    """Every grid quantity of pm on the grid of step H s to U_MAX s."""
    h, end = H * s, U_MAX * s
    out = [ruin_probability(pm.base, h, end),
           deficit_tail_family(pm.base, [Y * s], h, end)[Y * s],
           k_tail(pm, h, end), psi_total(pm, h, end),
           *decompose(pm, h, end), k_iterates(pm, 0.4, 3, h, end).last]
    return [g.values for g in out]


def mc_outputs(pm, s):
    us = [u * s for u in US]
    return [mc_estimates(pm.base, "ruin", us, N_SAMPLES, seed=3),
            mc_estimates(pm.base, "deficit", us, N_SAMPLES, seed=3, y=Y * s),
            mc_estimates(pm, "ktail", us, N_SAMPLES, seed=3),
            mc_estimates(pm, "psit", us, N_SAMPLES, seed=3)]


@settings(max_examples=15, deadline=None)
@given(COMPONENTS, st.floats(0.1, 0.9), st.floats(0.1, 2.0),
       st.integers(-6, 6))
@example(ERLANG, 0.5, 0.3, 5)
@example(HYPER, 0.8, 0.5, -4)
@example(MIX124, 0.3, 0.25, 3)
def test_the_unit_of_money_changes_no_number(components, phi, D, k):
    s = 2.0**k
    pm, scaled = model(components, phi, D), model(components, phi, D, s)
    assert scaled.phi == pm.phi and scaled.b0 == pm.b0 / s
    for got, want in zip(grid_outputs(scaled, s), grid_outputs(pm, 1.0),
                         strict=True):
        assert np.array_equal(got, want)
    assert mc_outputs(scaled, s) == mc_outputs(pm, 1.0)


@settings(max_examples=30, deadline=None)
@given(COMPONENTS, st.floats(0.1, 0.9), st.floats(0.1, 2.0),
       st.floats(0.0, 3.0))
def test_bounds_vanish_between_identical_models(components, phi, D, y):
    pm, same = model(components, phi, D), model(components, phi, D)
    assert same == pm and same is not pm
    assert dk1(pm.base, same.base).value == 0.0
    assert dk2(pm.base, same.base, y).value == 0.0
    assert dk3(pm, same).value == 0.0
