"""Perturbed model: ladder law, K-bar routes, iterates, total ruin split."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from helpers import (chain, k_bar_exact, k_decay_rate, k_iterate_exact,
                     ladder_at, psi_d_exact, psi_total_exact,
                     reference_k_problem, reference_psi_problem, within)
from ruinbounds import (ClaimDistribution, Erlang, Exponential, HyperExponential,
                        PerturbedModel, PreconditionError, RiskModel,
                        adjustment_rate, decompose, exact_ruin_exponential,
                        k_exact_exponential, k_iterate_erlang,
                        k_iterates, k_tail, mc_estimate, psi_total,
                        ruin_probability, sup_distance)
from ruinbounds.classical import _problem
from ruinbounds.renewal import DEFAULT_H, nodes

MIX26 = HyperExponential((0.5, 0.5), (2.0, 6.0))


def pm_table4():
    return PerturbedModel(RiskModel(0.5, 0.5, Exponential(2.0)), 0.25)


def pm_table5():
    return PerturbedModel(RiskModel(0.75, 2.0 / 3.0, Exponential(1.5)), 4.0 / 9.0)


def pm_mix(D=1.0 / 3.0):
    # theta = 4 configuration from the diffusion comparison table
    return PerturbedModel(RiskModel(0.6, 1.0, MIX26), D)


@pytest.mark.parametrize("D", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_model_refuses_a_non_positive_or_non_finite_d(D):
    # nan used to fail only in k_tail, inf to give b0 = 0 and a divide warning
    with pytest.raises(ValueError, match="positive and finite"):
        PerturbedModel(RiskModel(0.5, 0.5, Exponential(2.0)), D)


@pytest.mark.parametrize("base", [None, pm_table4()])
def test_model_refuses_a_base_that_is_not_a_risk_model(base):
    # dk3 leaves net profit to RiskModel; a base of None used to be built
    # and fail later with an AttributeError
    with pytest.raises(TypeError, match="RiskModel"):
        PerturbedModel(base, 0.5)


def density(pm, t):
    return ladder_at(pm.ladder, t)[0]


class TestLadderDensity:
    def test_matched_rates_is_erlang2(self):
        pm = pm_table4()  # b0 = c/D = 2 = beta
        h = 2.0**-5
        t = nodes(h, 4.0)
        assert pm.ladder.on_grid(t, h)[0] == pytest.approx(
            4.0 * t * np.exp(-2.0 * t), rel=1e-12)

    def test_two_rate_closed_form(self):
        pm = PerturbedModel(RiskModel(0.5, 1.0, Exponential(2.0)), 1.0)  # b0=1
        h = 2.0**-4
        t = nodes(h, 6.0)
        assert pm.ladder.on_grid(t, h)[0] == pytest.approx(
            2.0 * (np.exp(-t) - np.exp(-2.0 * t)), rel=1e-10)

    @pytest.mark.parametrize("pm", [pm_table4(), pm_mix(),
                                    PerturbedModel(RiskModel(1.0, 2.0, Erlang(3, 3.0)), 0.5)])
    def test_density_normalized(self, pm):
        val, _ = integrate.quad(lambda t: density(pm, t), 0.0, 80.0,
                                limit=500)
        assert val == pytest.approx(1.0, rel=1e-6)

    def test_numeric_route_matches_defining_integral(self):
        # Erlang claims have no closed form; check a(t) against quadrature
        pm = PerturbedModel(RiskModel(1.0, 2.0, Erlang(3, 3.0)), 0.5)
        b0, mu = pm.b0, pm.base.mu
        for t in (0.3, 1.0, 2.4):
            expect, _ = integrate.quad(
                lambda z: b0 * np.exp(-b0 * (t - z))
                * pm.base.claims.tail(z) / mu, 0.0, t, limit=200)
            assert density(pm, t) == pytest.approx(expect, rel=1e-8)

    def test_tail_identity(self):
        # A-bar(t) = Fe-bar(t) + a(t)/b0 against direct integration of a
        pm = pm_mix()
        for t in (0.0, 0.5, 1.5):
            rest, _ = integrate.quad(lambda s: density(pm, s), t, 60.0,
                                     limit=400)
            assert ladder_at(pm.ladder, t)[1] == pytest.approx(rest, abs=1e-8)


class TestKTail:
    def test_origin_is_phi(self):
        for pm in (pm_table4(), pm_table5(), pm_mix()):
            g = k_tail(pm, u_max=6.0)
            assert g.values[0] == pytest.approx(pm.phi, abs=1e-12)

    @pytest.mark.parametrize("pm,k1", [(pm_table4(), 0.3325717),
                                       (pm_table5(), 0.6573777)])
    def test_published_parameter_sets(self, pm, k1):
        g = k_tail(pm, u_max=8.0)
        assert g(1.0) == pytest.approx(k1, abs=1e-5)

    def test_grid_matches_exponential_closed_form(self):
        for pm in (pm_table4(), pm_table5()):
            g = k_tail(pm, u_max=8.0)
            exact = k_exact_exponential(pm, g.grid)
            assert np.max(np.abs(g.values - exact)) <= 1e-5

    def test_mixture_matches_residue_closed_form(self):
        pm = pm_mix()
        g = k_tail(pm, u_max=10.0)
        exact = k_bar_exact(pm, g.grid[::16])
        assert np.max(np.abs(g.values[::16] - exact)) <= 1e-6

    def test_series_consistency(self):
        # the exact n-th iterate, a truncated series in phi^i A^{*i}, is
        # within phi^n of K-bar whatever the start
        n_terms = 40
        for pm in (pm_table4(), pm_mix()):
            g = k_tail(pm, u_max=6.0)
            us = g.grid[::64]
            series = k_iterate_exact(pm, 0.0, n_terms, us)
            assert np.max(np.abs(series - g(us))) <= pm.phi**n_terms + 1e-6

    def test_monte_carlo_agreement(self):
        pm = pm_table4()
        for u in (0.0, 1.0):
            est = mc_estimate(pm, "k_tail", u, 200_000, seed=11)
            assert within(est, k_exact_exponential(pm, u), 3.0)

    def test_default_grid_past_longest_fft_is_a_precondition(self):
        # b0 = 5e-301 puts the default grid end at 4.1e301: a typed error
        # from the grid, before numpy is asked for the array
        pm = PerturbedModel(pm_table4().base, 1e300)
        with pytest.raises(PreconditionError,
                           match=r"u_max = 4\.14465e\+301 gives 4\.2\d+e\+304 "
                                 r"nodes"):
            k_tail(pm)


class TestKExactExponential:
    def test_origin_identity(self):
        for pm in (pm_table4(), pm_table5(),
                   PerturbedModel(RiskModel(0.6, 1.0, Exponential(3.0)), 2.0)):
            assert k_exact_exponential(pm, 0.0) == pytest.approx(
                pm.phi, rel=1e-12)

    def test_published_values(self):
        assert k_exact_exponential(pm_table4(), 1.0) == pytest.approx(
            0.3325717, abs=1e-7)
        assert k_exact_exponential(pm_table5(), 1.0) == pytest.approx(
            0.6573777, abs=1e-7)

    def test_wrong_variant(self):
        with pytest.raises(PreconditionError):
            k_exact_exponential(pm_mix(), 1.0)


class TestKIterates:
    def test_first_iterate_closed_form(self):
        # K_1 = phi - (1-k) phi A(u)
        pm = pm_table4()
        g = k_iterates(pm, 0.3, 1, u_max=5.0).last
        a_cdf = 1.0 - np.exp(-2.0 * g.grid) * (1.0 + 2.0 * g.grid)
        expect = pm.phi - 0.7 * pm.phi * a_cdf
        assert np.max(np.abs(g.values - expect)) <= 1e-7

    def test_paths_agree(self):
        # operator iterates on the grid against the exact phase-type K_n
        for pm in (pm_table4(), pm_mix()):
            steps = chain(_problem(pm, DEFAULT_H, 6.0), 0.5, 5)
            us = steps[0].grid[::32]
            for n, g in enumerate(steps, start=1):
                exact = k_iterate_exact(pm, 0.5, n, us)
                assert np.max(np.abs(g(us) - exact)) <= 1e-6
            # the trace of five steps ends where the chain of single steps does
            last = k_iterates(pm, 0.5, 5, u_max=6.0).last
            assert np.array_equal(last.values, steps[-1].values)

    def test_operator_route_agrees_with_closed_route(self):
        # matched rates: every grid node against the Erlang closed form
        pm = pm_table4()
        for n, g in enumerate(chain(_problem(pm, DEFAULT_H, 5.0), 0.2, 4),
                              start=1):
            exact = [k_iterate_erlang(pm, 0.2, n, u) for u in g.grid]
            assert np.max(np.abs(g.values - exact)) <= 1e-6

    @pytest.mark.parametrize("n,k0,expect", [(1, 0.0, 0.2030029),
                                             (2, 0.2, 0.3229262),
                                             (5, 1.0, 0.3325724)])
    def test_table4_cells_via_operator_route(self, n, k0, expect):
        pm = pm_table4()
        trace = k_iterates(pm, k0, n, u_max=4.0)
        assert trace.last(1.0) == pytest.approx(expect, abs=1e-6)

    def test_rejects_bad_start(self):
        with pytest.raises(PreconditionError):
            k_iterates(pm_table4(), 1.5, 2)

    def test_a_priori_certificate_reported(self):
        pm = pm_table5()
        trace = k_iterates(pm, 0.4, 6, u_max=5.0)
        x1 = chain(_problem(pm, DEFAULT_H, 5.0), 0.4, 1)[0]
        first = np.max(np.abs(x1.values - 0.4))
        expect = [pm.phi**j / (1.0 - pm.phi) * first for j in range(1, 7)]
        assert trace.a_priori == pytest.approx(expect, rel=1e-12)


class TestKIterateErlang:
    @pytest.mark.parametrize("n,k0,expect", [(2, 0.2, 0.3229262),
                                             (5, 1.0, 0.3325724)])
    def test_table4_cells(self, n, k0, expect):
        assert k_iterate_erlang(pm_table4(), k0, n, 1.0) == pytest.approx(
            expect, abs=5e-7)

    def test_table5_cell(self):
        assert k_iterate_erlang(pm_table5(), 0.6, 4, 1.0) == pytest.approx(
            0.6573699, abs=5e-7)

    def test_agrees_with_phase_type_iterates(self):
        for pm in (pm_table4(), pm_table5()):
            for n in range(1, 6):
                for u in (0.0, 1.0, 3.5):
                    assert k_iterate_erlang(pm, 0.35, n, u) == pytest.approx(
                        k_iterate_exact(pm, 0.35, n, u), abs=1e-13)

    def test_requires_matched_rates(self):
        pm = PerturbedModel(RiskModel(0.5, 1.0, Exponential(2.0)), 1.0)
        with pytest.raises(PreconditionError):
            k_iterate_erlang(pm, 0.5, 3, 1.0)


class TestClosedFormsReadTheLaw:
    """The exponential closed forms test the claim law, not its class."""

    @staticmethod
    def closed_forms(claims):
        # the table-4 model: phi = 1/2, b0 = c/D = 2 = beta
        pm = PerturbedModel(RiskModel(0.5, 0.5, claims), 0.25)
        us = np.array([0.0, 0.5, 1.0, 3.5])
        return (exact_ruin_exponential(pm.base, us), k_exact_exponential(pm, us),
                [k_iterate_erlang(pm, 0.4, n, u) for n in (1, 2, 5) for u in us])

    def test_exp2_in_any_family(self):
        # construction merges both into one Exp(2) component
        ref = self.closed_forms(Exponential(2.0))
        for law in (Erlang(1, 2.0), HyperExponential((0.5, 0.5), (2.0, 2.0))):
            for got, want in zip(self.closed_forms(law), ref):
                assert np.array_equal(got, want)

    def test_refuses_erlang_2(self):
        with pytest.raises(PreconditionError):
            exact_ruin_exponential(RiskModel(0.25, 0.5, Erlang(2, 2.0)), 1.0)
        pm = PerturbedModel(RiskModel(0.25, 0.5, Erlang(2, 2.0)), 0.25)
        with pytest.raises(PreconditionError):
            k_exact_exponential(pm, 1.0)
        with pytest.raises(PreconditionError):
            k_iterate_erlang(pm, 0.4, 2, 1.0)


class TestPsiTotal:
    def test_certain_ruin_at_zero(self):
        for pm in (pm_table4(), pm_mix()):
            g = psi_total(pm, u_max=6.0)
            assert g.values[0] == pytest.approx(1.0, abs=1e-12)

    def test_dominates_k_tail(self):
        pm = pm_table5()
        k = k_tail(pm, u_max=6.0)
        t = psi_total(pm, u_max=6.0)
        assert np.all(t.values >= k.values - 1e-12)

    def test_monte_carlo_agreement(self):
        pm = pm_table4()
        g = psi_total(pm, u_max=10.0)
        for u in (0.5, 1.0, 2.0):
            est = mc_estimate(pm, "psi_t", u, 200_000, seed=5)
            assert within(est, g(u), 3.0)

    def test_vanishing_diffusion_recovers_classical(self):
        # psi_t(0) = 1 for every D > 0 while psi(0) = phi, so the comparison
        # excludes the O(D/c)-wide boundary layer at the origin
        base = RiskModel(0.5, 0.5, Exponential(2.0))
        pm = PerturbedModel(base, 1e-4)
        t = psi_total(pm, u_max=10.0)
        psi = ruin_probability(base, u_max=10.0)
        i0 = int(round(0.01 / t.h))
        assert np.max(np.abs(t.values[i0:] - psi.values[i0:])) <= 5e-3


class TestDecompose:
    def test_boundary_values(self):
        pm = pm_table4()
        psi_d, psi_s = decompose(pm, u_max=6.0)
        assert psi_d.values[0] == pytest.approx(1.0, abs=1e-9)
        assert psi_s.values[0] == pytest.approx(0.0, abs=1e-9)

    def test_reassembles_exactly(self):
        pm = pm_mix()
        k = k_tail(pm, u_max=6.0)
        t = psi_total(pm, u_max=6.0)
        psi_d, psi_s = decompose(pm, u_max=6.0)
        assert np.max(np.abs(psi_d.values + psi_s.values - t.values)) <= 1e-12
        recomposed = pm.phi * psi_d.values + psi_s.values
        assert np.max(np.abs(recomposed - k.values)) <= 1e-9

    def test_components_are_probabilities(self):
        pm = pm_table5()
        psi_d, psi_s = decompose(pm, u_max=6.0)
        for v in (psi_d.values, psi_s.values):
            assert v.min() >= 0.0 and v.max() <= 1.0

    def test_near_critical_erlang(self):
        # phi = 0.99, b0 = 2: the exact psi_d rises by about 2.8e-5 near
        # u = 1.5, so it is no tail-type function; the default grid returns
        pm = PerturbedModel(RiskModel(1.0, 1.0 / 0.99, Erlang(3, 3.0)),
                            0.5 / 0.99)
        psi_d, psi_s = decompose(pm)
        assert psi_d.values[0] == 1.0 and psi_s.values[0] == 0.0
        assert np.max(np.diff(psi_d.values)) > 0.0
        us = psi_d.grid[::len(psi_d.grid) // 256]
        assert np.max(np.abs(psi_d(us) - psi_d_exact(pm, us))) <= 1e-5
        t = psi_total(pm)
        assert np.max(np.abs(psi_d.values + psi_s.values - t.values)) <= 1e-12


RATES = st.floats(0.3, 8.0)
MIXTURES = st.lists(st.tuples(st.floats(0.05, 1.0), st.integers(1, 4), RATES),
                    min_size=1, max_size=3)
# r is the fastest rate of the ladder step, claims or oscillation; over 600
# seeded models the largest error / ((r h)^2 / (1 - phi)) was 0.017 for
# psi_t and 0.0094 for psi_d
PSI_C = 0.1


@settings(max_examples=40, deadline=None)
@given(MIXTURES, st.floats(0.01, 0.99), RATES, st.integers(6, 12))
@example([(0.5, 3, 7.33), (0.3, 1, 2.0), (0.2, 4, 5.0)], 0.99, 8.0, 12)
@example([(1.0, 3, 3.0)], 0.99, 2.0, 8)
def test_psi_t_and_psi_d_within_c_h2_of_phase_type(components, phi, b0,
                                                   log2_step):
    w = np.array([c[0] for c in components])
    law = ClaimDistribution(w / w.sum(), [c[1] for c in components],
                            [c[2] for c in components])
    pm = PerturbedModel(RiskModel(phi / law.mean(), 1.0, law), 1.0 / b0)
    h = 2.0**-log2_step
    t = psi_total(pm, h=h, u_max=4.0)
    psi_d, _ = decompose(pm, h=h, u_max=4.0)
    us = t.grid[::len(t.grid) // 64]
    bound = PSI_C * (max(max(law.rates), pm.b0) * h)**2 / (1.0 - pm.phi)
    assert np.max(np.abs(t(us) - psi_total_exact(pm, us))) <= bound
    assert np.max(np.abs(psi_d(us) - psi_d_exact(pm, us))) <= bound


@st.composite
def ladder_models(draw, shapes=st.integers(1, 30)):
    """A perturbed model with 1-3 Erlang components, phi up to 0.99, and b0
    either equal to one of the claim rates or apart from all of them."""
    components = draw(st.lists(st.tuples(st.floats(0.05, 1.0), shapes, RATES),
                               min_size=1, max_size=3))
    w = np.array([c[0] for c in components])
    law = ClaimDistribution(w / w.sum(), [c[1] for c in components],
                            [c[2] for c in components])
    phi = draw(st.floats(0.01, 0.99))
    if draw(st.booleans()):
        b0 = draw(st.sampled_from(law.rates))
    else:
        b0 = draw(RATES.filter(lambda b: all(abs(b - r) > 1e-3 * r
                                             for r in law.rates)))
    # c = b0 D with D a power of two, so c / D is b0 exactly
    c = 0.5 * b0
    pm = PerturbedModel(RiskModel(phi * c / law.mean(), c, law), 0.5)
    assert pm.b0 == b0
    return pm


def assert_same_problem(got, want):
    assert (got.phi, got.h) == (want.phi, want.h)
    assert np.array_equal(got.kernel, want.kernel)
    assert np.array_equal(got.forcing, want.forcing)


@settings(max_examples=60, deadline=None)
@given(ladder_models(), st.sampled_from([2.0**-4, 2.0**-6, 0.01]),
       st.one_of(st.none(), st.floats(0.5, 12.0)))
@example(PerturbedModel(RiskModel(0.5, 0.5, Exponential(2.0)), 0.25),
         2.0**-6, None)
def test_problem_bit_equal_to_the_former_builders(pm, h, u_max):
    # u_max None takes the default grid end of each model
    assert_same_problem(_problem(pm, h, u_max), reference_k_problem(pm, h, u_max))
    assert_same_problem(_problem(pm.base, h, u_max),
                        reference_psi_problem(pm.base, h, u_max))


@settings(max_examples=60, deadline=None)
@given(ladder_models(shapes=st.integers(1, 4)))
def test_adjustment_rate_is_the_phase_type_decay_rate(pm):
    assert adjustment_rate(pm) == pytest.approx(k_decay_rate(pm), rel=1e-12)
