"""Classical model: ruin probability, weighted moments, deficit tails."""

import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from helpers import (g_bar_exact, psi_decay_rate, psi_exact,
                     reference_psi_problem, within)
from ruinbounds import (ClaimDistribution, Erlang, Exponential,
                        HyperExponential, PerturbedModel, PreconditionError,
                        RiskModel, adjustment_rate, deficit_tail,
                        deficit_tail_family, exact_ruin_exponential,
                        k_exact_exponential, mc_estimate, pk_truncated_series,
                        ruin_probability, solve, weighted_psi_moment)
from ruinbounds import config, tables
from ruinbounds.renewal import _as_tail, nodes

MIX = HyperExponential((0.5, 0.5), (1.25, 5.0 / 6.0))
DATA = Path(__file__).resolve().parent / "data"


def model_exp2():
    return RiskModel(0.5, 0.5, Exponential(2.0))


def model_mix(c=3.0, lam=5.0 / 6.0):
    return RiskModel(lam, c, MIX)


class TestRiskModel:
    def test_loading_consistency(self):
        m = model_mix()
        assert m.phi == pytest.approx(1.0 / (1.0 + m.theta), abs=1e-12)
        assert m.theta == pytest.approx(2.6, rel=1e-12)

    def test_net_profit_enforced(self):
        with pytest.raises(PreconditionError):
            RiskModel(3.0, 1.0, Exponential(1.0))

    @pytest.mark.parametrize("lam, c", [(math.nan, 1.0), (1.0, math.nan),
                                        (math.inf, 1.0), (0.5, math.inf),
                                        (-math.inf, 1.0)])
    def test_refuses_non_finite_parameters(self, lam, c):
        # nan used to build a model with phi = nan, c = inf one with phi = 0
        with pytest.raises(ValueError, match="positive and finite"):
            RiskModel(lam, c, Exponential(1.0))

    def test_two_spellings_of_one_law_share_a_solve(self):
        a = RiskModel(0.5, 0.5, Exponential(2.0))
        b = RiskModel(0.5, 0.5, Erlang(1, 2.0))
        assert a == b and hash(a) == hash(b)
        tables._deficit_cells.cache_clear()
        try:
            first = tables._deficit_cells(a)
            assert tables._deficit_cells(b) is first
            info = tables._deficit_cells.cache_info()
            assert (info.misses, info.hits) == (1, 1)
        finally:
            tables._deficit_cells.cache_clear()


class TestExactExponential:
    def test_origin(self):
        m = model_exp2()
        assert exact_ruin_exponential(m, 0.0) == pytest.approx(m.phi, abs=1e-15)

    def test_frozen_values(self):
        assert exact_ruin_exponential(model_exp2(), 1.0) == pytest.approx(
            0.1839397206, abs=1e-9)
        m = RiskModel(5.0 / 6.0, 3.0, Exponential(1.0))
        # (5/18) e^{-13 u / 18} at u = 2
        assert exact_ruin_exponential(m, 2.0) == pytest.approx(
            0.0655214119, abs=1e-9)

    def test_wrong_variant(self):
        with pytest.raises(PreconditionError):
            exact_ruin_exponential(model_mix(), 1.0)

    def test_accepts_exponential_with_a_component_of_weight_zero(self):
        # the Exp(0.5) component never occurs, so the law is Exp(2)
        law = HyperExponential((0.0, 1.0), (0.5, 2.0))
        m, m_exp = RiskModel(0.5, 0.5, law), model_exp2()
        assert exact_ruin_exponential(m, 1.0) == exact_ruin_exponential(m_exp, 1.0)
        pm, pm_exp = PerturbedModel(m, 0.25), PerturbedModel(m_exp, 0.25)
        assert k_exact_exponential(pm, 1.0) == k_exact_exponential(pm_exp, 1.0)


class TestRuinProbability:
    def test_origin_is_phi(self):
        for m in (model_exp2(), model_mix(), RiskModel(1.0, 2.0, Erlang(3, 3.0))):
            g = ruin_probability(m, u_max=6.0)
            assert g.values[0] == pytest.approx(m.phi, abs=1e-12)

    def test_coarse_step_leaving_the_unit_interval_is_refused(self):
        # phi = 0.99 and kappa(0) = 10: on two nodes the margin c(1) is
        # positive, but psi(h) comes out as 1.08; the PK series on six
        # nodes rises at this step
        m = RiskModel(9.9, 1.0, Exponential(10.0))
        for solve in (lambda: ruin_probability(m, h=0.1, u_max=0.1),
                      lambda: pk_truncated_series(m, 50, h=0.1, u_max=0.5)):
            with pytest.raises(PreconditionError,
                               match="step h = 0.1; a smaller step is needed"):
                solve()

    def test_a_valid_tail_is_handed_back_uncopied(self):
        psi = ruin_probability(model_exp2(), u_max=4.0)
        assert _as_tail(psi) is psi

    def test_exponential_matches_closed_form(self):
        m = RiskModel(5.0 / 6.0, 3.0, Exponential(1.0))
        g = ruin_probability(m, u_max=20.0)
        exact = exact_ruin_exponential(m, g.grid)
        assert np.max(np.abs(g.values - exact)) <= 1e-6

    def test_halving_h_quarters_error(self):
        m = model_exp2()
        errs = []
        for h in (2.0**-9, 2.0**-10):
            g = ruin_probability(m, h=h, u_max=10.0)
            errs.append(np.max(np.abs(g.values
                                      - exact_ruin_exponential(m, g.grid))))
        assert 3.5 <= errs[0] / errs[1] <= 4.5

    def test_hyperexp_matches_residue_closed_form(self):
        m = model_mix()
        g = ruin_probability(m, u_max=20.0)
        exact = psi_exact(m, g.grid[::16])
        assert np.max(np.abs(g.values[::16] - exact)) <= 1e-6

    def test_monotone_and_bounded(self):
        g = ruin_probability(model_mix(), u_max=15.0)
        assert np.all(np.diff(g.values) <= 1e-12)
        assert g.values[-1] >= 0.0

    def test_monte_carlo_agreement(self):
        m = model_exp2()
        for u in (0.0, 1.0, 2.0):
            est = mc_estimate(m, "psi", u, 200_000, seed=2024)
            assert within(est, exact_ruin_exponential(m, u), 3.0)


class TestAdjustmentRate:
    def test_exponential_rate(self):
        m = model_exp2()
        # R = beta (1 - phi)
        assert adjustment_rate(m) == pytest.approx(1.0, rel=1e-10)

    def test_governs_decay(self):
        m = model_mix()
        R = adjustment_rate(m)
        g = ruin_probability(m, u_max=30.0)
        # log-slope of the far tail approaches -R
        i, j = int(20.0 / g.h), int(28.0 / g.h)
        slope = np.log(g.values[i] / g.values[j]) / (g.grid[j] - g.grid[i])
        assert slope == pytest.approx(R, rel=1e-3)


    @pytest.mark.parametrize("phi", [0.1, 0.5, 0.99])
    @pytest.mark.parametrize("shape", [1, 3, 25, 26, 29, 100, 400])
    def test_matches_phase_type_eigenvalue(self, shape, phi):
        # from shape 26 on, (b/(b - r))^k overflowed float's ** near the
        # slowest rate; the eigenvalue itself strays about 1e-11 at 400
        m = RiskModel(phi, 1.0, Erlang(shape, float(shape)))
        assert adjustment_rate(m) == pytest.approx(psi_decay_rate(m),
                                                   rel=1e-9)

    def test_ignores_a_component_of_weight_zero(self):
        # the Exp(0.5) component never occurs, so psi decays as for Exp(2)
        m = RiskModel(0.5, 1.0, HyperExponential((0.0, 1.0), (0.5, 2.0)))
        assert adjustment_rate(m) == pytest.approx(1.5, rel=1e-12)


class TestWeightedPsiMoment:
    def test_el_closed_form_exponential(self):
        # E L = E X^2/(2 theta mu): Exp(1) claims, theta = 2.6
        m = RiskModel(5.0 / 6.0, 3.0, Exponential(1.0))
        got = weighted_psi_moment(
            m, 0.0, psi=ruin_probability(m, u_max=30.0))
        assert got == pytest.approx(2.0 / 5.2, rel=1e-4)

    def test_el_closed_form_mixture(self):
        m = model_mix()
        got = weighted_psi_moment(
            m, 0.0, psi=ruin_probability(m, u_max=35.0))
        assert got == pytest.approx(2.08 / 5.2, rel=1e-4)

    def test_gamma_one_moment_formula(self):
        # E L + E L^2/2 for the compound geometric with hyperexp stages
        m = model_mix()
        phi = m.phi
        en = phi / (1.0 - phi)
        enn1 = 2.0 * phi**2 / (1.0 - phi) ** 2
        eq = MIX.equilibrium()
        ey = eq.mean()
        ey2 = eq.second_moment()
        el = en * ey
        el2 = en * ey2 + enn1 * ey**2
        got = weighted_psi_moment(
            m, 1.0, psi=ruin_probability(m, u_max=35.0))
        assert got == pytest.approx(el + el2 / 2.0, rel=1e-4)

    def test_weight_overflow_is_inf(self):
        # (1+z)^300 overflows float on the grid and in the remainder
        m = model_exp2()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            psi = ruin_probability(m, h=2.0**-6, u_max=10.0)
            assert weighted_psi_moment(m, 300.0, psi=psi) == math.inf


class TestDeficitTail:
    def test_y_zero_recovers_psi(self):
        m = model_mix()
        psi = ruin_probability(m, u_max=8.0)
        g0 = deficit_tail(m, 0.0, u_max=8.0)
        assert np.max(np.abs(psi.values - g0.values)) <= 2e-6

    def test_origin_value(self):
        # G-bar(0, y) = phi Fe-bar(y); Exp(1) claims, theta = 1, y = 1/2
        m = RiskModel(1.0, 2.0, Exponential(1.0))
        g = deficit_tail(m, 0.5, u_max=4.0)
        assert g.values[0] == pytest.approx(0.3032653299, abs=1e-9)

    def test_exponential_memoryless_overshoot(self):
        # G-bar(u, y) = psi(u) e^{-beta y} for exponential claims
        m = model_exp2()
        psi = ruin_probability(m, u_max=8.0)
        for y in (0.25, 1.0):
            g = deficit_tail(m, y, u_max=8.0)
            assert np.max(np.abs(g.values
                                 - psi.values * np.exp(-2.0 * y))) <= 1e-6

    def test_dominated_by_psi_and_monotone_in_y(self):
        m = RiskModel(1.0, 2.0, Erlang(3, 3.0))
        psi = ruin_probability(m, u_max=6.0)
        fam = deficit_tail_family(m, (0.1, 0.5, 1.0, 2.0), u_max=6.0)
        prev = psi.values
        for y in (0.1, 0.5, 1.0, 2.0):
            cur = fam[y].values
            assert np.all(cur <= prev + 1e-12)
            prev = cur

    def test_vanishes_for_large_y(self):
        m = RiskModel(1.0, 2.0, Erlang(3, 3.0))
        g = deficit_tail(m, 30.0, u_max=4.0)
        assert g.values.max() <= 1e-9

    @pytest.mark.parametrize("ys", [(-1.0,), (0.5, -0.5)])
    def test_rejects_negative_y(self, ys):
        with pytest.raises(ValueError, match="y must be >= 0"):
            deficit_tail_family(model_exp2(), ys, u_max=4.0)

    def test_family_matches_single_solves(self):
        m = model_mix()
        # every y's problem is built on one sample of the kernel
        fam = deficit_tail_family(m, (0.3, 0.0, 1.2), u_max=5.0)
        for y in (0.3, 0.0, 1.2):
            single = deficit_tail(m, y, u_max=5.0)
            assert np.max(np.abs(single.values - fam[y].values)) == 0.0
        # psi's own problem is the family's at y = 0, bit for bit
        assert np.array_equal(ruin_probability(m, u_max=5.0).values,
                              fam[0.0].values)

    @pytest.mark.parametrize("ys", [(0.5,), (0.5, 0.0, 2.0)])
    def test_forcing_sampled_only_for_the_ys_asked(self, monkeypatch, ys):
        # Fe-bar is sampled at grid + y for each y asked and nowhere else,
        # psi's forcing Fe-bar(grid) only when y = 0 is asked; every member
        # is the solve of the problem that reference_psi_problem builds
        m = RiskModel(1.0, 2.0, Erlang(3, 3.0))
        h, u_max = 2.0**-8, 4.0
        fe, real, seen = m.claims.equilibrium(), ClaimDistribution.tail, []

        def tail(law, t):
            if law == fe:
                seen.append(np.array(t))
            return real(law, t)

        monkeypatch.setattr(ClaimDistribution, "tail", tail)
        fam = deficit_tail_family(m, ys, h=h, u_max=u_max)
        monkeypatch.undo()
        grid = nodes(h, u_max)
        assert len(seen) == len(ys)
        assert all(np.array_equal(t, grid + y) for t, y in zip(seen, ys))
        for y in ys:
            want = solve(reference_psi_problem(m, h, u_max, y)).values
            assert np.array_equal(fam[y].values, want)

    # the largest error / ((r h)^2 / (1 - phi)) here is 0.0042, r the
    # fastest claim rate, at every step from 2^-6 to 2^-10
    @pytest.mark.parametrize("h", [2.0**-6, 2.0**-8])
    @pytest.mark.parametrize("which", ["model", "model2"])
    def test_phase_type_oracle_within_c_h2(self, which, h):
        m = getattr(config.load(DATA / "dk_pair.cfg"), which)
        us = np.array([0.0, 0.5, 1.0, 2.0, 5.0])
        bound = 0.01 * (max(m.claims.rates) * h)**2 / (1.0 - m.phi)
        for y in (0.0, 0.5, 2.0):
            g = deficit_tail(m, y, h=h, u_max=6.0)
            assert np.max(np.abs(g(us) - g_bar_exact(m, us, y))) <= bound
        assert np.array_equal(g_bar_exact(m, us, 0.0), psi_exact(m, us))

    def test_monte_carlo_ladder_oracle(self):
        m = model_exp2()
        for u, y in ((0.5, 0.5), (1.0, 1.0)):
            est = mc_estimate(m, "deficit", u, 300_000, seed=7, y=y)
            true = exact_ruin_exponential(m, u) * np.exp(-2.0 * y)
            assert within(est, true, 3.0)


class TestPKSeries:
    @pytest.mark.parametrize("claims", [MIX, Exponential(1.0)])
    def test_truncated_series_consistency(self, claims):
        m = RiskModel(5.0 / 6.0, 3.0, claims)
        n_terms = 30
        psi = ruin_probability(m, u_max=15.0)
        series = pk_truncated_series(m, n_terms, u_max=15.0)
        gap = np.max(np.abs(psi.values - series.values))
        # geometric remainder plus accumulated grid error of 30 convolutions
        assert gap <= m.phi ** (n_terms + 1) + 1e-4

    @pytest.mark.parametrize("claims", [MIX, Exponential(1.0), Erlang(3, 3.0)])
    def test_series_is_a_probability(self, claims):
        # the partial sums are unclipped, so they must stay in [0, phi] alone
        m = RiskModel(0.95 * 3.0 / claims.mean(), 3.0, claims)
        for h in (2.0**-6, 2.0**-10):
            v = pk_truncated_series(m, 40, h=h, u_max=15.0).values
            assert v.min() >= 0.0 and v.max() <= m.phi
