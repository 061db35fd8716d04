"""Continuity bounds: values, components, hypotheses, reductions."""

import numpy as np
import pytest

from helpers import reconstruct
from ruinbounds import (Erlang, Exponential, HyperExponential,
                        PerturbedModel, PreconditionError, RiskModel,
                        deficit_tail, dk1, dk2, dk3, kantorovich, q_y,
                        ruin_probability, sup_distance)

MIX54 = HyperExponential((0.5, 0.5), (1.25, 5.0 / 6.0))
MIX26 = HyperExponential((0.5, 0.5), (2.0, 6.0))
ERL = Erlang(3, 3.0)


def pair_table1(c=3.0, lam=5.0 / 6.0):
    return RiskModel(lam, c, MIX54), RiskModel(lam, c, Exponential(1.0))


def pair_table2(theta=1.0):
    c = 1.0 + theta
    return RiskModel(1.0, c, ERL), RiskModel(1.0, c, Exponential(1.0))


def pair_table3(D=0.5, Dt=1.0 / 3.0):
    m = RiskModel(0.6, 1.0, Exponential(3.0))
    mt = RiskModel(0.6, 1.0, MIX26)
    return PerturbedModel(m, D), PerturbedModel(mt, Dt)


class TestDK1:
    def test_identical_models_zero(self):
        m, _ = pair_table1()
        rep = dk1(m, m, 0.0)
        assert rep.value == pytest.approx(0.0, abs=1e-9)

    def test_published_value_gamma0(self):
        m, mt = pair_table1()
        rep = dk1(m, mt, 0.0)
        assert rep.value == pytest.approx(0.1211, abs=5e-4)

    def test_published_value_gamma1(self):
        m, mt = pair_table1(c=5.0)
        rep = dk1(m, mt, 1.0, psi=ruin_probability(m, u_max=35.0))
        assert rep.value == pytest.approx(0.3548, abs=5e-4)

    def test_components_reconstruct(self):
        m, mt = pair_table1(c=5.0)
        rep = dk1(m, mt, 0.0)
        assert reconstruct(rep) == pytest.approx(rep.value, abs=1e-12)

    def test_requires_shared_premium_rate(self):
        m, _ = pair_table1(c=3.0)
        _, mt = pair_table1(c=5.0)
        with pytest.raises(PreconditionError, match="premium"):
            dk1(m, mt, 0.0)

    def test_contraction_hypothesis(self):
        # lam M_1 / c = 0.9 * 2 / 1 >= 1 while net profit still holds
        m = RiskModel(0.9, 1.0, Exponential(1.0))
        mt = RiskModel(0.9, 1.0, Exponential(2.0))
        with pytest.raises(PreconditionError, match="contraction"):
            dk1(m, mt, 1.0)

    def test_convention_notes_present(self):
        m, mt = pair_table1()
        rep = dk1(m, mt, 0.0)
        assert any("ML convention" in n for n in rep.convention_notes)
        assert any("Kantorovich form" in n for n in rep.convention_notes)

    def test_gamma0_matches_closed_form_assembly(self):
        # with shared lam the reduced Kantorovich form is the bound itself
        from ruinbounds import kantorovich, nu_gamma
        m, mt = pair_table1(c=7.0)
        rep = dk1(m, mt, 0.0)
        ml = 2.08 / (2.0 * m.theta)
        expect = (m.c / (m.c - m.lam * 1.0)) * (
            nu_gamma(MIX54, Exponential(1.0), 1.0)
            + kantorovich(MIX54, Exponential(1.0)) * ml)
        assert rep.value == pytest.approx(expect, rel=1e-9)


class TestDK2:
    def test_identical_models_zero(self):
        m, _ = pair_table2()
        assert dk2(m, m, 0.5).value == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("theta,y,expect", [(1.0, 1.0, 0.1547),
                                                (4.0, 0.5, 0.0555)])
    def test_published_values(self, theta, y, expect):
        m, mt = pair_table2(theta)
        assert dk2(m, mt, y).value == pytest.approx(expect, abs=1e-4)

    def test_reduction_identity(self):
        # shared lam and mu: value * theta * mu = Q_y to high accuracy
        m, mt = pair_table2(4.0)
        rep = dk2(m, mt, 0.7)
        qy = q_y(ERL, Exponential(1.0), 0.7)
        assert rep.value * m.theta * m.mu == pytest.approx(qy, rel=1e-9)
        assert any("reduces" in n for n in rep.convention_notes)

    def test_components_reconstruct(self):
        m, mt = pair_table2(4.0)
        rep = dk2(m, mt, 0.25)
        assert reconstruct(rep) == pytest.approx(rep.value, abs=1e-12)

    def test_dominates_exact_distance(self):
        m, mt = pair_table2(1.0)
        for y in (0.25, 1.0):
            g1 = deficit_tail(m, y, u_max=8.0)
            g2 = deficit_tail(mt, y, u_max=8.0)
            assert sup_distance(g1, g2) <= dk2(m, mt, y).value


class TestDK3:
    def test_identical_models_zero(self):
        pm, _ = pair_table3()
        assert dk3(pm, pm).value == pytest.approx(0.0, abs=1e-9)

    def test_published_value(self):
        pm, pmt = pair_table3(D=0.5, Dt=1.0 / 3.0)
        assert dk3(pm, pmt).value == pytest.approx(0.2004, abs=1e-4)

    def test_hypothesis_d_ordering(self):
        pm, pmt = pair_table3(D=0.5, Dt=1.0 / 3.0)
        with pytest.raises(PreconditionError, match="swap"):
            dk3(pmt, pm)

    def test_components_reconstruct(self):
        pm, pmt = pair_table3(D=2.0, Dt=0.1)
        rep = dk3(pm, pmt)
        assert reconstruct(rep) == pytest.approx(rep.value, abs=1e-12)

    def test_oscillation_distance_closed_form(self):
        pm, pmt = pair_table3(D=1.0, Dt=0.1)
        rep = dk3(pm, pmt)
        assert rep.components["k_h1"] == pytest.approx(0.9, rel=1e-12)
        # the quadrature route agrees with K(H1, H1~) = |D - D~|/c
        closed = abs(pm.D - pmt.D) / pm.base.c
        quad = kantorovich(Exponential(pm.b0), Exponential(pmt.b0))
        assert abs(quad - closed) <= max(1e-10, 1e-8 * closed)

    def test_requires_shared_premium_rate(self):
        pm, _ = pair_table3()
        other = PerturbedModel(RiskModel(0.6, 2.0, MIX26), 0.1)
        with pytest.raises(PreconditionError, match="premium"):
            dk3(pm, other)
