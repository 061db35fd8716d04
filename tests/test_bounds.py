"""Continuity bounds: values, components, hypotheses, reductions."""

import numpy as np
import pytest

from helpers import reconstruct
from ruinbounds import (Erlang, Exponential, HyperExponential,
                        PerturbedModel, PreconditionError, RiskModel,
                        deficit_tail, dk1, dk2, dk3, kantorovich, nu_gamma,
                        q_y, ruin_probability, sup_distance)
from ruinbounds import bounds, tables

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

    def test_negative_gamma_refused(self):
        m, mt = pair_table1()
        with pytest.raises(ValueError, match="gamma must be >= 0"):
            dk1(m, mt, -0.5)

    def test_contraction_hypothesis(self):
        # lam M_1 / c = 0.9 * 2 / 1 >= 1 while net profit still holds
        m = RiskModel(0.9, 1.0, Exponential(1.0))
        mt = RiskModel(0.9, 1.0, Exponential(2.0))
        with pytest.raises(PreconditionError, match="contraction"):
            dk1(m, mt, 1.0)

    def test_convention_notes_present(self):
        # the note names both models' ML_0; the larger enters the bound
        m, mt = pair_table1()
        rep = dk1(m, mt, 0.0)
        ml, ml_t = (x.claims.second_moment() / (2.0 * x.theta * x.mu)
                    for x in (m, mt))
        (note,) = [n for n in rep.convention_notes if "ML convention" in n]
        assert f"{ml:.10g}" in note and f"{ml_t:.10g}" in note
        assert rep.components["ml_gamma"] == max(ml, ml_t)

    def test_bound_holds_when_second_model_has_larger_ml(self):
        # ML_0 is 0.2045 for the first model and 3.0116 for the second; with
        # the first's alone the bound would be 2.1488, below nu_0(psi, psi~)
        c = 1.1492131257273843
        m = RiskModel(0.46348756472285413, c, Exponential(1.6203648694702626))
        mt = RiskModel(1.7173545352248438, c, HyperExponential(
            (0.272546704117453, 0.727453295882547),
            (0.8742042565155529, 3.3459190713758904)))
        h, u_max = 2.0**-8, 200.0
        exact = nu_gamma(ruin_probability(m, h=h, u_max=u_max),
                         ruin_probability(mt, h=h, u_max=u_max), 0.0)
        assert exact == pytest.approx(2.8071, abs=1e-4)
        rep = dk1(m, mt, 0.0)
        assert rep.value >= exact
        assert rep.value == pytest.approx(6.5937, abs=1e-4)

    def test_gamma1_solves_second_psi_unless_passed(self):
        m, mt = pair_table1(c=5.0)
        psi = ruin_probability(m)
        solved = dk1(m, mt, 1.0, psi=psi)
        passed = dk1(m, mt, 1.0, psi=psi, psi_tilde=ruin_probability(mt))
        assert solved.value == passed.value
        assert solved.components == passed.components

    def test_gamma0_matches_closed_form_assembly(self):
        # with shared lam the reduced Kantorovich form is the bound itself
        m, mt = pair_table1(c=7.0)
        rep = dk1(m, mt, 0.0)
        ml = 2.08 / (2.0 * m.theta)
        expect = (m.c / (m.c - m.lam * 1.0)) * (
            nu_gamma(MIX54, Exponential(1.0), 1.0)
            + kantorovich(MIX54, Exponential(1.0)) * ml)
        assert rep.value == pytest.approx(expect, rel=1e-9)


TABLE_1_CELLS = [(tid, c) for tid in ("1a", "1b", "1c", "1d")
                 for c in tables.PAPER_TABLE_1[tid][2]]


@pytest.mark.parametrize("tid,c", TABLE_1_CELLS)
def test_table_1_first_model_ml_is_larger(tid, c):
    # so max(ML, ML~) is the first model's ML in every cell, and tables
    # 1a-1d print what they printed under the first-model convention
    lam, gamma, _ = tables.PAPER_TABLE_1[tid]
    m, mt = (RiskModel(lam, c, law) for law in (tables.MIX_54_56, tables.EXP_1))
    psi_m, psi_t = (ruin_probability(x, h=tables.H, u_max=40.0)
                    for x in (m, mt))
    ml = bounds._ml(m, gamma, psi_m)
    assert ml >= bounds._ml(mt, gamma, psi_t)
    rep = dk1(m, mt, gamma, psi=psi_m, psi_tilde=psi_t)
    assert rep.components["ml_gamma"] == ml


class TestDK2:
    def test_identical_models_zero(self):
        m, _ = pair_table2()
        assert dk2(m, m, 0.5).value == pytest.approx(0.0, abs=1e-9)

    def test_negative_y_refused(self):
        m, mt = pair_table2()
        with pytest.raises(ValueError, match="y must be >= 0"):
            dk2(m, mt, -0.1)

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

    def test_hypothesis_mean_ordering(self):
        # D >= D~ holds, but mu = 1/3 < mu~ = 1/2
        pm, _ = pair_table3()
        pmt = PerturbedModel(RiskModel(0.6, 1.0, Exponential(2.0)), 1.0 / 3.0)
        with pytest.raises(PreconditionError, match="mu >= mu~"):
            dk3(pm, pmt)

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


SHARED_C = "shared premium rate c"


@pytest.mark.parametrize("bound,args,names", [
    (dk1, pair_table1(), [SHARED_C, "contraction lam*M_gamma/c < 1"]),
    (dk2, (*pair_table2(), 0.5), [SHARED_C]),
    (dk3, pair_table3(), [SHARED_C, "D >= D~ (swap the arguments otherwise)",
                          "mu >= mu~ (swap the arguments otherwise)"]),
])
def test_report_lists_the_hypotheses_checked(bound, args, names):
    # net profit is RiskModel's, so no bound reports it
    rep = bound(*args)
    assert [n for n, _ in rep.preconditions] == names
    assert all(ok for _, ok in rep.preconditions)
