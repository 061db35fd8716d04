"""Probability metrics: frozen oracle values, metric axioms, crossing logic."""

import math
from fractions import Fraction

import numpy as np
import pytest

from ruinbounds import metrics
from ruinbounds import (ClaimDistribution, Erlang, Exponential, GridFunction,
                        GridMismatchError, HyperExponential, TruncationError,
                        nu_gamma, partial_exp_sum, q_y, sup_distance)

ERL = Erlang(3, 3.0)
EXP1 = Exponential(1.0)
EXP3 = Exponential(3.0)
MIX26 = HyperExponential((0.5, 0.5), (2.0, 6.0))
MIX54 = HyperExponential((0.5, 0.5), (1.25, 5.0 / 6.0))
# its tail crosses EXP1's twice, near t = 0.469 and t = 3.218
TWICE = ClaimDistribution((0.2, 0.8), (1, 3), (0.5, 5.0))

# frozen independent oracle values (30-digit quadrature with analytic
# antiderivatives and bisected crossings)
CROSS_ERL_EXP = 1.2067920395
K_ERL_EXP = 0.2985591545
Q_ERL_EXP = {0.1: 0.2938158746, 0.25: 0.2725925648, 0.5: 0.2219626251,
             1.0: 0.1547215210, 2.0: 0.1080690093}
K_EXP3_MIX26 = 0.0449614992
NU_MIX54_EXP1 = {0.0: 0.0216520616, 1.0: 0.0788008505, 2.0: 0.3934045382}


class TestNuGamma:
    def test_identity(self):
        assert nu_gamma(EXP1, EXP1, 0.0) == pytest.approx(0.0, abs=1e-10)
        assert nu_gamma(ERL, ERL, 1.0) == pytest.approx(0.0, abs=1e-10)

    def test_ordered_exponentials(self):
        # ordered tails: the distance is the difference of means
        assert nu_gamma(EXP1, Exponential(2.0), 0.0) == pytest.approx(
            0.5, abs=1e-9)

    def test_exp3_vs_mixture(self):
        assert nu_gamma(EXP3, MIX26, 0.0) == pytest.approx(
            K_EXP3_MIX26, abs=1e-8)

    @pytest.mark.parametrize("gamma", [0.0, 1.0, 2.0])
    def test_mixture_vs_exponential(self, gamma):
        assert nu_gamma(MIX54, EXP1, gamma) == pytest.approx(
            NU_MIX54_EXP1[gamma], abs=1e-8)

    def test_gamma_monotonicity(self):
        # (1+t)^gamma grows with gamma, hence so does the distance
        pairs = [(EXP1, ERL), (EXP3, MIX26), (MIX54, EXP1)]
        for f, g in pairs:
            vals = [nu_gamma(f, g, gamma) for gamma in (0.0, 0.5, 1.0, 2.0)]
            assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_weight_overflow_in_log_space(self):
        # (1+t)^150 leaves the float range past t = 112, before the tails
        # have decayed; there the terms are formed in log space.  The tails
        # never cross, so nu_150 = M(2) - M(2.1) with the weighted tail
        # moment M(r) = 150! S_150(r) / r^151 of Exp(r), exact in rationals.
        # The peak of the integrand is about one step of the rule wide,
        # which limits the rule to about 4e-9 here.
        def moment(rate):
            r = Fraction(rate)
            return math.factorial(150) * partial_exp_sum(150, r) / r**151
        exact = float(moment(2.0) - moment(2.1))
        assert exact == pytest.approx(1.4779161e218, rel=1e-7)
        assert nu_gamma(Exponential(2.0), Exponential(2.1), 150.0) == \
            pytest.approx(exact, rel=1e-8)

    def test_rejects_mixed_types(self):
        grid = GridFunction(0.1, np.linspace(1, 0, 11))
        with pytest.raises(TypeError):
            nu_gamma(EXP1, grid)


class TestKantorovich:
    def test_erlang_vs_exponential(self):
        assert nu_gamma(ERL, EXP1) == pytest.approx(K_ERL_EXP, abs=1e-8)

    def test_exponential_pair_closed_form(self):
        # Exp(c/D) vs Exp(c/D~) integrates to |D - D~|/c
        c, d1, d2 = 1.0, 2.0, 0.1
        got = nu_gamma(Exponential(c / d1), Exponential(c / d2))
        assert got == pytest.approx(abs(d1 - d2) / c, rel=1e-9)


class TestQy:
    def test_zero_truncation_is_kantorovich(self):
        assert q_y(ERL, EXP1, 0.0) == pytest.approx(
            nu_gamma(ERL, EXP1), rel=1e-10)

    @pytest.mark.parametrize("y", sorted(Q_ERL_EXP))
    def test_erlang_vs_exponential(self, y):
        assert q_y(ERL, EXP1, y) == pytest.approx(Q_ERL_EXP[y], abs=1e-8)

    def test_monotone_in_y(self):
        vals = [q_y(ERL, MIX54, y) for y in (0.0, 0.3, 0.9, 1.8, 3.0)]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def _random_claim_law(rng):
    kind = rng.integers(0, 3)
    if kind == 0:
        return Exponential(float(rng.uniform(0.4, 4.0)))
    if kind == 1:
        w = float(rng.uniform(0.2, 0.8))
        r1 = float(rng.uniform(0.5, 2.0))
        return HyperExponential((w, 1.0 - w), (r1, r1 + rng.uniform(0.5, 4.0)))
    return Erlang(int(rng.integers(1, 5)), float(rng.uniform(0.5, 3.0)))


class TestMetricAxioms:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("gamma", [0.0, 1.0])
    def test_symmetry_and_triangle(self, seed, gamma):
        rng = np.random.default_rng(seed)
        f, g, k = (_random_claim_law(rng) for _ in range(3))
        fg = nu_gamma(f, g, gamma)
        gf = nu_gamma(g, f, gamma)
        assert fg == gf
        fk = nu_gamma(f, k, gamma)
        kg = nu_gamma(k, g, gamma)
        assert fg <= fk + kg + 1e-9

    @pytest.mark.parametrize("seed", [5, 6])
    def test_q_y_axioms(self, seed):
        rng = np.random.default_rng(seed)
        f, g, k = (_random_claim_law(rng) for _ in range(3))
        y = float(rng.uniform(0.0, 1.5))
        assert q_y(f, g, y) == q_y(g, f, y)
        assert q_y(f, g, y) <= q_y(f, k, y) + q_y(k, g, y) + 1e-9


class TestFarTails:
    # the exp-sinh nodes reach 800 / slowest rate, far past the float range
    # of exp(-z) S_{k-1}(z) for high shapes; values agree with a 30-digit
    # mpmath quadrature to 1.2e-15
    @pytest.mark.parametrize("f, g, gamma, expect", [
        (Erlang(100, 100.0), EXP1, 0.0, 0.6600231520138635),
        (Erlang(100, 100.0), EXP1, 1.0, 1.5555844544679842),
        (Erlang(40, 40.0), Exponential(0.01), 0.0, 99.00374235566663),
        (Erlang(40, 40.0), Exponential(0.01), 1.0, 10098.492776634104),
        (Erlang(60, 6.0), Erlang(50, 5.0), 0.5, 0.32638930939707905),
    ])
    def test_high_shapes_and_slow_rates(self, f, g, gamma, expect):
        assert nu_gamma(f, g, gamma) == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("y", [20.0, 25.0])
    def test_q_y_far_tail_closed_form(self, y):
        # integral over [y, inf) of e^{-t} - e^{-1.1 t}, positive throughout
        expect = math.exp(-y) - math.exp(-1.1 * y) / 1.1
        assert q_y(EXP1, Exponential(1.1), y) == pytest.approx(expect, rel=1e-12,
                                                               abs=0.0)


    @pytest.mark.parametrize("gamma", [0.0, 1.0])
    def test_no_crossing_across_rate_scales(self, gamma):
        # the tails differ only in their Erlang(100) parts, which drop near
        # t = 1 over a width of 0.1 while the shared Exp(1e-4) part sets the
        # rule's scale; they never cross, so nu_gamma is half the gap of the
        # shifted moments (E(1+X)^(gamma+1) - 1)/(gamma+1) of those parts
        f = ClaimDistribution((0.5, 0.5), (100, 1), (100.0, 1e-4))
        g = ClaimDistribution((0.5, 0.5), (100, 1), (110.0, 1e-4))
        moment = lambda r: (100 / r if gamma == 0.0
                            else (2 * 100 / r + 100 * 101 / r**2) / 2)
        assert nu_gamma(f, g, gamma) == pytest.approx(
            0.5 * (moment(100.0) - moment(110.0)), rel=1e-12)

    def test_equal_tails_past_weight_overflow(self):
        # (1+t)^200 overflows float at the far nodes, where the tail
        # difference is exactly 0.0 and so contributes 0.0, not 0 * inf
        assert nu_gamma(ERL, ERL, 200.0) == 0.0

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_shape_past_float_range_raises(self):
        # S_599(z) overflows float past z = 709, so the Erlang(600) tail is
        # not finite at the far nodes
        f = Erlang(600, 600.0)
        for call in (lambda: nu_gamma(f, EXP1, 0.5), lambda: nu_gamma(f, EXP1),
                     lambda: q_y(f, EXP1, 0.5)):
            with pytest.raises(TruncationError):
                call()


class TestCrossings:
    def test_known_crossing(self):
        pts = metrics._crossings(ERL, EXP1, 0.0)
        assert len(pts) == 1
        assert pts[0] == pytest.approx(CROSS_ERL_EXP, abs=1e-9)

    @pytest.mark.parametrize("pair", [(ERL, EXP1), (EXP3, MIX26),
                                      (MIX54, EXP1), (ERL, MIX54)])
    def test_crossings_bracket_sign_changes(self, pair):
        f, g = pair
        pts = metrics._crossings(f, g, 0.0)
        ts = np.linspace(0.0, 12.0, 10_000)
        d = np.asarray(f.tail(ts)) - np.asarray(g.tail(ts))
        flips = np.nonzero(np.sign(d[:-1]) * np.sign(d[1:]) < 0)[0]
        # every sampled flip lies inside a reported bracket
        for i in flips:
            assert any(ts[i] <= p <= ts[i + 1] for p in pts)

    def test_crossing_in_first_scan_cell(self):
        # both tails are 1 at t = 0 and cross at 0.1086, inside the first
        # cell of an even 10 001-point scan out to the slow rate's scale
        f = HyperExponential((0.386, 0.614), (1.6758, 0.0196))
        g = Erlang(2, 3.8183)
        pts = metrics._crossings(f, g, 0.0)
        assert len(pts) == 1
        assert pts[0] == pytest.approx(0.10861100326, abs=1e-9)
        # scipy's quad, split at the crossing
        assert nu_gamma(f, g) == pytest.approx(31.035322637848367, rel=1e-12)

    def test_crossings_under_shared_slow_component(self):
        # half of each law is the same Exp(1e-3) part, so the tail difference
        # is half that of TWICE against EXP1, whose crossings lie within 3.3
        # of the origin while the slow part spreads the laws to 1e4
        f = ClaimDistribution((0.1, 0.4, 0.5), (1, 3, 1), (0.5, 5.0, 1e-3))
        g = ClaimDistribution((0.5, 0.5), (1, 1), (1.0, 1e-3))
        assert metrics._crossings(f, g, 0.0) == pytest.approx([0.4688, 3.2183],
                                                              abs=1e-4)
        assert nu_gamma(f, g) == pytest.approx(0.5 * nu_gamma(TWICE, EXP1),
                                                  rel=1e-12)
        assert nu_gamma(f, g) == pytest.approx(0.12914811571986, rel=1e-12)

    def test_no_crossing_where_both_tails_round_to_one(self):
        # g's tail lies above f's, but near t = 1.5 and 2.2 both are 1 to
        # within 1e-17 and their float difference reaches 4.5 eps; a scan
        # on other nodes reads false crossings near 0.88 and 1.65
        f = Erlang(20, 0.4923)
        g = ClaimDistribution((0.661, 0.339), (28, 24), (0.04082, 0.03836))
        assert metrics._crossings(f, g, 0.0) == ()

    def test_scanned_once_per_pair_and_lower_end(self, monkeypatch):
        # the crossings do not depend on gamma: nu_gamma at gamma = 0 and 1
        # scans once; another lower end scans anew
        scans = []
        de_nodes = metrics._de_nodes

        def counted(points, rate):
            scans.append(rate)
            return de_nodes(points, rate)

        monkeypatch.setattr(metrics, "_de_nodes", counted)
        metrics._crossings.cache_clear()
        metrics._nu_gamma_distributions.cache_clear()
        nu_gamma(MIX54, EXP1, 0.0)
        nu_gamma(MIX54, EXP1, 1.0)
        assert len(scans) == 1
        q_y(MIX54, EXP1, 0.5)
        assert len(scans) == 2

    @pytest.mark.parametrize("pair,count", [((EXP1, Exponential(2.0)), 0),
                                            ((ERL, EXP1), 1), ((EXP1, TWICE), 2)])
    def test_array_bisection_matches_scalar(self, pair, count):
        f, g = pair
        ts = np.linspace(0.0, 40.0, 10_001)
        sign = np.sign(f.tail(ts) - g.tail(ts))
        flips = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
        diff = lambda t: f.tail(t) - g.tail(t)
        expect = [scalar_bisect(diff, ts[i], ts[i + 1]) for i in flips]
        got = metrics._bisect(diff, ts[flips], ts[flips + 1]).tolist()
        assert len(got) == count
        assert got == pytest.approx(expect, abs=1e-12)


def scalar_bisect(f, lo, hi):
    # the one-bracket-at-a-time bisection that the array bisection replaced
    flo = f(lo)
    for _ in range(200):
        if hi - lo <= 1e-12:
            break
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (flo < 0) != (fm < 0):
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def _tail_grid(dist, h=2.0**-9, u_max=30.0):
    n = int(round(u_max / h))
    t = np.arange(n + 1) * h
    return GridFunction(h, dist.tail(t))


class TestGridMetrics:
    def test_grid_matches_distribution_route(self):
        for gamma in (0.0, 1.0):
            direct = nu_gamma(ERL, EXP1, gamma)
            gridded = nu_gamma(_tail_grid(ERL), _tail_grid(EXP1), gamma)
            assert gridded == pytest.approx(direct, abs=5e-6)

    def test_truncates_to_common_grid(self):
        a = GridFunction(0.25, np.exp(-np.arange(41) * 0.25))
        b = GridFunction(0.25, np.exp(-2.0 * np.arange(81) * 0.25))
        v = sup_distance(a, b)
        assert v == pytest.approx(0.25, abs=1e-2)  # max of e^-t - e^-2t

    def test_incompatible_steps(self):
        a = GridFunction(0.25, np.exp(-np.arange(41) * 0.25))
        b = GridFunction(0.5, np.exp(-np.arange(41) * 0.5))
        with pytest.raises(GridMismatchError):
            sup_distance(a, b)


class TestSupDistance:
    def test_identical(self):
        g = _tail_grid(EXP1, u_max=10.0)
        assert sup_distance(g, g) == 0.0

    def test_constants(self):
        a = GridFunction(0.1, np.full(11, 0.7))
        b = GridFunction(0.1, np.full(11, 0.3))
        assert sup_distance(a, b) == pytest.approx(0.4, rel=1e-12)
