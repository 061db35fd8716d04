"""Distribution families: tails, moments, equilibrium transforms, samplers."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate

from ruinbounds import (ClaimDistribution, Erlang, ErlangMixture, Exponential,
                        HyperExponential, TruncationError, partial_exp_sum)

MIX = HyperExponential((0.5, 0.5), (1.25, 5.0 / 6.0))
ALL_PARAMETRIC = [
    Exponential(1.0),
    Exponential(3.0),
    HyperExponential((0.5, 0.5), (2.0, 6.0)),
    MIX,
    Erlang(3, 3.0),
    Erlang(2, 0.7),
    ErlangMixture((0.25, 0.75), (1, 3), 2.0),
]


class TestTail:
    def test_exponential_at_origin(self):
        assert Exponential(1.0).tail(0.0) == 1.0

    def test_mixture_value(self):
        # 1/2 e^{-5/4} + 1/2 e^{-5/6}
        assert MIX.tail(1.0) == pytest.approx(0.3605515027, abs=1e-9)

    def test_erlang_survival(self):
        # e^{-3}(1 + 3 + 4.5)
        assert Erlang(3, 3.0).tail(1.0) == pytest.approx(0.4231900811, abs=1e-9)

    @pytest.mark.parametrize("dist", ALL_PARAMETRIC)
    def test_nonincreasing_and_normalized(self, dist):
        t = np.linspace(0.0, 40.0, 2001)
        tails = dist.tail(t)
        assert tails[0] == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(tails) <= 1e-12)
        assert tails[-1] < 1e-6

    def test_scalar_argument_gives_float(self):
        for t in (0.0, 1, np.float64(2.5), np.array(3.0)):
            assert type(Erlang(3, 3.0).tail(t)) is float
            assert type(MIX.density(t)) is float

    def test_high_shape_past_underflow_is_zero(self):
        # exp(-z) is 0.0 past z = 746 while S_99(z) overflows by z = 5e4;
        # the tail there is 0.0, not 0 * inf = nan
        t = np.array([7.0, 7.46, 100.0, 800.0])
        tails = Erlang(100, 100.0).tail(t)
        assert tails[0] > 0.0 and np.all(tails[1:] == 0.0)
        assert Erlang(100, 100.0).tail(800.0) == 0.0

    @pytest.mark.parametrize("dist", ALL_PARAMETRIC)
    def test_tail_integrates_to_mean(self, dist):
        val, _ = integrate.quad(dist.tail, 0.0, 200.0, limit=500)
        assert val == pytest.approx(dist.mean(), abs=1e-8)


class TestDensity:
    def test_exponential_at_origin(self):
        assert Exponential(1.0).density(0.0) == 1.0

    def test_erlang_two(self):
        beta = 0.7
        t = np.array([0.3, 1.0, 2.5])
        expect = beta**2 * t * np.exp(-beta * t)
        assert Erlang(2, beta).density(t) == pytest.approx(expect, rel=1e-12)

    def test_mixture_at_origin(self):
        d = HyperExponential((0.5, 0.5), (2.0, 6.0))
        assert d.density(0.0) == pytest.approx(4.0, rel=1e-12)

    @pytest.mark.parametrize("dist", ALL_PARAMETRIC)
    def test_density_integrates_to_one(self, dist):
        val, _ = integrate.quad(dist.density, 0.0, 200.0, limit=500)
        assert val == pytest.approx(1.0, abs=1e-7)


class TestMoments:
    def test_known_means(self):
        assert Exponential(3.0).mean() == pytest.approx(1.0 / 3.0, rel=1e-14)
        assert MIX.mean() == pytest.approx(1.0, rel=1e-14)
        assert Erlang(3, 3.0).mean() == pytest.approx(1.0, rel=1e-14)

    def test_mixture_second_moment(self):
        assert MIX.second_moment() == pytest.approx(2.08, rel=1e-12)


class TestWeightedTailMoment:
    def test_gamma_zero_is_mean(self):
        assert Exponential(1.0).weighted_tail_moment(0.0) == pytest.approx(
            1.0, rel=1e-9)
        assert Erlang(3, 3.0).weighted_tail_moment(0.0) == pytest.approx(
            1.0, rel=1e-9)

    def test_high_gamma(self):
        # (E(1+X)^51 - 1)/51 with E(1+X)^51 = 51! sum_{k<=51} 1/k!
        assert Exponential(1.0).weighted_tail_moment(50.0) == pytest.approx(
            8.267407687927726e+64, rel=1e-12)

    def test_gamma_near_float_range(self):
        # the last exp-sinh node is 725.8, where 726.8^106.2 still fits
        assert Exponential(1.0).weighted_tail_moment(106.2) == pytest.approx(
            math.e * math.gamma(107.2), rel=1e-11)

    @pytest.mark.parametrize("shape", [100, 400, 520])
    def test_high_shape_is_mean(self, shape):
        # the tail drops over a width 1/sqrt(shape) of its mean; the rule
        # breaks at the mean instead of stepping over the drop
        assert Erlang(shape, float(shape)).weighted_tail_moment(0.0) == \
            pytest.approx(1.0, rel=1e-12)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_shape_past_float_range_raises(self):
        # S_599(746) overflows float, so the tail far out is 0 * inf = nan
        with pytest.raises(TruncationError):
            Erlang(600, 600.0).weighted_tail_moment(0.0)

    def test_mixture_gamma_one(self):
        # (E X^2 + 2 E X)/2 = (2.08 + 2)/2
        assert MIX.weighted_tail_moment(1.0) == pytest.approx(2.04, rel=1e-9)

    @pytest.mark.parametrize("dist", ALL_PARAMETRIC)
    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0, 2.0])
    def test_shifted_moment_identity(self, dist, gamma):
        # integral of (1+t)^g tail equals (E(X+1)^(g+1) - 1)/(g+1)
        rhs, _ = integrate.quad(
            lambda t: (1.0 + t) ** (gamma + 1.0) * dist.density(t),
            0.0, 200.0, limit=500)
        expect = (rhs - 1.0) / (gamma + 1.0)
        assert dist.weighted_tail_moment(gamma) == pytest.approx(
            expect, rel=1e-7)


class TestEquilibrium:
    def test_exponential_fixed_point(self):
        d = Exponential(1.7)
        assert d.equilibrium() == d

    def test_hyperexp_reweighting(self):
        eq = HyperExponential((0.5, 0.5), (2.0, 6.0)).equilibrium()
        assert eq.weights == pytest.approx((0.75, 0.25), rel=1e-12)
        assert eq.rates == (2.0, 6.0)

    def test_erlang_stage_mixture(self):
        eq = Erlang(2, 0.7).equilibrium()
        assert isinstance(eq, ErlangMixture)
        assert eq.weights == pytest.approx((0.5, 0.5), rel=1e-12)
        assert eq.shapes == (1, 2)

    @pytest.mark.parametrize("dist", ALL_PARAMETRIC)
    def test_tail_identity(self, dist):
        # mu * tail_e(t) = integral of the tail from t to infinity
        eq = dist.equilibrium()
        mu = dist.mean()
        for t in (0.0, 0.4, 1.3, 2.7):
            rest, _ = integrate.quad(dist.tail, t, 150.0, limit=500)
            assert mu * eq.tail(t) == pytest.approx(rest, abs=1e-6)

    @pytest.mark.parametrize("dist", ALL_PARAMETRIC)
    def test_equilibrium_mean(self, dist):
        # standard identity: E Y = E X^2 / (2 mu)
        eq = dist.equilibrium()
        expect = dist.second_moment() / (2.0 * dist.mean())
        assert eq.mean() == pytest.approx(expect, rel=1e-9)


class TestPartialExpSum:
    def test_convention_minus_one(self):
        assert partial_exp_sum(-1, 7.3) == 0.0

    def test_small_case(self):
        assert partial_exp_sum(2, 2.0) == pytest.approx(5.0, rel=1e-15)

    def test_recurrence_exact_rational(self):
        z = Fraction(3, 7)
        for m in range(0, 21):
            lhs = partial_exp_sum(m, z)
            rhs = partial_exp_sum(m - 1, z) + z**m / math.factorial(m)
            assert lhs == rhs

    def test_erlang_survival_identity(self):
        # Erlang(2n, beta) survival at u is e^{-beta u} S_{2n-1}(beta u)
        beta, u = 3.0, 1.7
        for n in range(1, 6):
            expect = Erlang(2 * n, beta).tail(u)
            got = np.exp(-beta * u) * partial_exp_sum(2 * n - 1, beta * u)
            assert got == pytest.approx(expect, rel=1e-12)

    def test_large_argument_stable(self):
        # against the regularized incomplete-gamma identity
        from scipy.special import gammaincc
        for z in (50.0, 200.0, 1000.0):
            for m in (5, 40):
                with np.errstate(over="ignore", invalid="ignore"):
                    expect = gammaincc(m + 1, z) * np.exp(z)
                if np.isfinite(expect) and expect > 0:
                    assert partial_exp_sum(m, z) == pytest.approx(
                        expect, rel=1e-10)


class TestConstruction:
    def test_hyperexp_merges_equal_rates(self):
        d = HyperExponential((0.3, 0.3, 0.4), (2.0, 2.0, 5.0))
        assert d.rates == (2.0, 5.0)
        assert d.weights == pytest.approx((0.6, 0.4), rel=1e-12)

    def test_hyperexp_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            HyperExponential((0.5, 0.6), (1.0, 2.0))

    def test_erlang_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            Erlang(0, 1.0)

    def test_from_components(self):
        # the core class is a law in its own right; a family is the same
        # components under another class, so the two compare unequal
        law = ClaimDistribution((0.5, 0.5), (1, 3), (2.0, 2.0))
        mix = ErlangMixture((0.5, 0.5), (1, 3), 2.0)
        assert law.tail(1.3) == mix.tail(1.3)
        assert law.mean() == pytest.approx(1.0, rel=1e-14)
        assert type(law.equilibrium()) is ClaimDistribution
        assert law != mix and law == ClaimDistribution((0.5, 0.5), (1, 3), (2.0, 2.0))
        assert isinstance(mix, ClaimDistribution)

    def test_rejects_negative_argument(self):
        with pytest.raises(ValueError):
            Exponential(1.0).tail(-0.5)
        with pytest.raises(ValueError):
            Exponential(1.0).density(np.array([0.0, -0.5]))


class TestSampling:
    @pytest.mark.parametrize("dist", ALL_PARAMETRIC)
    def test_sample_mean_matches(self, dist):
        rng = np.random.Generator(np.random.PCG64(12345))
        x = dist.sample(rng, 200_000)
        se = np.sqrt(dist.second_moment()) / np.sqrt(len(x))
        assert abs(x.mean() - dist.mean()) < 5 * se

    def test_streams_fixed(self):
        # each family draws what its defining numpy calls draw, bit for bit
        def rng():
            return np.random.Generator(np.random.PCG64(2024))

        def by_component(law, draw):
            g = rng()
            idx = np.searchsorted(np.cumsum(law.weights), g.random(1000),
                                  side="right").clip(0, len(law.weights) - 1)
            return draw(g, idx)

        exp, erl = Exponential(1.7), Erlang(3, 2.5)
        hyp = HyperExponential((0.3, 0.7), (0.8, 3.0))
        mix = ErlangMixture((0.2, 0.5, 0.3), (1, 2, 3), 2.5)
        expect = {
            exp: rng().exponential(1.0 / 1.7, 1000),
            erl: rng().gamma(3, 1.0 / 2.5, 1000),
            hyp: by_component(hyp, lambda g, i: g.exponential(1.0, 1000)
                              / np.asarray(hyp.rates)[i]),
            mix: by_component(mix, lambda g, i: g.gamma(
                np.asarray(mix.shapes, dtype=float)[i]) / 2.5),
        }
        for law, draws in expect.items():
            assert np.array_equal(law.sample(rng(), 1000), draws)

    def test_sample_tail_matches(self):
        rng = np.random.Generator(np.random.PCG64(99))
        d = Erlang(3, 3.0)
        x = d.sample(rng, 200_000)
        p = np.mean(x > 1.0)
        assert p == pytest.approx(d.tail(1.0), abs=0.005)
