"""Distribution families: tails, moments, equilibrium transforms, samplers."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from helpers import reference_sample, reference_tail
from ruinbounds import (ClaimDistribution, Erlang, ErlangMixture, Exponential,
                        HyperExponential, PreconditionError, TruncationError,
                        partial_exp_sum)

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


@st.composite
def _mixed_laws(draw):
    """A law with an exponential and an Erlang component, and up to two
    more components of shapes 1-30."""
    shapes = [1, draw(st.integers(2, 30))]
    shapes += draw(st.lists(st.integers(1, 30), max_size=2))
    raw = [draw(st.floats(0.05, 1.0)) for _ in shapes]
    rates = [draw(st.floats(0.1, 20.0)) for _ in shapes]
    return ClaimDistribution([w / math.fsum(raw) for w in raw], shapes, rates)


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

    # the k components Erlang(1..k, r) of Erlang(k, r).equilibrium() share
    # one running partial sum; past shape 520 it overflows where e^{-z} is
    # 0.0, and the NaN there must be the former one too
    @example(law=Erlang(30, 6.0).equilibrium(), t=[0.5, 4.9, 20.0])
    @example(law=Erlang(150, 15.0).equilibrium(), t=[1.0, 9.5, 10.0, 40.0])
    @example(law=Erlang(600, 1.0).equilibrium(), t=[1.0, 300.0, 599.5, 640.0])
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    @settings(max_examples=100, deadline=None)
    @given(law=_mixed_laws(), t=st.lists(st.floats(0.0, 1e4), max_size=20))
    def test_exponential_components_skip_the_partial_sum(self, law, t):
        # S_0 is exactly 1.0, so w e^{-z} is the former w e^{-z} S_0(z) bit
        # for bit; the grid holds 0, points where r t passes 746, and inf.
        # assert_array_equal requires equal bits, a NaN only against a NaN
        far = [747.0 / r for r in law.rates] + [1e4 / min(law.rates)]
        grid = np.array([0.0, *t, *far, math.inf])
        np.testing.assert_array_equal(law.tail(grid), reference_tail(law, grid))
        for x in (0.0, t[0] if t else 1.0, far[0], math.inf):
            got = law.tail(np.array(x))        # a 0-d input gives a float
            assert type(got) is float
            np.testing.assert_array_equal(got, reference_tail(law, x))

    def test_one_exponential_per_rate(self, monkeypatch):
        # components at one rate share z and e^{-z}: 30 components at one
        # rate, and four at two rates
        laws = [Erlang(30, 6.0).equilibrium(),
                ClaimDistribution((0.1, 0.2, 0.3, 0.4), (1, 3, 1, 2),
                                  (2.0, 2.0, 5.0, 5.0))]
        exp, calls = np.exp, []

        def spy(*args, **kwargs):
            calls.append(args[0])
            return exp(*args, **kwargs)

        monkeypatch.setattr(np, "exp", spy)
        grid = np.linspace(0.0, 10.0, 65)
        for law in laws:
            calls.clear()
            law.tail(grid)
            # once per distinct rate, at -r t
            rates = sorted(set(law.rates))
            assert len(calls) == len(rates)
            assert all(np.array_equal(z, -r * grid) for z, r in zip(calls, rates))

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

    def test_log_mgf_near_the_slowest_rate(self):
        # (b/(b - r))^40 = 1e360 overflows float; its log is 40 log 1e9
        law = Erlang(40, 40.0)
        got = law.log_mgf(40.0 * (1.0 - 1e-9))
        assert math.isfinite(got)
        assert got == pytest.approx(40.0 * math.log(1e9), rel=1e-8)
        with pytest.raises(PreconditionError):
            law.log_mgf(40.0)


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

    def test_weight_past_float_range(self):
        # (1+t)^150 overflows past t = 112, where e^{-2t} is not yet 0.0;
        # those terms are formed in log space.  The moment is
        # 150! S_150(2) / 2^151 = 1.479e218, exact in rationals; the rule,
        # whose step is about the width of the integrand's peak here, gets
        # it to about 4e-9
        exact = float(math.factorial(150) * partial_exp_sum(150, Fraction(2))
                      / 2**151)
        assert exact == pytest.approx(1.4789484e218, rel=1e-7)
        assert Exponential(2.0).weighted_tail_moment(150) == pytest.approx(
            exact, rel=1e-8)

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
        assert type(eq) is ClaimDistribution
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

    def test_rejects_nan_weight(self):
        with pytest.raises(ValueError, match="sum to 1"):
            ClaimDistribution((math.nan,), (1,), (1.0,))

    @pytest.mark.parametrize("rate", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_rate(self, rate):
        with pytest.raises(ValueError, match="rates must be positive"):
            ClaimDistribution((1.0,), (1,), (rate,))

    def test_erlang_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            Erlang(0, 1.0)

    def test_from_components(self):
        # the core class is a law in its own right; a family builds the same
        # components, so the two are one law and compare equal
        law = ClaimDistribution((0.5, 0.5), (1, 3), (2.0, 2.0))
        mix = ErlangMixture((0.5, 0.5), (1, 3), 2.0)
        assert law.tail(1.3) == mix.tail(1.3)
        assert law.mean() == pytest.approx(1.0, rel=1e-14)
        assert type(law.equilibrium()) is ClaimDistribution
        assert law == mix and hash(law) == hash(mix)
        assert type(mix) is ClaimDistribution

    @pytest.mark.parametrize("law,canonical", [
        (Erlang(1, 2.0), ClaimDistribution((1.0,), (1,), (2.0,))),
        (Exponential(2.0), ClaimDistribution((1.0,), (1,), (2.0,))),
        (HyperExponential((0.5, 0.5), (2.0, 2.0)),
         ClaimDistribution((1.0,), (1,), (2.0,))),
        (ClaimDistribution((0.5, 0.5), (1, 1), (2.0, 1.0)),
         ClaimDistribution((0.5, 0.5), (1, 1), (1.0, 2.0))),
    ])
    def test_equal_laws_compare_equal(self, law, canonical):
        assert law == canonical and hash(law) == hash(canonical)
        assert (law.weights, law.shapes, law.rates) == (
            canonical.weights, canonical.shapes, canonical.rates)

    @pytest.mark.parametrize("shapes, rates", [
        ((1, 1, 1), (1.0, 1.0, 1.0)),
        ((1, 2, 3), (1.0, 2.0, 3.0)),
    ])
    def test_weight_order_is_immaterial(self, shapes, rates):
        # 0.7 + 0.2 + 0.1 adds up to 1.0000000000000002 in this order, but
        # its exact sum rounds to 1.0, in every order
        law = ClaimDistribution((0.7, 0.2, 0.1), shapes, rates)
        back = ClaimDistribution((0.1, 0.2, 0.7), shapes[::-1], rates[::-1])
        assert law == back and hash(law) == hash(back)
        assert math.fsum(law.weights) == 1.0

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.floats(0.01, 1.0), st.integers(1, 3),
                              st.sampled_from([0.5, 1.0, 3.0])),
                    min_size=2, max_size=6), st.data())
    def test_component_order_is_immaterial(self, parts, data):
        # weights normalised by their float sum, so they need not add to 1
        # exactly; components of one (shape, rate) merge in any order
        w = np.array([p[0] for p in parts])
        w /= w.sum()
        order = data.draw(st.permutations(range(len(parts))))
        law = ClaimDistribution(w, *zip(*(p[1:] for p in parts)))
        other = ClaimDistribution(w[order], *zip(*(parts[i][1:] for i in order)))
        assert law == other and hash(law) == hash(other)

    def test_drops_components_of_weight_zero(self):
        law = HyperExponential((0.0, 1.0), (0.5, 2.0))
        assert law == Exponential(2.0)
        assert law.slowest_rate == 2.0

    def test_rejects_negative_argument(self):
        with pytest.raises(ValueError):
            Exponential(1.0).tail(-0.5)
        with pytest.raises(ValueError):
            Exponential(1.0).density(np.array([0.0, -0.5]))


def _pcg(seed):
    return np.random.Generator(np.random.PCG64(seed))


class _StubUniforms:
    """A generator whose ``random`` returns fixed uniforms; its gamma draws
    come from a PCG64 generator."""

    def __init__(self, uniforms, seed):
        self.uniforms = np.asarray(uniforms, dtype=float)
        self.rng = _pcg(seed)

    def random(self, size):
        assert size == len(self.uniforms)
        return self.uniforms.copy()

    def __getattr__(self, name):        # gamma, standard_gamma, ...
        return getattr(self.rng, name)


@st.composite
def _sampled_laws(draw):
    """A law of 1-4 Erlang components with shapes 1-30, and a sample size."""
    n = draw(st.integers(1, 4))
    shape = st.integers(1, 30)
    shapes = ([draw(shape)] * n if draw(st.booleans())
              else draw(st.lists(shape, min_size=n, max_size=n)))
    rate = st.floats(0.1, 10.0)
    rates = ([draw(rate)] * n if draw(st.booleans())
             else draw(st.lists(rate, min_size=n, max_size=n)))
    # normalised by their float sum, which need not then add to 1 exactly
    raw = draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n))
    weights = [w / math.fsum(raw) for w in raw]
    size = draw(st.one_of(st.sampled_from([0, 1, 2, 7, 2**16 - 1, 2**16 + 3]),
                          st.integers(0, 5000)))
    return ClaimDistribution(weights, shapes, rates), size


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

    @settings(max_examples=150, deadline=None)
    @given(case=_sampled_laws(), seed=st.integers(0, 2**32 - 1))
    def test_same_stream_as_reference(self, case, seed):
        # the draws, and where they leave the generator, are the former
        # searchsorted-and-gamma sampler's
        law, size = case
        new, ref = _pcg(seed), _pcg(seed)
        assert np.array_equal(law.sample(new, size), reference_sample(law, ref, size))
        assert new.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("law", [
        HyperExponential((0.3, 0.7), (0.8, 3.0)),
        ClaimDistribution((0.1, 0.2, 0.3, 0.4), (1, 4, 2, 30), (0.5, 1.5, 2.5, 3.5)),
        ClaimDistribution((0.7, 0.2, 0.1), (2, 2, 2), (1.0, 2.0, 3.0)),
        ErlangMixture((1 / 3, 1 / 3, 1 / 3), (1, 2, 3), 3.0),
    ])
    def test_uniform_on_a_cumulative_weight(self, law):
        # uniforms exactly on each cumulative weight and on its neighbours
        # pick the component searchsorted(side="right") picks
        edges = np.cumsum(law.weights)
        u = np.concatenate([[0.0, np.nextafter(1.0, 0.0)], edges,
                            np.nextafter(edges, 0.0), np.nextafter(edges, 2.0)])
        new, ref = _StubUniforms(u, 5), _StubUniforms(u, 5)
        assert np.array_equal(law.sample(new, len(u)), reference_sample(law, ref, len(u)))
        assert new.rng.bit_generator.state == ref.rng.bit_generator.state

    def test_sample_tail_matches(self):
        rng = np.random.Generator(np.random.PCG64(99))
        d = Erlang(3, 3.0)
        x = d.sample(rng, 200_000)
        p = np.mean(x > 1.0)
        assert p == pytest.approx(d.tail(1.0), abs=0.005)
