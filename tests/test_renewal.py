"""Volterra solver and contraction iteration: agreement with the forward
recursion and with exact phase-type values, convergence order, error
certificates, contraction behaviour."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.fft import rfft

from helpers import (chain, psi_exact, reference_product, reference_residual,
                     reference_solve, reference_trapezoid_convolution,
                     sup_defect)
from ruinbounds import (ClaimDistribution, Erlang, Exponential, GridFunction,
                        HyperExponential, PerturbedModel, PreconditionError,
                        RenewalProblem, RiskModel, iterate, k_iterates,
                        renewal, ruin_probability, solve)
from ruinbounds.classical import _problem
from ruinbounds.renewal import (_convolution, _cross, _fast_len, _halves,
                                _integer_bound, _newton, _product, _reciprocal,
                                _residual, _spectra, _system, nodes)

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

EPS = np.finfo(float).eps


def forward_recursion(problem):
    """The O(n^2) forward trapezoid recursion ``solve`` replaced; the
    reference for its numbers."""
    z, k = problem.forcing, problem.kernel
    phi, h = problem.phi, problem.h
    n = len(z)
    x = np.empty(n)
    x[0] = z[0]
    # contiguous reversed kernel keeps the inner dot on the BLAS fast path
    krev = k[::-1].copy()
    denom = 1.0 - 0.5 * phi * h * k[0]
    for i in range(1, n):
        s = 0.5 * k[i] * x[0]
        if i > 1:
            s += np.dot(x[1:i], krev[n - i:n - 1])
        x[i] = (z[i] + phi * h * s) / denom
    return x


def long_double_substitution(problem):
    """The float64 Toeplitz system ``solve`` inverts, C y = r, solved by
    forward substitution in long double: its exact solution to about 1e-19
    where long double is 80-bit."""
    c, x = _system(problem)
    c = c.astype(np.longdouble)
    r = x[1:].astype(np.longdouble)
    crev = c[::-1].copy()
    m = len(c)
    y = np.empty(m, dtype=np.longdouble)
    for i in range(m):
        y[i] = (r[i] - np.dot(y[:i], crev[m - 1 - i:m - 1])) / c[0]
    return np.concatenate((x[:1].astype(np.longdouble), y))


MIX = HyperExponential((0.5, 0.5), (1.25, 5.0 / 6.0))
# phi 1/2, the table-1 mixture at phi 5/18, Erlang(3, 3) at phi 1/2, and
# the K-bar ladder kernel of the table-4 model at phi 3/4
KERNELS = {
    "exponential": lambda h, u: _problem(RiskModel(0.5, 0.5, Exponential(2.0)), h, u),
    "hyperexponential": lambda h, u: _problem(RiskModel(5.0 / 6.0, 3.0, MIX), h, u),
    "erlang": lambda h, u: _problem(RiskModel(0.5, 1.0, Erlang(3, 3.0)), h, u),
    "ladder": lambda h, u: _problem(
        PerturbedModel(RiskModel(0.75, 2.0 / 3.0, Exponential(1.5)), 4.0 / 9.0), h, u),
}


def sampled(phi, forcing, kernel, h, u_max):
    """The problem with forcing and kernel sampled on the nodes 0, h, ...,
    u_max."""
    t = nodes(h, u_max)
    return RenewalProblem(phi=phi, forcing=forcing(t), kernel=kernel(t), h=h)


def exp_psi_problem(h=2.0**-10, u_max=12.0):
    # Exp(2) claims, lam = c = 1/2: modulus 1/2, equilibrium kernel 2e^{-2t},
    # exact solution x(u) = e^{-u}/2
    return sampled(0.5, lambda t: 0.5 * np.exp(-2.0 * t),
                   lambda t: 2.0 * np.exp(-2.0 * t), h, u_max)


def k_problem_table4(h=2.0**-10, u_max=6.0):
    # matched-rate ladder law Erlang(2, 2); modulus 1/2
    return sampled(0.5, lambda t: 0.5 * np.exp(-2.0 * t) * (1.0 + 2.0 * t),
                   lambda t: 4.0 * t * np.exp(-2.0 * t), h, u_max)


class TestAgreement:
    @pytest.mark.parametrize("name,n", [(name, 4097) for name in KERNELS]
                             + [("hyperexponential", 40961)])
    def test_matches_forward_recursion(self, name, n):
        # the recursion rounds at every node and sums in another order; its
        # own error reaches a few units in the last place of max|x|
        p = KERNELS[name](2.0**-10, (n - 1) * 2.0**-10)
        x = solve(p).values
        assert len(x) == n
        ref = forward_recursion(p)
        assert np.max(np.abs(x - ref)) <= 4.0 * EPS * np.max(np.abs(ref))

    @pytest.mark.parametrize("name", KERNELS)
    @pytest.mark.parametrize("h,u_max", [(2.0**-10, 4.0), (2.0**-7, 32.0)])
    def test_within_rounding_of_exact_system(self, name, h, u_max):
        # FFT products alone are off by several units in the last place; the
        # refinement step leaves only the rounding of each node
        p = KERNELS[name](h, u_max)
        ref = long_double_substitution(p)
        err = np.abs(solve(p).values - ref).astype(float)
        assert np.max(err) <= EPS * float(np.max(np.abs(ref)))

    @pytest.mark.parametrize("u_max", [0.7, 1.0, 1.5])      # n = 2, 3, 4
    @pytest.mark.parametrize("phi", [0.0, 0.5, 0.99])
    def test_short_grids(self, u_max, phi):
        p = sampled(phi, lambda t: np.exp(-t),
                    lambda t: 2.0 * np.exp(-2.0 * t), 0.5, u_max)
        x = solve(p).values
        assert len(x) == int(round(u_max / 0.5)) + 1
        ref = long_double_substitution(p)
        assert np.max(np.abs(x - ref)) <= EPS * float(np.max(np.abs(ref)))
        if phi == 0.0:
            assert np.array_equal(x, np.exp(-p.grid))


class TestResidual:
    # a mixture, a near-critical Erlang, and the ladder kernel, whose
    # kappa(0) = 0
    CASES = {
        "hyperexponential": KERNELS["hyperexponential"],
        "erlang_phi_099": lambda h, u: _problem(
            RiskModel(0.99, 1.0, Erlang(3, 3.0)), h, u),
        "ladder": KERNELS["ladder"],
    }

    @pytest.mark.parametrize("name", CASES)
    @pytest.mark.parametrize("m", [1, 2, 3, 256])
    def test_within_2_64_of_exact_residual(self, name, m):
        # C y - r in rationals, for the y that ``solve`` refines; the
        # long-double product misses this bound at m = 256
        h = 2.0**-7
        c, x = _system(self.CASES[name](h, (m + 0.4) * h))
        assert len(c) == m
        r = x[1:]
        inverse = _reciprocal(c.tobytes())
        y = _product(inverse.b, r)
        d = _residual(inverse.split, y, r)
        cf, yf = [Fraction(v) for v in c], [Fraction(v) for v in y]
        bound = sum(abs(v) for v in cf) * max(abs(v) for v in yf) / 2**64
        for i in range(m):
            exact = sum(cf[p] * yf[i - p] for p in range(i + 1)) - Fraction(r[i])
            assert abs(Fraction(d[i]) - exact) <= bound

    @pytest.mark.parametrize("m", [2048, 15360, 40960, 163840])
    def test_integer_product_exact_at_bound(self, m):
        # constant vectors at the largest entry a with ||a 1||_2^2 within
        # the bound; ``_residual`` multiplies its integer parts this way
        a = float(math.isqrt(int(_integer_bound(_fast_len(m)) / m)))
        v = np.full(m, a)
        prod = _product(_halves(v, _fast_len(m)), v)
        exact = (np.arange(m) + 1.0) * a * a
        assert np.max(np.abs(prod - exact)) <= 1.0 / 16.0
        assert np.array_equal(np.rint(prod), exact)

    def test_integer_product_exact_random_signs(self):
        m = 4096
        a = math.isqrt(int(_integer_bound(_fast_len(m)) / m))
        u, v = np.random.default_rng(m).integers(-a, a + 1, size=(2, m))
        exact = np.convolve(u, v)[:m]
        prod = np.rint(_product(_halves(u.astype(float), _fast_len(m)),
                                v.astype(float)))
        assert np.array_equal(prod.astype(np.int64), exact)

    @pytest.mark.parametrize("name", KERNELS)
    @pytest.mark.parametrize("k", [-900, -60, 60, 900])
    def test_solve_homogeneous_under_power_of_two_scaling(self, name, k):
        p = KERNELS[name](2.0**-10, 8.0)
        scaled = RenewalProblem(p.phi, np.ldexp(p.forcing, k), p.kernel, p.h)
        assert np.array_equal(solve(scaled).values,
                              np.ldexp(solve(p).values, k))

    def test_nan_forcing_is_rejected(self):
        p = KERNELS["exponential"](2.0**-6, 4.0)
        z = p.forcing.copy()
        z[10] = np.nan
        bad = RenewalProblem(p.phi, z, p.kernel, p.h)
        with pytest.raises(ValueError, match="grid values must be finite"):
            solve(bad)

    def test_zero_forcing_returns_zeros(self):
        p = sampled(0.5, lambda t: 0.0 * t, lambda t: 2.0 * np.exp(-2.0 * t),
                    2.0**-10, 4.0)
        x = solve(p).values
        assert np.array_equal(x, np.zeros_like(x))


RATES = st.floats(0.3, 8.0)
MIXTURES = st.lists(st.tuples(st.floats(0.05, 1.0), st.integers(1, 4), RATES),
                    min_size=1, max_size=3)
# the trapezoid rule's local error is O((r h)^2), r the fastest claim rate,
# and the contraction amplifies it by at most 1/(1 - phi); over 300 seeded
# models the largest error / ((r h)^2 / (1 - phi)) was 0.017
PSI_C = 0.1


@settings(max_examples=40, deadline=None)
@given(MIXTURES, st.floats(0.01, 0.99), st.integers(6, 14))
@example([(1.0, 1, 7.23)], 0.99, 12)
@example([(0.5, 3, 7.33), (0.3, 1, 2.0), (0.2, 4, 5.0)], 0.99, 14)
def test_psi_within_c_h2_of_phase_type(components, phi, log2_step):
    w = np.array([c[0] for c in components])
    law = ClaimDistribution(w / w.sum(), [c[1] for c in components],
                       [c[2] for c in components])
    model = RiskModel(phi / law.mean(), 1.0, law)
    h = 2.0**-log2_step
    g = ruin_probability(model, h=h, u_max=4.0)
    us = g.grid[::len(g.grid) // 64]
    bound = PSI_C * (max(law.rates) * h)**2 / (1.0 - model.phi)
    assert np.max(np.abs(g(us) - psi_exact(model, us))) <= bound


class TestSolve:
    def test_zero_modulus_returns_forcing(self):
        p = sampled(0.0, np.cos, lambda t: np.exp(-t), 2.0**-6, 4.0)
        x = solve(p)
        assert x.values == pytest.approx(np.cos(p.grid), abs=1e-14)

    def test_exponential_closed_form(self):
        p = exp_psi_problem()
        x = solve(p)
        exact = 0.5 * np.exp(-p.grid)
        assert np.max(np.abs(x.values - exact)) <= 1e-6

    def test_second_order_convergence(self):
        errs = []
        for h in (2.0**-8, 2.0**-9, 2.0**-10):
            p = exp_psi_problem(h=h)
            x = solve(p)
            errs.append(np.max(np.abs(x.values - 0.5 * np.exp(-p.grid))))
        r1, r2 = errs[0] / errs[1], errs[1] / errs[2]
        assert 3.5 <= r1 <= 4.5
        assert 3.5 <= r2 <= 4.5

    def test_residual_scales_with_h_squared(self):
        for h, cap in ((2.0**-9, 4.0 * 2.0**-18), (2.0**-10, 4.0 * 2.0**-20)):
            p = exp_psi_problem(h=h)
            assert sup_defect(p, solve(p)) <= cap

    def test_rejects_supercritical_modulus(self):
        with pytest.raises(PreconditionError):
            sampled(1.0, lambda t: t, lambda t: t, 0.1, 1.0)

    @pytest.mark.parametrize("h", [-0.1, 0.0, math.nan])
    def test_rejects_bad_step(self, h):
        t = nodes(0.1, 1.0)
        with pytest.raises(PreconditionError):
            RenewalProblem(phi=0.5, forcing=t, kernel=t, h=h)

    @pytest.mark.parametrize("h", [0.5, 0.25])
    def test_rejects_step_without_positive_diagonal(self, h):
        # the implicit diagonal 1 - phi h kappa(0)/2 is not positive; the
        # message names the largest admissible step
        p = sampled(0.99, lambda t: 0.99 * np.exp(-t),
                    lambda t: 10.0 * np.exp(-10.0 * t), h, 5.0)
        with pytest.raises(PreconditionError,
                           match=r"h < 2/\(phi kappa\(0\)\) = 0\.20202"):
            solve(p)

    def test_rejects_nondefective_discrete_equation(self):
        # psi for Exp(10) claims at phi = 0.99: at h = 0.05 the diagonal
        # 1 - phi h kappa(0)/2 is positive but the margin c(1) is not; at
        # h = 0.02 it is, and the solution stays a probability
        def problem(h):
            return sampled(0.99, lambda t: 0.99 * np.exp(-10.0 * t),
                           lambda t: 10.0 * np.exp(-10.0 * t), h, 5.0)
        with pytest.raises(PreconditionError, match=r"margin c\(1\) = -0\.0105"):
            solve(problem(0.05))
        x = solve(problem(0.02)).values
        assert np.all((0.0 <= x) & (x <= 1.0))

    # m unknowns: the shortest systems, a short one, and the 40 960 of a
    # table-1 solve
    @pytest.mark.parametrize("m", [1, 2, 3, 256, 40960])
    @pytest.mark.parametrize("name", list(KERNELS))
    def test_spectra_of_b_formed_once_change_no_bit(self, name, m):
        # solve reads b's two half spectra from the one-entry cache, the low
        # one from Newton's last step; the former route, which transformed
        # the uncached b in each of its two products, is the reference
        h = 2.0**-10
        p = KERNELS[name](h, m * h)
        assert len(p.forcing) == m + 1
        want = reference_solve(p)
        _reciprocal.cache_clear()
        assert np.array_equal(solve(p).values, want)
        assert np.array_equal(solve(p).values, want)
        info = _reciprocal.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        c, x = _system(p)
        b = _newton(c)[0]
        half, size = (m + 1) // 2, _fast_len(m)
        inverse = _reciprocal(c.tobytes())
        lo, hi = inverse.b
        assert lo.tobytes() == rfft(b[:half], size).tobytes()
        assert hi.tobytes() == rfft(b[half:], size).tobytes()
        # only read: an in-place write would raise
        assert not (lo.flags.writeable or hi.flags.writeable)
        r = x[1:]
        y = _product((lo, hi), r)
        assert np.array_equal(y, reference_product(b, r))
        e = _residual(inverse.split, y, r)
        assert np.array_equal(e, reference_residual(c, y, r))
        assert np.array_equal(_product((lo, hi), e), reference_product(b, e))


class TestCross:
    """``_cross`` is the one product of half-spectrum pairs; a caller may
    give it spent spectra for the cross term."""

    @staticmethod
    def spectra(seed, n=513):
        rng = np.random.default_rng(seed)
        parts = rng.standard_normal((4, 2, n))
        return [part[0] + 1j * part[1] for part in parts]

    # first out x_lo or a_hi, second a_lo or x_hi: ``_product`` and the
    # residual pass (x_lo, x_hi), ``_convolution`` (a_hi, a_lo)
    @pytest.mark.parametrize("first", ["x_lo", "a_hi"])
    @pytest.mark.parametrize("second", ["a_lo", "x_hi"])
    @pytest.mark.parametrize("seed", range(4))
    def test_out_is_bit_equal_to_fresh_arrays(self, seed, first, second):
        a_lo, a_hi, x_lo, x_hi = self.spectra(seed)
        want_lo, want_cross = _cross((a_lo, a_hi), (x_lo, x_hi))
        named = dict(a_lo=a_lo.copy(), a_hi=a_hi.copy(), x_lo=x_lo.copy(),
                     x_hi=x_hi.copy())
        lo, cross = _cross((named["a_lo"], named["a_hi"]),
                           (named["x_lo"], named["x_hi"]),
                           out=(named[first], named[second]))
        assert cross is named[first]
        assert lo.tobytes() == want_lo.tobytes()
        assert cross.tobytes() == want_cross.tobytes()


def _peak_bytes(call):
    """Bytes allocated at the peak of call() above what was allocated when
    it began, as tracemalloc sees them; numpy reports its array data to it."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


class TestMemory:
    """Peak memory of a solve on a kept kernel of 40 961 nodes, the grid
    of table 1, in bytes per node: one spectrum or one grid array is about
    8.  Peak memory binds before time does."""

    def test_residual_and_solve_ceilings(self):
        h = 2.0**-10
        p = KERNELS["hyperexponential"](h, 40960 * h)
        n = len(p.forcing)
        assert n == 40961
        solve(p)                                    # keeps the kernel
        c, x = _system(p)
        inverse = _reciprocal(c.tobytes())
        del c
        r = x[1:]
        y = _product(inverse.b, r)
        hits = _reciprocal.cache_info().hits
        assert _peak_bytes(lambda: _residual(inverse.split, y, r)) <= 80 * n
        assert _peak_bytes(lambda: solve(p)) <= 96 * n
        assert _reciprocal.cache_info().hits == hits + 1


class _FFTCount:
    """Counts the real FFTs of ``renewal`` and records every array whose
    two half spectra ``_halves`` forms and every array ``_split`` splits."""

    def __init__(self, monkeypatch):
        self.rfft = self.irfft = 0
        self.halved, self.split = [], []
        real = {name: getattr(renewal, name)
                for name in ("rfft", "irfft", "_halves", "_split")}

        def rfft(*args, **kwargs):
            self.rfft += 1
            return real["rfft"](*args, **kwargs)

        def irfft(*args, **kwargs):
            self.irfft += 1
            return real["irfft"](*args, **kwargs)

        def halves(v, size):
            self.halved.append(np.array(v))
            return real["_halves"](v, size)

        def split(v):
            self.split.append(np.array(v))
            return real["_split"](v)

        monkeypatch.setattr(renewal, "rfft", rfft)
        monkeypatch.setattr(renewal, "irfft", irfft)
        monkeypatch.setattr(renewal, "_halves", halves)
        monkeypatch.setattr(renewal, "_split", split)


class TestKeptKernel:
    """The one-entry cache keeps, beside b's half spectra, the kernel side of
    the residual's error-free split; a solve on the kept kernel transforms
    only r, y and the residual."""

    @pytest.mark.parametrize("m", [1, 2, 256, 40960])
    @pytest.mark.parametrize("name", list(KERNELS))
    def test_hit_is_bit_equal_and_transforms_no_kernel_side_array(
            self, monkeypatch, name, m):
        h = 2.0**-10
        p = KERNELS[name](h, m * h)
        want = reference_solve(p)
        _reciprocal.cache_clear()
        assert np.array_equal(solve(p).values, want)       # the miss
        c = _system(p)[0]
        s, C_halves, low_halves = _reciprocal(c.tobytes()).split
        count = _FFTCount(monkeypatch)
        assert np.array_equal(solve(p).values, want)       # the hit
        assert _reciprocal.cache_info().hits == 2
        # two products and the residual transform r, the residual, and the
        # integer and low parts of y, each in two halves: 8 forward and 8
        # inverse FFTs, where a miss makes 20 besides Newton's; only y is
        # split, never c
        assert (count.rfft, count.irfft) == (8, 8)
        assert len(count.halved) == 4 and len(count.split) == 1
        assert not np.array_equal(count.split[0], c)
        # the kept split is the former residual's, and only read
        C = np.rint(np.ldexp(c, s))
        half, size = (m + 1) // 2, _fast_len(m)
        for v, kept in ((C, C_halves), (c - np.ldexp(C, -s), low_halves)):
            assert kept[0].tobytes() == rfft(v[:half], size).tobytes()
            assert kept[1].tobytes() == rfft(v[half:], size).tobytes()
            assert not any(spectrum.flags.writeable for spectrum in kept)
        with pytest.raises(ValueError):
            C_halves[0][0] = 0.0


class TestProblem:
    """A problem is checked once, when it is built."""

    def test_rejects_non_density_kernel(self):
        with pytest.raises(PreconditionError, match="kernel mass"):
            sampled(0.5, lambda t: np.exp(-t), lambda t: 5.0 * np.exp(-t),
                    2.0**-6, 6.0)

    def test_rejects_three_times_a_density_at_a_coarse_step(self):
        # mass 3.06 at h = 0.5, inside the old allowance 1 + 10 h^2
        with pytest.raises(PreconditionError, match="kernel mass 3.06"):
            sampled(0.5, lambda t: np.exp(-t), lambda t: 3.0 * np.exp(-t),
                    0.5, 20.0)

    @pytest.mark.parametrize("h", [2.0**-8, 2.0**-10, 2.0**-12])
    @pytest.mark.parametrize("rate", [11.0, 12.0, 20.0, 50.0])
    def test_accepts_fast_exponential_densities(self, rate, h):
        # the trapezoid mass of rate e^{-rate t} exceeds 1 by about
        # (rate h)^2 / 12, more than the old allowance 10 h^2 from rate 11
        m = RiskModel(0.5 * rate, 1.0, Exponential(rate))
        psi = ruin_probability(m, h=h)
        exact = 0.5 * np.exp(-0.5 * rate * psi.grid)
        assert np.max(np.abs(psi.values - exact)) <= (rate * h)**2

    def test_rejects_negative_kernel(self):
        with pytest.raises(PreconditionError, match="nonnegative"):
            sampled(0.5, lambda t: np.exp(-t), lambda t: np.exp(-t) - 0.5,
                    2.0**-6, 6.0)

    def test_replace_checks_again(self):
        p = exp_psi_problem(h=2.0**-6, u_max=6.0)
        with pytest.raises(PreconditionError, match="kernel mass"):
            RenewalProblem(p.phi, p.forcing, 5.0 * p.kernel, p.h)

    @pytest.mark.parametrize("forcing,kernel", [
        (np.ones(5), np.ones(6)),          # lengths differ
        (np.ones(1), np.ones(1)),          # one node
        (np.ones((2, 3)), np.ones((2, 3))),
    ])
    def test_rejects_shapes(self, forcing, kernel):
        with pytest.raises(ValueError, match="one grid"):
            RenewalProblem(phi=0.5, forcing=forcing, kernel=0.1 * kernel,
                           h=0.5)

    def test_grid_and_u_max_follow_the_length(self):
        h = 2.0**-10
        p = exp_psi_problem(h=h, u_max=12.0)
        assert len(p.forcing) == len(p.kernel) == 12289
        assert p.u_max == 12.0 and p.h == h
        assert np.array_equal(p.grid, nodes(h, 12.0))
        # a step that does not divide u_max rounds the node count
        assert len(nodes(0.3, 10.0)) == 34

    def test_grid_past_longest_fft_raises_before_allocating(self, monkeypatch):
        # 2^32 nodes are the most the solver's FFT lengths cover; past
        # them, and for a ratio u_max/h past the float range, a typed
        # error names h, u_max and the count
        with pytest.raises(PreconditionError,
                           match=r"h = 1 to u_max = 4\.29497e\+09 gives "
                                 r"4294967297 nodes, .* 4294967296"):
            nodes(1.0, 2.0**32)
        with pytest.raises(PreconditionError, match="gives inf nodes"):
            nodes(1e-300, 1e10)
        # the limit itself is admitted, shown on a short stand-in list
        monkeypatch.setattr(renewal, "_smooth_sizes", lambda: (1, 2, 4, 8))
        assert len(nodes(1.0, 7.0)) == 8
        with pytest.raises(PreconditionError, match="gives 9 nodes"):
            nodes(1.0, 8.0)

    def test_arrays_are_read_only_copies(self):
        z, k = 0.5 * np.exp(-2.0 * nodes(0.25, 4.0)), np.full(17, 0.1)
        p = RenewalProblem(phi=0.5, forcing=z, kernel=k, h=0.25)
        x = solve(p).values
        z[3] = k[3] = 7.0
        assert not p.forcing.flags.writeable and not p.kernel.flags.writeable
        with pytest.raises(ValueError):
            p.forcing[0] = 1.0
        assert p.forcing[3] != 7.0 and p.kernel[3] == 0.1
        assert np.array_equal(solve(p).values, x)


class TestIterate:
    def test_fixed_point_has_tiny_residual(self):
        p = exp_psi_problem(u_max=8.0)
        x = solve(p)
        trace = iterate(p, x, 1)
        assert trace.residuals[0] <= 1e-9

    def test_table4_value(self):
        p = k_problem_table4()
        trace = iterate(p, 0.4, 5)
        i = int(round(1.0 / p.h))
        assert trace.last.values[i] == pytest.approx(
            0.3325717, abs=5e-7)

    def test_a_priori_dominates_true_error(self):
        p = exp_psi_problem(u_max=8.0)
        fixed = solve(p)
        trace = iterate(p, 0.25, 8)
        for j, x in enumerate(chain(p, 0.25, trace.n), start=1):
            true_err = np.max(np.abs(x.values - fixed.values))
            # grid noise allowance on top of the analytic certificate
            assert true_err <= trace.a_priori[j - 1] + 1e-6

    def test_a_priori_strictly_decreasing(self):
        p = exp_psi_problem(u_max=6.0)
        trace = iterate(p, 0.9, 6)
        assert np.all(np.diff(trace.a_priori) < 0)

    def test_residuals_shrink_monotonically(self):
        p = k_problem_table4(u_max=5.0)
        trace = iterate(p, 0.0, 12)
        assert np.all(np.diff(trace.residuals) <= 1e-12)

    def test_a_posteriori_bound(self):
        p = exp_psi_problem(u_max=8.0)
        fixed = solve(p)
        trace = iterate(p, 0.25, 6)
        for j, x in enumerate(chain(p, 0.25, trace.n), start=1):
            true_err = np.max(np.abs(x.values - fixed.values))
            assert true_err <= trace.a_posteriori_error_bound(j) + 1e-6

    @pytest.mark.parametrize("name", list(KERNELS))
    def test_bit_equal_to_applications_of_the_former_convolution(
            self, monkeypatch, name):
        # the former route: n + 1 applications, each transforming the
        # kernel anew; the trace transforms it once, and 26 FFTs in all for
        # n = 5 where the former route made 36.  The trace keeps x_n, and
        # single steps chained from the start give every iterate
        p = KERNELS[name](2.0**-10, 6.0)
        n = 5
        prev = np.full(len(p.forcing), 0.4)
        want = []
        for _ in range(n + 1):
            want.append(p.forcing + p.phi * reference_trapezoid_convolution(
                prev, p.kernel, p.h))
            prev = want[-1]
        count = _FFTCount(monkeypatch)
        trace = iterate(p, 0.4, n)
        assert sum(np.array_equal(v, p.kernel) for v in count.halved) == 1
        assert count.rfft + count.irfft == 26
        assert np.array_equal(trace.last.values, want[n - 1])
        for x, ref in zip(chain(p, 0.4, n), want):
            assert np.array_equal(x.values, ref)
        steps = [np.max(np.abs(b - a)) for a, b in
                 zip([np.full(len(p.forcing), 0.4)] + want, want)]
        assert np.array_equal(trace.residuals, steps[1:])
        assert np.array_equal(trace.a_priori, [
            p.phi**j / (1.0 - p.phi) * steps[0] for j in range(1, n + 1)])

    def test_memory_does_not_grow_with_n(self):
        # the trace holds x_n alone: kept iterates would add one grid array
        # of 5121 nodes, 41 KB, per step
        pm = PerturbedModel(RiskModel(0.5, 0.5, Exponential(2.0)), 0.25)
        k_iterates(pm, 0.4, 4, u_max=5.0)
        few, many = (_peak_bytes(lambda: k_iterates(pm, 0.4, n, u_max=5.0))
                     for n in (4, 400))
        assert many <= few + 4 * 8 * 5121

    def test_rejects_mismatched_start(self):
        p = exp_psi_problem(u_max=4.0)
        bad = GridFunction(p.h, np.zeros(17))
        with pytest.raises(PreconditionError):
            iterate(p, bad, 2)

    def test_rejects_start_of_another_step(self):
        # equal length, step 2^-9 on a 2^-10 problem
        p = exp_psi_problem(u_max=4.0)
        bad = GridFunction(2.0 * p.h, np.zeros(len(p.forcing)))
        with pytest.raises(PreconditionError, match="grid of x0"):
            iterate(p, bad, 2)


class TestContraction:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_empirical_modulus(self, seed):
        # discrete analogue: sup|Tx - Ty| <= phi sup|x-y| + O(h) slack
        p = exp_psi_problem(h=2.0**-8, u_max=6.0)
        z, k = p.forcing, p.kernel
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.0, 1.0, len(z))
        y = rng.uniform(0.0, 1.0, len(z))
        spectra = _spectra(k)
        tx = z + p.phi * _convolution(x, k, spectra, p.h)
        ty = z + p.phi * _convolution(y, k, spectra, p.h)
        lhs = np.max(np.abs(tx - ty))
        rhs = p.phi * np.max(np.abs(x - y)) + 2.0 * p.h * np.max(k)
        assert lhs <= rhs


@pytest.mark.parametrize("n", [2, 3, 5, 4097, 40961])
def test_trapezoid_convolution_matches_direct_sum(n):
    rng = np.random.default_rng(n)
    x, k, h = rng.standard_normal(n), rng.standard_normal(n), 2.0**-10
    full = np.convolve(x, k)[:n]
    expect = h * (full - 0.5 * x[0] * k - 0.5 * x * k[0])
    bound = 16.0 * EPS * h * np.max(np.abs(x)) * np.sum(np.abs(k))
    assert np.max(np.abs(_convolution(x, k, _spectra(k), h) - expect)) <= bound
