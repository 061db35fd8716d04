"""Volterra solver and contraction iteration: agreement with the forward
recursion and with exact phase-type values, convergence order, error
certificates, contraction behaviour."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import psi_exact
from ruinbounds import (ClaimDistribution, Erlang, Exponential, GridFunction,
                        HyperExponential, PerturbedModel, PreconditionError,
                        RenewalProblem, RiskModel, iterate, residual,
                        ruin_probability, solve)
from ruinbounds.classical import _psi_problem
from ruinbounds.diffusion import _k_problem
from ruinbounds.renewal import (_fast_len, _integer_bound, _product,
                                _reciprocal, _residual, _system,
                                trapezoid_convolution)

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

EPS = np.finfo(float).eps


def forward_recursion(problem):
    """The O(n^2) forward trapezoid recursion ``solve`` replaced; the
    reference for its numbers."""
    grid, z, k = problem.arrays()
    phi, h = problem.phi, problem.h
    n = len(grid)
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
    "exponential": lambda h, u: _psi_problem(RiskModel(0.5, 0.5, Exponential(2.0)), h, u),
    "hyperexponential": lambda h, u: _psi_problem(RiskModel(5.0 / 6.0, 3.0, MIX), h, u),
    "erlang": lambda h, u: _psi_problem(RiskModel(0.5, 1.0, Erlang(3, 3.0)), h, u),
    "ladder": lambda h, u: _k_problem(
        PerturbedModel(RiskModel(0.75, 2.0 / 3.0, Exponential(1.5)), 4.0 / 9.0), h, u),
}


def exp_psi_problem(h=2.0**-10, u_max=12.0):
    # Exp(2) claims, lam = c = 1/2: modulus 1/2, equilibrium kernel 2e^{-2t},
    # exact solution x(u) = e^{-u}/2
    kernel = lambda t: 2.0 * np.exp(-2.0 * t)
    forcing = lambda t: 0.5 * np.exp(-2.0 * t)
    return RenewalProblem(phi=0.5, forcing=forcing, kernel=kernel,
                          h=h, u_max=u_max)


def k_problem_table4(h=2.0**-10, u_max=6.0):
    # matched-rate ladder law Erlang(2, 2); modulus 1/2
    a = lambda t: 4.0 * t * np.exp(-2.0 * t)
    abar = lambda t: np.exp(-2.0 * t) * (1.0 + 2.0 * t)
    return RenewalProblem(phi=0.5, forcing=lambda t: 0.5 * abar(t),
                          kernel=a, h=h, u_max=u_max)


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
        p = RenewalProblem(phi=phi, forcing=lambda t: np.exp(-t),
                           kernel=lambda t: 2.0 * np.exp(-2.0 * t), h=0.5,
                           u_max=u_max)
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
        "erlang_phi_099": lambda h, u: _psi_problem(
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
        y = _product(_reciprocal(c.tobytes()), r)
        d = _residual(c, y, r)
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
        prod = _product(v, v)
        exact = (np.arange(m) + 1.0) * a * a
        assert np.max(np.abs(prod - exact)) <= 1.0 / 16.0
        assert np.array_equal(np.rint(prod), exact)

    def test_integer_product_exact_random_signs(self):
        m = 4096
        a = math.isqrt(int(_integer_bound(_fast_len(m)) / m))
        u, v = np.random.default_rng(m).integers(-a, a + 1, size=(2, m))
        exact = np.convolve(u, v)[:m]
        prod = np.rint(_product(u.astype(float), v.astype(float)))
        assert np.array_equal(prod.astype(np.int64), exact)

    @pytest.mark.parametrize("name", KERNELS)
    @pytest.mark.parametrize("k", [-900, -60, 60, 900])
    def test_solve_homogeneous_under_power_of_two_scaling(self, name, k):
        p = KERNELS[name](2.0**-10, 8.0)
        _, z, kernel = p.arrays()
        scaled = RenewalProblem(phi=p.phi, forcing=np.ldexp(z, k),
                                kernel=kernel, h=p.h, u_max=p.u_max)
        assert np.array_equal(solve(scaled).values,
                              np.ldexp(solve(p).values, k))

    def test_nan_forcing_is_rejected(self):
        p = KERNELS["exponential"](2.0**-6, 4.0)
        _, z, kernel = p.arrays()
        z[10] = np.nan
        bad = RenewalProblem(phi=p.phi, forcing=z, kernel=kernel, h=p.h,
                             u_max=p.u_max)
        with pytest.raises(ValueError, match="grid values must be finite"):
            solve(bad)

    def test_zero_forcing_returns_zeros(self):
        p = RenewalProblem(phi=0.5, forcing=lambda t: 0.0 * t,
                           kernel=lambda t: 2.0 * np.exp(-2.0 * t),
                           h=2.0**-10, u_max=4.0)
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
        p = RenewalProblem(phi=0.0, forcing=lambda t: np.cos(t),
                           kernel=lambda t: np.exp(-t), h=2.0**-6, u_max=4.0)
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
            assert residual(p, solve(p)) <= cap

    def test_rejects_supercritical_modulus(self):
        with pytest.raises(PreconditionError):
            RenewalProblem(phi=1.0, forcing=lambda t: t, kernel=lambda t: t,
                           h=0.1, u_max=1.0)

    def test_rejects_bad_step(self):
        with pytest.raises(PreconditionError):
            RenewalProblem(phi=0.5, forcing=lambda t: t, kernel=lambda t: t,
                           h=-0.1, u_max=1.0)

    @pytest.mark.parametrize("h", [0.5, 0.25])
    def test_rejects_step_without_positive_diagonal(self, h):
        # the implicit diagonal 1 - phi h kappa(0)/2 is not positive; the
        # message names the largest admissible step
        p = RenewalProblem(phi=0.99, forcing=lambda t: 0.99 * np.exp(-t),
                           kernel=lambda t: 10.0 * np.exp(-10.0 * t), h=h,
                           u_max=5.0)
        with pytest.raises(PreconditionError,
                           match=r"h < 2/\(phi kappa\(0\)\) = 0\.20202"):
            solve(p)

    def test_rejects_nondefective_discrete_equation(self):
        # psi for Exp(10) claims at phi = 0.99: at h = 0.05 the diagonal
        # 1 - phi h kappa(0)/2 is positive but the margin c(1) is not; at
        # h = 0.02 it is, and the solution stays a probability
        def problem(h):
            return RenewalProblem(phi=0.99, forcing=lambda t: 0.99 * np.exp(-10.0 * t),
                                  kernel=lambda t: 10.0 * np.exp(-10.0 * t), h=h,
                                  u_max=5.0)
        with pytest.raises(PreconditionError, match=r"margin c\(1\) = -0\.0105"):
            solve(problem(0.05))
        x = solve(problem(0.02)).values
        assert np.all((0.0 <= x) & (x <= 1.0))

    def test_rejects_non_density_kernel(self):
        p = RenewalProblem(phi=0.5, forcing=lambda t: np.exp(-t),
                           kernel=lambda t: 5.0 * np.exp(-t), h=2.0**-6,
                           u_max=6.0)
        with pytest.raises(PreconditionError):
            solve(p)


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
        assert trace.iterates[-1].values[i] == pytest.approx(
            0.3325717, abs=5e-7)

    def test_a_priori_dominates_true_error(self):
        p = exp_psi_problem(u_max=8.0)
        fixed = solve(p)
        trace = iterate(p, 0.25, 8)
        for j in range(1, trace.n + 1):
            true_err = np.max(np.abs(trace.iterates[j - 1].values
                                     - fixed.values))
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
        for j in range(1, trace.n + 1):
            true_err = np.max(np.abs(trace.iterates[j - 1].values
                                     - fixed.values))
            assert true_err <= trace.a_posteriori_error_bound(j) + 1e-6

    def test_rejects_mismatched_start(self):
        p = exp_psi_problem(u_max=4.0)
        bad = GridFunction(p.h, np.zeros(17))
        with pytest.raises(PreconditionError):
            iterate(p, bad, 2)


class TestContraction:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_empirical_modulus(self, seed):
        # discrete analogue: sup|Tx - Ty| <= phi sup|x-y| + O(h) slack
        p = exp_psi_problem(h=2.0**-8, u_max=6.0)
        grid, z, k = p.arrays()
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.0, 1.0, len(grid))
        y = rng.uniform(0.0, 1.0, len(grid))
        tx = z + p.phi * trapezoid_convolution(x, k, p.h)
        ty = z + p.phi * trapezoid_convolution(y, k, p.h)
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
    assert np.max(np.abs(trapezoid_convolution(x, k, h) - expect)) <= bound
