import math

import numpy as np
import pytest

from calderon_lab.errors import (
    DegenerateRange,
    DomainError,
    NonConvergent,
    NonPositiveBound,
    TooFewPoints,
)
from calderon_lab.gridfn import (
    SampledFunction,
    cumulative_from_zero,
    cumulative_tail,
    integrate,
    make_log_grid,
)


class TestMakeLogGrid:
    def test_three_point_decade(self):
        g = make_log_grid(0.01, 1.0, 3)
        assert np.allclose(g.points, [0.01, 0.1, 1.0])
        assert g.points[0] == 0.01 and g.points[-1] == 1.0

    def test_degenerate_range(self):
        with pytest.raises(DegenerateRange):
            make_log_grid(1.0, 1.0, 2)

    def test_constant_ratio(self):
        g = make_log_grid(1e-8, 1.0, 512)
        expected = 10.0 ** (8.0 / 511.0)
        ratios = g.points[1:] / g.points[:-1]
        assert abs(g.ratio - expected) < 1e-12 * expected
        assert np.all(np.abs(ratios - expected) < 1e-12 * expected)

    def test_errors(self):
        with pytest.raises(NonPositiveBound):
            make_log_grid(0.0, 1.0, 4)
        with pytest.raises(NonPositiveBound):
            make_log_grid(-1.0, 1.0, 4)
        with pytest.raises(TooFewPoints):
            make_log_grid(0.1, 1.0, 1)

    def test_scale_equivariance(self):
        a = make_log_grid(1e-4, 2.0, 77)
        c = 3.7
        b = make_log_grid(c * 1e-4, c * 2.0, 77)
        assert np.allclose(b.points, c * a.points, rtol=1e-13)


class TestIntegrate:
    def test_inverse_sqrt(self):
        v, e = integrate(lambda x: x ** -0.5, 0.0, 1.0, singular_at_a=True)
        assert abs(v - 2.0) <= max(e, 1e-10)

    def test_power_alpha_over_n(self):
        # alpha = 1/2, n = 1: integral of t^(alpha/n - 1) over (0,1) is n/alpha
        v, _ = integrate(lambda x: x ** (0.5 - 1.0), 0.0, 1.0, singular_at_a=True)
        assert abs(v - 2.0) < 1e-8

    def test_log_power(self):
        # substitution u = log(e/x) turns this into the integral of u^-2 on (1, inf)
        v, e = integrate(lambda x: np.log(np.e / x) ** -2.0 / x, 0.0, 1.0,
                         singular_at_a=True, tol=1e-4)
        assert abs(v - 1.0) <= 1e-4
        assert abs(v - 1.0) <= 2 * max(e, 1e-7)

    def test_err_estimate_bounds_true_error(self):
        for fn, a, b, sing, truth in [
            (lambda x: np.sin(x), 0.0, math.pi, False, 2.0),
            (lambda x: np.exp(-x), 0.0, np.inf, False, 1.0),
            (lambda x: x ** -0.25, 0.0, 1.0, True, 4.0 / 3.0),
        ]:
            v, e = integrate(fn, a, b, singular_at_a=sing)
            assert abs(v - truth) <= max(2 * e, 1e-9 * abs(truth))

    def test_additive_over_splits(self):
        f = lambda x: x ** -0.3 * (1 + 0.2 * np.sin(3 * x))
        v1, e1 = integrate(f, 0.0, 0.37, singular_at_a=True)
        v2, e2 = integrate(f, 0.37, 1.0)
        v, e = integrate(f, 0.0, 1.0, singular_at_a=True)
        assert abs((v1 + v2) - v) <= e1 + e2 + e + 1e-12

    def test_divergent_raises(self):
        for fn in (lambda x: 1.0 / x, lambda x: x ** -1.3):
            with pytest.raises(NonConvergent):
                integrate(fn, 0.0, 1.0, singular_at_a=True)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            integrate(lambda x: x, 1.0, 1.0)
        with pytest.raises(DomainError):
            integrate(lambda x: x, 2.0, 1.0)


class TestRunningIntegral:
    """Running integrals on a grid: cumulative_from_zero and cumulative_tail."""

    def test_identity_for_ones(self):
        g = make_log_grid(1e-8, 1.0, 256)
        r = cumulative_from_zero(g.points, np.ones(256))
        assert np.allclose(r, g.points, rtol=1e-12)

    def test_sqrt_antiderivative(self):
        g = make_log_grid(1e-8, 1.0, 256)
        r = cumulative_from_zero(g.points, g.points ** -0.5)
        assert np.allclose(r, 2.0 * np.sqrt(g.points), rtol=1e-12)

    def test_tail_of_ones(self):
        g = make_log_grid(1e-6, 1.0, 256)
        r = cumulative_tail(g.points, np.ones(256))
        assert np.allclose(r, 1.0 - g.points, atol=1e-12)
        assert np.all(np.diff(r) <= 0.0)

    def test_nondecreasing_for_nonnegative(self):
        g = make_log_grid(1e-6, 1.0, 300)
        rng = np.random.default_rng(5)
        r = cumulative_from_zero(g.points, rng.random(300))
        assert np.all(np.diff(r) >= -1e-15)

    def test_nonintegrable_head(self):
        g = make_log_grid(1e-8, 1.0, 128)
        r = cumulative_from_zero(g.points, 1.0 / g.points)
        assert np.all(np.isinf(r))


class TestSampledFunction:
    def test_length_mismatch(self):
        g = make_log_grid(1e-2, 1.0, 16)
        with pytest.raises(DomainError):
            SampledFunction(g, np.ones(15))

    def test_decreasing_tag_enforced(self):
        g = make_log_grid(1e-2, 1.0, 16)
        vals = np.ones(16)
        vals[7] = 2.0
        with pytest.raises(DomainError):
            SampledFunction(g, vals, monotonicity="decreasing")

    def test_power_interpolation_exact(self):
        g = make_log_grid(1e-4, 1.0, 64)
        f = SampledFunction(g, g.points ** -0.5)
        ts = np.geomspace(2e-4, 0.9, 50)
        assert np.allclose(f(ts), ts ** -0.5, rtol=1e-12)

    def test_extension_rules(self):
        g = make_log_grid(1e-2, 1.0, 16)
        z = SampledFunction(g, np.ones(16), extension="zero_beyond_T")
        c = SampledFunction(g, np.ones(16), extension="constant_beyond_T")
        assert z(2.0) == 0.0
        assert c(2.0) == 1.0
