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
        v, e = integrate(lambda x: x ** -0.5, 1.0)
        assert abs(v - 2.0) <= max(e, 1e-10)

    def test_power_alpha_over_n(self):
        # alpha = 1/2, n = 1: integral of t^(alpha/n - 1) over (0,1) is n/alpha
        v, _ = integrate(lambda x: x ** (0.5 - 1.0), 1.0)
        assert abs(v - 2.0) < 1e-8

    @pytest.mark.parametrize("p", [-0.5, -0.9, -0.99, -0.999])
    def test_pure_power(self, p):
        # the mass below the float floor is the geometric continuation of
        # the panel masses, exact for x^p however slowly they decay
        v, _ = integrate(lambda x: x ** p, 1.0, tol=1e-12)
        assert abs(v * (1.0 + p) - 1.0) <= 1e-12

    def test_log_power(self):
        # substitution u = log(e/x) turns this into the integral of u^-2
        # on (1, inf); the mass beyond the float floor (~1/670) is
        # log-type, so it is refused, not extrapolated
        for tol in (1e-4, 1e-8):
            with pytest.raises(NonConvergent, match="ratio drifts"):
                integrate(lambda x: np.log(np.e / x) ** -2.0 / x, 1.0, tol=tol)

    @pytest.mark.parametrize("tol", [1e-4, 1e-8])
    @pytest.mark.parametrize("fn", [
        lambda x: 1.0 / (x * np.log(np.e / x) ** 1.1),
        lambda x: x ** -0.99 * np.log(np.e / x) ** -0.8,
    ], ids=["inv_L1.1", "power_L-0.8"])
    def test_log_type_endpoint_raises(self, fn, tol):
        # a log factor makes the panel-mass ratio drift toward 1, so no
        # geometric continuation is valid past the float floor
        with pytest.raises(NonConvergent, match="ratio drifts"):
            integrate(fn, 1.0, tol=tol)

    def test_err_estimate_bounds_true_error(self):
        for fn, b, truth in [
            (lambda x: np.sin(x), math.pi, 2.0),
            (lambda x: np.exp(-x), np.inf, 1.0),
            (lambda x: x ** -0.25, 1.0, 4.0 / 3.0),
        ]:
            v, e = integrate(fn, b)
            assert abs(v - truth) <= max(2 * e, 1e-9 * abs(truth))

    def test_divergent_raises(self):
        for fn in (lambda x: 1.0 / x, lambda x: x ** -1.3):
            with pytest.raises(NonConvergent):
                integrate(fn, 1.0)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            integrate(lambda x: x, 0.0)
        with pytest.raises(DomainError):
            integrate(lambda x: x, -1.0)


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

    def test_unknown_monotonicity_rejected(self):
        g = make_log_grid(1e-2, 1.0, 16)
        with pytest.raises(DomainError, match="increasing"):
            SampledFunction(g, np.arange(16.0), monotonicity="increasing")

    def test_power_interpolation_exact(self):
        g = make_log_grid(1e-4, 1.0, 64)
        f = SampledFunction(g, g.points ** -0.5)
        ts = np.geomspace(2e-4, 0.9, 50)
        assert np.allclose(f(ts), ts ** -0.5, rtol=1e-12)

    def test_power_extrapolation_below_grid(self):
        # below t_min the first segment's power law continues: exact for t^p
        g = make_log_grid(1e-4, 1.0, 64)
        f = SampledFunction(g, g.points ** -0.7)
        ts = np.array([1e-12, 3e-8, 9e-5])
        assert np.allclose(f(ts), ts ** -0.7, rtol=1e-12)
        assert f(1e-9) == pytest.approx(1e-9 ** -0.7, rel=1e-12)

    def test_extrapolation_falls_back_to_first_sample(self):
        # no power law through a first sample <= 0: hold that sample
        g = make_log_grid(1e-4, 1.0, 64)
        for first in (0.0, -2.0):
            vals = np.ones(64)
            vals[0] = first
            f = SampledFunction(g, vals)
            assert np.array_equal(f(np.array([1e-9, 5e-5])), [first, first])

    def test_extension_rules(self):
        g = make_log_grid(1e-2, 1.0, 16)
        z = SampledFunction(g, np.ones(16), extension="zero_beyond_T")
        c = SampledFunction(g, np.ones(16), extension="constant_beyond_T")
        assert z(2.0) == 0.0
        assert c(2.0) == 1.0
