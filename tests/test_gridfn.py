import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from calderon_lab import gridfn
from calderon_lab.errors import DomainError, NonConvergent
from calderon_lab.gridfn import (
    SampledFunction,
    classify_boundedness,
    classify_zero_endpoint,
    cumulative_from_zero,
    cumulative_tail,
    make_log_grid,
    power_log_mass,
    sample,
    segment_masses,
    total_mass,
    upper_gamma,
)


class TestMakeLogGrid:
    def test_three_point_decade(self):
        g = make_log_grid(0.01, 1.0, 3)
        assert np.allclose(g.points, [0.01, 0.1, 1.0])
        assert g.points[0] == 0.01 and g.points[-1] == 1.0

    def test_degenerate_range(self):
        with pytest.raises(DomainError, match=r"need t_min < t_max, got \(1.0, 1.0\)"):
            make_log_grid(1.0, 1.0, 2)

    def test_constant_ratio(self):
        g = make_log_grid(1e-8, 1.0, 512)
        expected = 10.0 ** (8.0 / 511.0)
        ratios = g.points[1:] / g.points[:-1]
        assert abs(g.ratio - expected) < 1e-12 * expected
        assert np.all(np.abs(ratios - expected) < 1e-12 * expected)

    def test_errors(self):
        with pytest.raises(DomainError, match="grid bounds must be positive and finite"):
            make_log_grid(0.0, 1.0, 4)
        with pytest.raises(DomainError, match="grid bounds must be positive and finite"):
            make_log_grid(-1.0, 1.0, 4)
        with pytest.raises(DomainError, match="need at least 2 points, got 1"):
            make_log_grid(0.1, 1.0, 1)
        # geomspace would fill the grid with inf or nan after a RuntimeWarning
        for t_min, t_max in ((1e-3, math.inf), (1e-3, math.nan), (math.nan, 1.0)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DomainError, match="finite"):
                    make_log_grid(t_min, t_max, 4)

    def test_scale_equivariance(self):
        a = make_log_grid(1e-4, 2.0, 77)
        c = 3.7
        b = make_log_grid(c * 1e-4, c * 2.0, 77)
        assert np.allclose(b.points, c * a.points, rtol=1e-13)


class TestUpperGamma:
    def test_against_mpmath(self):
        # a <= 0 included, with the integers where (1 - x^(a+k))/(a+k) is
        # its limit -log x; every branch: series, continued fraction, and
        # Gamma(a, 1) plus the expanded int_x^1
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(0x5EED)
        pts = [(a, x) for a in np.arange(-3.0, 40.25, 0.25)
               for x in (1e-3, 0.1, 0.5, 0.999, 1.0, 1.7, 10.0, 41.5, 500.0)]
        pts += zip(rng.uniform(-3.0, 40.0, 400), np.exp(rng.uniform(math.log(1e-3),
                                                                   math.log(500.0), 400)))
        with mpmath.workdps(30):
            for a, x in pts:
                ref = float(mpmath.gammainc(mpmath.mpf(a), mpmath.mpf(x)))
                assert abs(upper_gamma(a, x) - ref) <= 1e-13 * ref, (a, x)

    def test_domain(self):
        for x in (0.0, -1.0, math.nan):
            with pytest.raises(DomainError):
                upper_gamma(0.5, x)


class TestPowerLogMass:
    @pytest.mark.parametrize("p", [-0.5, -0.9, -0.99, -0.999])
    def test_pure_power(self, p):
        # the integral of t^p over (0, 1) is 1/(1+p), however slowly it decays
        assert abs(power_log_mass(p, 0.0, 1.0, 1.0) * (1.0 + p) - 1.0) <= 1e-14

    def test_log_power(self):
        # u = log(e/x) turns log(e/x)^-2 / x on (0, 1] into u^-2 on (1, inf)
        assert power_log_mass(-1.0, -2.0, 1.0, 1.0) == 1.0
        assert power_log_mass(-1.0, -1.1, 1.0, 1.0) == pytest.approx(10.0, rel=1e-14)

    @pytest.mark.parametrize("p, e, scale, t0", [
        (-0.4, 0.5, 1.0, 0.02), (-0.99, -0.8, 1.0, 1.0), (-0.2, -2.5, 0.01, 1e-3),
        (0.7, 3.0, 2.0, 5.0)])
    def test_against_mpmath(self, p, e, scale, t0):
        # u = log(e*scale/t): e^(-(p+1) u) u^e on (L0, inf), an independent form
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            L0 = mpmath.log(mpmath.e * scale / mpmath.mpf(t0))
            ref = (mpmath.e * scale) ** (p + 1) * mpmath.quad(
                lambda u: mpmath.exp(-(p + 1) * u) * u ** e,
                [L0, L0 + 10, L0 + 100, L0 + 1000, L0 + 10000, mpmath.inf])
        assert abs(power_log_mass(p, e, scale, t0) - float(ref)) <= 1e-13 * float(ref)

    @pytest.mark.parametrize("p, e", [(-1.0, -1.0), (-1.0, 0.0), (-1.3, -5.0), (-1.01, 2.0)])
    def test_divergent_raises(self, p, e):
        with pytest.raises(NonConvergent, match="not integrable"):
            power_log_mass(p, e, 1.0, 0.5)

    def test_domain_error(self):
        # the log factor must stay positive on (0, t0]
        for t0 in (math.e, 10.0):
            with pytest.raises(DomainError):
                power_log_mass(-0.5, 1.0, 1.0, t0)


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


def _row_block(count=300):
    """Rows on one grid: powers, a divergent 1/t head, zeros, a sign
    change, a steep jump, a non-finite sample and random data."""
    g = make_log_grid(1e-8, 1.0, count)
    t = g.points
    rng = np.random.default_rng(21)
    rows = [t ** -0.5, np.ones(count), 1.0 / t, np.zeros(count),
            np.sin(40.0 * t), np.where(t < 1e-3, 1.0, 1e-40),
            rng.random(count), t ** 2 * rng.uniform(0.5, 1.5, count)]
    bad = t ** 0.3
    bad[count // 2] = math.inf
    rows.append(bad)
    return t, np.array(rows)


class TestRowBlocks:
    """Each row of a block gives exactly what a one-row call gives."""

    def test_cumulative_from_zero_default_head(self):
        t, Y = _row_block()
        got = cumulative_from_zero(t, Y)
        assert got.shape == Y.shape
        for row, y in zip(got, Y):
            assert np.array_equal(row, cumulative_from_zero(t, y), equal_nan=True)
        assert np.all(np.isinf(got[2]))

    def test_cumulative_from_zero_explicit_head(self):
        t, Y = _row_block()
        heads = np.linspace(0.0, 2.0, len(Y))
        got = cumulative_from_zero(t, Y, heads)
        for row, y, head in zip(got, Y, heads):
            assert np.array_equal(row, cumulative_from_zero(t, y, head), equal_nan=True)
        # one head for every row
        got = cumulative_from_zero(t, Y, 0.25)
        for row, y in zip(got, Y):
            assert np.array_equal(row, cumulative_from_zero(t, y, 0.25), equal_nan=True)

    def test_cumulative_tail(self):
        t, Y = _row_block()
        got = cumulative_tail(t, Y)
        for row, y in zip(got, Y):
            assert np.array_equal(row, cumulative_tail(t, y), equal_nan=True)

    def test_total_mass(self):
        t, Y = _row_block()
        got = total_mass(t, Y)
        assert got.shape == (len(Y),)
        want = [total_mass(t, y) for y in Y]
        assert all(isinstance(w, float) for w in want)
        assert np.array_equal(got, want, equal_nan=True)
        # the 1/t row has a divergent head
        assert got[2] == math.inf and math.isfinite(got[0])


class TestSampledFunction:
    def test_length_mismatch(self):
        g = make_log_grid(1e-2, 1.0, 16)
        with pytest.raises(DomainError):
            SampledFunction(g, np.ones(15))

    def test_power_interpolation_exact(self):
        g = make_log_grid(1e-4, 1.0, 64)
        f = SampledFunction(g, g.points ** -0.5)
        ts = np.geomspace(2e-4, 0.9, 50)
        assert np.allclose(f(ts), ts ** -0.5, rtol=1e-12)

    def test_grid_nodes_return_their_samples(self):
        # at the last node the interpolant's weight is 1, and
        # v0 exp(log(v1/v0)) can differ from v1 in the last bits
        g = make_log_grid(1e-6, 1.0, 64)
        rng = np.random.default_rng(5)
        for _ in range(600):
            values = np.exp(-np.cumsum(rng.exponential(size=64)))
            f = SampledFunction(g, values)
            assert f(g.points[-1]) == values[-1]
            # a copy of the points, so that the interpolant is evaluated
            assert np.array_equal(f(g.points.copy()), values)

    def test_continuation_without_fn(self):
        # a sample is read on [t_min, t_max] only
        g = make_log_grid(1e-2, 1.0, 16)
        f = SampledFunction(g, g.points ** -0.5)
        assert f(g.t_min) == f.values[0] and f(g.t_max) == f.values[-1]
        for t in (1e-4, 0.0099, 1.01, 2.0, np.array([0.5, 2.0])):
            with pytest.raises(DomainError, match=r"read on \[0\.01, 1\] only"):
                f(t)

    def test_analytic_own_grid_reads_samples(self, monkeypatch):
        # the samples are fn(grid.points), so that call returns a copy of
        # them without evaluating fn again
        g = make_log_grid(1e-4, 1.0, 32)
        calls = []

        def fn(x):
            calls.append(len(x))
            return np.exp(-x) / x

        f = sample(fn, g)
        assert calls == [32]
        out = f(g.points)
        assert np.array_equal(out, f.values)
        out[:] = -1.0
        assert np.all(f.values > 0.0)
        # an equal but distinct array is read through the interpolant,
        # which returns the samples at the nodes; fn is not called again
        twin = g.points.copy()
        assert np.array_equal(f(twin), f.values)
        assert calls == [32]

        # the own grid is read without the interpolant
        def no_interp(*args):
            raise AssertionError("_interp_loglog called")

        monkeypatch.setattr(gridfn, "_interp_loglog", no_interp)
        h = SampledFunction(g, np.exp(-g.points))
        out = h(g.points)
        assert np.array_equal(out, np.exp(-g.points))
        out[:] = -1.0
        assert np.array_equal(h.values, np.exp(-g.points))


class TestEndpointClassifiers:
    # power x log probes, L = log(e/t) on the grid of [1e-8, 1]
    G = make_log_grid(1e-8, 1.0, 512)
    L = np.log(math.e / G.points)

    @pytest.mark.parametrize("values, converges", [
        (G.points ** -1.1, False),
        (G.points ** -0.9, True),
        (1.0 / G.points, False),
        (1.0 / G.points * L ** -1.5, True),
    ], ids=["t^-1.1", "t^-0.9", "1/t", "L^-1.5/t"])
    def test_zero_endpoint(self, values, converges):
        assert classify_zero_endpoint(self.G, values) is converges

    def test_boundedness_log_band(self):
        # L^0.2 grows without bound, too slowly to leave the wide band
        assert classify_boundedness(self.G, self.L ** 0.2, 0.05) is False
        assert classify_boundedness(self.G, self.L ** 0.2, 0.4) is True

    def test_few_positive_samples_ambiguous(self):
        # the fit fails: undecided at 0, and bounded
        values = np.zeros(self.G.count)
        values[:7] = 1.0 / self.G.points[:7]
        assert classify_zero_endpoint(self.G, values) is None
        assert classify_boundedness(self.G, values, 0.05) is True
        p, e = gridfn._endpoint_exponents(self.G, values)
        assert math.isnan(p) and math.isnan(e)

    @settings(max_examples=60, deadline=None)
    @given(p=st.floats(-1.5, 0.5), e=st.floats(-3.0, 1.0))
    def test_band_on_power_log_samples(self, p, e):
        # y = t^p log(e/t)^e is integrable at 0 iff p > -1, or p = -1 and
        # e < -1, and bounded iff p > 0, or p = 0 and e <= 0; the fit reads
        # p within _P_TOL of a threshold as on it.  Exponents keep 1e-6
        # from each band edge: the fit recovers them to about 1e-12.
        tol_p, tol_e = gridfn._P_TOL, gridfn._E_TOL
        assume(all(abs(p - edge) >= 1e-6 for edge in (-1 - tol_p, -1 + tol_p, -tol_p, tol_p)))
        assume(all(abs(e - edge) >= 1e-6 for edge in (-1 - tol_e, -1 + tol_e, tol_e)))
        y = self.G.points ** p * self.L ** e
        converges = classify_zero_endpoint(self.G, y)
        if abs(p + 1) <= tol_p and abs(e + 1) <= tol_e:
            assert converges is None
        else:
            assert converges is (p > -1 if abs(p + 1) > tol_p else e < -1)
        bounded = classify_boundedness(self.G, y)
        assert bounded is (p > 0 if abs(p) > tol_p else e <= tol_e)


    def test_fitted_head_mass_branches(self):
        t = self.G.points
        # the fit says "diverges": +inf, whatever the two-point rule says
        assert gridfn.fitted_head_mass(self.G, t ** -1.1) == math.inf
        # a plain power: the two-point rule
        y = t ** -0.5
        assert gridfn.fitted_head_mass(self.G, y) == gridfn.head_mass(t, y)
        # t^-0.97 L: the first segment's power is about -1.02, so the
        # two-point rule diverges while the fit converges; the fitted
        # model's closed form is the exact mass below t_min
        y = t ** -0.97 * self.L
        assert gridfn.head_mass(t, y) == math.inf
        assert gridfn.fitted_head_mass(self.G, y) == pytest.approx(
            power_log_mass(-0.97, 1.0, 1.0, t[0]), rel=1e-9)


def _reference_segment_masses(t: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The segment rule as it was before its array passes were cut; the
    current rule must agree with it bit for bit."""
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    t0, t1 = t[:-1], t[1:]
    y0, y1 = y[:-1], y[1:]
    dt = t1 - t0
    ok = (y0 > 0) & (y1 > 0) & np.isfinite(y0) & np.isfinite(y1)
    out = np.where(np.isfinite(y0) & np.isfinite(y1),
                   0.5 * (y0 + y1) * dt, np.inf)
    if not np.any(ok):
        return out
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.where(ok, np.log(np.where(ok, y1 / y0, 1.0))
                     / np.log(t1 / t0), np.nan)
    if len(p) > 1:
        dp = np.abs(np.diff(p))
        drift = np.empty_like(p)
        drift[0] = dp[0]
        drift[-1] = dp[-1]
        if len(p) > 2:
            drift[1:-1] = np.minimum(dp[:-1], dp[1:])
        drift = np.where(np.isnan(drift), 0.0, drift)
        ok = ok & ((drift < 0.5) | ~np.isfinite(drift)) & (np.abs(p) < 50.0)
    if np.any(ok):
        r = t1[ok] / t0[ok]
        p1 = p[ok] + 1.0
        base = y0[ok] * t0[ok]
        small = np.abs(p1) < 1e-12
        p1_safe = np.where(small, 1.0, p1)
        out[ok] = np.where(small, base * np.log(r),
                           base * (r ** p1_safe - 1.0) / p1_safe)
    return out


def _assert_same_bits(t, y):
    """segment_masses of y (one row, or a block of rows on t) equals the
    reference rule of each row, bit for bit."""
    with np.errstate(all="ignore"):
        new = segment_masses(t, y)
        ref = np.array([_reference_segment_masses(t, row)
                        for row in np.atleast_2d(y)]).reshape(new.shape)
    assert np.array_equal(new, ref, equal_nan=True)
    signed = ~np.isnan(ref)
    assert np.array_equal(np.signbit(new[signed]), np.signbit(ref[signed]))


_SPECIAL = st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-300, 1e300,
                            math.inf, -math.inf, math.nan])


@st.composite
def _segment_inputs(draw):
    n = draw(st.integers(2, 40))
    t0 = draw(st.floats(1e-12, 1e3))
    ratios = draw(st.lists(st.floats(1.0001, 20.0), min_size=n - 1,
                           max_size=n - 1))
    t = t0 * np.cumprod([1.0] + ratios)
    # mostly power laws, so the power model and its drift veto are used
    power, scale = draw(st.floats(-60.0, 60.0)), draw(st.floats(1e-3, 1e3))
    with np.errstate(over="ignore"):
        y = scale * (t / t[0]) ** power
    jitter = draw(st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n))
    if draw(st.booleans()):
        with np.errstate(over="ignore"):    # y near 1e308 times up to 2
            y = y * np.array(jitter)
    for i in draw(st.lists(st.integers(0, n - 1), max_size=4)):
        y[i] = draw(_SPECIAL | st.floats(allow_nan=True, allow_infinity=True))
    return t, y


@st.composite
def _segment_blocks(draw):
    """Several rows on one grid, drawn like _segment_inputs."""
    t, y = draw(_segment_inputs())
    n, rows = len(t), [y]
    for _ in range(draw(st.integers(1, 4))):
        power, scale = draw(st.floats(-60.0, 60.0)), draw(st.floats(1e-3, 1e3))
        with np.errstate(over="ignore"):
            row = scale * (t / t[0]) ** power
        for i in draw(st.lists(st.integers(0, n - 1), max_size=4)):
            row[i] = draw(_SPECIAL | st.floats(allow_nan=True, allow_infinity=True))
        rows.append(row)
    return t, np.array(rows)


class TestSegmentMassesOracle:
    """The segment rule against a verbatim copy of its earlier form."""

    @settings(max_examples=300, deadline=None)
    @given(_segment_inputs())
    def test_matches_reference(self, ty):
        _assert_same_bits(*ty)

    def test_zeros_and_sign_flips(self):
        t = make_log_grid(1e-4, 1.0, 9).points
        _assert_same_bits(t, np.array([1.0, 0.0, 2.0, -1.0, 3.0, 0.0, 0.0, 4.0, -0.0]))
        _assert_same_bits(t, -t ** -0.5)

    def test_nonfinite_samples(self):
        t = make_log_grid(1e-4, 1.0, 9).points
        y = t ** -0.5
        for bad in (math.inf, -math.inf, math.nan):
            for i in (0, 4, 8):
                z = y.copy()
                z[i] = bad
                _assert_same_bits(t, z)

    def test_exact_inverse_power(self):
        # y = 1/t: the fitted p + 1 is rounding noise, and log r is used
        t = make_log_grid(1e-8, 1.0, 64).points
        y = 1.0 / t
        _assert_same_bits(t, y)
        got = segment_masses(t, y)
        assert np.allclose(got, np.log(t[1:] / t[:-1]), rtol=1e-12)

    def test_steep_jumps_and_drift_of_one_half(self):
        # on t = 4^k, sample ratios 1, 2, 4 give exactly p = 0, 1/2, 1,
        # so neighbouring exponents drift by exactly 0.5
        t = 4.0 ** np.arange(8)
        y = np.cumprod([1.0, 1.0, 2.0, 4.0, 2.0, 1.0, 1.0, 2.0])
        p = np.log(y[1:] / y[:-1]) / np.log(t[1:] / t[:-1])
        assert 0.5 in np.abs(np.diff(p))
        _assert_same_bits(t, y)
        # |p| = 50 exactly (on t = 2^k) is outside the power model
        t = 2.0 ** np.arange(6)
        for m in (50.0, -50.0):
            y = 2.0 ** (m * np.arange(6))
            assert np.all(np.log(y[1:] / y[:-1]) / np.log(2.0) == m)
            _assert_same_bits(t, y)
        # jumps with |p| >= 50 on a fine grid
        t = make_log_grid(1e-3, 1.0, 12).points
        y = np.ones(12)
        y[6:] = 1e-40
        _assert_same_bits(t, y)
        _assert_same_bits(t, 1.0 / y)

    def test_ratio_overflow(self):
        t = make_log_grid(1e-3, 1.0, 6).points
        _assert_same_bits(t, np.array([1e-300, 1e300, 1e300, 1.0, 1.0, 1.0]))
        _assert_same_bits(t, np.array([1e300, 1e-300, 1e-300, 1.0, 1.0, 1.0]))
        # an infinite exponent next door gives an infinite drift, which
        # does not veto its neighbours
        _assert_same_bits(t, np.array([1e-160, 2e-160, 1e160, 1e160, 3e160, 1e160]))

    @settings(max_examples=200, deadline=None)
    @given(_segment_blocks())
    def test_block_rows_match_reference(self, tY):
        _assert_same_bits(*tY)

    @pytest.mark.parametrize("y", [[1.0, 2.0], [2.0, 1.0], [1.0, 1.0],
                                   [1e-300, 1e300], [1e300, 1e-300], [0.0, 1.0],
                                   [-1.0, 1.0], [math.inf, 1.0], [math.nan, 1.0],
                                   [1.0, 2.0, 4.0], [1.0, 1e-200, 1.0],
                                   [1.0, 0.0, 1.0], [1e300, 1e-300, 1e300]])
    def test_short_inputs(self, y):
        t = make_log_grid(0.1, 1.0, len(y)).points
        _assert_same_bits(t, np.array(y))
        _assert_same_bits(t, np.array([y, y[::-1]]))

    def test_no_warning_on_discarded_segments(self):
        # the mass is evaluated on every segment, also where |p| >= 50 or
        # the sample ratio is 1e+-300 vetoes the power model; none of that
        # may warn (the oracle above runs with every error ignored)
        t = make_log_grid(1e-3, 1.0, 12).points
        jump = np.ones(12)
        jump[6:] = 1e-40
        spike = np.array([1.0, 1.0, 1e-300, 1e300, 1e-300, 1e300,
                          1.0, 1.0, 1e300, 1e300, 1.0, 1.0])
        wide = make_log_grid(1e-300, 1.0, 4).points
        cases = [(t, jump), (t, 1.0 / jump), (t, spike), (t, np.array([jump, spike])),
                 (wide, np.array([1.0, 1e-40, 1.0, 1e300]))]
        with warnings.catch_warnings(), np.errstate(divide="warn", over="warn",
                                                    invalid="warn", under="ignore"):
            warnings.simplefilter("error")
            for tt, y in cases:
                got = segment_masses(tt, y)
                assert got.shape == y.shape[:-1] + (len(tt) - 1,)
                cumulative_tail(tt, y)
