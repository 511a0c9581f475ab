import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calderon_lab import gridfn, potentials
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
    sample,
    segment_masses,
    total_mass,
)
from calderon_lab.kernels import (
    BesselMcDonald,
    KernelSpec,
    PowerSlowlyVarying,
    SlowlyVaryingSpec,
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
            (lambda x: np.exp(-x), 30.0, -math.expm1(-30.0)),
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
        with pytest.raises(DomainError):
            integrate(lambda x: np.exp(-x), np.inf)


def _reference_gauss_panel(f, lo, hi):
    mid, rad = 0.5 * (hi + lo), 0.5 * (hi - lo)
    hi_val = rad * float(np.dot(gridfn._GAUSS_HI[1],
                                gridfn._call(f, mid + rad * gridfn._GAUSS_HI[0])))
    lo_val = rad * float(np.dot(gridfn._GAUSS_LO[1],
                                gridfn._call(f, mid + rad * gridfn._GAUSS_LO[0])))
    return hi_val, abs(hi_val - lo_val)


def _reference_adaptive_panel(f, lo, hi, tol_abs, depth=0):
    val, err = _reference_gauss_panel(f, lo, hi)
    if err <= tol_abs or err <= 1e-14 * abs(val) or depth >= 14 or not np.isfinite(val):
        return val, err
    mid = 0.5 * (lo + hi)
    v1, e1 = _reference_adaptive_panel(f, lo, mid, tol_abs / 2, depth + 1)
    v2, e2 = _reference_adaptive_panel(f, mid, hi, tol_abs / 2, depth + 1)
    return v1 + v2, e1 + e2


def _reference_log_panel_limit(f, c, tol):
    U = math.log(c)
    g = lambda u: gridfn._call(f, np.exp(u)) * np.exp(u)
    span = abs(gridfn._FLOOR_U - U)
    n_panels = max(8, int(math.ceil(span / gridfn._PANEL_WIDTH)))
    width = span / n_panels
    masses = []
    total, err = 0.0, 0.0
    edge = U
    scale = gridfn._ABS_FLOOR
    for _ in range(n_panels):
        nxt = edge - width
        val, e = _reference_adaptive_panel(g, nxt, edge, tol * scale / 64)
        if not np.isfinite(val):
            raise NonConvergent(
                "integrand overflow near endpoint; integral appears divergent")
        masses.append(val)
        total += val
        err += e
        scale = max(scale, abs(total))
        edge = nxt
        if len(masses) >= 3:
            last, prev = abs(masses[-1]), abs(masses[-2])
            if last <= 0.05 * tol * scale and prev <= 0.05 * tol * scale:
                return total, err + last
            if prev > 0 and last / prev < 0.2:
                r = last / prev
                tail = last * r / (1.0 - r)
                if tail <= 0.5 * tol * scale:
                    return total, err + tail
    am = np.abs(masses)
    if np.any(am[1:] >= am[:-1] * (1 - 1e-12)):
        raise NonConvergent(
            "endpoint mass does not decay; integral appears divergent")
    r, r_prev = am[-1] / am[-2], am[-2] / am[-3]
    if abs(r - r_prev) > tol * (1.0 - r):
        raise NonConvergent(
            f"panel-mass ratio drifts ({r_prev:.6g} -> {r:.6g}) toward the "
            "endpoint; log-type mass beyond the float range is not computed")
    tail = masses[-1] * r / (1.0 - r)
    total += tail
    err += am[-1] * abs(r - r_prev) / (1.0 - r) ** 2
    return total, err


def _reference_integrate(f, b, tol=gridfn.DEFAULT_QUAD_TOL):
    """integrate as it was while it bisected one panel at a time, depth
    first, with two calls of f per panel; the level-at-a-time form must
    agree with it bit for bit."""
    total, err = _reference_log_panel_limit(f, b, tol)
    if err > 10 * tol * max(abs(total), gridfn._ABS_FLOOR) + gridfn._ABS_FLOOR:
        raise NonConvergent(
            f"error estimate {err:.3e} above tolerance for value {total:.6e}")
    return total, err


# the exp tail past z1 = 1 leaves a kink inside (0, 4H]: the deep-tree case
_POWER_TAIL = KernelSpec(PowerSlowlyVarying(alpha=0.6, sv=SlowlyVaryingSpec(
    factors=(("log", 0.5),)), z1=1.0), n=1)
_BESSEL = KernelSpec(BesselMcDonald(nu=0.125), n=1)

# (integrand, b, tol); each is elementwise, so its error estimate must
# agree too
_ELEMENTWISE_CASES = {
    **{f"power{p}_tol{tol:g}": (lambda x, p=p: x ** p, 1.0, tol)
       for p in (-0.5, -0.9, -0.99) for tol in (1e-8, 1e-12)},
    "power_log": (lambda x: x ** -0.7 * np.log(np.e * 2.0 / x) ** 1.5, 0.5, 1e-8),
    "sin": (np.sin, math.pi, 1e-8),
    "exp": (lambda x: np.exp(-x), 30.0, 1e-8),
    "kernel_cell": (_POWER_TAIL.measure_profile_fn(), 6.0 / 127, 1e-10),
    "kernel_box": (_POWER_TAIL.measure_profile_fn(), 12.0, 1e-8),
}


class TestIntegrateOracle:
    """integrate against a verbatim copy of its depth-first form."""

    @pytest.mark.parametrize("case", sorted(_ELEMENTWISE_CASES))
    def test_matches_reference(self, case):
        f, b, tol = _ELEMENTWISE_CASES[case]
        got = integrate(f, b, tol)
        assert got == _reference_integrate(f, b, tol)

    @pytest.mark.parametrize("b, tol", [(6.0 / 127, 1e-10), (6.0 / 511, 1e-10),
                                        (12.0, 1e-8)])
    def test_bessel_values_match_reference(self, b, tol):
        # the Bessel trapezoid is sized by the smallest rho of its batch,
        # so only the value, not the error estimate, is the same bits
        f = _BESSEL.measure_profile_fn()
        assert integrate(f, b, tol)[0] == _reference_integrate(f, b, tol)[0]

    @pytest.mark.parametrize("f, b, tol, match", [
        (lambda x: np.log(np.e / x) ** -2.0 / x, 1.0, 1e-4, "ratio drifts"),
        (lambda x: x ** -0.99 * np.log(np.e / x) ** -0.8, 1.0, 1e-8, "ratio drifts"),
        (lambda x: 1.0 / x, 1.0, 1e-8, "does not decay"),
        (lambda x: x ** -1.3, 1.0, 1e-8, "overflow"),
        # the kink at z1 still stalls above 1e-12 at depth 14
        (_POWER_TAIL.measure_profile_fn(), 12.0, 1e-12, "error estimate"),
    ], ids=["log_power", "power_L-0.8", "inverse", "power-1.3", "kernel_box_tight"])
    def test_nonconvergent_messages_match_reference(self, f, b, tol, match):
        with pytest.raises(NonConvergent, match=match) as want:
            _reference_integrate(f, b, tol)
        with pytest.raises(NonConvergent) as got:
            integrate(f, b, tol)
        assert str(got.value) == str(want.value)

    def test_tolerance_halved_level_by_level(self, monkeypatch):
        # the first log panel's tolerance, tol * 1e-300 / 64, is subnormal:
        # six halvings round it below tol / 2**6, which the depth-6
        # estimate here sits on, so that level still splits
        tol = 1e-8 * 1e-300 / 64
        depths = []

        def panels(f, lo, hi):
            depth = round(-math.log2(hi[0] - lo[0]))
            depths.append(depth)
            err = {6: tol / 2 ** 6, 7: 0.0}.get(depth, 1.0)
            return np.zeros(len(lo)), np.full(len(lo), err)

        monkeypatch.setattr(gridfn, "_gauss_panels", panels)
        gridfn._adaptive_panel(None, 0.0, 1.0, tol)
        assert depths == list(range(8))

    def test_convolver_calls_per_level(self, monkeypatch):
        # a power-kernel convolver's one integral, over the singular cell,
        # costs 6 integrand calls, one per bisection level, on 264 points;
        # the same profile over the box's reach (0, 4H] costs 17 calls on
        # 936 points.  Panel at a time they were 22 and 78 calls.
        calls = []

        def counted(f, b, tol):
            def g(x):
                calls.append(x.size)
                return f(x)
            return integrate(g, b, tol)

        monkeypatch.setattr(potentials, "integrate", counted)
        f = potentials.bump_and_staircase_family(count=1, resolution=128)[0][1]
        potentials.convolver(_POWER_TAIL, f)
        assert len(calls) <= 6
        assert sum(calls) == 11 * 24
        calls.clear()
        counted(_POWER_TAIL.measure_profile_fn(), 4.0 * f.box_halfwidth, 1e-8)
        assert len(calls) <= 17
        assert sum(calls) == 39 * 24


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

    def test_grid_nodes_return_their_samples(self):
        # at the last node the interpolant's weight is 1, and
        # v0 exp(log(v1/v0)) can differ from v1 in the last bits
        g = make_log_grid(1e-6, 1.0, 64)
        rng = np.random.default_rng(5)
        for _ in range(600):
            values = np.exp(-np.cumsum(rng.exponential(size=64)))
            f = SampledFunction(g, values, monotonicity="decreasing")
            assert f(g.points[-1]) == values[-1]
            # a copy of the points, so that the interpolant is evaluated
            assert np.array_equal(f(g.points.copy()), values)

    def test_extension_rules(self):
        g = make_log_grid(1e-2, 1.0, 16)
        z = SampledFunction(g, np.ones(16), extension="zero_beyond_T")
        c = SampledFunction(g, np.ones(16), extension="constant_beyond_T")
        assert z(2.0) == 0.0
        assert c(2.0) == 1.0

    # a misspelt tag would read 1.0 past T; "analytic" without fn would
    # interpolate and freeze the last sample
    @pytest.mark.parametrize("extension", ["zero_beyond_t", "analytic"])
    def test_bad_extension_rejected(self, extension):
        g = make_log_grid(1e-2, 1.0, 16)
        with pytest.raises(DomainError):
            SampledFunction(g, np.ones(16), extension=extension)

    def test_analytic_own_grid_reads_samples(self, monkeypatch):
        # the samples are fn(grid.points), so that call returns a copy of
        # them without evaluating fn again
        g = make_log_grid(1e-4, 1.0, 32)
        calls = []

        def fn(x):
            calls.append(len(x))
            return np.exp(-x) / x

        f = sample(fn, g)
        calls.clear()
        out = f(g.points)
        assert calls == []
        assert np.array_equal(out, f.values)
        out[:] = -1.0
        assert np.all(f.values > 0.0)
        # an equal but distinct array is evaluated through fn
        twin = g.points.copy()
        assert np.array_equal(f(twin), f.values)
        assert calls == [32]

        # a sample without fn is read on its own grid too, not interpolated
        def no_interp(*args):
            raise AssertionError("_interp_loglog called")

        monkeypatch.setattr(gridfn, "_interp_loglog", no_interp)
        h = SampledFunction(g, np.exp(-g.points), extension="zero_beyond_T")
        out = h(g.points)
        assert np.array_equal(out, np.exp(-g.points))
        out[:] = -1.0
        assert np.array_equal(h.values, np.exp(-g.points))


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
