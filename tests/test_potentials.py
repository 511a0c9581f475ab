import math
import warnings

import numpy as np
import pytest

import calderon_lab.potentials as potentials
from calderon_lab import cli
from calderon_lab.errors import (
    DomainError,
    DomainExceeded,
    NotEmbedded,
    ResolutionTooCoarse,
    TrivialSpace,
)
from calderon_lab.gridfn import (
    LogGrid,
    SampledFunction,
    make_log_grid,
    sample,
)
from calderon_lab.kernels import (
    BesselMcDonald,
    KernelSpec,
    PowerSlowlyVarying,
    SlowlyVaryingSpec,
    cone_kernel,
    measure_profile,
)
from calderon_lab.lorentz import LorentzSpace, WeightSpec, associate_norm, lorentz_norm
from calderon_lab.optimal import OptimalNormSpec, make_optimal_norm_spec, optimal_norm
from calderon_lab.potentials import (
    FieldSample,
    bump_and_staircase_family,
    calderon_norms,
    convolve,
    convolver,
    envelope_bounds,
    field_rearrangement,
    modulus_curves,
    modulus_of_smoothness,
    nontriviality_gate,
    power_modulus_norm,
    sample_field,
    upper_cone_check,
)

FLAT = WeightSpec(power_exponent=0.0)
BMD = KernelSpec(BesselMcDonald(nu=0.125), n=1)     # alpha = 0.75
POWER_LOG = KernelSpec(PowerSlowlyVarying(alpha=0.6, sv=SlowlyVaryingSpec(
    factors=(("log", 0.5),)), z1=1.0), n=1)


def _sup_at_breaks(u, k, steps):
    """max over the steps h > 0 of the sup over x of |Delta_h^k s(x)|, s
    the piecewise-linear interpolant of u: Delta_h^k s at every break
    x_i - j*h (j = 0..k) whose whole stencil stays in the grid, one
    np.interp per stencil point, 500 steps at a time."""
    x = u.axis_points()
    coeffs = [math.comb(k, j) * (-1.0) ** (k - j) for j in range(k + 1)]
    best = 0.0
    for chunk in np.array_split(steps, -(-len(steps) // 500)):
        h = chunk[:, None, None]
        breaks = x[None, :, None] - np.arange(k + 1) * h
        inside = (breaks >= x[0]) & (breaks + k * h <= x[-1])
        acc = 0.0
        for l, c in enumerate(coeffs):
            acc = acc + c * np.interp(breaks + l * h, x, u.values)
        best = max(best, float(np.max(np.abs(acc), where=inside, initial=0.0)))
    return best


def _vertex_steps(u, k, t):
    """t and the steps spacing*p/q <= t, q <= k, where lines of the
    arrangement x + j*h = x_i meet."""
    return np.array([t] + [u.spacing * p / q for q in range(1, k + 1)
                           for p in range(1, int(t / u.spacing * q) + 2)
                           if u.spacing * p / q <= t])


def _reference_vertex_sups(values, k, spacing, top):
    """The vertex-step rule as it was before the steps went in blocks,
    one step at a time in ascending p; the block rule must give the same
    steps and, step by step, the same sups bit for bit.

    The vertex steps h = spacing*p/q <= top (gcd(p, q) = 1, q <= k) and
    the sup over x of |Delta_h^k s(x)| at each, a row of sups per step
    and a column per row of values.  The stencils of the breaks
    x_i - j*h lie on the grid refined q times, where a step is a sum of
    k + 1 slices of s, linear in between: the max there is the sup.  Every
    q-th node there takes its sample as it is; the nodes between are s at
    the in-cell fractions r/q, whose rounding, unlike that of the
    positions (q*i + r)/q, does not grow with the node i."""
    coeffs = potentials._difference_coeffs(k)
    cells = values.shape[1] - 1
    steps, sups = [], []
    for q in range(1, k + 1):
        fine = np.empty((len(values), cells * q + 1))
        fine[:, ::q] = values
        for r in range(1, q):
            fine[:, r::q] = values[:, :-1] + r / q * np.diff(values)
        acc, term = np.empty_like(fine), np.empty_like(fine)   # reused: no page faults
        for p in range(1, cells * q // k + 1):
            if math.gcd(p, q) > 1 or spacing * p / q > top:
                continue
            size = cells * q + 1 - k * p
            a = np.multiply(fine[:, :size], coeffs[0], out=acc[:, :size])
            for l in range(1, k + 1):
                a += np.multiply(fine[:, l * p:l * p + size], coeffs[l], out=term[:, :size])
            steps.append(spacing * p / q)
            sups.append(np.max(np.abs(a, out=a), axis=1))
    return np.array(steps), np.reshape(sups, (len(steps), len(values)))


class TestFieldRearrangement:
    def test_reads_the_step_function_off_its_grid(self):
        # the constant 1 on [-3, 3] rearranges to 1 on (0, 6), 0 past it,
        # also beyond a grid that ends at T = 1
        f = sample_field(np.ones_like, 3.0, 64)
        g = make_log_grid(1e-8, 1.0, 512)
        fstar = field_rearrangement(f, grid=g)
        assert np.array_equal(fstar.values, np.ones(g.count))
        assert fstar(2.0) == 1.0 and fstar(7.0) == 0.0


class TestConvolve:
    def test_positive_kernel_positive_output(self):
        rng = np.random.default_rng(3)
        f = sample_field(lambda x: np.abs(np.sin(5 * x)) * (np.abs(x) < 1), 3.0, 256)
        u = convolve(BMD, f)
        assert np.all(u.values >= -1e-14)

    def test_sup_bound_through_rearrangement(self):
        # ||u||_C <= c0 * ||phi||_assoc * ||f|| with
        # c0 = 1 + tail mass / head mass of the profile
        g = make_log_grid(1e-8, 1.0, 512)
        sp = LorentzSpace(2.0, FLAT, g)
        phi_fn = BMD.measure_profile_fn()
        phi_assoc = associate_norm(sp, SampledFunction(g, phi_fn(g.points)))
        quad = pytest.importorskip("scipy.integrate").quad
        head = BMD.cell_mass(1.0)
        # phi decays like exp(-tau/2), so its mass beyond tau = 80 is
        # below 1e-15 of the total
        tail = quad(phi_fn, 1.0, 80.0, epsabs=0.0, epsrel=1e-12)[0]
        c0 = 1.0 + tail / head
        rng = np.random.default_rng(0x5EED)
        for _ in range(10):
            vals = rng.random(256) * (np.abs(np.linspace(-3, 3, 256)) < 1.2)
            f = FieldSample(3.0, vals)
            u = convolve(BMD, f)
            fstar = field_rearrangement(f, grid=g)
            bound = c0 * phi_assoc * lorentz_norm(sp, fstar)
            assert u.sup_norm() <= bound * (1 + 1e-6)

    def test_narrow_bump_recovers_kernel(self):
        errs = []
        for w, res in [(0.2, 1024), (0.1, 1024), (0.05, 2048)]:
            f = sample_field(lambda x, w=w: np.clip(1 - (x / w) ** 2, 0, None) ** 2,
                             3.0, res)
            f.values /= np.sum(f.values) * f.spacing
            u = convolve(BMD, f)
            x = u.axis_points()
            sel = (np.abs(x) > 0.3) & (np.abs(x) < 2.0)
            errs.append(float(np.max(np.abs(u.values[sel]
                                            - BMD.profile(np.abs(x[sel]))))))
        assert errs[0] > errs[1] > errs[2]
        assert errs[1] / errs[2] > 2.0     # near second order in the width

    def test_resolution_too_coarse(self):
        steep = KernelSpec(PowerSlowlyVarying(alpha=0.05, sv=SlowlyVaryingSpec(),
                                              z1=1.0), n=1)
        f = sample_field(lambda x: (np.abs(x) < 1).astype(float), 2.0, 16)
        with pytest.raises(ResolutionTooCoarse):
            convolve(steep, f)

    def test_bessel_cell_past_series_range(self):
        # spacing 40/3: the cell's half-width 6.7 is past the series' 5,
        # where the cell would hold more than 99.7% of the kernel mass
        f = sample_field(lambda x: (np.abs(x) < 50).astype(float), 100.0, 16)
        with pytest.raises(ResolutionTooCoarse, match="99.7%"):
            convolver(BMD, f)

    def test_loglog_kernel_rejected(self):
        loglog = KernelSpec(PowerSlowlyVarying(alpha=0.6, sv=SlowlyVaryingSpec(
            factors=(("loglog", 0.5),))), n=1)
        with pytest.raises(DomainError, match="loglog"):
            convolver(loglog, sample_field(np.cos, 3.0, 256))

    def test_dimension_mismatch(self):
        f = sample_field(lambda x: x * 0 + 1.0, 1.0, 32)
        with pytest.raises(DomainError):
            convolve(KernelSpec(BesselMcDonald(nu=0.4), n=2), f)

    @pytest.mark.parametrize("kernel", [
        BMD,
        KernelSpec(PowerSlowlyVarying(alpha=0.6, sv=SlowlyVaryingSpec(
            factors=(("log", 0.5),)), z1=1.0), n=1),
    ], ids=["bessel", "power_log"])
    def test_matches_direct_convolution(self, kernel):
        # the same sums in the same order as scipy's direct method
        signal = pytest.importorskip("scipy.signal")
        for resolution in (128, 256):
            for name, f in bump_and_staircase_family(count=4, resolution=resolution):
                u = convolve(kernel, f)
                m = len(f.values)
                h = f.spacing
                table = kernel.profile(np.abs(h * np.arange(-(m - 1), m))) * h
                table[m - 1] = kernel.cell_mass(h)
                ref = signal.convolve(f.values, table, mode="same", method="direct")
                assert np.array_equal(u.values, ref), name

    def test_power_kernel_no_floating_point_warning(self):
        f = bump_and_staircase_family(count=1, resolution=128)[0][1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u = convolve(POWER_LOG, f)
        assert np.all(np.isfinite(u.values))

    @pytest.mark.parametrize("kernel", [BMD, POWER_LOG], ids=["bessel", "power_log"])
    @pytest.mark.parametrize("resolution", [256, 512])
    def test_convolver_matches_convolve(self, kernel, resolution):
        fam = bump_and_staircase_family(resolution=resolution)
        conv = convolver(kernel, fam[0][1])
        for name, f in fam:
            assert np.array_equal(conv(f).values, convolve(kernel, f).values), name

    def test_convolver_rejects_other_grid(self):
        f = sample_field(np.cos, 3.0, 256)
        conv = convolver(BMD, f)
        longer = sample_field(np.cos, 6.0, 511)
        assert longer.spacing == f.spacing
        for other in (sample_field(np.cos, 4.0, 256),     # box halfwidth
                      sample_field(np.cos, 3.0, 512),     # resolution
                      longer):                            # length
            with pytest.raises(DomainError):
                conv(other)

    def test_integrals_once_per_family(self, monkeypatch):
        # the singular cell's integral is the per-grid build; a family on
        # one grid must not repeat it per field
        calls, cell_mass = [], KernelSpec.cell_mass
        def counting(kernel, h):
            calls.append(h)
            return cell_mass(kernel, h)
        monkeypatch.setattr(KernelSpec, "cell_mass", counting)
        g = make_log_grid(1e-8, 1.0, 512)
        sp = LorentzSpace(2.0, FLAT, g)
        upper_cone_check(sp, BMD, measure_profile(BMD, g), 1,
                         bump_and_staircase_family(count=3, resolution=256),
                         t_grid=make_log_grid(1e-4, 1.0, 8))
        assert len(calls) == 1
        calls.clear()
        rec = cli.run(cli.parse_config_text(
            "scenario = besov_case\nkernel.variant = bessel_mcdonald\n"
            "kernel.alpha = 0.75\nfield.resolution = 128\ngrid.points = 256\n"))
        assert rec.error is None
        assert len(calls) == 1


class TestModulus:
    def test_nonpositive_t(self):
        u = sample_field(np.sin, 2.0, 65)
        for t in (0.0, math.nan, math.inf):
            with pytest.raises(DomainError, match="t must be positive and finite"):
                modulus_of_smoothness(u, 1, t)

    def test_constant_field(self):
        u = sample_field(lambda x: np.ones_like(x), 2.0, 64)
        assert modulus_of_smoothness(u, 1, 0.5) == 0.0
        assert modulus_of_smoothness(u, 2, 0.5) == 0.0

    def test_sine_closed_form(self):
        u = sample_field(np.sin, 8.0, 4096)
        for t in np.linspace(0.2, 3.0, 10):
            assert abs(modulus_of_smoothness(u, 1, t) - 2 * math.sin(t / 2)) < 1e-3

    @pytest.mark.parametrize("resolution", [512, 4096])
    def test_second_order_sine_closed_form(self, resolution):
        # omega_2(sin; t) = 4 sin^2(t/2) for t <= pi once the box holds a
        # stencil of span 2t around a peak (2H >= 2t + pi).  Linear
        # interpolation is off by at most d^2/8 per shifted term, so the
        # stencil (coefficients 1, -2, 1) by at most 3 d^2/8 <= d^2/2; the
        # grid samples the sup over x, losing at most a factor
        # cos(d/2) >= 1 - d^2/8.
        u = sample_field(np.sin, 8.0, resolution)
        d = u.spacing
        for t in np.geomspace(4 * d, 3.0, 20):
            exact = 4 * math.sin(t / 2) ** 2
            tol = d * d / 2 + exact * d * d / 8
            assert abs(modulus_of_smoothness(u, 2, t) - exact) <= tol, t
        # below the spacing the curve describes the interpolant: for
        # 2t < d each stencil sits in the two cells around one node, so
        # omega_2(t) = t * max_i |s_i - s_(i-1)|, s_i the cell slopes,
        # which is of order t * d, not t^2; the floor covers the rounding
        # of the sampled positions and of the stencil sum
        slopes = np.diff(u.values) / d
        kink = np.max(np.abs(np.diff(slopes)))
        for t in np.geomspace(1e-6, 0.49 * d, 12):
            tol = 64 * np.finfo(float).eps + 1e-12 * t * kink
            assert abs(modulus_of_smoothness(u, 2, t) - t * kink) <= tol, t

    def test_dilation_inequality(self):
        rng = np.random.default_rng(0x5EED)
        for trial in range(10):
            coef = rng.normal(size=4)
            u = sample_field(lambda x: coef[0] * np.sin(2 * x) + coef[1] * np.cos(5 * x)
                             + coef[2] * np.sin(9 * x) + coef[3], 4.0, 1024)
            k = 1 + trial % 2
            for lam in (0.5, 2.0, 3.0):
                for t in (0.1, 0.3):
                    lhs = modulus_of_smoothness(u, k, lam * t)
                    rhs = (1 + lam) ** k * modulus_of_smoothness(u, k, t)
                    assert lhs <= rhs * (1 + 1e-9)

    def test_subadditive(self):
        rng = np.random.default_rng(2)
        a = sample_field(lambda x: np.sin(3 * x), 4.0, 512)
        b = sample_field(lambda x: np.cos(7 * x) * 0.5, 4.0, 512)
        both = FieldSample(4.0, a.values + b.values)
        for t in (0.2, 0.7):
            assert modulus_of_smoothness(both, 1, t) <= \
                modulus_of_smoothness(a, 1, t) + modulus_of_smoothness(b, 1, t) + 1e-12

    def test_bounded_by_sup_norm(self):
        u = sample_field(lambda x: np.sin(4 * x), 4.0, 512)
        for k in (1, 2, 3):
            assert modulus_of_smoothness(u, k, 0.8) <= 2 ** k * u.sup_norm() + 1e-12

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_brute_force_approaches_vertex_value(self, k):
        # 20,000 sampled steps never beat the vertex value beyond rounding
        # and come within the Lipschitz bound k*2^(k-1)*max|s'| of
        # h -> Delta_h^k s(x) times their step; at k = 3 and t = 0.7
        # spacing the sup sits at a vertex step below t, which 16 sampled
        # steps h = t*j/16 miss by 3.75%
        u = convolve(BMD, bump_and_staircase_family(count=1, resolution=64)[0][1])
        floor = k * 2 ** k * np.finfo(float).eps * u.sup_norm()
        lipschitz = k * 2 ** (k - 1) * np.max(np.abs(np.diff(u.values))) / u.spacing
        for t in (0.7 * u.spacing, 2.5 * u.spacing):
            exact = modulus_of_smoothness(u, k, t)
            assert abs(exact - _sup_at_breaks(u, k, _vertex_steps(u, k, t))) <= floor, t
            brute = _sup_at_breaks(u, k, t * np.arange(1, 20001) / 20000)
            assert brute <= exact + floor, t
            assert exact - brute <= lipschitz * t / 20000, t
            if k == 3 and t < u.spacing:
                assert _sup_at_breaks(u, k, t * np.arange(1, 17) / 16) < (1 - 0.03) * exact
        # up to the box: at span 2H/k one node keeps its stencil inside
        for t in (0.999 * 2 * u.box_halfwidth / k, 2 * u.box_halfwidth / k):
            exact = modulus_of_smoothness(u, k, t)
            assert abs(exact - _sup_at_breaks(u, k, _vertex_steps(u, k, t))) <= floor, t

    def test_vertex_step_regression(self):
        # the smoothness benchmark's seed 104, item 7 (Bessel kernel,
        # alpha 0.79, k = 2, resolution 256), field 5 at t = 0.268, 11.4
        # spacings: the 16 sampled steps read 0.9043505, 400 steps on
        # 20,001 points 0.9045669, the vertex step h = 11 spacings 0.9046200
        kernel = KernelSpec(BesselMcDonald(nu=(1 - 0.79) / 2.0), n=1)
        fam = bump_and_staircase_family(count=10, resolution=256, seed=923687044)
        u = convolve(kernel, fam[5][1])
        t = make_log_grid(1e-6, 1.0, 64).points[57]
        assert abs(t - 0.2682696) < 1e-7
        exact = modulus_of_smoothness(u, 2, t)
        sampled = _sup_at_breaks(u, 2, t * np.arange(1, 17) / 16)
        x = np.linspace(u.axis_points()[0], u.axis_points()[-1], 20001)
        s = lambda y: np.interp(y, u.axis_points(), u.values)
        brute = max(float(np.max(np.abs(s(x + 2 * h) - 2 * s(x + h) + s(x))[x + 2 * h <= x[-1]]))
                    for h in t * np.arange(1, 401) / 400)
        assert abs(sampled - 0.9043505) < 5e-8
        assert abs(brute - 0.9045669) < 5e-8
        assert abs(exact - 0.9046200) < 5e-8
        assert sampled < brute < exact

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_curve_is_running_max_of_single_t(self, k):
        # each curve value is the one-t modulus at t^(1/n) bit for bit, so
        # the running max the curve takes over its grid changes nothing
        fam = bump_and_staircase_family(count=2, resolution=256)
        conv = convolver(BMD, fam[0][1])
        us = [conv(f) for _, f in fam]
        tg = make_log_grid(1e-6, 1.0, 64)
        for n in (1, 2):
            for u, om in zip(us, modulus_curves(us, k, tg, n=n)):
                per_t = [modulus_of_smoothness(u, k, t ** (1.0 / n)) for t in tg.points]
                assert np.array_equal(om.values, per_t), n
                assert np.array_equal(om.values, np.maximum.accumulate(per_t)), n

    def test_span_exceeds_box(self):
        # k = 2 at t = 2.1 spans 4.2, past the box [-2, 2]
        u = sample_field(np.sin, 2.0, 65)
        with pytest.raises(DomainExceeded, match="span exceeds"):
            modulus_of_smoothness(u, 2, 2.1)
        with pytest.raises(DomainExceeded, match="span exceeds"):
            modulus_curves([u], 2, make_log_grid(1e-3, 2.1, 8))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_full_span_reaches_last_node(self, k):
        # k*t = 2H spans the whole box: the last node is H exactly, so the
        # stencil from -H fits (-1 + 2/(N-1) * (N-1) rounds below 1 at
        # N = 197 and 198); 199 points give 0.46, 0.919 and 0.03
        want = modulus_of_smoothness(sample_field(np.cos, 1.0, 199), k, 2.0 / k)
        for points in (197, 198):
            u = sample_field(np.cos, 1.0, points)
            assert u.axis_points()[-1] == 1.0
            assert np.array_equal(sample_field(lambda x: x, 1.0, points).values, u.axis_points())
            got = modulus_of_smoothness(u, k, 2.0 / k)
            assert math.isfinite(got)
            assert got == pytest.approx(want, rel=1e-3)

    def test_curve_nondecreasing(self):
        u = sample_field(lambda x: np.sin(4 * x), 4.0, 512)
        tg = make_log_grid(1e-4, 1.0, 32)
        [om] = modulus_curves([u], 1, tg)
        assert np.all(np.diff(om.values) >= 0)


class TestModulusCurves:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_family_matches_single_field(self, k):
        fam = bump_and_staircase_family(count=4, resolution=128)
        conv = convolver(BMD, fam[0][1])
        us = [conv(f) for _, f in fam]
        # t below and above the spacing, and t on whole cells
        ts = us[0].spacing * np.arange(1, 127 // k + 1, dtype=float)
        on_nodes = LogGrid(ts[0], ts[-1], len(ts), ts)
        for tg, n in ((make_log_grid(1e-6, 1.0, 48), 1), (make_log_grid(1e-6, 1.0, 48), 2),
                      (on_nodes, 1)):
            for u, om in zip(us, modulus_curves(us, k, tg, n=n)):
                assert np.array_equal(om.values, modulus_curves([u], k, tg, n=n)[0].values)

    @pytest.mark.parametrize("kernel", [BMD, POWER_LOG], ids=["bessel", "power"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_linear_up_to_least_vertex_step(self, kernel, k):
        # for t <= h0 = spacing/k each stencil sits in the two cells around
        # one node: omega_k(t) = t * max|slope| at k = 1 and t * max|slope
        # jump| at k = 2, 3, slope = diff(u)/spacing; the curve meets it
        # within the rounding floor of omega_k(h0), scaled by t/h0
        fam = bump_and_staircase_family(count=10, resolution=256)
        conv = convolver(kernel, fam[0][1])
        us = [conv(f) for _, f in fam]
        tg = make_log_grid(1e-6, 1.0, 64)
        h0 = us[0].spacing / k
        t = tg.points[tg.points <= h0]
        for u, om in zip(us, modulus_curves(us, k, tg)):
            closed = t / u.spacing * np.max(np.abs(np.diff(u.values, n=min(k, 2))))
            floor = t / h0 * k * 2 ** k * np.finfo(float).eps * u.sup_norm()
            assert np.all(np.abs(om.values[:len(t)] - closed) <= floor)

    def test_steps_above_least_vertex_step_only(self, monkeypatch):
        # besov_case at resolution 256 and k = 1: 46 of its 64 t lie at or
        # below the spacing and are read off the vertex step there
        real, seen = potentials._step_sups, []
        def spy(us, k, mags):
            seen.append(mags)
            return real(us, k, mags)
        monkeypatch.setattr(potentials, "_step_sups", spy)
        rec = cli.run(cli.parse_config_text("scenario = besov_case\nspace.q = 2\nk = 1\n"
                                            "field.resolution = 256\ngrid.points = 256\n"))
        assert rec.error is None
        ts = make_log_grid(1e-6, 1.0, 64).points
        assert [len(mags) for mags in seen] == [18]
        assert np.array_equal(seen[0], ts[ts > 6.0 / 255])

    def test_fields_on_one_grid(self):
        tg = make_log_grid(1e-3, 1.0, 8)
        u = sample_field(np.sin, 2.0, 65)
        with pytest.raises(DomainError, match="one grid"):
            modulus_curves([], 1, tg)
        wider = FieldSample(2.5, u.values)
        larger_box = sample_field(np.sin, 4.0, 129)     # same spacing, more values
        assert larger_box.spacing == u.spacing
        for other in (wider, larger_box):
            with pytest.raises(DomainError, match="one grid"):
                modulus_curves([u, other], 1, tg)
        assert np.array_equal(modulus_curves([u, u], 1, tg)[1].values,
                              modulus_curves([u], 1, tg)[0].values)


class TestVertexBlocks:
    @pytest.mark.parametrize("kernel", [BMD, POWER_LOG], ids=["bessel", "power"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_blocks_match_per_step_rule(self, kernel, k):
        # tops: the least step alone, 17.5 spacings (at q = 1 two blocks
        # of 8 steps and one cut short at 1), a few generic ones, and the
        # whole box, whose last step, p = cells at q = k, keeps a single
        # node of the refined grid
        for resolution in (64, 128, 256, 512):
            fam = bump_and_staircase_family(count=4, resolution=resolution)
            conv = convolver(kernel, fam[0][1])
            values = np.array([conv(f).values for _, f in fam])
            spacing, cells = fam[0][1].spacing, resolution - 1
            for top in (spacing / k, 17.5 * spacing, 0.05, 0.3, 1.0, cells * spacing / k):
                top = max(top, spacing / k)
                want_steps, want = _reference_vertex_sups(values, k, spacing, top)
                steps, got = potentials._vertex_sups(values, k, spacing, top)
                order, want_order = np.argsort(steps), np.argsort(want_steps)
                assert np.array_equal(steps[order], want_steps[want_order]), (resolution, top)
                assert np.array_equal(got[order], want[want_order]), (resolution, top)
                if top == cells * spacing / k:
                    assert steps.max() == spacing * cells / k

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_overflowing_differences_as_per_step(self, k):
        # adjacent samples +-1.7e308 differ by inf, and at k >= 2 samples
        # 1e308 two nodes apart overflow the stencil sums: the per-step
        # rule's NaN and inf sups must not be dropped
        values = np.zeros((3, 64))
        values[0, 30:32] = 1.7e308, -1.7e308
        values[1, [30, 32]] = 1e308
        values[2] = np.sin(np.arange(64.0))
        spacing = 6.0 / 63
        with np.errstate(all="ignore"):
            want_steps, want = _reference_vertex_sups(values, k, spacing, 3.0)
            steps, got = potentials._vertex_sups(values, k, spacing, 3.0)
        order, want_order = np.argsort(steps), np.argsort(want_steps)
        assert np.array_equal(steps[order], want_steps[want_order])
        assert np.array_equal(got[order], want[want_order], equal_nan=True)
        if k == 1:
            # the samples themselves are nodes of the refined grid, so
            # only the step across the two +-1.7e308 samples is infinite
            assert not np.any(np.isnan(want))
            assert np.count_nonzero(np.isinf(want)) == 1


class TestWorkingSet:
    # each bound is F x N floats, F the family's rows, plus one block of
    # them; the peaks above it held more than one array of that size

    def test_envelope_rows_built_per_block(self, traced_peak_mib):
        # 48 x 4000 cone rows are 1.46 MiB, one 4-row block 0.12 MiB;
        # holding the whole matrix and its temporaries peaked at 3.05 MiB
        g = make_log_grid(1e-8, 1.0, 4000)
        sp = LorentzSpace(2.0, FLAT, g)
        phi = sample(lambda t: t ** -0.25, g)
        tg = make_log_grid(1e-6, 1.0, 48)
        assert traced_peak_mib(lambda: envelope_bounds(sp, phi, 1, 1, tg)) < 2.0

    def test_modulus_vertex_blocks(self, traced_peak_mib):
        # 10 fields of 512 samples at k = 2: the q = 2 refined grid is
        # 10 x 1023 floats, and a block of 8 steps takes 0.62 MiB for its
        # accumulator and as much for its product temporary; blocks of 16
        # steps peaked at 2.70 MiB
        us = [f for _, f in bump_and_staircase_family(count=10, resolution=512)]
        tg = make_log_grid(1e-4, 1.0, 48)
        assert traced_peak_mib(lambda: modulus_curves(us, 2, tg)) < 2.0


class TestEnvelope:
    def test_endpoint_within_factor_two(self):
        g = make_log_grid(1e-8, 1.0, 512)
        sp = LorentzSpace(2.0, FLAT, g)
        phi = sample(lambda t: t ** -0.25, g)
        tg = make_log_grid(1e-6, 1.0, 32)
        upper = envelope_bounds(sp, phi, 1, 1, tg)
        from calderon_lab.gridfn import SampledFunction
        pn = associate_norm(sp, SampledFunction(g, phi(g.points)))
        assert 0.5 * pn <= upper.values[-1] <= pn * (1 + 1e-9)
        assert np.all(np.diff(upper.values) >= -1e-10 * upper.values[:-1])

    def test_small_scale_slope(self):
        # flat weight, q = 2, n = k = 1: the envelope behaves like
        # t^(alpha - 1/q) at small scales
        g = make_log_grid(1e-8, 1.0, 512)
        sp = LorentzSpace(2.0, FLAT, g)
        for alpha in (0.6, 0.75, 0.9):
            phi = sample(lambda t, a=alpha: t ** (a - 1.0), g)
            tg = make_log_grid(1e-6, 1e-2, 24)
            upper = envelope_bounds(sp, phi, 1, 1, tg)
            A = np.vstack([np.ones(tg.count), np.log(tg.points)]).T
            slope = np.linalg.lstsq(A, np.log(upper.values), rcond=None)[0][1]
            assert abs(slope - (alpha - 0.5)) < 0.05

    def test_not_embedded(self):
        g = make_log_grid(1e-8, 1.0, 512)
        sp = LorentzSpace(2.0, FLAT, g)
        phi = sample(lambda t: t ** -0.7, g)
        with pytest.raises(NotEmbedded):
            envelope_bounds(sp, phi, 1, 1, make_log_grid(1e-4, 1.0, 16))

    @pytest.mark.parametrize("q,points", [(1.0, 300), (2.0, 4000), (4.0, 1000)])
    def test_rows_match_per_row_associate_norm(self, q, points):
        # the cone rows run through the grid rules in blocks; each value
        # equals the associate norm of that row taken alone
        g = make_log_grid(1e-8, 1.0, points)
        # q = 1 needs V to grow slower than t for the profile to embed
        sp = LorentzSpace(q, WeightSpec(power_exponent=-0.5) if q == 1.0 else FLAT, g)
        phi = sample(lambda t: t ** -0.25, g)
        tg = make_log_grid(1e-6, 1.0, 48)
        cones = cone_kernel(phi, 1, 1, tg.points[:, None], g.points)
        want = [associate_norm(sp, SampledFunction(g, om)) for om in cones]
        assert np.array_equal(envelope_bounds(sp, phi, 1, 1, tg).values, want)


class TestUpperCone:
    @pytest.mark.parametrize("kernel", [BMD, POWER_LOG], ids=["bessel", "power_log"])
    def test_cone_rows_match_per_t_calls(self, kernel):
        # the cone checks build every t row at once
        g = make_log_grid(1e-8, 1.0, 512)
        ts = make_log_grid(1e-4, 1.0, 24).points
        for phi in (kernel.measure_profile_fn(), measure_profile(kernel, g)):
            for k, n in ((1, 1), (2, 1), (1, 2), (3, 2)):
                rows = cone_kernel(phi, k, n, ts[:, None], g.points)
                for t, row in zip(ts, rows):
                    assert np.array_equal(row, cone_kernel(phi, k, n, t, g.points))

    def test_finite_and_scale_invariant(self):
        g = make_log_grid(1e-8, 1.0, 512)
        sp = LorentzSpace(2.0, FLAT, g)
        fam = bump_and_staircase_family(count=3, resolution=256)
        phi = measure_profile(BMD, g)
        ratios = upper_cone_check(sp, BMD, phi, 1, fam,
                                  t_grid=make_log_grid(1e-4, 1.0, 24))
        c1 = max(ratios.values())
        assert math.isfinite(c1) and c1 > 0
        scaled = [(name, FieldSample(f.box_halfwidth, 5.0 * f.values)) for name, f in fam]
        ratios2 = upper_cone_check(sp, BMD, phi, 1, scaled,
                                   t_grid=make_log_grid(1e-4, 1.0, 24))
        for name in ratios:
            assert np.isclose(ratios[name], ratios2[name], rtol=1e-9)

    def test_empty_family(self):
        g = make_log_grid(1e-8, 1.0, 512)
        sp = LorentzSpace(2.0, FLAT, g)
        with pytest.raises(DomainError, match="empty field family"):
            upper_cone_check(sp, BMD, measure_profile(BMD, g), 1, [],
                             make_log_grid(1e-4, 1.0, 8))

    def test_modulus_vanishes_at_small_scale(self):
        fam = bump_and_staircase_family(count=3, resolution=512)
        tg = make_log_grid(1e-8, 1.0, 48)
        conv = convolver(BMD, fam[0][1])
        for om in modulus_curves([conv(f) for _, f in fam], 1, tg):
            ref = om(1e-2)
            assert om.values[0] < 0.1 * ref


class TestFieldNorms:
    TG = make_log_grid(1e-6, 1.0, 96)

    def test_constant_field_gives_sup_norm(self):
        g = make_log_grid(1e-8, 1.0, 512)
        sp = LorentzSpace(2.0, FLAT, g)
        spec = make_optimal_norm_spec(sp, sample(lambda t: t ** -0.25, g))
        u = sample_field(lambda x: 0.7 * np.ones_like(x), 2.0, 64)
        [om] = modulus_curves([u], 1, self.TG)
        assert abs(calderon_norms([u], [om], spec, 1, 1)[0] - 0.7) < 1e-12

    def test_besov_shape_agreement(self):
        # the optimal Stieltjes form and the direct power form agree
        # within a modest two-sided factor on convolved fields; the
        # Stieltjes form is (sum (omega/Psi)^q dPsi/Psi)^(1/q) over the
        # forward differences of Psi on the t grid
        g = make_log_grid(1e-8, 1.0, 512)
        sp = LorentzSpace(2.0, FLAT, g)
        phi = sample(BMD.measure_profile_fn(), g)
        spec = make_optimal_norm_spec(sp, phi)
        tg = make_log_grid(1e-6, 1.0, 48)
        psi = spec.psi(tg.points)
        direct_norm = lambda om: power_modulus_norm(om, 0.75 - 0.5, 2.0)
        fam = bump_and_staircase_family(count=3, resolution=256)
        conv = convolver(BMD, fam[0][1])
        us = [conv(f) for _, f in fam]
        oms = modulus_curves(us, 1, tg)
        for u, om, opt in zip(us, oms, calderon_norms(us, oms, spec, 1, 1)):
            direct = u.sup_norm() + direct_norm(om)
            terms = (om.values[:-1] / psi[:-1]) ** 2 * np.diff(psi) / psi[:-1]
            assert opt == pytest.approx(u.sup_norm() + np.sqrt(np.sum(terms)), rel=1e-14)
            factor = max(opt / direct, direct / opt)
            assert factor <= 8.0

    def test_family_matches_one_field_calls(self, monkeypatch):
        # the gate is fitted once for the family; every norm is the
        # one-field value bit for bit
        g = make_log_grid(1e-8, 1.0, 512)
        sp = LorentzSpace(2.0, FLAT, g)
        phi = sample(BMD.measure_profile_fn(), g)
        spec = make_optimal_norm_spec(sp, phi)
        us = [convolve(BMD, f) for _, f in bump_and_staircase_family(count=4, resolution=128)]
        oms = modulus_curves(us, 1, self.TG)
        want = [calderon_norms([u], [om], spec, 1, 1)[0] for u, om in zip(us, oms)]
        gates = []
        real_gate = potentials.nontriviality_gate
        monkeypatch.setattr(potentials, "nontriviality_gate",
                            lambda *a: gates.append(a) or real_gate(*a))
        got = calderon_norms(us, oms, spec, 1, 1)
        assert got == want and all(type(v) is float for v in got)
        assert len(gates) == 1

    def test_family_needs_one_curve_per_field_on_one_grid(self):
        g = make_log_grid(1e-8, 1.0, 512)
        sp = LorentzSpace(2.0, FLAT, g)
        spec = make_optimal_norm_spec(sp, sample(lambda t: t ** -0.25, g))
        u = sample_field(np.sin, 2.0, 64)
        [om] = modulus_curves([u], 1, self.TG)
        [other] = modulus_curves([u], 1, make_log_grid(1e-6, 1.0, 95))
        for us, oms in (([], []), ([u, u], [om]), ([u, u], [om, other])):
            with pytest.raises(DomainError):
                calderon_norms(us, oms, spec, 1, 1)

    def test_sup_case_takes_max_modulus(self):
        # the sup case of the lattice norm is max omega, as in optimal_norm
        g = make_log_grid(1e-8, 1.0, 512)
        psi = sample(lambda t: 1.0 + 0.0 * t, g)
        spec = OptimalNormSpec(case="sup", psi=psi, q=1.0)
        u = sample_field(np.sin, 2.0, 64)
        [om] = modulus_curves([u], 1, self.TG)
        got = calderon_norms([u], [om], spec, 1, 1)[0]
        assert got == u.sup_norm() + float(np.max(om.values))
        assert got == u.sup_norm() + optimal_norm(spec, om)

    def test_trivial_gate(self):
        # the flat q = 2 aggregate of t^(-1/4) grows like t^(1/4): t^(k/n)
        # has finite lattice norm at k/n = 1, and not at k/n = 1/8
        g = make_log_grid(1e-8, 1.0, 512)
        sp = LorentzSpace(2.0, FLAT, g)
        phi = sample(lambda t: t ** -0.25, g)
        spec = make_optimal_norm_spec(sp, phi)
        u = sample_field(np.sin, 2.0, 64)
        assert nontriviality_gate(spec, 1, 1)
        assert not nontriviality_gate(spec, 1, 8)
        with pytest.raises(TrivialSpace):
            calderon_norms([u], modulus_curves([u], 1, self.TG, n=8), spec, 1, 8)


class TestFieldSampleValidation:
    def test_resolution_floor(self):
        with pytest.raises(DomainError, match="at least 16"):
            FieldSample(1.0, np.zeros(15))
        assert FieldSample(1.0, np.zeros(16)).spacing == 2.0 / 15

    def test_finite_values(self):
        with pytest.raises(DomainError, match="finite"):
            FieldSample(1.0, np.full(32, np.nan))

    @pytest.mark.parametrize("H", [0.0, -1.0, math.nan, math.inf])
    def test_box_halfwidth_positive_and_finite(self, H):
        # an empty, reversed, undefined or unbounded box has no grid
        with pytest.raises(DomainError, match="half-width"):
            FieldSample(H, np.ones(64))
        # checked before np.linspace, which warns on an infinite end
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="half-width"):
                sample_field(np.cos, H, 64)

    def test_dimension_shape(self):
        with pytest.raises(DomainError, match="one-dimensional"):
            FieldSample(1.0, np.zeros((32, 32)))


class TestEnvelopeSandwich:
    def test_modulus_below_scaled_envelope(self):
        # literal upper bound: for every family member and every scale,
        # omega_k(G*f; t) <= c1 * ||cone kernel(t, .)||_assoc * ||f||
        # with c1 the empirical constant from the cone check
        g = make_log_grid(1e-8, 1.0, 512)
        sp = LorentzSpace(2.0, FLAT, g)
        fam = bump_and_staircase_family(count=4, resolution=256)
        tg = make_log_grid(1e-4, 1.0, 24)
        phi = sample(BMD.measure_profile_fn(), g)
        c1 = max(upper_cone_check(sp, BMD, phi, 1, fam, t_grid=tg).values())
        upper = envelope_bounds(sp, phi, 1, 1, tg)
        conv = convolver(BMD, fam[0][1])
        for (name, f), om in zip(fam, modulus_curves([conv(f) for _, f in fam], 1, tg)):
            fstar = field_rearrangement(f, grid=g)
            fnorm = lorentz_norm(sp, fstar)
            assert np.all(om.values <= c1 * upper.values * fnorm * (1 + 1e-9))

    def test_indicator_denominator_is_plain_kernel_mass(self):
        # a field whose rearrangement is an indicator makes the cone
        # integral collapse to the kernel mass over (0, L)
        from calderon_lab.gridfn import head_mass, segment_masses
        from calderon_lab.kernels import cone_kernel
        quad = pytest.importorskip("scipy.integrate").quad
        L = 0.5
        f = sample_field(lambda x: (np.abs(x) < L / 2).astype(float), 3.0, 512)
        g = make_log_grid(1e-8, 1.0, 512)
        fstar = field_rearrangement(f, grid=g)
        phi_fn = BMD.measure_profile_fn()
        for t in (0.01, 0.3):
            y = cone_kernel(phi_fn, 1, 1, t, g.points) * fstar.values
            got = head_mass(g.points, y) + float(np.sum(segment_masses(g.points, y)))
            val = quad(lambda s: cone_kernel(phi_fn, 1, 1, t, s), 0.0, L)[0]
            assert abs(got - val) < 0.02 * val
