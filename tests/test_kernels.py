import math

import numpy as np
import pytest
from scipy.special import kv as scipy_kv

from calderon_lab.errors import DomainError, ResolutionTooCoarse
from calderon_lab.gridfn import make_log_grid
from calderon_lab.kernels import (
    BesselMcDonald,
    KernelSpec,
    PowerSlowlyVarying,
    SlowlyVaryingSpec,
    auto_z1,
    bessel_k,
    check_derivative_conditions,
    cone_kernel,
    measure_profile,
    unit_ball_volume,
)


class TestBesselK:
    def test_half_order_closed_form(self):
        # K_(1/2)(rho) = sqrt(pi/(2 rho)) exp(-rho)
        for rho in (0.5, 1.0, 2.0):
            exact = math.sqrt(math.pi / (2 * rho)) * math.exp(-rho)
            assert abs(bessel_k(0.5, rho) - exact) <= 1e-10 * exact
        assert abs(bessel_k(0.5, 1.0) - 0.46106850444789) < 1e-12

    def test_against_scipy(self):
        rhos = np.geomspace(0.05, 30.0, 40)
        for nu in (0.125, 0.4, 1.0, 2.5):
            ours = bessel_k(nu, rhos)
            ref = scipy_kv(nu, rhos)
            assert np.max(np.abs(ours - ref) / ref) < 1e-11

    def test_strictly_decreasing(self):
        rhos = np.geomspace(0.1, 10.0, 30)
        vals = bessel_k(0.3, rhos)
        assert np.all(np.diff(vals) < 0)

    def test_underflow_flag(self):
        assert bessel_k(0.5, 800.0) == 0.0
        assert bessel_k(0.5, 1.0) > 0

    def test_domain(self):
        with pytest.raises(DomainError):
            bessel_k(0.5, -1.0)
        with pytest.raises(DomainError, match="rho must be positive"):
            bessel_k(0.25, math.nan)

    def test_domain_array(self):
        with pytest.raises(DomainError):
            bessel_k(0.5, np.array([1.0, 0.0]))
        with pytest.raises(DomainError, match="rho must be positive"):
            bessel_k(0.25, np.array([1.0, math.nan, 2.0]))

    @pytest.mark.parametrize("nu", [0.05, 0.25, 0.45, 1.45, 3.45, 6.45])
    def test_against_mpmath(self, nu):
        # the whole documented range, up to the 700 cut-off
        mpmath = pytest.importorskip("mpmath")
        rhos = np.geomspace(1e-12, 700.0, 600)
        with mpmath.workdps(30):
            ref = np.array([float(mpmath.besselk(nu, mpmath.mpf(r))) for r in rhos])
        assert np.max(np.abs(bessel_k(nu, rhos) - ref) / ref) <= 5e-14

    @pytest.mark.parametrize("nu", [0.05, 0.45, 6.45])
    def test_tiny_rho(self, nu):
        # K_nu(rho) = Gamma(nu)/2 (2/rho)^nu (1 + O(rho^(2 nu))) as rho -> 0:
        # a large float, or +inf where that overflows, but neither nan nor
        # an exception, down to the smallest subnormal rho
        for rho in (1e-300, 5e-324):
            with np.errstate(over="ignore"):
                ref = math.gamma(nu) / 2 * np.exp(nu * (math.log(2) - math.log(rho)))
            value = bessel_k(nu, rho)
            assert isinstance(value, float) and value == pytest.approx(ref, rel=1e-13)
            pair = bessel_k(nu, np.array([rho, 1.0]))
            assert pair[0] == pytest.approx(value, rel=1e-14)

    @pytest.mark.parametrize("nu", [0.05, 0.25, 1.45, 6.45])
    def test_batch_matches_scalar_bitwise(self, nu):
        # each rho's nodes and their sum follow rho, not its batch: every
        # tier, the tier edges, octave edges below 1 and subnormals
        rng = np.random.default_rng(0x5EED)
        rho = np.concatenate([rng.uniform(0.01, 1.0, 200), rng.uniform(1.0, 8.0, 40),
                              rng.uniform(8.0, 64.0, 40), rng.uniform(64.0, 700.0, 40),
                              [5e-324, 1e-300, 1e-12, 0.25, 0.5, 1.0, 8.0, 64.0, 700.0, 701.0]])
        batch = bessel_k(nu, rho)
        assert np.array_equal(batch, [bessel_k(nu, r) for r in rho])
        assert np.array_equal(batch[::-1], bessel_k(nu, rho[::-1]))


class TestKernelSpec:
    def test_bessel_profile_two_sided(self):
        nu = 0.125
        kern = KernelSpec(BesselMcDonald(nu=nu), n=1)
        y1 = auto_z1(kern)
        ys = np.geomspace(1e-6, y1, 64)
        ratio = kern.profile(ys) * ys ** (2 * nu)
        rhat = ratio / ratio[0]
        assert np.all((rhat >= 0.25) & (rhat <= 4.0))
        # large-argument branch: Phi(y) / (y^(-nu-1/2) e^-y) bounded on (y1, 20]
        ys = np.geomspace(y1 * 1.01, 20.0, 64)
        big = kern.profile(ys) / (ys ** (-nu - 0.5) * np.exp(-ys))
        assert big.max() / big.min() < 4.0

    def test_auto_z1_serves_the_bessel_family_only(self):
        kern = KernelSpec(PowerSlowlyVarying(alpha=0.5, sv=SlowlyVaryingSpec(),
                                             z1=4.0), n=1)
        with pytest.raises(DomainError, match="its own z1"):
            auto_z1(kern)

    def test_measure_profile_rejects_increasing_samples(self):
        # Phi(z) = z^-1/2 log(e/z)^-3 increases for z in (e^-5, z1]
        sv = SlowlyVaryingSpec((("log", -3.0),), scale=1.0)
        kern = KernelSpec(PowerSlowlyVarying(alpha=0.5, sv=sv, z1=1.0), n=1)
        with pytest.raises(DomainError, match="grid index 392"):
            measure_profile(kern, make_log_grid(1e-8, 1.0, 512))

    def test_power_profile_measure_coordinates(self):
        # n = 1, Phi(z) = z^(-1/2) on (0, z1]: phi(tau) = (tau/2)^(-1/2)
        kern = KernelSpec(PowerSlowlyVarying(alpha=0.5, sv=SlowlyVaryingSpec(),
                                             z1=4.0), n=1)
        g = make_log_grid(1e-8, 1.0, 128)
        phi = measure_profile(kern, g)
        assert np.allclose(phi.values, (g.points / 2.0) ** -0.5, rtol=1e-12)

    def test_bessel_phi_power_equivalent(self):
        kern = KernelSpec(BesselMcDonald(nu=0.125), n=1)   # alpha = 0.75
        g = make_log_grid(1e-8, 1.0, 512)
        phi = measure_profile(kern, g)
        assert np.all(np.diff(phi.values) <= 0)
        ratio = phi.values / g.points ** (0.75 - 1.0)
        assert ratio.max() / ratio.min() < 10.0

    def test_slowly_varying_profile(self):
        sv = SlowlyVaryingSpec(factors=(("log", 1.0),), scale=1.0)
        kern = KernelSpec(PowerSlowlyVarying(alpha=0.5, sv=sv, z1=1.0), n=1)
        g = make_log_grid(1e-6, 1.0, 64)
        phi = measure_profile(kern, g)
        vn = unit_ball_volume(1)
        lam = sv(g.points / vn)
        assert np.allclose(phi.values, (g.points / vn) ** -0.5 * lam, rtol=1e-12)

    @pytest.mark.parametrize("lam", [0.0, 0.5, -0.5])
    def test_power_profile_infinite_at_origin(self, lam):
        # Phi(0) = +inf without a floating-point warning (0^(alpha-n)
        # times an infinite or vanishing log factor otherwise warns or
        # gives nan); positive arguments keep their values
        sv = SlowlyVaryingSpec(factors=(("log", lam),), scale=1.0)
        kern = KernelSpec(PowerSlowlyVarying(alpha=0.6, sv=sv, z1=1.0), n=1)
        zs = np.array([0.0, 1e-3, 0.5, 2.0])
        with np.errstate(all="raise"):
            assert kern.profile(0.0) == math.inf
            vals = kern.profile(zs)
        assert vals[0] == math.inf
        assert np.array_equal(vals[1:], kern.profile(zs[1:]))

    def test_bessel_profile_infinite_at_origin(self):
        # Phi(z) ~ c z^(-2 nu) as z -> 0, so Phi(0) = +inf as for the power
        # variant above (0^-nu K_nu(0) would be inf * 0 = nan)
        kern = KernelSpec(BesselMcDonald(nu=0.25), n=1)
        zs = np.array([0.0, 1e-3, 0.5])
        with np.errstate(all="raise"):
            assert kern.profile(0.0) == math.inf
            vals = kern.profile(zs)
        assert vals[0] == math.inf
        assert np.array_equal(vals[1:], kern.profile(zs[1:]))

    def test_invalid_parameters(self):
        with pytest.raises(DomainError):
            KernelSpec(BesselMcDonald(nu=0.8), n=1)       # nu >= n/2
        with pytest.raises(DomainError):
            KernelSpec(PowerSlowlyVarying(alpha=1.5, sv=SlowlyVaryingSpec()), n=1)
        # a NaN split point would make the whole profile NaN
        for z1 in (0.0, math.nan, math.inf):
            with pytest.raises(DomainError, match="z1 must be positive and finite"):
                KernelSpec(PowerSlowlyVarying(alpha=0.5, sv=SlowlyVaryingSpec(), z1=z1), n=1)


class TestCellMass:
    """KernelSpec.cell_mass: int_0^h phi = 2 int_0^(h/2) Phi for n = 1."""

    @pytest.mark.parametrize("nu", [0.005, 0.03, 0.125, 0.25, 0.4, 0.49, 0.499])
    def test_bessel_against_mpmath(self, nu):
        # z = x w^m with m = 1/(1 - 2 nu) makes the z^(-2 nu) endpoint a
        # bounded integrand in w: an independent route to the same mass
        mpmath = pytest.importorskip("mpmath")
        kernel = KernelSpec(BesselMcDonald(nu=nu), n=1)
        with mpmath.workdps(30):
            m = 1 / (1 - 2 * mpmath.mpf(nu))
            for x in np.geomspace(1e-5, 5.0, 8):
                xm = mpmath.mpf(x)
                ref = 2 * mpmath.quad(lambda w: (xm * w ** m) ** -nu * mpmath.besselk(
                    nu, xm * w ** m) * xm * m * w ** (m - 1), [0, 1])
                assert abs(kernel.cell_mass(2 * x) - float(ref)) <= 1e-13 * float(ref), x

    @pytest.mark.parametrize("factors, half", [
        ((), 0.004), ((("log", 0.5),), 0.004), ((("log", 0.5),), 0.03),
        ((("log", 0.7), ("log", -0.4)), 0.004), ((("log", 0.7), ("log", -0.4)), 0.5)],
        ids=["plain", "log_below_z1", "log_past_z1", "two_logs_below_z1", "two_logs_past_z1"])
    def test_power_against_mpmath(self, factors, half):
        # the head z^(alpha-1) l^lambda below z1 = 0.01, the exponential
        # tail past it; two log factors multiply into one exponent sum
        mpmath = pytest.importorskip("mpmath")
        kernel = KernelSpec(PowerSlowlyVarying(alpha=0.6, sv=SlowlyVaryingSpec(
            factors=factors, scale=0.01), z1=0.01), n=1)
        with mpmath.workdps(30):
            def phi(z):
                zh = min(z, mpmath.mpf("0.01"))
                lam = mpmath.fprod(mpmath.log(mpmath.e * mpmath.mpf("0.01") / zh) ** e
                                   for _, e in factors)
                return zh ** (mpmath.mpf("0.6") - 1) * lam * mpmath.exp(-max(z - zh, 0))
            ref = 2 * mpmath.quad(phi, [0, min(half, 0.01), half])
        assert abs(kernel.cell_mass(2 * half) - float(ref)) <= 1e-13 * float(ref)

    def test_rejections(self):
        loglog = KernelSpec(PowerSlowlyVarying(alpha=0.6, sv=SlowlyVaryingSpec(
            factors=(("loglog", 1.0),))), n=1)
        with pytest.raises(DomainError, match="loglog"):
            loglog.cell_mass(0.01)
        with pytest.raises(DomainError, match="n = 1"):
            KernelSpec(BesselMcDonald(nu=0.4), n=2).cell_mass(0.01)
        bessel = KernelSpec(BesselMcDonald(nu=0.25), n=1)
        assert bessel.cell_mass(10.0) > 0
        with pytest.raises(ResolutionTooCoarse, match="99.7%"):
            bessel.cell_mass(10.0 * (1 + 1e-15))


class TestConeKernel:
    def setup_method(self):
        g = make_log_grid(1e-8, 1.0, 256)
        self.g = g
        self.phi = measure_profile(
            KernelSpec(PowerSlowlyVarying(alpha=0.75, sv=SlowlyVaryingSpec(),
                                          z1=2.0), n=1), g)

    def test_diagonal_is_half(self):
        t = 0.37
        assert np.isclose(cone_kernel(self.phi, 1, 1, t, t), self.phi(t) / 2)

    def test_small_tau_limit(self):
        vals = cone_kernel(self.phi, 1, 1, 1.0, np.array([1e-7, 1e-8]))
        assert np.allclose(vals / self.phi(np.array([1e-7, 1e-8])), 1.0, atol=1e-6)

    def test_point_value(self):
        # k = n: at t = 1, tau = 2 the denominator is 3
        got = cone_kernel(self.phi, 1, 1, 1.0, 2.0)
        assert np.isclose(got, self.phi(2.0) / 3.0)

    def test_monotone_in_t_and_dominated(self):
        taus = self.g.points
        prev = None
        for t in (0.01, 0.1, 0.5, 1.0):
            vals = cone_kernel(self.phi, 1, 1, t, taus)
            assert np.all(vals <= self.phi(taus) + 1e-15)
            if prev is not None:
                assert np.all(vals >= prev - 1e-15)
            prev = vals

    def test_within_factor_two_of_piecewise_form(self):
        taus = self.g.points
        for t in (0.01, 0.3, 1.0):
            vals = cone_kernel(self.phi, 1, 1, t, taus)
            piecewise = np.where(taus <= t, self.phi(taus),
                                 (t / taus) * self.phi(taus))
            assert np.all(vals <= piecewise * (1 + 1e-12))
            assert np.all(vals >= piecewise / 2.0 * (1 - 1e-12))


class TestDerivativeConditions:
    def test_pure_power_inner_constant(self):
        # Phi = z^-1 (n = 2, alpha = 1), k = 1: the radial derivative is
        # -z^-3, so z^2 |Phi_1| / Phi = 1 everywhere
        kern = KernelSpec(PowerSlowlyVarying(alpha=1.0, sv=SlowlyVaryingSpec(),
                                             z1=1.0), n=2)
        rep = check_derivative_conditions(kern, k=1)
        assert abs(rep.a1 - 1.0) < 1e-9
        assert rep.inner_ok and rep.outer_ok and rep.lower_ok

    def test_pure_power_sign_constant(self):
        # Phi = z^-beta: (-1)^k z^k Phi^(k) / Phi = beta (beta+1) ... (beta+k-1)
        for n, alpha, k in [(1, 0.75, 2), (1, 0.4, 1), (2, 0.5, 3)]:
            beta = n - alpha
            kern = KernelSpec(PowerSlowlyVarying(alpha=alpha, sv=SlowlyVaryingSpec(),
                                                 z1=1.0), n=n)
            rep = check_derivative_conditions(kern, k=k)
            expected = math.prod(beta + j for j in range(k))
            assert abs(rep.delta1 - expected) < 1e-9 * expected

    def test_slowly_varying_flags(self):
        sv = SlowlyVaryingSpec(factors=(("log", 1.5),), scale=0.25)
        kern = KernelSpec(PowerSlowlyVarying(alpha=0.6, sv=sv, z1=0.25), n=1)
        rep = check_derivative_conditions(kern, k=2)
        assert rep.inner_ok and rep.outer_ok and rep.lower_ok
        assert rep.delta1 > 0

    def test_bessel_mcdonald_flags(self):
        kern = KernelSpec(BesselMcDonald(nu=0.125), n=1)
        rep = check_derivative_conditions(kern, k=1)
        assert rep.inner_ok and rep.outer_ok and rep.lower_ok
        # near 0 the profile behaves like z^(-2 nu), so the k-th sign
        # constant approaches 2 nu
        assert rep.delta1 == pytest.approx(0.25, rel=0.3)

    @pytest.mark.parametrize("nu", [0.125, 0.45])
    @pytest.mark.parametrize("k", [2, 3, 4, 6])
    def test_bessel_mcdonald_higher_orders(self, nu, k):
        # closed-form derivatives: every order is accepted, and near 0
        # the sign constant approaches beta (beta+1) ... (beta+k-1) with
        # beta = 2 nu
        kern = KernelSpec(BesselMcDonald(nu=nu), n=1)
        rep = check_derivative_conditions(kern, k=k)
        assert rep.inner_ok and rep.outer_ok and rep.lower_ok
        expected = math.prod(2.0 * nu + j for j in range(k))
        assert rep.delta1 == pytest.approx(expected, rel=0.3)


class TestPowerDerivatives:
    @pytest.mark.parametrize("factors", [
        (("log", 1.5),),
        (("loglog", -0.5),),
        (("log", 1.5), ("loglog", -0.5)),
    ], ids=["log", "loglog", "both"])
    def test_closed_form_matches_symbolic(self, factors):
        # oracle: sympy differentiates z^(alpha-n) Lambda(z) and its
        # exponential tail; evaluated at 40 digits
        sp = pytest.importorskip("sympy")
        import mpmath
        from calderon_lab.kernels import _phi_derivatives
        alpha, n, z1 = sp.Rational(3, 5), 1, sp.Rational(1, 2)
        kern = KernelSpec(PowerSlowlyVarying(
            alpha=float(alpha), sv=SlowlyVaryingSpec(factors=factors, scale=float(z1)),
            z1=float(z1)), n=n)
        z = sp.symbols("z", positive=True)
        head = z ** (alpha - n)
        for kind, expo in factors:
            inner = sp.log(sp.E * z1 / z)
            if kind == "loglog":
                inner = sp.log(sp.E * inner)
            head *= inner ** sp.Rational(expo)
        tail = head.subs(z, z1) * sp.exp(-(z - z1))
        z_in = np.geomspace(1e-5 * float(z1), float(z1), 25)
        z_out = np.geomspace(1.02 * float(z1), 30.0, 10)
        derivs = _phi_derivatives(kern, 3)
        with mpmath.workdps(40):
            for k in range(4):
                for expr, zz in ((head, z_in), (tail, z_out)):
                    exact = sp.lambdify(z, sp.diff(expr, z, k), "mpmath")
                    ref = np.array([float(exact(mpmath.mpf(float(x)))) for x in zz])
                    got = derivs(zz)[k]
                    assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-12, k


class TestBesselDerivatives:
    @pytest.mark.parametrize("nu", ["1/10", "1/4", "9/20"])
    def test_closed_form_matches_symbolic(self, nu):
        # oracle: sympy differentiates z^(-nu) K_nu(z) through
        # K'_mu = -(K_(mu-1) + K_(mu+1)) / 2, a different identity from
        # the one the kernel module uses; mpmath evaluates every K order
        # at 40 digits.  Points: every fifth point of the checker's inner
        # and outer grids, both ends included.
        sp = pytest.importorskip("sympy")
        import mpmath
        from calderon_lab.kernels import _phi_derivatives
        nu = sp.Rational(nu)
        kern = KernelSpec(BesselMcDonald(nu=float(nu)), n=1)
        z1 = auto_z1(kern)
        zz = np.concatenate((np.geomspace(z1 * 1e-5, z1, 96)[::5],
                             np.geomspace(z1 * 1.02, max(10.0 * z1, z1 + 30.0), 96)[::5]))
        z = sp.symbols("z", positive=True)
        exprs = [sp.diff(z ** -nu * sp.besselk(nu, z), z, k) for k in range(7)]
        orders = sorted({b.args[0] for e in exprs for b in e.atoms(sp.besselk)})
        ks = sp.symbols(f"k0:{len(orders)}")
        subs = {sp.besselk(o, z): s for o, s in zip(orders, ks)}
        exact = [sp.lambdify((z, *ks), e.xreplace(subs), "mpmath") for e in exprs]
        derivs = _phi_derivatives(kern, 6)
        ref = np.empty((7, len(zz)))
        with mpmath.workdps(40):
            for col, x in enumerate(zz):
                xm = mpmath.mpf(float(x))
                kv = [mpmath.besselk(o, xm) for o in orders]
                ref[:, col] = [float(f(xm, *kv)) for f in exact]
        for k in range(7):
            got = derivs(zz)[k]
            assert np.max(np.abs(got - ref[k]) / np.abs(ref[k])) <= 1e-11, k
