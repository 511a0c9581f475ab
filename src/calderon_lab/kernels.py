"""Radial convolution kernels with a singularity at the origin.

Two families are supported:

  * the classical kernels built from the modified Bessel function of the
    second kind, Phi(y) = y^(-nu) K_nu(y), which behave like y^(-2 nu)
    near 0 and decay like y^(-nu-1/2) e^(-y);
  * power profiles with a slowly varying correction,
    Phi(z) = z^(alpha - n) * Lambda(z) on (0, z1], continued past z1 by
    the exponential tail Phi(z1) e^-(z - z1).

K_nu has one evaluator, `bessel_k`: the trapezoid rule on the cosh
integral representation, vectorized over rho and 0 past rho = 700.
Both families expose the profile in measure coordinates,
phi(tau) = Phi((tau / V_n)^(1/n)), its n = 1 singular-cell mass in closed
form, the cone kernel phi(tau) / (1 + (tau/t)^(k/n)), and checkers for
the derivative bounds that the smoothness estimates require.  Both families are differentiated
in closed form, to any order: the power family through its iterated-log
terms, the Bessel family through K'_mu = -K_(mu+1) + (mu/z) K_mu, which
makes every derivative a short sum of c z^m K_(nu+j)(z) terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResolutionTooCoarse
from .gridfn import LogGrid, SampledFunction, power_log_mass, sample


def unit_ball_volume(n: int) -> float:
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


# ---------------------------------------------------------------------------
# slowly varying factors
# ---------------------------------------------------------------------------

def _iterated_log(t, level: int, scale: float):
    """level 1: log(e*scale/t); level j+1: log(e * previous).  All levels
    equal 1 at t = scale and are positive and decreasing on (0, scale]."""
    out = np.log(math.e * scale / np.asarray(t, dtype=float))
    for _ in range(level - 1):
        out = np.log(math.e * out)
    return out


_KIND_LEVEL = {"log": 1, "loglog": 2}


@dataclass(frozen=True)
class SlowlyVaryingSpec:
    """Product of iterated-log powers, lambda(t) = prod l_j(t)^e_j,
    measured against e*scale/t so the factors are defined and positive
    on all of (0, scale]."""

    factors: tuple = ()          # ((kind, exponent), ...)
    scale: float = 1.0

    def __post_init__(self):
        for kind, _ in self.factors:
            if kind not in _KIND_LEVEL:
                raise DomainError(f"unknown slowly varying factor kind {kind!r}")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = np.ones_like(t)
        for kind, expo in self.factors:
            out = out * _iterated_log(t, _KIND_LEVEL[kind], self.scale) ** expo
        return out

    def powered(self, q: float) -> "SlowlyVaryingSpec":
        """The same factors with every exponent multiplied by q."""
        return SlowlyVaryingSpec(
            factors=tuple((k, e * q) for k, e in self.factors), scale=self.scale)


# ---------------------------------------------------------------------------
# kernel variants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BesselMcDonald:
    """Profile y^(-nu) K_nu(y); requires nu in (0, n/2)."""
    nu: float


@dataclass(frozen=True)
class PowerSlowlyVarying:
    """Profile z^(alpha-n) Lambda(z) on (0, z1], continued past z1 by
    the tail Phi(z1) e^-(z - z1)."""
    alpha: float
    sv: SlowlyVaryingSpec
    z1: float = 1.0


def bessel_k(nu: float, rho):
    """K_nu(rho) for a scalar or an array of rho > 0 (a float for a
    scalar input): the trapezoid rule in t on
    K_nu(rho) = e^-rho int_0^inf exp(-rho 2 sinh^2(t/2)) cosh(nu t) dt
    (DLMF 10.32.9), with a step set by the size of rho.  Against 30-digit
    mpmath the relative error is at most 1.6e-14 for nu <= 6.45 on
    rho in [1e-12, 700], growing with the order (1.7e-12 at nu = 10.45).
    The value is 0 past rho = 700 and +inf where it overflows; any rho
    that is not > 0, NaN included, raises DomainError."""
    r = np.asarray(rho, dtype=float)
    if not np.all(r > 0):
        raise DomainError("rho must be positive")
    out = _bessel_k_batch(nu, np.atleast_1d(r))
    return float(out[0]) if r.ndim == 0 else out


# (upper end of the rho tier, trapezoid step in t)
_BESSEL_TIERS = ((1.0, 0.2), (8.0, 0.1), (64.0, 0.04), (700.0, 0.015))


def _bessel_k_batch(nu: float, rho: np.ndarray) -> np.ndarray:
    out = np.zeros_like(rho)
    lo = 0.0
    for hi, h in _BESSEL_TIERS:
        tier = (rho > lo) & (rho <= hi)
        lo = hi
        if not np.any(tier):
            continue
        r = rho[tier]
        # each rho's own nodes, to one past where rho 2 sinh^2(t/2) reaches 45
        # (finite for any rho), summed in order: the same bits in any batch
        count = ((2.0 * np.arcsinh(math.sqrt(22.5) / np.sqrt(r)) + 1.0) // h).astype(int) + 1
        t = h * np.arange(count.max())
        # the integrand exp(-rho 2 sinh^2(t/2)) cosh(nu t) in logs, so that
        # cosh(nu t) cannot overflow against a vanishing exponential; the
        # product is formed as (rho 2^60) (2 (2^-30 sinh(t/2))^2), the same
        # bit for bit, but finite out to the t_end of a subnormal rho (> 710)
        half = 2.0 ** -30 * np.sinh(0.5 * t)
        with np.errstate(over="ignore", under="ignore"):
            log_f = np.multiply.outer(2.0 * half * half, -2.0 ** 60 * r)
            log_f += (np.logaddexp(nu * t, -nu * t) - math.log(2.0))[:, None]
            # every sum starts at the t = 0 node's exact 1, so no entry below
            # e^-700 moves it; the clamp keeps exp off its slow underflow path
            np.maximum(log_f, -700.0, out=log_f)
            f_sums = np.cumsum(np.exp(log_f, out=log_f), axis=0, out=log_f)
        # the trapezoid sum: f = 1 at the node t = 0, which has half weight
        out[tier] = h * (f_sums[count - 1, np.arange(len(r))] - 0.5) * np.exp(-r)
    return out


# gamma, zeta(3), ..., zeta(9): the odd series of log Gamma(1+nu) (DLMF 5.7.3)
_ODD_ZETA = (0.5772156649015329, 1.2020569031595942, 1.0369277551433699,
             1.0083492773819228, 1.0020083928260822)


def _bessel_head_mass(nu: float, x: float) -> float:
    """int_0^x z^-nu K_nu(z) dz for 0 < nu < 1/2 and 0 < x <= 5: the
    series of z^-nu K_nu = pi/(2 sin(nu pi)) z^-nu (I_-nu - I_nu) (DLMF
    10.27.4), integrated, each pair of terms b_k expm1(L_k); below
    nu = 0.03 the odd series gives L_0 where math.gamma's bits would not.
    Within 1e-13 relative of mpmath (about 1e-15 below x = 0.1)."""
    L = (-2.0 * sum(z * nu ** (2 * m + 1) / (2 * m + 1) for m, z in enumerate(_ODD_ZETA))
         if nu < 0.03 else math.log(math.gamma(1.0 + nu) / math.gamma(1.0 - nu)))
    L -= 2.0 * nu * math.log(0.5 * x)
    y, b, k, total = 0.25 * x * x, 1.0, 0, 0.0
    while b * (1.0 + math.exp(L)) > 1e-17 * abs(total):   # both series' next terms
        total += b / (2 * k + 1) * math.expm1(L - math.log1p(-2.0 * nu / (2 * k + 1)))
        k += 1
        b *= y / (k * (k + nu))
        L += math.log1p(2.0 * nu / (k - nu))
    return math.pi / (2.0 * math.sin(nu * math.pi)) * x * 2.0 ** -nu / math.gamma(1.0 + nu) * total


@dataclass(frozen=True)
class KernelSpec:
    """A radial kernel on R^n.  The constructor's ranges make the profile
    Phi continuous and positive, with finite integral of Phi(z) z^(n-1)
    over (0, inf).  Phi must also be nonincreasing, which a power profile
    with a negative log exponent need not be: ExperimentConfig.validate
    decides it in closed form, measure_profile checks it on the grid."""

    variant: object
    n: int = 1

    def __post_init__(self):
        if isinstance(self.variant, BesselMcDonald):
            if not (0.0 < self.variant.nu < self.n / 2.0):
                raise DomainError(
                    f"nu must lie in (0, n/2) = (0, {self.n / 2}), got {self.variant.nu}")
        elif isinstance(self.variant, PowerSlowlyVarying):
            if not (0.0 < self.variant.alpha < self.n):
                raise DomainError(
                    f"alpha must lie in (0, n) = (0, {self.n}), got {self.variant.alpha}")
            if not 0.0 < self.variant.z1 < math.inf:
                raise DomainError(f"z1 must be positive and finite, got {self.variant.z1}")
        else:
            raise DomainError(f"unknown kernel variant {type(self.variant)}")

    @property
    def ball_volume(self) -> float:
        return unit_ball_volume(self.n)

    def profile(self, z):
        """Phi(z), vectorized."""
        z = np.asarray(z, dtype=float)
        scalar = z.ndim == 0
        z = np.atleast_1d(z)
        if isinstance(self.variant, BesselMcDonald):
            nu = self.variant.nu
            with np.errstate(all="ignore"):
                out = z ** (-nu) * _bessel_k_batch(nu, z)
        else:
            v = self.variant
            zz = np.where(z == 0, 1.0, z)
            lam = v.sv(np.minimum(zz, v.z1))
            head = zz ** (v.alpha - self.n) * lam
            cap = v.z1 ** (v.alpha - self.n) * v.sv(v.z1)
            out = np.where(z <= v.z1, head,
                           cap * np.exp(-(z - v.z1)))
        # Phi(0) = +inf is set directly: 0^(alpha-n) * Lambda(0) warns and is
        # inf * 0 = nan for a decaying log factor, as is 0^-nu * 0
        out[z == 0] = np.inf
        return float(out[0]) if scalar else out

    def cell_mass(self, h: float) -> float:
        """int_0^h phi = 2 int_0^(h/2) Phi, the singular cell's mass, in
        closed form for n = 1 (else DomainError): `power_log_mass` with the
        log exponents summed plus the tail past z1 (a loglog factor raises
        DomainError), or the Bessel series, which raises ResolutionTooCoarse
        past h/2 = 5, where the cell holds over 99.7% of the kernel mass."""
        if self.n != 1:
            raise DomainError(f"the singular-cell mass needs n = 1, got n = {self.n}")
        half, v = 0.5 * h, self.variant
        if isinstance(v, BesselMcDonald):
            if half > 5.0:
                raise ResolutionTooCoarse(f"singular cell of half-width {half:g} > 5 "
                                          "carries more than 99.7% of the kernel mass")
            return 2.0 * _bessel_head_mass(v.nu, half)
        if any(kind != "log" for kind, _ in v.sv.factors):
            raise DomainError("no closed-form singular-cell mass for a loglog kernel factor")
        lam = sum(e for _, e in v.sv.factors)
        mass = power_log_mass(v.alpha - 1.0, lam, v.sv.scale, min(half, v.z1))
        if half > v.z1:
            mass -= self.profile(v.z1) * math.expm1(-(half - v.z1))
        return 2.0 * mass

    def measure_profile_fn(self):
        """phi(tau) = Phi((tau / V_n)^(1/n)) as a callable."""
        vn = self.ball_volume
        n = self.n
        return lambda tau: self.profile((np.asarray(tau, dtype=float) / vn) ** (1.0 / n))


def measure_profile(kernel: KernelSpec, grid: LogGrid) -> SampledFunction:
    """Sample phi(tau) = Phi((tau/V_n)^(1/n)) on a grid, evaluated off
    the grid through its callable.  DomainError where a sample exceeds
    its left neighbour by more than 1e-9 relative: phi must be
    nonincreasing."""
    phi = sample(kernel.measure_profile_fn(), grid)
    v = phi.values
    finite = np.isfinite(v[:-1])
    bad = finite & (v[1:] > v[:-1] + 1e-9 * np.abs(np.where(finite, v[:-1], 0.0)))
    if np.any(bad):
        raise DomainError(
            f"kernel measure profile increases at grid index {int(np.argmax(bad))}")
    return phi


def cone_kernel(phi, k: int, n: int, t, tau):
    """phi(tau) / (1 + (tau/t)^(k/n)); nondecreasing in t, at most
    phi(tau), within a factor 2 of the piecewise form
    min(phi(tau), (t/tau)^(k/n) phi(tau))."""
    t = np.asarray(t, dtype=float)
    tau = np.asarray(tau, dtype=float)
    return phi(tau) / (1.0 + (tau / t) ** (k / float(n)))


def auto_z1(kernel: KernelSpec) -> float:
    """Largest point of a 256-point geometric grid on [1e-6, 20] where
    the small-argument two-sided bound of a Bessel kernel still holds
    within a factor 4: the ratio Phi(y) * y^(2 nu) = y^nu K_nu(y) must
    stay at or above 1/4 of its value at the smallest grid point.  It
    strictly decreases (its derivative is -y^nu K_(nu-1)(y), DLMF
    10.29.4), so it never exceeds that value.  A power kernel carries
    its own z1 (DomainError)."""
    if not isinstance(kernel.variant, BesselMcDonald):
        raise DomainError("a power kernel carries its own z1")
    z_grid = np.geomspace(1e-6, 20.0, 256)
    ratio = kernel.profile(z_grid) * z_grid ** (2.0 * kernel.variant.nu)
    ok = ratio / ratio[0] >= 0.25
    bad = np.nonzero(~ok)[0]
    idx = (bad[0] - 1) if len(bad) else (len(z_grid) - 1)
    return float(z_grid[idx])


# ---------------------------------------------------------------------------
# derivative condition checker
# ---------------------------------------------------------------------------

@dataclass
class DerivativeConditionReport:
    """Constants of the derivative bounds a kernel profile satisfies.

    a1     -- sup over (0, z1] of max_j z^(2j) |Phi_j(z)| / Phi(z)
    a2     -- same quantity on (z1, inf) against z^k Phi(z)
    delta1 -- inf over (0, z1] of (-1)^k z^k Phi^(k)(z) / Phi(z)
    where Phi_j = (z^-1 d/dz)^j Phi.
    """
    a1: float
    a2: float
    delta1: float
    z1: float
    inner_ok: bool
    outer_ok: bool
    lower_ok: bool


def _term_levels(k: int, start, children) -> list:
    """levels[i] maps each term key of the i-th derivative to its
    coefficient, from levels[0] = {start: 1.0}: one more derivative sends
    the term c at key to f c at child for each (child, f) that
    children(key, i) yields; zero coefficients are dropped."""
    levels = [{start: 1.0}]
    for i in range(k):
        nxt = {}
        for key, c in levels[-1].items():
            for child, f in children(key, i):
                d = f * c
                if d != 0.0:
                    nxt[child] = nxt.get(child, 0.0) + d
        levels.append(nxt)
    return levels


def _power_derivatives(kernel: KernelSpec, k: int):
    """The callable z -> [Phi^(i)(z) for i = 0..k], in closed form.

    With a = alpha - n, l1 = log(e*scale/z) and l2 = log(e*l1), so that
    l1' = -1/z and l2' = -1/(z l1), the head z^a l1^p1 l2^p2 has i-th
    derivative z^(a-i) * sum of c l1^(p1-j1) l2^(p2-j2); one more
    derivative sends each term c at (j1, j2) to (a-i) c at (j1, j2),
    -(p1-j1) c at (j1+1, j2) and -(p2-j2) c at (j1+1, j2+1).  The tail
    cap exp(-(z - z1)) has i-th derivative cap (-1)^i exp(...).
    """
    v = kernel.variant
    a = v.alpha - kernel.n
    p1 = sum(e for kind, e in v.sv.factors if kind == "log")
    p2 = sum(e for kind, e in v.sv.factors if kind == "loglog")
    cap = kernel.profile(v.z1)

    def children(key, i):
        j1, j2 = key
        return (((j1, j2), a - i),
                ((j1 + 1, j2), -(p1 - j1)),
                ((j1 + 1, j2 + 1), -(p2 - j2)))

    levels = _term_levels(k, (0, 0), children)

    def derivs(zz):
        zz = np.asarray(zz, dtype=float)
        zh = np.minimum(zz, v.z1)
        l1 = _iterated_log(zh, 1, v.sv.scale)
        l2 = np.log(math.e * l1) if p2 else 1.0
        tail = np.exp(-(np.maximum(zz, v.z1) - v.z1))
        out = []
        for i, level in enumerate(levels):
            logs = sum(c * l1 ** (p1 - j1) * l2 ** (p2 - j2) for (j1, j2), c in level.items())
            out.append(np.where(zz <= v.z1, zh ** (a - i) * logs,
                                cap * (-1.0) ** i * tail))
        return out

    return derivs


def _phi_derivatives(kernel: KernelSpec, k: int):
    """The callable z -> [Phi^(i)(z) for i = 0..k], in closed form for
    both kernel families and any k, each term evaluated once per z.

    Bessel family: Phi = z^(-nu) K_nu(z), and K'_mu = -K_(mu+1) +
    (mu/z) K_mu (DLMF 10.29.2) gives d/dz [z^m K_mu] = (m + mu) z^(m-1)
    K_mu - z^m K_(mu+1), so a term c z^(-nu-j1) K_(nu+j2) at (j1, j2)
    goes to (j2-j1) c at (j1+1, j2) and -c at (j1, j2+1); the orders
    K_nu, ..., K_(nu+k) are each evaluated once.
    """
    if isinstance(kernel.variant, PowerSlowlyVarying):
        return _power_derivatives(kernel, k)
    nu = kernel.variant.nu

    def children(key, i):
        j1, j2 = key
        return (((j1 + 1, j2), j2 - j1), ((j1, j2 + 1), -1.0))

    levels = _term_levels(k, (0, 0), children)

    def derivs(zz):
        zz = np.asarray(zz, dtype=float)
        kv = [bessel_k(nu + j, zz) for j in range(k + 1)]
        return [sum(c * zz ** (-nu - j1) * kv[j2] for (j1, j2), c in level.items())
                for level in levels]

    return derivs


def check_derivative_conditions(kernel: KernelSpec, k: int) -> DerivativeConditionReport:
    """Evaluate the two-scale derivative bounds and the k-th derivative
    sign bound for a kernel profile on 96-point test grids either side
    of z1: the kernel's own split point (power variants) or the
    automatically selected small-argument range (Bessel family).  The
    profile derivatives are closed forms for both families, so any
    k >= 1 is accepted.
    """
    if k < 1:
        raise DomainError("k must be a positive integer")
    z1 = (kernel.variant.z1 if isinstance(kernel.variant, PowerSlowlyVarying)
          else auto_z1(kernel))
    derivs = _phi_derivatives(kernel, k)

    z_in = np.geomspace(z1 * 1e-5, z1, 96)
    z_out = np.geomspace(z1 * 1.02, max(10.0 * z1, z1 + 30.0), 96)
    # Phi_j = sum_i a[j][i] z^(i-2j) Phi^(i): z^-1 d/dz sends the term a at
    # order i of Phi_j to (i - 2j) a at order i and a at order i + 1
    radial_levels = _term_levels(k, 0, lambda i, j: ((i, i - 2 * j), (i + 1, 1.0)))

    def radial_ratios(z, d_vals, denom):
        worst = np.zeros_like(z)
        for j in range(1, k + 1):
            phi_j = np.zeros_like(z)
            for i, a in radial_levels[j].items():
                phi_j += a * z ** (i - 2 * j) * d_vals[i]
            worst = np.maximum(worst, z ** (2 * j) * np.abs(phi_j) / denom)
        return worst

    d_in = derivs(z_in)
    a1 = float(np.max(radial_ratios(z_in, d_in, d_in[0])))

    d_out = derivs(z_out)
    a2 = float(np.max(radial_ratios(z_out, d_out, z_out ** k * d_out[0])))

    delta1 = float(np.min((-1.0) ** k * z_in ** k * d_in[k] / d_in[0]))

    return DerivativeConditionReport(
        a1=a1, a2=a2, delta1=delta1, z1=float(z1),
        inner_ok=bool(np.isfinite(a1)),
        outer_ok=bool(np.isfinite(a2)),
        lower_ok=bool(delta1 > 0.0))
