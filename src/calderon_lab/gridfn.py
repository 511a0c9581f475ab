"""Logarithmic grids, sampled functions, and singular-endpoint quadrature.

Everything downstream works with functions sampled on a geometric grid
over (0, T].  The weights and kernel profiles of interest are all of
power-times-iterated-log type, so they are smooth on a log scale; the
segment rules and the quadrature below exploit exactly that.

Conventions:
  * +inf is a first-class value: norms and running suprema may be
    infinite, and infinity propagates through sums and maxima.
  * quadrature tolerance is relative (default 1e-8); derived norms are
    only meaningful to ~1e-6 because the estimates they feed are
    two-sided up to constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateRange,
    DomainError,
    NonConvergent,
    NonPositiveBound,
    TooFewPoints,
)

DEFAULT_GRID_POINTS = 512
DEFAULT_GRID_SPAN = 1e-8       # t_min = span * T
DEFAULT_QUAD_TOL = 1e-8
DEFAULT_NORM_TOL = 1e-6

_GAUSS_HI = np.polynomial.legendre.leggauss(16)
_GAUSS_LO = np.polynomial.legendre.leggauss(8)
_ABS_FLOOR = 1e-300


# ---------------------------------------------------------------------------
# grids and sampled functions
# ---------------------------------------------------------------------------

@dataclass
class LogGrid:
    """Geometrically spaced points on [t_min, t_max]."""

    t_min: float
    t_max: float
    count: int
    points: np.ndarray = field(repr=False)

    @property
    def ratio(self) -> float:
        return (self.t_max / self.t_min) ** (1.0 / (self.count - 1))


def make_log_grid(t_min: float, t_max: float, count: int) -> LogGrid:
    """Geometric grid with exact endpoints and constant point ratio."""
    if not (t_min > 0.0) or not (t_max > 0.0):
        raise NonPositiveBound(f"grid bounds must be positive, got ({t_min}, {t_max})")
    if not t_min < t_max:
        raise DegenerateRange(f"need t_min < t_max, got ({t_min}, {t_max})")
    if count < 2:
        raise TooFewPoints(f"need at least 2 points, got {count}")
    pts = np.geomspace(t_min, t_max, count)
    pts[0], pts[-1] = t_min, t_max
    return LogGrid(t_min=t_min, t_max=t_max, count=count, points=pts)


def default_grid(T: float = 1.0, points: int = DEFAULT_GRID_POINTS,
                 span: float = DEFAULT_GRID_SPAN) -> LogGrid:
    """The standard working grid: `points` geometric points on [span*T, T]."""
    return make_log_grid(span * T, T, points)


@dataclass
class SampledFunction:
    """Values of a real function on a LogGrid, plus monotonicity metadata.

    `extension` governs evaluation beyond t_max:
      zero_beyond_T     -- 0 for t > t_max
      constant_beyond_T -- frozen at the last sample
      analytic          -- delegate to `fn` (which must then be set; it is
                           also used below t_min and between grid points)
    Below t_min (without `fn`) the first segment's local power law is
    extrapolated.  Between grid points, positive values are interpolated
    by the power law through the bracketing samples (exact for pure
    powers); otherwise linearly in log t.
    """

    grid: LogGrid
    values: np.ndarray
    monotonicity: str = "none"          # "increasing" | "decreasing" | "none"
    extension: str = "constant_beyond_T"
    fn: object = None                   # optional callable for extension="analytic"

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if len(self.values) != self.grid.count:
            raise DomainError(
                f"{len(self.values)} values on a grid of {self.grid.count} points")
        if self.monotonicity == "decreasing":
            v = self.values
            finite = np.isfinite(v[:-1])
            slack = 1e-9 * np.abs(np.where(finite, v[:-1], 0.0))
            bad = finite & (v[1:] > v[:-1] + slack)
            if np.any(bad):
                i = int(np.argmax(bad))
                raise DomainError(
                    f"values tagged decreasing increase at grid index {i}")

    # -- evaluation --------------------------------------------------------

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        t = np.atleast_1d(t)
        if self.extension == "analytic" and self.fn is not None:
            out = np.asarray(self.fn(t), dtype=float)
            return float(out[0]) if scalar else out

        g, v = self.grid.points, self.values
        out = np.empty_like(t)

        below = t < g[0]
        above = t > g[-1]
        inside = ~(below | above)

        if np.any(inside):
            out[inside] = _interp_loglog(t[inside], g, v)
        if np.any(below):
            p = _local_power(g[0], g[1], v[0], v[1])
            tt = t[below]
            if v[0] > 0 and np.isfinite(p):
                out[below] = v[0] * (tt / g[0]) ** p
            else:
                out[below] = v[0]
        if np.any(above):
            out[above] = 0.0 if self.extension == "zero_beyond_T" else v[-1]
        return float(out[0]) if scalar else out


def sample(fn, grid: LogGrid, monotonicity="none", extension="analytic") -> SampledFunction:
    """Sample a vectorized callable on a grid, keeping it for evaluation."""
    vals = np.asarray(fn(grid.points), dtype=float)
    return SampledFunction(grid=grid, values=vals, monotonicity=monotonicity,
                           extension=extension, fn=fn if extension == "analytic" else None)


def _interp_loglog(t, g, v):
    """Interpolate inside the grid: power law where both samples are
    positive and finite, linear in log t otherwise."""
    idx = np.clip(np.searchsorted(g, t, side="right") - 1, 0, len(g) - 2)
    t0, t1 = g[idx], g[idx + 1]
    v0, v1 = v[idx], v[idx + 1]
    w = np.log(t / t0) / np.log(t1 / t0)
    pos = (v0 > 0) & (v1 > 0) & np.isfinite(v0) & np.isfinite(v1)
    safe0 = np.where(pos, v0, 1.0)
    safe1 = np.where(pos, v1, 1.0)
    out = np.where(pos, safe0 * np.exp(w * np.log(safe1 / safe0)),
                   v0 + w * (v1 - v0))
    exact = t == t0
    out[exact] = v0[exact]
    return out


def _local_power(t0, t1, v0, v1):
    if v0 > 0 and v1 > 0 and np.isfinite(v0) and np.isfinite(v1):
        return math.log(v1 / v0) / math.log(t1 / t0)
    return math.nan


# ---------------------------------------------------------------------------
# segment rules for sampled integrands
# ---------------------------------------------------------------------------

def segment_masses(t: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-segment integrals of a sampled function.

    Each segment uses the power law through its endpoints (exact for
    t^p).  The power model is only trusted where its fitted exponent is
    stable across neighbouring segments; elsewhere (zeros, sign changes,
    steep non-power behaviour such as a function vanishing linearly)
    the trapezoid takes over, which is exact precisely in those spots.
    """
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


def head_mass(t: np.ndarray, y: np.ndarray) -> float:
    """Estimate of the integral over (0, t[0]) by power extrapolation of
    the first segment.  Returns +inf when the local power is <= -1
    (with a whisker of slack so an exact 1/t integrand, whose fitted
    power carries ~1e-16 of rounding, is still flagged divergent)."""
    p = _local_power(t[0], t[1], y[0], y[1])
    if math.isnan(p):
        return float(y[0] * t[0]) if np.isfinite(y[0]) else math.inf
    if p <= -1.0 + 1e-6:
        return math.inf
    return float(y[0] * t[0] / (p + 1.0))


def total_mass(t, y) -> float:
    """Estimated integral of y over (0, t[-1]]: the power-law head
    below t[0] plus the segment rule, or +inf when the head diverges."""
    head = head_mass(t, y)
    if not math.isfinite(head):
        return math.inf
    return head + float(np.sum(segment_masses(t, y)))


def cumulative_from_zero(t, y) -> np.ndarray:
    """I[i] = estimated integral of y over (0, t[i]].  May be +inf."""
    head = head_mass(t, y)
    seg = segment_masses(t, y)
    out = np.empty(len(t))
    out[0] = head
    np.cumsum(seg, out=out[1:])
    out[1:] += head
    return out


def cumulative_tail(t, y) -> np.ndarray:
    """J[i] = integral of y over [t[i], t[-1]]."""
    seg = segment_masses(t, y)
    out = np.zeros(len(t))
    out[:-1] = np.cumsum(seg[::-1])[::-1]
    return out


# ---------------------------------------------------------------------------
# adaptive quadrature with singular endpoints
# ---------------------------------------------------------------------------

def _call(f, x):
    with np.errstate(all="ignore"):
        y = np.asarray(f(x), dtype=float)
    if y.shape != x.shape:
        y = np.broadcast_to(y, x.shape).astype(float)
    return y


def _gauss_panel(f, lo, hi):
    mid, rad = 0.5 * (hi + lo), 0.5 * (hi - lo)
    hi_val = rad * float(np.dot(_GAUSS_HI[1], _call(f, mid + rad * _GAUSS_HI[0])))
    lo_val = rad * float(np.dot(_GAUSS_LO[1], _call(f, mid + rad * _GAUSS_LO[0])))
    return hi_val, abs(hi_val - lo_val)


def _adaptive_panel(f, lo, hi, tol_abs, depth=0):
    """Order-16 Gauss with order-8 error estimate, bisecting until the
    estimate is below tol_abs (or negligible relative to the value)."""
    val, err = _gauss_panel(f, lo, hi)
    if err <= tol_abs or err <= 1e-14 * abs(val) or depth >= 14 or not np.isfinite(val):
        return val, err
    mid = 0.5 * (lo + hi)
    v1, e1 = _adaptive_panel(f, lo, mid, tol_abs / 2, depth + 1)
    v2, e2 = _adaptive_panel(f, mid, hi, tol_abs / 2, depth + 1)
    return v1 + v2, e1 + e2


def integrate(f, a: float, b: float, singular_at_a: bool = False,
              tol: float = DEFAULT_QUAD_TOL):
    """Integrate f over (a, b); returns (value, err_estimate).

    f must accept numpy arrays.  b may be +inf.  With singular_at_a the
    subdivision is geometric toward a (fixed-width panels in
    log(x - a)); mass hiding below the floating-point floor is recovered
    by fitting the panel decay (geometric for power singularities,
    log-power otherwise).  Raises NonConvergent when the error estimate
    stalls above tol or the endpoint mass diverges.
    """
    if not (a < b):
        raise DomainError(f"need a < b, got ({a}, {b})")
    if not np.isfinite(a):
        raise DomainError("lower bound must be finite")

    total, err = 0.0, 0.0
    upper = b
    if not np.isfinite(b):
        upper = max(2.0 * abs(a) if a != 0 else 1.0, 1.0)
        t_val, t_err = _log_panel_limit(f, upper, tol, downward=False)
        total += t_val
        err += t_err

    if singular_at_a:
        shifted = (lambda x: _call(f, a + x)) if a != 0.0 else f
        # below ~1e-9*|a| the shift x -> a + x loses too many digits; the
        # tail fit supplies the remaining mass
        floor_x = max(1e-290, abs(a) * 1e-9)
        s_val, s_err = _log_panel_limit(shifted, upper - a, tol, downward=True,
                                        floor_u=math.log(floor_x))
        total += s_val
        err += s_err
    else:
        v, e = _adaptive_panel(f, a, upper, tol * max(abs(total), _ABS_FLOOR))
        for _ in range(6):
            target = tol * max(abs(total + v), _ABS_FLOOR)
            if e <= target:
                break
            v, e = _adaptive_panel(f, a, upper, target / 4)
        total += v
        err += e

    if err > 10 * tol * max(abs(total), _ABS_FLOOR) + _ABS_FLOOR:
        raise NonConvergent(
            f"error estimate {err:.3e} above tolerance for value {total:.6e}")
    return total, err


_PANEL_WIDTH = 16.0     # e^-16 ~ 1e-7 of the scale per panel


def _log_panel_limit(f, c: float, tol: float, downward: bool, floor_u: float = None):
    """Integrate f over (0, c] (downward) or [c, inf) via fixed-width
    panels in u = log x, plus a model fit for the mass beyond the float
    range.  f takes the distance from the finite end."""
    U = math.log(c)
    g = lambda u: _call(f, np.exp(u)) * np.exp(u)
    sgn = -1.0 if downward else 1.0
    if floor_u is None:
        floor_u = -700.0 if downward else 700.0

    # uniform panels exactly covering [floor_u, U]; no partial last panel,
    # so penultimate/last mass ratios are clean extrapolation data
    span = abs(floor_u - U)
    n_panels = max(8, int(math.ceil(span / _PANEL_WIDTH)))
    width = span / n_panels

    masses, centers = [], []
    total, err = 0.0, 0.0
    edge = U
    scale = _ABS_FLOOR
    for _ in range(n_panels):
        nxt = edge + sgn * width
        lo, hi = (nxt, edge) if downward else (edge, nxt)
        val, e = _adaptive_panel(g, lo, hi, tol * scale / 64)
        if not np.isfinite(val):
            raise NonConvergent(
                "integrand overflow near endpoint; integral appears divergent")
        masses.append(val)
        centers.append(0.5 * (lo + hi))
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

    tail, tail_err = _fit_tail(np.asarray(masses), np.asarray(centers),
                               width, U, edge, downward)
    if not np.isfinite(tail):
        raise NonConvergent(
            "endpoint mass does not decay; integral appears divergent")
    total += tail
    err += tail_err
    return total, err


def _fit_tail(masses, centers, width, U, u_edge, downward):
    """Extrapolate the panel masses past the float floor at u_edge.

    Two models are fitted to the trailing panels and the better residual
    wins: geometric decay of equal-width panel masses (power-type
    integrands) and a power of the log-distance from the start
    (iterated-log integrands).  Either way the amplitude is calibrated
    to the last measured mass, so only the fitted slope matters.
    Divergent or non-decaying masses return inf.
    """
    am = np.abs(masses)
    n = len(am)
    if n == 0 or am[-1] == 0.0:
        return 0.0, 0.0
    if n < 4 or np.any(am[1:] >= am[:-1] * (1 - 1e-12)):
        return math.inf, math.inf
    sgn_mass = math.copysign(1.0, masses[-1])
    sgn = -1.0 if downward else 1.0

    def tail_from_window(k):
        u = centers[-k:]
        y = np.log(am[-k:])
        dist = sgn * (u - U) + 1.0
        A = np.vstack([np.ones_like(u), u]).T
        coefA, resA, *_ = np.linalg.lstsq(A, y, rcond=None)
        rA = float(resA[0]) if len(resA) else 0.0
        beta = coefA[1]
        out_a = out_b = math.inf
        if sgn * beta < -1e-12:
            r = math.exp(-abs(beta) * width)
            out_a = am[-1] * r / (1.0 - r)
        Bm = np.vstack([np.ones_like(u), np.log(dist)]).T
        coefB, resB, *_ = np.linalg.lstsq(Bm, y, rcond=None)
        rB = float(resB[0]) if len(resB) else 0.0
        sigma = -coefB[1]
        if sigma > 1.02:
            # virtual panels continuing the last mass with the fitted decay
            d_last = dist[-1]
            d = d_last + width * (1.0 + np.arange(4000))
            out_b = am[-1] * float(np.sum((d / d_last) ** -sigma))
            out_b += am[-1] * ((d[-1] + width) / d_last) ** (1.0 - sigma) \
                / ((sigma - 1.0) * width / d_last)
        return (out_a, rA) if rA <= rB else (out_b, rB)

    k1 = min(n, 8)
    t1, r1 = tail_from_window(k1)
    if not np.isfinite(t1):
        return math.inf, math.inf
    t2, _ = tail_from_window(min(n, 16)) if n > k1 else (t1, 0.0)
    if not np.isfinite(t2):
        t2 = t1
    rms = math.sqrt(max(r1, 0.0) / k1)
    terr = abs(t1 - t2) + (20.0 * rms + 1e-6) * abs(t1)
    return sgn_mass * t1, terr


# ---------------------------------------------------------------------------
# endpoint behaviour classification
# ---------------------------------------------------------------------------

@dataclass
class EndpointFit:
    """Least-squares model y ~ C * t^p * log(e*t_max/t)^e near t -> 0."""
    p: float
    e: float
    tag: str    # "convergent" | "divergent" | "ambiguous"


_P_TOL = 0.02      # half-width of the power exponent's borderline band


def classify_zero_endpoint(grid: LogGrid, values: np.ndarray,
                           e_tol: float = 0.05) -> EndpointFit:
    """Decide whether the integral of a positive sampled function
    converges at 0, by fitting a power and a log-power exponent over the
    lower half of the grid.

    The families in scope are all power x iterated-log, so the two-term
    fit is essentially exact; genuinely borderline cases come back
    "ambiguous" rather than being silently decided.
    """
    t = grid.points
    y = np.asarray(values, dtype=float)
    n = max(8, len(t) // 2)
    t, y = t[:n], y[:n]
    good = (y > 0) & np.isfinite(y)
    if good.sum() < 8:
        return EndpointFit(p=math.nan, e=math.nan, tag="ambiguous")
    t, y = t[good], y[good]
    L = np.log(math.e * grid.t_max / t)
    A = np.vstack([np.ones_like(t), np.log(t), np.log(L)]).T
    coef, *_ = np.linalg.lstsq(A, np.log(y), rcond=None)
    p, e = float(coef[1]), float(coef[2])
    if p > -1.0 + _P_TOL:
        tag = "convergent"
    elif p < -1.0 - _P_TOL:
        tag = "divergent"
    elif e < -1.0 - e_tol:
        tag = "convergent"
    elif e > -1.0 + e_tol:
        tag = "divergent"
    else:
        tag = "ambiguous"
    return EndpointFit(p=p, e=e, tag=tag)


def classify_boundedness(grid: LogGrid, values: np.ndarray,
                         e_tol: float = 0.05) -> EndpointFit:
    """Decide whether a positive sampled function stays bounded as
    t -> 0 (tag "convergent" = bounded, "divergent" = blows up)."""
    fit = classify_zero_endpoint(grid, values, e_tol=e_tol)
    p, e = fit.p, fit.e
    if math.isnan(p):
        return EndpointFit(p=p, e=e, tag="ambiguous")
    if p > _P_TOL:
        tag = "convergent"
    elif p < -_P_TOL:
        tag = "divergent"
    elif e > e_tol:
        tag = "divergent"
    else:
        tag = "convergent"      # flat or log-decaying: bounded
    return EndpointFit(p=p, e=e, tag=tag)
