"""Logarithmic grids, sampled functions, and power x log masses.

Everything downstream works with functions sampled on a geometric grid
over (0, T].  The weights and kernel profiles of interest are all of
power-times-iterated-log type, so they are smooth on a log scale; the
segment rules below exploit exactly that, and the laws' own masses at
their singular endpoint are incomplete gammas (`power_log_mass`).

Conventions:
  * +inf is a first-class value: norms and running suprema may be
    infinite, and infinity propagates through sums and maxima.
  * the closed forms are good to ~1e-14 relative; derived norms are
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


def default_grid(points: int = 512) -> LogGrid:
    """The standard working grid: `points` geometric points on [1e-8, 1]."""
    return make_log_grid(1e-8, 1.0, points)


@dataclass
class SampledFunction:
    """Values of a real function on a LogGrid.

    Called with its own `grid.points` (the same array object), it returns
    a copy of its samples.  A sample with `fn` evaluates every other
    point through `fn`.  Without `fn`, it is read on [t_min, t_max]
    only (DomainError outside): positive values between grid points by
    the power law through the bracketing samples (exact for pure
    powers), others linearly in log t.
    """

    grid: LogGrid
    values: np.ndarray
    fn: object = None                   # vectorized callable the samples came from

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if len(self.values) != self.grid.count:
            raise DomainError(
                f"{len(self.values)} values on a grid of {self.grid.count} points")

    # -- evaluation --------------------------------------------------------

    def __call__(self, t):
        if t is self.grid.points:
            return self.values.copy()
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        t = np.atleast_1d(t)
        if self.fn is not None:
            out = np.asarray(self.fn(t), dtype=float)
        else:
            g = self.grid.points
            if not np.all((t >= g[0]) & (t <= g[-1])):
                raise DomainError(
                    f"a sample without fn is read on [{g[0]:g}, {g[-1]:g}] only")
            out = _interp_loglog(t, g, self.values)
        return float(out[0]) if scalar else out


def sample(fn, grid: LogGrid) -> SampledFunction:
    """Sample a vectorized callable on a grid, keeping it to evaluate
    every point off the grid."""
    return SampledFunction(grid=grid, values=fn(grid.points), fn=fn)


def _interp_loglog(t, g, v):
    """Interpolate inside the grid: power law where both samples are
    positive and finite, linear in log t otherwise; a grid node returns
    its own sample."""
    idx = np.clip(np.searchsorted(g, t, side="right") - 1, 0, len(g) - 2)
    t0, t1 = g[idx], g[idx + 1]
    v0, v1 = v[idx], v[idx + 1]
    w = np.log(t / t0) / np.log(t1 / t0)
    pos = (v0 > 0) & (v1 > 0) & np.isfinite(v0) & np.isfinite(v1)
    safe0 = np.where(pos, v0, 1.0)
    safe1 = np.where(pos, v1, 1.0)
    out = np.where(pos, safe0 * np.exp(w * np.log(safe1 / safe0)),
                   v0 + w * (v1 - v0))
    return np.where(t == t0, v0, np.where(t == t1, v1, out))


def _loglog_crossing(t0, t1, v0, v1, level) -> float:
    """The t in [t0, t1] where the `_interp_loglog` segment through
    (t0, v0) and (t1, v1) equals `level`, for v0 != v1 with `level`
    between them: the power law's inverse where both samples are
    positive and finite, the linear one in log t otherwise."""
    if v0 > 0 and v1 > 0 and math.isfinite(v1):
        w = math.log(level / v0) / math.log(v1 / v0)
    else:
        w = (level - v0) / (v1 - v0)
    return float(min(max(t0 * (t1 / t0) ** w, t0), t1))


# ---------------------------------------------------------------------------
# segment rules for sampled integrands
# ---------------------------------------------------------------------------

# Elements per row block in the callers that run a family of rows on one
# grid through the grid rules (`_map_row_blocks`): 2^14 floats, 128 KB per
# temporary.  Blocks of 2^13 to 2^15 ran a warm lattice pass fastest;
# smaller ones pay the per-call overhead again, wider ones leave the
# cache and lift the peak memory.
_ROW_BLOCK_ELEMENTS = 2 ** 14


def _map_row_blocks(fn, rows, width: int) -> np.ndarray:
    """fn applied to consecutive blocks of `rows` (an F x width array or
    a sequence of F rows of that width), each stacked into an array of
    about _ROW_BLOCK_ELEMENTS elements; fn returns one value per row of
    its block, and the F values come back in order."""
    out = np.empty(len(rows))
    step = max(1, _ROW_BLOCK_ELEMENTS // width)
    for i in range(0, len(rows), step):
        out[i:i + step] = fn(np.asarray(rows[i:i + step], dtype=float))
    return out


def segment_masses(t: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-segment integrals of a sampled function, or of each row of an
    F x N block of samples on the one grid t (the result then has F rows
    of N - 1 segments).

    Each segment uses the power law through its endpoints (exact for
    t^p).  The power model is only trusted where its fitted exponent is
    stable across neighbouring segments; elsewhere (zeros, sign changes,
    steep non-power behaviour such as a function vanishing linearly)
    the trapezoid takes over, which is exact precisely in those spots.
    The grid ratios and their logs are taken once for all rows; the
    power-law mass is evaluated on every segment and kept where the
    model is trusted, so a row's result does not depend on the block it
    came in.  The power-law part raises no floating-point warnings: on
    the discarded segments it may overflow or divide by zero.
    """
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    t0, t1 = t[:-1], t[1:]
    y0, y1 = y[..., :-1], y[..., 1:]
    finite = np.isfinite(y)
    fin = finite[..., :-1] & finite[..., 1:]
    pos = (y > 0) & finite
    ok = pos[..., :-1] & pos[..., 1:]
    out = np.add(y0, y1)
    out *= 0.5
    out *= t1 - t0
    out[~fin] = np.inf
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        r = t1 / t0
        log_r = np.log(r)
        p = np.divide(y1, y0)
        np.log(p, out=p)
        p /= log_r
        p[~ok] = np.nan
        if p.shape[-1] > 1:
            dp = np.abs(np.diff(p))
            drift = np.empty_like(p)
            drift[..., 0], drift[..., -1] = dp[..., 0], dp[..., -1]
            np.minimum(dp[..., :-1], dp[..., 1:], out=drift[..., 1:-1])
            del dp      # block temporaries are freed once dead: they set the peak memory
            # a NaN drift (a neighbour without a power law) never vetoes
            ok &= (~(drift >= 0.5) | np.isinf(drift)) & (np.abs(p) < 50.0)
            del drift
        # the power-law mass, kept only where the model is kept
        p1 = np.add(p, 1.0, out=p)
        base = y0 * t0
        small = np.flatnonzero(np.abs(p1) < 1e-12)
        p1.flat[small] = 1.0
        mass = r ** p1
        mass -= 1.0
        mass *= base
        mass /= p1
        mass.flat[small] = base.flat[small] * log_r[small % len(log_r)]
    np.copyto(out, mass, where=ok)
    return out


def head_mass(t: np.ndarray, y: np.ndarray) -> float:
    """Estimate of the integral over (0, t[0]) by power extrapolation of
    the first segment.  Returns +inf when the local power is <= -1
    (with a whisker of slack so an exact 1/t integrand, whose fitted
    power carries ~1e-16 of rounding, is still flagged divergent)."""
    if not (y[0] > 0 and y[1] > 0 and np.isfinite(y[0]) and np.isfinite(y[1])):
        return float(y[0] * t[0]) if np.isfinite(y[0]) else math.inf
    p = math.log(y[1] / y[0]) / math.log(t[1] / t[0])
    if p <= -1.0 + 1e-6:
        return math.inf
    return float(y[0] * t[0] / (p + 1.0))


def _head_masses(t, y: np.ndarray) -> np.ndarray:
    """head_mass of each row of y, shaped y.shape[:-1] (scalar logs, so
    a row's head does not depend on the block it came in)."""
    rows = y.reshape(-1, y.shape[-1])
    return np.array([head_mass(t, row) for row in rows]).reshape(y.shape[:-1])


def total_mass(t, y):
    """Estimated integral of y over (0, t[-1]]: the power-law head
    below t[0] plus the segment rule, or +inf when the head diverges.
    For an F x N block y, the array of its F row masses."""
    y = np.asarray(y, dtype=float)
    rows = y.reshape(-1, y.shape[-1])
    heads = _head_masses(t, rows)
    out = np.full(len(rows), math.inf)
    finite = np.isfinite(heads)
    out[finite] = heads[finite] + segment_masses(
        t, rows if finite.all() else rows[finite]).sum(axis=-1)
    return out if y.ndim == 2 else float(out[0])


def cumulative_from_zero(t, y, head=None) -> np.ndarray:
    """I[i] = estimated integral of y over (0, t[i]]: the mass `head`
    below t[0] (by default `head_mass(t, y)`) plus the segment rule.
    May be +inf.  For an F x N block y, each row's running integral;
    `head` is then one value or one per row."""
    y = np.asarray(y, dtype=float)
    head = _head_masses(t, y) if head is None else np.asarray(head, dtype=float)
    seg = segment_masses(t, y)
    out = np.empty(y.shape)
    out[..., 0] = head
    np.cumsum(seg, axis=-1, out=out[..., 1:])
    out[..., 1:] += head[..., None]
    return out


def cumulative_tail(t, y) -> np.ndarray:
    """J[i] = integral of y over [t[i], t[-1]], for one row or for each
    row of an F x N block."""
    seg = segment_masses(t, y)
    out = np.zeros(np.shape(y))
    out[..., :-1] = np.cumsum(seg[..., ::-1], axis=-1)[..., ::-1]
    return out


# ---------------------------------------------------------------------------
# closed-form masses of power x log laws
# ---------------------------------------------------------------------------

def upper_gamma(a: float, x: float) -> float:
    """The upper incomplete gamma Gamma(a, x) = int_x^inf s^(a-1) e^-s ds
    for x > 0 and real a (DLMF 8.2.2), within 1e-14 relative of mpmath
    on a in [-3, 40], x in [1e-3, 500]."""
    if not x > 0.0:
        raise DomainError(f"need x > 0, got {x}")
    if a >= 1.0 and x < a + 1.0:
        # Gamma(a) less the lower series (DLMF 8.7.1)
        terms = [1.0 / a]
        while terms[-1] > 1e-17 * terms[0]:
            terms.append(terms[-1] * x / (a + len(terms)))
        return math.gamma(a) - x ** a * math.exp(-x) * math.fsum(terms)
    if x < 1.0:
        # Gamma(a, 1) plus int_x^1 with e^-s expanded: the k-th term
        # (-1)^k/k! (1 - x^(a+k))/(a+k) is exact, -log x at a + k = 0
        log_x, total, w = math.log(x), 0.0, 1.0
        for k in range(int(max(-a, 0.0)) + 25):
            total += w * (-math.expm1((a + k) * log_x) / (a + k) if a + k else -log_x)
            w /= -(k + 1)
        return upper_gamma(a, 1.0) + total
    # the modified Lentz continued fraction (DLMF 8.9.2)
    b = x + 1.0 - a
    c, d, frac = math.inf, 1.0 / b, 1.0 / b
    for i in range(1, 10_000):
        an = -i * (i - a)
        b += 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        frac *= d * c
        if abs(d * c - 1.0) < 3e-16:
            break
    return x ** a * math.exp(-x) * frac


def power_log_mass(p: float, e: float, scale: float, t0: float) -> float:
    """int_0^t0 t^p log(e*scale/t)^e dt for 0 < t0 < e*scale.  With
    L0 = log(e*scale/t0) and u = (p+1) log(e*scale/t) it is
    (e*scale)^(p+1) (p+1)^(-e-1) Gamma(e+1, (p+1) L0) for p > -1, and
    L0^(e+1) / -(e+1) for p = -1, e < -1; NonConvergent otherwise."""
    L0 = math.log(math.e * scale / t0)
    if not L0 > 0.0:
        raise DomainError(f"need 0 < t0 < e*scale, got t0 = {t0}, scale = {scale}")
    if p > -1.0:
        return ((math.e * scale) ** (p + 1.0) * (p + 1.0) ** (-e - 1.0)
                * upper_gamma(e + 1.0, (p + 1.0) * L0))
    if p == -1.0 and e < -1.0:
        return L0 ** (e + 1.0) / -(e + 1.0)
    raise NonConvergent(f"t^{p:g} log(e*scale/t)^{e:g} is not integrable at 0")


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
_E_TOL = 0.05      # half-width of the log exponent's borderline band


def _endpoint_exponents(grid: LogGrid, values: np.ndarray) -> tuple[float, float]:
    """(p, e) of the least-squares model y ~ C * t^p * log(e*t_max/t)^e
    over the lower half of the grid, or (nan, nan) when fewer than 8 of
    its samples are positive and finite."""
    t = grid.points
    y = np.asarray(values, dtype=float)
    n = max(8, len(t) // 2)
    t, y = t[:n], y[:n]
    good = (y > 0) & np.isfinite(y)
    if good.sum() < 8:
        return math.nan, math.nan
    t, y = t[good], y[good]
    L = np.log(math.e * grid.t_max / t)
    A = np.vstack([np.ones_like(t), np.log(t), np.log(L)]).T
    coef, *_ = np.linalg.lstsq(A, np.log(y), rcond=None)
    return float(coef[1]), float(coef[2])


def classify_zero_endpoint(grid: LogGrid, values: np.ndarray) -> EndpointFit:
    """Decide whether the integral of a positive sampled function
    converges at 0, by fitting a power and a log-power exponent over the
    lower half of the grid.

    The families in scope are all power x iterated-log, so the two-term
    fit is essentially exact; genuinely borderline cases come back
    "ambiguous" rather than being silently decided.
    """
    p, e = _endpoint_exponents(grid, values)
    if math.isnan(p):
        tag = "ambiguous"
    elif p > -1.0 + _P_TOL:
        tag = "convergent"
    elif p < -1.0 - _P_TOL:
        tag = "divergent"
    elif e < -1.0 - _E_TOL:
        tag = "convergent"
    elif e > -1.0 + _E_TOL:
        tag = "divergent"
    else:
        tag = "ambiguous"
    return EndpointFit(p=p, e=e, tag=tag)


def classify_boundedness(grid: LogGrid, values: np.ndarray,
                         e_tol: float = _E_TOL) -> EndpointFit:
    """Decide whether a positive sampled function stays bounded as
    t -> 0 (tag "convergent" = bounded, "divergent" = blows up); a flat
    power is unbounded when its log exponent exceeds e_tol."""
    p, e = _endpoint_exponents(grid, values)
    if math.isnan(p):
        tag = "ambiguous"
    elif p > _P_TOL:
        tag = "convergent"
    elif p < -_P_TOL:
        tag = "divergent"
    elif e > e_tol:
        tag = "divergent"
    else:
        tag = "convergent"      # flat or log-decaying: bounded
    return EndpointFit(p=p, e=e, tag=tag)
