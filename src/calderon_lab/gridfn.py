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

_GAUSS_HI = np.polynomial.legendre.leggauss(16)
_GAUSS_LO = np.polynomial.legendre.leggauss(8)
_GAUSS_NODES = np.concatenate([_GAUSS_HI[0], _GAUSS_LO[0]])
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
    Called with its own `grid.points` (the same array object), it returns
    a copy of its samples, whatever the extension.  Below t_min (without
    `fn`) the first segment's local power law is extrapolated.  Between
    grid points, positive values are interpolated by the power law
    through the bracketing samples (exact for pure powers); otherwise
    linearly in log t.
    """

    grid: LogGrid
    values: np.ndarray
    monotonicity: str = "none"          # "decreasing" | "none"
    extension: str = "constant_beyond_T"
    fn: object = None                   # callable, required by extension="analytic"

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if len(self.values) != self.grid.count:
            raise DomainError(
                f"{len(self.values)} values on a grid of {self.grid.count} points")
        if self.monotonicity not in ("none", "decreasing"):
            raise DomainError(f"unknown monotonicity tag {self.monotonicity!r}")
        if self.extension not in ("zero_beyond_T", "constant_beyond_T", "analytic"):
            raise DomainError(f"unknown extension tag {self.extension!r}")
        if self.extension == "analytic" and self.fn is None:
            raise DomainError('extension "analytic" needs fn')
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
        if t is self.grid.points:
            return self.values.copy()
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        t = np.atleast_1d(t)
        if self.extension == "analytic":
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


def sample(fn, grid: LogGrid, monotonicity="none") -> SampledFunction:
    """Sample a vectorized callable on a grid, keeping it for evaluation
    (extension "analytic")."""
    vals = np.asarray(fn(grid.points), dtype=float)
    return SampledFunction(grid=grid, values=vals, monotonicity=monotonicity,
                           extension="analytic", fn=fn)


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


def _local_power(t0, t1, v0, v1):
    if v0 > 0 and v1 > 0 and np.isfinite(v0) and np.isfinite(v1):
        return math.log(v1 / v0) / math.log(t1 / t0)
    return math.nan


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
    p = _local_power(t[0], t[1], y[0], y[1])
    if math.isnan(p):
        return float(y[0] * t[0]) if np.isfinite(y[0]) else math.inf
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
# adaptive quadrature with singular endpoints
# ---------------------------------------------------------------------------

def _call(f, x):
    with np.errstate(all="ignore"):
        y = np.asarray(f(x), dtype=float)
    if y.shape != x.shape:
        y = np.broadcast_to(y, x.shape).astype(float)
    return y


def _gauss_panels(f, lo, hi):
    """Order-16 Gauss value of f on each panel [lo[i], hi[i]] and its
    distance to the order-8 value, from one call of f on the flat array
    of all their nodes.  Each panel's sums are one np.dot apiece: a
    matrix-vector product sums in another order and moves the last bits.
    An infinite value overflows or gives inf - inf, so the caller runs
    this under np.errstate."""
    mid, rad = 0.5 * (hi + lo), 0.5 * (hi - lo)
    x = mid[:, None] + rad[:, None] * _GAUSS_NODES
    y = _call(f, x.ravel()).reshape(x.shape)
    hi_val = rad * [float(np.dot(_GAUSS_HI[1], row[:16])) for row in y]
    lo_val = rad * [float(np.dot(_GAUSS_LO[1], row[16:])) for row in y]
    return hi_val, np.abs(hi_val - lo_val)


def _adaptive_panel(f, lo, hi, tol_abs):
    """Order-16 Gauss with order-8 error estimate, bisecting each panel
    until its estimate is below its tolerance (halved per level) or
    negligible relative to its value, at most 14 levels deep.  Each
    level's panels are evaluated in one call of f; the halves' sums are
    then added bottom up, left + right, as a depth-first recursion would."""
    lo, hi = np.array([lo], dtype=float), np.array([hi], dtype=float)
    levels = []
    with np.errstate(over="ignore", invalid="ignore"):
        for depth in range(15):
            val, err = _gauss_panels(f, lo, hi)
            # a NaN estimate of a finite value splits
            split = ~((err <= tol_abs) | (err <= 1e-14 * np.abs(val)) | ~np.isfinite(val))
            if depth == 14 or not split.any():
                break
            levels.append((val, err, split))
            mid = 0.5 * (lo[split] + hi[split])
            # each split panel's halves, side by side: [lo, mid], [mid, hi]
            lo = np.ravel([lo[split], mid], order="F")
            hi = np.ravel([mid, hi[split]], order="F")
            tol_abs = tol_abs / 2
    for parent_val, parent_err, split in reversed(levels):
        parent_val[split] = val[0::2] + val[1::2]
        parent_err[split] = err[0::2] + err[1::2]
        val, err = parent_val, parent_err
    return float(val[0]), float(err[0])


def integrate(f, b: float, tol: float = DEFAULT_QUAD_TOL):
    """Integrate f over (0, b] for 0 < b < inf; returns (value, err_estimate).

    f must accept numpy arrays and may be singular at 0.  The
    subdivision is geometric toward 0 (fixed-width panels in log x).
    Mass below the floating-point floor is the geometric continuation of
    the panel masses, the power law that `head_mass` uses too; it is
    exact for x^p.  Raises DomainError unless 0 < b < inf, and
    NonConvergent when the error estimate stalls above tol, the endpoint
    mass does not decay, or the panel-mass ratio drifts (log-type
    endpoints).
    """
    if not 0.0 < b < math.inf:
        raise DomainError(f"need 0 < b < inf, got {b}")

    total, err = _log_panel_limit(f, b, tol)
    if err > 10 * tol * max(abs(total), _ABS_FLOOR) + _ABS_FLOOR:
        raise NonConvergent(
            f"error estimate {err:.3e} above tolerance for value {total:.6e}")
    return total, err


_PANEL_WIDTH = 16.0     # e^-16 ~ 1e-7 of the scale per panel
_FLOOR_U = math.log(1e-290)


def _log_panel_limit(f, c: float, tol: float):
    """Integrate f over (0, c] via fixed-width panels in u = log x, plus
    the geometric continuation of the panel masses below the float
    range."""
    U = math.log(c)
    g = lambda u: _call(f, np.exp(u)) * np.exp(u)

    # uniform panels exactly covering [_FLOOR_U, U]; no partial last
    # panel, so successive mass ratios are clean extrapolation data
    span = abs(_FLOOR_U - U)
    n_panels = max(8, int(math.ceil(span / _PANEL_WIDTH)))
    width = span / n_panels

    masses = []
    total, err = 0.0, 0.0
    edge = U
    scale = _ABS_FLOOR
    for _ in range(n_panels):
        nxt = edge - width
        val, e = _adaptive_panel(g, nxt, edge, tol * scale / 64)
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
    # a power x^p gives equal-width panel masses in a fixed ratio r; a
    # log factor makes r drift toward 1, and no geometric law fits that
    r, r_prev = am[-1] / am[-2], am[-2] / am[-3]
    if abs(r - r_prev) > tol * (1.0 - r):
        raise NonConvergent(
            f"panel-mass ratio drifts ({r_prev:.6g} -> {r:.6g}) toward the "
            "endpoint; log-type mass beyond the float range is not computed")
    tail = masses[-1] * r / (1.0 - r)
    total += tail
    err += am[-1] * abs(r - r_prev) / (1.0 - r) ** 2
    return total, err


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
