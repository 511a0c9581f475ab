"""Convolution against singular radial kernels, finite differences,
moduli of smoothness, and the lattice norms built on them.

Fields are one-dimensional, sampled on a uniform grid over [-H, H].
Convolution never uses Fourier transforms: it is a direct midpoint
summation in which the singular cell is replaced by the kernel's exact
integral over that cell, which keeps the near-origin mass honest.
`convolver` builds that mass and the offset table once per (kernel,
grid); each field on the grid then costs one mat-vec.  The dimension n
of the lattice (the t^(1/n) scaling of the modulus and the cone
kernel) is a separate argument; the convolver rejects kernels of
dimension n >= 2, because a direct sum needs an exact singular-cell
integral there, which the toolkit does not have.

The modulus omega_k(u; t) is that of the piecewise-linear interpolant s
of the samples: for each sampled step h = +-t*j/J the sup over x of
|Delta_h^k s(x)| is exact, taken at the breaks of x -> Delta_h^k s(x).
A t with k*t >= spacing takes one array pass over its 2J steps; a t
below the spacing needs only |h| = t, and all such t share one pass.
The positions x_i + m*h, their grid intervals and the stencil windows
depend only on the grid, k and t: each pass builds them once, as a step
plan, and modulus_curves applies it to every field of a family.  The
cone kernel's profile factor phi(tau) depends neither on t nor on the
field, so the cone checks build all t rows of the kernel once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    DomainError,
    DomainExceeded,
    NotEmbedded,
    ResolutionTooCoarse,
    TrivialSpace,
)
from .gridfn import (
    LogGrid,
    SampledFunction,
    classify_zero_endpoint,
    integrate,
    total_mass,
)
from .kernels import KernelSpec, cone_kernel
from .lorentz import LorentzSpace, associate_norm, embedding_function
from .optimal import OptimalNormSpec, _stieltjes_sum
from .rearrange import MeasurableSample, decreasing_rearrangement

DIRECTION_SEED = 0x5EED


@dataclass
class FieldSample:
    """Values of a function on the uniform grid of [-H, H].

    The grid is inclusive: x_i = origin + i * spacing with resolution
    points; by default origin = -box_halfwidth.  Restricted domains
    produced by differencing keep their own origin.
    """

    n = 1   # fields are one-dimensional; perfbench/tracer.py _modulus_steps reads u.n
    box_halfwidth: float
    resolution: int
    values: np.ndarray
    origin: float | None = None

    def __post_init__(self):
        if self.resolution < 16:
            raise DomainError("resolution must be at least 16")
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1:
            raise DomainError("values must be a one-dimensional array")
        if not np.all(np.isfinite(self.values)):
            raise DomainError("field values must be finite")
        self.origin = float(-self.box_halfwidth if self.origin is None else self.origin)

    @property
    def spacing(self) -> float:
        return 2.0 * self.box_halfwidth / (self.resolution - 1)

    def axis_points(self) -> np.ndarray:
        return self.origin + self.spacing * np.arange(len(self.values))

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))


def sample_field(fn, box_halfwidth: float, resolution: int) -> FieldSample:
    """fn evaluated on the grid points of [-H, H]."""
    x = -box_halfwidth + 2.0 * box_halfwidth / (resolution - 1) * np.arange(resolution)
    return FieldSample(box_halfwidth=box_halfwidth, resolution=resolution, values=fn(x))


def field_rearrangement(f: FieldSample, grid: LogGrid) -> SampledFunction:
    """Decreasing rearrangement of |f| over its box (equal-measure cells
    given by the grid cells)."""
    ms = MeasurableSample(domain_measure=2.0 * f.box_halfwidth, samples=f.values)
    return decreasing_rearrangement(ms, grid=grid)


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

def convolver(kernel: KernelSpec, like: FieldSample):
    """f -> u(x) = int G(x - y) f(y) dy for fields on like's grid, by
    direct midpoint summation, the singular (zero-offset) cell replaced
    by the kernel's exact integral over that cell.  The table and that
    mass are built here, once per (kernel, grid); the returned function
    is one mat-vec, keeps f's origin, and raises DomainError when f's
    spacing or length differs from like's.  Raises ResolutionTooCoarse
    when the singular cell carries more than half of the kernel mass
    reachable inside the box."""
    if kernel.n != 1:
        raise DomainError("kernel and field dimension mismatch")
    h = like.spacing
    phi_fn = kernel.measure_profile_fn()
    cell_mass, _ = integrate(phi_fn, h, tol=1e-10)
    box_mass, _ = integrate(phi_fn, 4.0 * like.box_halfwidth, tol=1e-8)
    if cell_mass > 0.5 * box_mass:
        raise ResolutionTooCoarse(
            f"singular cell carries {cell_mass / box_mass:.1%} of the kernel mass")

    m = like.values.shape[0]
    table = kernel.profile(np.abs(h * np.arange(-(m - 1), m))) * h
    table[m - 1] = cell_mass
    # row x holds table[x + m - 1 - i] for i = 0..m-1: the centred m
    # points of the full convolution, summed in index order
    window = sliding_window_view(table, m)[:, ::-1]
    def apply(f: FieldSample) -> FieldSample:
        if f.spacing != h or len(f.values) != m:
            raise DomainError("field grid differs from the convolver's grid")
        return FieldSample(box_halfwidth=f.box_halfwidth, resolution=f.resolution,
                           values=window @ f.values, origin=f.origin)
    return apply


def convolve(kernel: KernelSpec, f: FieldSample) -> FieldSample:
    """G*f for one field: the table of convolver(kernel, f), used once."""
    return convolver(kernel, f)(f)


# ---------------------------------------------------------------------------
# finite differences and moduli of smoothness
# ---------------------------------------------------------------------------

def _difference_coeffs(k: int) -> np.ndarray:
    return np.array([math.comb(k, j) * (-1.0) ** (k - j) for j in range(k + 1)])


def finite_difference(u: FieldSample, h: float, k: int) -> FieldSample:
    """The k-th forward difference along a grid-aligned step h, on the
    restricted domain where all k shifts stay inside the box."""
    steps = float(h) / u.spacing
    m = int(np.rint(steps))
    if abs(steps - m) > 1e-9 * max(abs(steps), 1.0):
        raise DomainError("step must be a whole number of grid cells")
    if k * abs(m) >= len(u.values):
        raise DomainExceeded("difference stencil leaves the box")
    size = len(u.values) - k * abs(m)
    out = np.zeros(size)
    for j, c in enumerate(_difference_coeffs(k)):
        start = j * m if m >= 0 else (k - j) * (-m)
        out += c * u.values[start:start + size]
    origin = u.origin + (k * abs(m) * u.spacing if m < 0 else 0.0)
    return FieldSample(box_halfwidth=u.box_halfwidth, resolution=u.resolution,
                       values=out, origin=origin)


def _interp_intervals(x: np.ndarray, spacing: float, pos: np.ndarray):
    """np.interp's interval j of each position on the uniform grid x and
    the offset d = pos - x_j, 0 at the last node and outside the box: with
    slope = diff(u)/diff(x) and a last 0, slope[j]*d + u[j] is
    np.interp(pos, x, u) bit for bit."""
    pos = np.clip(pos, x[0], x[-1])
    j = np.minimum(((pos - x[0]) / spacing).astype(np.intp), len(x) - 2)
    j += x[j + 1] <= pos
    j -= x[j] > pos
    return j, pos - x[j]


def _difference_sups(like: FieldSample, k: int, mags: np.ndarray):
    """The step plan of mags on like's grid, for every field on it: a
    function (values, slope as in _interp_intervals) -> for each a of mags
    the sup over x of |Delta_a^k s(x)|, s the piecewise-linear
    interpolant of values, over the x whose stencil stays in the grid.

    x -> Delta_a^k s(x) is piecewise linear with breaks x_i - j*a
    (j = 0..k), among them the ends of its domain, so the sup is attained
    at a break; Delta_{-a}^k s(x) = (-1)^k Delta_a^k s(x - k*a) has the
    same sup.  The break x_i - j*a needs s(x_i + l*a), l = -j..k-j, which
    the rows of the steps +a and -a hold: window j = 0 is the +a step at
    the nodes, window k the -a step.  Raises DomainExceeded when the +a
    or the -a step leaves no node with its stencil inside.
    """
    r = len(mags)
    steps = np.concatenate([mags, -mags])[:, None]
    x = like.axis_points()
    coeffs = _difference_coeffs(k)
    shifts, inside = [], {0: True}
    for m in range(1, k + 1):
        pos = x + m * steps
        good = (x[0] <= pos) & (pos <= x[-1])
        shifts.append(_interp_intervals(x, like.spacing, pos))
        inside[m], inside[-m] = good[:r], good[r:]
    if not np.all(np.any(good, axis=1)):
        raise DomainExceeded("no grid point keeps the whole stencil inside the box")
    windows = [inside[-j] & inside[k - j] for j in range(k + 1)]

    def sups(values: np.ndarray, slope: np.ndarray) -> np.ndarray:
        # row[m] holds s(x_i + m*a) at the nodes x_i, one row per a; the
        # values outside are clamped and never reach the max
        row = {0: np.broadcast_to(values, (r, len(x)))}
        for m, (j, d) in enumerate(shifts, 1):
            vals = slope.take(j) * d + values.take(j)
            row[m], row[-m] = vals[:r], vals[r:]
        best = np.zeros(r)
        for j, window in enumerate(windows):
            acc = coeffs[0] * row[-j]
            for l in range(1, k + 1):
                acc += coeffs[l] * row[l - j]
            np.abs(acc, out=acc)
            best = np.maximum(best, np.max(acc, axis=1, initial=0.0, where=window))
        return best
    return sups


def _moduli(us, k: int, ts: np.ndarray, directions: int) -> np.ndarray:
    """omega_k(u; t), a row per field u of us and a column per t of ts."""
    like = us[0]
    dx = np.diff(like.axis_points())
    fields = [(u.values, np.append(np.diff(u.values) / dx, 0.0)) for u in us]
    mags = ts[:, None] * np.arange(1, directions + 1) / directions
    out = np.empty((len(us), len(ts)))
    # Below one cell (k*t < spacing) the stencil of a break x_i - j*h lies
    # in the two cells around x_i, where s is linear on either side, so
    # Delta_h^k s there is |h| times a combination of the two slopes, and
    # which breaks keep their stencil inside does not depend on |h|: the
    # sup over the sampled steps is at |h| = t, two rows per t.  The last
    # column is t*J/J, rounded as the sampled steps are.
    below = k * ts < like.spacing
    if np.any(below):
        sups = _difference_sups(like, k, mags[below, -1])
        for row, field in zip(out, fields):
            row[below] = sups(*field)
    for i in np.flatnonzero(~below):
        if k * ts[i] > 2.0 * like.box_halfwidth:
            raise DomainExceeded("stencil span exceeds the box")
        # one plan at a time: all t at once hold 10 MB at k = 2, N = 512
        sups = _difference_sups(like, k, mags[i])
        for row, field in zip(out, fields):
            row[i] = np.max(sups(*field))
    return out


def modulus_of_smoothness(u: FieldSample, k: int, t: float,
                          directions: int = 16) -> float:
    """omega_k(u; t): sup over sampled steps |h| <= t of the sup norm of
    the k-th difference of the piecewise-linear interpolant s of u.

    Samples h = +-t*j/J, j = 1..J (J = directions), including |h| = t
    exactly.  For each step the sup over x is exact for s: it is taken
    over the breaks x_i - j*h of x -> Delta_h^k s(x), where the whole
    stencil stays inside the box.  Below the grid spacing the result
    describes s, not u: it grows like t * spacing^(k-1), not t^k.
    Raises DomainExceeded when some step leaves no grid point whose
    stencil stays inside the box.
    """
    if t <= 0:
        raise DomainError("t must be positive")
    return float(_moduli([u], k, np.array([float(t)]), directions)[0, 0])


def modulus_curves(us, k: int, t_grid: LogGrid, n: int = 1,
                   directions: int = 16) -> list[SampledFunction]:
    """modulus_curve of each field of us, bit for bit, with one step
    plan per t for all of them.  Raises DomainError for an empty list or
    fields whose origin, spacing, length or box differ."""
    if len({(u.origin, u.spacing, len(u.values), u.box_halfwidth) for u in us}) != 1:
        raise DomainError("modulus_curves needs a nonempty family on one grid")
    # scalar powers, as a caller of modulus_of_smoothness forms them: the
    # vectorised power can differ in the last bit
    ts = np.array([t ** (1.0 / n) for t in t_grid.points])
    return [SampledFunction(grid=t_grid, values=np.maximum.accumulate(vals),
                            extension="constant_beyond_T")
            for vals in _moduli(us, k, ts, directions)]


def modulus_curve(u: FieldSample, k: int, t_grid: LogGrid, n: int = 1,
                  directions: int = 16) -> SampledFunction:
    """omega_k(u; t^(1/n)) over a grid of t values, forced nondecreasing
    by a cumulative max (window nesting).  Every t below the grid
    spacing is evaluated in one array pass."""
    return modulus_curves([u], k, t_grid, n, directions)[0]


# ---------------------------------------------------------------------------
# envelopes and cone checks
# ---------------------------------------------------------------------------

def envelope_bounds(space: LorentzSpace, phi, k: int, n: int,
                    t_grid: LogGrid):
    """The associate-norm curve t -> || Omega_phi(t, .) || in the dual of
    the base space: both the upper and the lower smoothness-envelope
    estimates equal this curve up to fixed constants.  Raises NotEmbedded
    when the profile is not in the associate space."""
    psi = embedding_function(space, phi)
    if not math.isfinite(psi.values[-1]):
        raise NotEmbedded("profile not in the associate space")
    # row i is the cone kernel at t_grid.points[i]
    cones = cone_kernel(phi, k, n, t_grid.points[:, None], space.grid.points)
    vals = np.array([associate_norm(space, SampledFunction(
        space.grid, om, monotonicity="none", extension="zero_beyond_T"))
        for om in cones])
    return SampledFunction(grid=t_grid, values=vals)


@dataclass
class ConeCheckReport:
    """Empirical constant for the upper smoothness estimate: for each
    field f, the max over t of omega_k(G*f; t^(1/n)) divided by the
    cone-kernel integral of f*."""
    c1: float
    per_field: dict


def upper_cone_check(space: LorentzSpace, kernel: KernelSpec, k: int,
                     f_family, t_grid: LogGrid) -> ConeCheckReport:
    """Run the upper estimate over a family of fields, reporting the
    family maximum of the per-field ratio maxima (all fields on one grid)."""
    if not f_family:
        raise DomainError("empty field family")
    n = kernel.n
    tau = space.grid.points
    # row i is the cone kernel at t_grid.points[i]
    cones = cone_kernel(kernel.measure_profile_fn(), k, n, t_grid.points[:, None], tau)
    conv = convolver(kernel, f_family[0][1])
    omegas = modulus_curves([conv(f) for _, f in f_family], k, t_grid, n=n)
    per_field = {}
    for (name, f), omega in zip(f_family, omegas):
        fstar = field_rearrangement(f, grid=space.grid)
        denom = np.array([total_mass(tau, cone * fstar.values) for cone in cones])
        ratios = omega.values / denom
        per_field[name] = float(np.max(ratios))
    c1 = max(per_field.values())
    return ConeCheckReport(c1=c1, per_field=per_field)


# ---------------------------------------------------------------------------
# lattice norms of the modulus
# ---------------------------------------------------------------------------

def stieltjes_modulus_norm(spec: OptimalNormSpec, omega: SampledFunction) -> float:
    """( int_0^T (omega(t) / Psi(t))^q dPsi/Psi )^(1/q) against forward
    differences of the aggregate on the omega grid."""
    return _stieltjes_sum(omega.values, spec.psi(omega.grid.points), spec.q)


def power_modulus_norm(omega: SampledFunction, exponent: float, q: float) -> float:
    """( int_0^T (omega(t)/t^exponent)^q dt/t )^(1/q), the classical
    smoothness-norm shape."""
    t = omega.grid.points
    return total_mass(t, (omega.values / t ** exponent) ** q / t) ** (1.0 / q)


def nontriviality_gate(spec: OptimalNormSpec, k: int, n: int) -> bool:
    """The lattice contains nonzero moduli iff t^(k/n) has finite norm;
    decided by the decay of t^(k/n)/Psi(t) at the origin."""
    if spec.case == "sup":
        return True
    t = spec.psi.grid.points
    ratio = t ** (k / float(n)) / spec.psi.values
    fit = classify_zero_endpoint(spec.psi.grid, ratio)
    return fit.p > 0.01


def calderon_norm(u: FieldSample, omega: SampledFunction, X, k: int, n: int) -> float:
    """sup norm of u plus the lattice norm of omega, its modulus of
    smoothness omega_k(u; t^(1/n)) as modulus_curve computes it.

    X is either an OptimalNormSpec (max omega in the sup case, the
    Stieltjes form in the weighted case) or a callable mapping the
    modulus curve to a number.  Raises TrivialSpace when the lattice of
    an OptimalNormSpec only contains the zero modulus.
    """
    if not isinstance(X, OptimalNormSpec):
        return u.sup_norm() + float(X(omega))
    if not nontriviality_gate(X, k, n):
        raise TrivialSpace("the modulus lattice is trivial for this aggregate")
    if X.case == "sup":
        return u.sup_norm() + float(np.max(omega.values))
    return u.sup_norm() + stieltjes_modulus_norm(X, omega)


# ---------------------------------------------------------------------------
# the reproducible field family
# ---------------------------------------------------------------------------

def bump_and_staircase_family(count: int = 10, resolution: int = 512,
                              seed: int = DIRECTION_SEED):
    """Seeded 1-d family on the box [-3, 3]: smooth compact bumps and
    decreasing staircases supported well inside it."""
    rng = np.random.default_rng(seed)
    family = []
    for i in range(count):
        if i % 2 == 0:
            c = rng.uniform(-0.8, 0.8)
            w = rng.uniform(0.3, 1.0)
            amp = rng.uniform(0.5, 2.0)
            fn = (lambda x, c=c, w=w, amp=amp:
                  amp * np.clip(1.0 - ((x - c) / w) ** 2, 0.0, None) ** 2)
        else:
            edges = np.sort(rng.uniform(-1.0, 1.0, size=4))
            levels = rng.uniform(0.2, 2.0, size=3)
            def fn(x, edges=edges, levels=levels):
                out = np.zeros_like(x)
                for (lo, hi), lv in zip(zip(edges[:-1], edges[1:]), levels):
                    out += lv * ((x >= lo) & (x < hi))
                return out
        family.append((f"field_{i}", sample_field(fn, 3.0, resolution)))
    return family
