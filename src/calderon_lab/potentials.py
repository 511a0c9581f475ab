"""Convolution against singular radial kernels, moduli of smoothness,
and the lattice norms built on them.

A field is one-dimensional: its samples on the inclusive uniform grid
of [-H, H].
Convolution never uses Fourier transforms: it is a direct midpoint
summation in which the singular cell is replaced by the kernel's exact
integral over that cell, which keeps the near-origin mass honest.
`convolver` builds that mass and the offset table once per (kernel,
grid); each field on the grid then costs one mat-vec.  The dimension n
of the lattice (the t^(1/n) scaling of the modulus and the cone
kernel) is a separate argument; the convolver rejects kernels of
dimension n >= 2, because a direct sum needs an exact singular-cell
integral there, which the toolkit does not have.

The modulus omega_k(u; t) is the exact sup over |h| <= t and x of
|Delta_h^k s(x)|, s the piecewise-linear interpolant of the samples: it
is attained at h = t or at a vertex step h = spacing*p/q, q <= k, where
lines x + j*h = x_i of the arrangement meet.  Up to the least vertex
step h0 = spacing/k it is (t/h0) omega_k(u; h0); above h0 the steps h = t
are one np.interp per field and block of 16 t, and each vertex step is a
slice sum on the q-refined grid, O(t_max/spacing * N) per q.  The vertex
steps of one residue class mod q go 8 at a time, each slice a strided
view of that grid, padded on the right for the longer steps' stencils;
one np.maximum.reduceat takes each step's sup over its own nodes.  The cone
kernel's profile factor phi(tau) depends neither on t nor on the field,
so the cone check builds all t rows of the kernel once for its family;
envelope_bounds, which reads each row once, builds them a row block at a
time.
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
    _endpoint_exponents,
    _map_row_blocks,
    total_mass,
)
from .kernels import KernelSpec, cone_kernel
from .lorentz import LorentzSpace, _associate_norms, embedding_function
from .optimal import FAMILY_SEED, OptimalNormSpec, _FamilyRng, _stieltjes_sum
from .rearrange import decreasing_rearrangement


@dataclass
class FieldSample:
    """Values of a function on the uniform grid of [-H, H].

    The grid is inclusive: x_i = -H + i * spacing for the len(values)
    points, spacing = 2H / (len(values) - 1), and the last node is H
    exactly.
    """

    box_halfwidth: float
    values: np.ndarray

    def __post_init__(self):
        if not 0.0 < self.box_halfwidth < math.inf:
            raise DomainError("box half-width must be positive and finite")
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1:
            raise DomainError("values must be a one-dimensional array")
        if len(self.values) < 16:
            raise DomainError("a field needs at least 16 values")
        if not np.all(np.isfinite(self.values)):
            raise DomainError("field values must be finite")

    @property
    def spacing(self) -> float:
        return 2.0 * self.box_halfwidth / (len(self.values) - 1)

    def axis_points(self) -> np.ndarray:
        return np.linspace(-self.box_halfwidth, self.box_halfwidth, len(self.values))

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))


def sample_field(fn, box_halfwidth: float, resolution: int) -> FieldSample:
    """fn evaluated on the grid points of [-H, H]; H and the resolution
    are checked before the grid is built."""
    box = FieldSample(box_halfwidth=box_halfwidth, values=np.zeros(resolution))
    return FieldSample(box_halfwidth=box_halfwidth, values=fn(box.axis_points()))


def field_rearrangement(f: FieldSample, grid: LogGrid) -> SampledFunction:
    """Decreasing rearrangement of |f| over its box, one equal-measure
    cell per sample."""
    return decreasing_rearrangement(f.values, 2.0 * f.box_halfwidth, grid)


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

def convolver(kernel: KernelSpec, like: FieldSample):
    """f -> u(x) = int G(x - y) f(y) dy for fields on like's grid, by
    direct midpoint summation, the singular (zero-offset) cell replaced
    by the kernel's exact integral over that cell, `kernel.cell_mass`
    (DomainError for n >= 2 or a loglog factor).  The table and that
    mass are built here, once per (kernel, grid); the returned function
    is one mat-vec and raises DomainError when f's spacing or length
    differs from like's.  Raises ResolutionTooCoarse when the singular
    cell carries more than half of the table's sum."""
    h = like.spacing
    cell_mass = kernel.cell_mass(h)
    m = like.values.shape[0]
    # |h*(-d)| is the float h*d: the profile at the m distances, mirrored
    half = kernel.profile(h * np.arange(m)) * h
    table = np.concatenate([half[:0:-1], half])
    table[m - 1] = cell_mass
    if cell_mass > 0.5 * table.sum():
        raise ResolutionTooCoarse(
            f"singular cell carries {cell_mass / table.sum():.1%} of the kernel mass")
    # row x holds table[x + m - 1 - i] for i = 0..m-1: the centred m
    # points of the full convolution, summed in index order
    window = sliding_window_view(table, m)[:, ::-1]
    def apply(f: FieldSample) -> FieldSample:
        if f.spacing != h or len(f.values) != m:
            raise DomainError("field grid differs from the convolver's grid")
        return FieldSample(box_halfwidth=f.box_halfwidth, values=window @ f.values)
    return apply


def convolve(kernel: KernelSpec, f: FieldSample) -> FieldSample:
    """G*f for one field: the table of convolver(kernel, f), used once.
    No scenario calls it; perfbench/child.py times its first call."""
    return convolver(kernel, f)(f)


# ---------------------------------------------------------------------------
# moduli of smoothness
# ---------------------------------------------------------------------------

def _difference_coeffs(k: int) -> np.ndarray:
    return np.array([math.comb(k, j) * (-1.0) ** (k - j) for j in range(k + 1)])


def _step_sups(us, k: int, mags: np.ndarray) -> np.ndarray:
    """For each field u of us (one grid), a row of the sups over x of
    |Delta_a^k s(x)|, s the interpolant of u, one per step a of mags, over
    the x whose stencil stays in the grid.  It is taken at the breaks
    x_i - j*a (j = 0..k), whose stencil points are s(x_i + m*a),
    m = -j..k-j; Delta_{-a}^k has the same sup.  Raises DomainExceeded
    when the +a or the -a step leaves no node with its stencil inside."""
    x = us[0].axis_points()
    coeffs = _difference_coeffs(k)
    out = np.zeros((len(us), len(mags)))
    for lo in range(0, len(mags), 16):
        # pos[k + m] holds x_i + m*a, a row per a: built once per 16 steps
        pos = x + np.arange(-k, k + 1)[:, None, None] * mags[lo:lo + 16, None]
        good = (x[0] <= pos) & (pos <= x[-1])
        if not np.all(np.any(good[[0, -1]], axis=2)):
            raise DomainExceeded("no grid point keeps the whole stencil inside the box")
        windows = [good[k - j] & good[2 * k - j] for j in range(k + 1)]
        for best, u in zip(out[:, lo:lo + 16], us):
            # clamped outside the box, where no window reaches
            vals = np.interp(pos, x, u.values)
            for j, window in enumerate(windows):
                acc = coeffs[0] * vals[k - j]
                for l in range(1, k + 1):
                    acc += coeffs[l] * vals[k + l - j]
                np.abs(acc, out=acc)
                np.maximum(best, np.max(acc, axis=1, initial=0.0, where=window), out=best)
    return out


_VERTEX_BLOCK = 8      # vertex steps evaluated together


def _vertex_sups(values: np.ndarray, k: int, spacing: float, top: float):
    """The vertex steps h = spacing*p/q <= top (gcd(p, q) = 1, q <= k) and
    the sup over x of |Delta_h^k s(x)| at each, a row of sups per step
    and a column per row of values; the steps of one q come grouped by
    p mod q.  The stencils of the breaks x_i - j*h lie on the grid
    refined q times, where a step is a sum of k + 1 slices of s, linear
    in between: the max there is the sup.  Every q-th node there takes
    its sample as it is; the nodes between are s at the in-cell fractions
    r/q, whose rounding, unlike that of the positions (q*i + r)/q, does
    not grow with the node i.

    The steps p0, p0 + q, ..., p_last of one residue class mod q go
    _VERTEX_BLOCK at a time: slice l of each is a strided view of the
    refined grid, the node axis as long as p0's, so the refined grid
    carries k*q*(_VERTEX_BLOCK - 1) zero columns on the right.  The
    block's accumulator and the product temporary that feeds it are
    F x _VERTEX_BLOCK x width each, F the rows of values: 8 steps bound
    them to half the memory of 16 at the same speed.  The terms are
    summed in the order c1*slice1 + c0*slice0 + c2*slice2 + ..., the
    bits of c0*slice0 + c1*slice1 + ..., and np.maximum.reduceat takes
    each step's max over its own nodes only, so a NaN or inf of an
    overflowing difference counts as it did one step at a time."""
    coeffs = _difference_coeffs(k)
    cells = values.shape[1] - 1
    steps, sups = [], []
    for q in range(1, k + 1):
        width = cells * q + 1
        fine = np.zeros((len(values), width + k * q * (_VERTEX_BLOCK - 1)))
        fine[:, :width:q] = values
        for r in range(1, q):
            fine[:, r:width - 1:q] = values[:, :-1] + r / q * np.diff(values)
        ps = np.arange(1, cells * q // k + 1)
        ps = ps[spacing * ps / q <= top]     # a prefix: spacing*p/q grows with p
        for p0 in range(1, min(q, len(ps)) + 1):
            if math.gcd(p0, q) > 1:
                continue
            for lo in range(p0 - 1, len(ps), q * _VERTEX_BLOCK):
                block = ps[lo:lo + q * _VERTEX_BLOCK:q]
                first, last = block[0], block[-1]
                # slice l of step p starts at column l*p; every step of the
                # block takes the width - k*first nodes of the shortest step
                win = sliding_window_view(fine[:, :width + k * (last - first)],
                                          width - k * first, axis=1)
                acc = np.multiply(win[:, first:last + 1:q], coeffs[1])
                acc += coeffs[0] * win[:, :1]
                for l in range(2, k + 1):
                    acc += coeffs[l] * win[:, l * first:l * last + 1:l * q]
                # each step's max over its own nodes, the rest of its row
                # a separate segment, dropped; a lone step ends at the end
                # of the row, which reduceat takes without an index
                starts = acc.shape[2] * np.arange(len(block))
                bounds = np.column_stack([starts, starts + width - k * block]).ravel()
                acc = np.abs(acc, out=acc).reshape(len(values), -1)
                steps.append(spacing * block / q)
                sups.append(np.maximum.reduceat(acc, bounds[bounds < acc.shape[1]],
                                                axis=1)[:, ::2])
    return np.concatenate(steps), np.concatenate(sups, axis=1).T


def _moduli(us, k: int, ts: np.ndarray) -> np.ndarray:
    """omega_k(u; t), a row per field u of us and a column per t of ts
    (ascending): the running max over the steps h = t and vertex steps,
    and (t/h0) omega_k(u; h0) for t <= h0 = spacing/k."""
    like = us[0]
    t_max = np.max(ts)
    if k * t_max > 2.0 * like.box_halfwidth:
        raise DomainExceeded("stencil span exceeds the box")
    h0 = like.spacing / k
    steps, sups = _vertex_sups(np.array([u.values for u in us]), k, like.spacing, max(t_max, h0))
    # for |h| <= h0 each stencil point x_i + m*h (|m| <= k) stays in a cell
    # next to x_i, so each break value Delta_h^k s(x_i - j*h) is linear in h
    # and 0 at h = 0, and the breaks whose stencil stays in the grid are
    # the same for every h in (0, h0]: the sup over |h| <= t is taken at
    # h = t and is (t/h0) omega(h0), h0 being the least vertex step
    n = np.searchsorted(ts, h0, side="right")     # ts[:n] <= h0
    out = np.hstack([np.outer(sups[np.argmin(steps)], ts[:n] / h0), _step_sups(us, k, ts[n:])])
    # a vertex step up to t_max joins the max at the first t not below it
    keep = steps <= t_max
    np.maximum.at(out.T, np.searchsorted(ts, steps[keep]), sups[keep])
    return np.maximum.accumulate(out, axis=1)


def modulus_of_smoothness(u: FieldSample, k: int, t: float) -> float:
    """omega_k(u; t): the sup over all steps |h| <= t and all x whose
    stencil stays in the field's grid of |Delta_h^k s(x)|, s the
    piecewise-linear interpolant of u, exact up to rounding from h = t and
    the vertex steps spacing*p/q <= t (q <= k).  Up to the least vertex
    step h0 = spacing/k it is (t/h0) omega_k(u; h0): there it describes
    s, not u, and grows like t * spacing^(k-1), not t^k.  Raises
    DomainExceeded when the span k*t exceeds the box, or when no grid
    point keeps the whole stencil inside it."""
    if not 0.0 < t < math.inf:
        raise DomainError(f"t must be positive and finite, got {t}")
    return float(_moduli([u], k, np.array([float(t)]))[0, 0])


def modulus_curves(us, k: int, t_grid: LogGrid, n: int = 1) -> list[SampledFunction]:
    """omega_k(u; t^(1/n)) over a grid of t values, one curve per field
    u of us: at each t the running max over the grid's t up to it, which
    adds nothing in exact arithmetic.  Each value equals
    modulus_of_smoothness(u, k, t ** (1/n)) bit for bit (tested for k <=
    3 and n <= 2); the fields share the step positions and refined grids,
    O(t_max/spacing * N) per q <= k.  Raises DomainError for an empty list
    or fields whose length or box differ."""
    if len({(len(u.values), u.box_halfwidth) for u in us}) != 1:
        raise DomainError("modulus_curves needs a nonempty family on one grid")
    # scalar powers, as a caller of modulus_of_smoothness forms them: the
    # vectorised power can differ in the last bit
    ts = np.array([t ** (1.0 / n) for t in t_grid.points])
    return [SampledFunction(grid=t_grid, values=vals) for vals in _moduli(us, k, ts)]


# ---------------------------------------------------------------------------
# envelopes and cone checks
# ---------------------------------------------------------------------------

def envelope_bounds(space: LorentzSpace, phi, k: int, n: int,
                    t_grid: LogGrid):
    """The associate-norm curve t -> || Omega_phi(t, .) || in the dual of
    the base space: both the upper and the lower smoothness-envelope
    estimates equal this curve up to fixed constants.  Raises NotEmbedded
    when the profile is not in the associate space.  The kernel rows are
    built a row block at a time, phi read on space.grid once per block,
    so no t_grid x N array is held."""
    psi = embedding_function(space, phi)
    if not math.isfinite(psi.values[-1]):
        raise NotEmbedded("profile not in the associate space")
    tau = space.grid.points
    # row i of a block is the cone kernel at its i-th t
    norms = _map_row_blocks(lambda ts: _associate_norms(
        space, cone_kernel(phi, k, n, ts[:, None], tau)), t_grid.points, len(tau))
    return SampledFunction(grid=t_grid, values=norms)


def upper_cone_check(space: LorentzSpace, kernel: KernelSpec, phi, k: int,
                     f_family, t_grid: LogGrid) -> dict:
    """Run the upper estimate over a family of (name, field) pairs, all
    on one grid: {name: the max over t of omega_k(G*f; t^(1/n)) divided
    by the cone-kernel integral of f*}.  The family maximum of these
    ratios is the empirical upper constant.  phi is the kernel's measure
    profile, as envelope_bounds takes it: sampled on space.grid, it is
    read there, not evaluated again."""
    if not f_family:
        raise DomainError("empty field family")
    n = kernel.n
    tau = space.grid.points
    # row i is the cone kernel at t_grid.points[i]
    cones = cone_kernel(phi, k, n, t_grid.points[:, None], tau)
    conv = convolver(kernel, f_family[0][1])
    omegas = modulus_curves([conv(f) for _, f in f_family], k, t_grid, n=n)
    per_field = {}
    for (name, f), omega in zip(f_family, omegas):
        fstar = field_rearrangement(f, grid=space.grid)
        denom = _map_row_blocks(lambda block: total_mass(tau, block * fstar.values),
                                cones, len(tau))
        per_field[name] = float(np.max(omega.values / denom))
    return per_field


# ---------------------------------------------------------------------------
# lattice norms of the modulus
# ---------------------------------------------------------------------------

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
    p, _ = _endpoint_exponents(spec.psi.grid, ratio)
    return p > 0.01


def calderon_norms(us, omegas, spec: OptimalNormSpec, k: int, n: int) -> list[float]:
    """The Calderon norm of each field of us with its modulus curve in
    omegas: the sup norm of u plus the lattice norm of omega, its modulus
    of smoothness omega_k(u; t^(1/n)) as modulus_curves computes it (max
    omega in the sup case, in the weighted case the Stieltjes form
    ( int_0^T (omega(t) / Psi(t))^q dPsi/Psi )^(1/q) against forward
    differences of Psi on the omega grid).  The weighted form is
    optimal_norm's Stieltjes core alone: optimal_norm adds
    Psi(T)^-1 sup_(T1,T) |f| to it, this sum adds no such term.  The
    gate is decided and Psi sampled once for the family.  Raises
    TrivialSpace when the lattice only contains the zero modulus, and
    DomainError unless the curves are as many as the fields, at least
    one, on one t grid."""
    if not omegas or len(us) != len(omegas) or any(
            not np.array_equal(omega.grid.points, omegas[0].grid.points) for omega in omegas):
        raise DomainError("calderon_norms needs one modulus curve per field, on one t grid")
    if not nontriviality_gate(spec, k, n):
        raise TrivialSpace("the modulus lattice is trivial for this aggregate")
    if spec.case == "sup":
        return [u.sup_norm() + float(np.max(omega.values)) for u, omega in zip(us, omegas)]
    psi = spec.psi(omegas[0].grid.points)
    return [u.sup_norm() + _stieltjes_sum(omega.values, psi, spec.q)
            for u, omega in zip(us, omegas)]


# ---------------------------------------------------------------------------
# the reproducible field family
# ---------------------------------------------------------------------------

# H of the family's box [-H, H]; ExperimentConfig.validate holds k*T to 2H
FAMILY_BOX_HALFWIDTH = 3.0


def bump_and_staircase_family(count: int = 10, resolution: int = 512,
                              seed: int = FAMILY_SEED):
    """Seeded 1-d family on the box [-3, 3]: smooth compact bumps and
    decreasing staircases supported well inside it."""
    rng = _FamilyRng(seed)
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
        family.append((f"field_{i}", sample_field(fn, FAMILY_BOX_HALFWIDTH, resolution)))
    return family
