"""The optimal-lattice construction and its associate-norm machinery.

Given a weighted Lorentz base space and a kernel profile phi, the
smallest function lattice receiving the cone of smoothness envelopes has
an explicit norm built from the aggregate Psi_q: either a plain sup
norm (the limiting q = 1 case) or a weighted Stieltjes integral against
d Psi_q / Psi_q.  Its associate norm is equivalent, under one of two
dominance conditions on phi, to the product functional

    rho_tilde(g) built from (int_0^t phi) * (int_t^T g),

and this module computes all four candidate associate functionals, the
dominance conditions with their exponent witnesses, and the
Hardy-inequality constants that control the q > 1 comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DomainError,
    NonConvergent,
    NoSolution,
    NotEmbedded,
    WitnessMissing,
)
from .gridfn import (
    LogGrid,
    SampledFunction,
    _loglog_crossing,
    _map_row_blocks,
    classify_boundedness,
    cumulative_from_zero,
    cumulative_tail,
    head_mass,
    total_mass,
)
from .lorentz import (LorentzSpace, _associate_norm_of_cumulative, _profile_integral,
                      embedding_function)


# ---------------------------------------------------------------------------
# tail aggregate and the two dominance conditions
# ---------------------------------------------------------------------------

def tail_embedding_function(space: LorentzSpace, phi, k: int, n: int) -> SampledFunction:
    """U_q, the tail aggregate of Wtilde(t) = V(t)^-1 t^(1-k/n) phi(t):

        U_1(t) = sup_{[t,T]} Wtilde,
        U_q(t) = ( int_t^T Wtilde^(q') v )^(1/q'),   q > 1,

    with U_q(T) = 0 for q > 1."""
    t = space.grid.points
    wt = t ** (1.0 - k / float(n)) * np.asarray(phi(t), dtype=float) / space.V.values
    if space.q == 1.0:
        vals = np.maximum.accumulate(wt[::-1])[::-1]
    else:
        vals = cumulative_tail(t, wt ** space.qp * space.v_vals) ** (1.0 / space.qp)
    return SampledFunction(space.grid, vals)


def largest_monotone_exponent(t: np.ndarray, vals: np.ndarray) -> float:
    """Largest eps in {2^-j : j = 0..20} such that t^eps * vals is
    nonincreasing on the grid up to a relative 1e-10 (0.0 when none
    passes).  Monotone in eps, so the first pass in descending order is
    the largest."""
    vals = np.asarray(vals, dtype=float)
    for j in range(21):
        eps = 2.0 ** -j
        prod = t ** eps * vals
        if np.all(np.diff(prod) <= 1e-10 * np.maximum(np.abs(prod[:-1]), 1e-300)):
            return eps
    return 0.0


@dataclass
class ConditionWitness:
    d: float                # the dominance constant (inf when unbounded)
    d_grid: float           # raw grid supremum of the defining ratio
    epsilon: float          # monotonicity exponent witness (0 when none)
    holds: bool


def _dominance_witness(grid: LogGrid, ratio, d_grid: float,
                       monotone: np.ndarray) -> ConditionWitness:
    """The witness of a dominance condition from its defining ratio on
    the grid (None when the ratio's head integral diverges), the ratio's
    grid sup d_grid and the values that t^eps must make nonincreasing:
    d is +inf when the ratio is unbounded at 0, and the condition holds
    when the ratio is bounded, d_grid is finite and some eps > 0 exists.

    Ratios converging to a positive limit carry power-small corrections
    that a tight log-exponent fit mistakes for slow growth; the
    genuinely unbounded cases grow like a full power of the log, hence
    the wide band e_tol = 0.4."""
    bounded = ratio is not None and classify_boundedness(grid, ratio, e_tol=0.4)
    eps = largest_monotone_exponent(grid.points, monotone)
    return ConditionWitness(d=d_grid if bounded else math.inf, d_grid=d_grid, epsilon=eps,
                            holds=bounded and math.isfinite(d_grid) and eps > 0.0)


def check_condition_a(phi, V: SampledFunction, k: int, n: int,
                      grid: LogGrid) -> ConditionWitness:
    """Tail-dominated-by-head condition: d1 bounds
    int_t^T tau^(-k/n) phi / ( t^(-k/n) int_0^t phi ), together with an
    exponent eps making t^eps / V(t) nonincreasing."""
    t = grid.points
    ph = np.asarray(phi(t), dtype=float)
    head = _profile_integral(t, ph)
    tail = cumulative_tail(t, t ** (-k / float(n)) * ph)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(head > 0, tail / (t ** (-k / float(n)) * head), np.inf)
    return _dominance_witness(grid, np.maximum(ratio, 1e-300), float(np.max(ratio[:-1])),
                              1.0 / V.values)


def check_condition_b(phi, u_q: SampledFunction, k: int, n: int,
                      grid: LogGrid) -> ConditionWitness:
    """Head-dominated-by-local condition: d2 bounds
    int_0^t tau^(-k/n) phi / ( t^(1-k/n) phi(t) ), together with an
    exponent eps making t^eps U_q(t) nonincreasing."""
    t = grid.points
    ph = np.asarray(phi(t), dtype=float)
    kn = k / float(n)
    head = cumulative_from_zero(t, t ** -kn * ph)
    if not np.isfinite(head[0]):
        return _dominance_witness(grid, None, math.inf, u_q.values)
    ratio = head / (t ** (1.0 - kn) * ph)
    return _dominance_witness(grid, ratio, float(np.max(ratio)), u_q.values)


# ---------------------------------------------------------------------------
# the optimal norm
# ---------------------------------------------------------------------------

def half_level_point(psi: SampledFunction) -> float:
    """The point T1 where the nondecreasing aggregate reaches half its
    terminal value, solved on the segment of its samples that brackets
    the half level (`_loglog_crossing`).
    Raises NoSolution when the aggregate is at least half at the grid
    floor t_min: the half level then lies below t_min, when the limit at
    0 is below half (it is 0 for q > 1), or nowhere."""
    t, vals = psi.grid.points, psi.values
    target = 0.5 * vals[-1]
    if not math.isfinite(target):
        raise NoSolution("aggregate is infinite at T")
    if vals[0] >= target:
        raise NoSolution("aggregate exceeds half its terminal value on the whole grid: "
                         f"the half level lies below t_min = {psi.grid.t_min:g}")
    i = int(np.searchsorted(vals, target))
    return _loglog_crossing(t[i - 1], t[i], vals[i - 1], vals[i], target)


@dataclass
class OptimalNormSpec:
    """Description of the optimal lattice norm: `case` is "sup" when the
    norm collapses to the plain sup norm (q = 1 with a positive limit of
    the aggregate at 0), else "weighted"."""
    case: str
    psi: SampledFunction
    q: float

    @cached_property
    def T1(self) -> float | None:
        """The half level point of psi, None in the sup case; solved on first read."""
        return None if self.case == "sup" else half_level_point(self.psi)


def make_optimal_norm_spec(space: LorentzSpace, phi) -> OptimalNormSpec:
    """Build the optimal-norm description for an embedded configuration;
    raises NotEmbedded when the aggregate is infinite at T."""
    psi = embedding_function(space, phi)
    if not math.isfinite(psi.values[-1]):
        raise NotEmbedded("aggregate infinite at T; no optimal lattice")
    # at q = 1, a positive limit at 0 (the underlying density neither
    # decays nor diverges) leaves the aggregate essentially flat
    flat = space.q == 1.0 and psi.values[0] > 0.5 * psi.values[-1]
    return OptimalNormSpec(case="sup" if flat else "weighted", psi=psi, q=space.q)


def optimal_norm(spec: OptimalNormSpec, f: SampledFunction) -> float:
    """Evaluate the optimal lattice norm of f.

    "sup" case: sup |f| over (0, T).  "weighted" case:

      ( int_0^T ( sup_(0,t) |f| / Psi(t) )^q  dPsi/Psi )^(1/q)
        + Psi(T)^(-1) * sup_(T1,T) |f|,

    the Stieltjes integral taken against forward differences of Psi on
    the grid.  +inf is a legal value.
    """
    av = np.abs(f.values)
    if spec.case == "sup":
        return float(np.max(av))
    psi = spec.psi(f.grid.points)
    core = _stieltjes_sum(np.maximum.accumulate(av), psi, spec.q)
    t = f.grid.points
    tail_sup = float(np.max(av[t >= spec.T1])) if np.any(t >= spec.T1) else av[-1]
    return core + tail_sup / psi[-1]


def _stieltjes_sum(v: np.ndarray, psi: np.ndarray, q: float) -> float:
    """( sum (v/Psi)^q dPsi/Psi )^(1/q) over the forward differences of
    Psi, each term taken at the left end of its step."""
    terms = (v[:-1] / psi[:-1]) ** q * np.diff(psi) / psi[:-1]
    return float(np.sum(terms)) ** (1.0 / q)


# ---------------------------------------------------------------------------
# the exponential sum for 1/z
# ---------------------------------------------------------------------------

# Step of the trapezoid rule for 1/z = int exp(u - z e^u) du.  In u = log s
# its aliasing error is at most 2 |Gamma(1 + 2 pi i / h)|, 1.8e-16
# relative at h = 1/4, for every z > 0.
_EXP_SUM_STEP = 0.25
# exp(-x) is exactly 0.0 for x > 746 (the least subnormal is exp(-744.4))
_EXP_UNDERFLOW = 746.0
# grid columns per block of the exponential table: a block of a few hundred
# KB (384 to 768 columns time alike at 4000 points)
_COLUMN_BLOCK = 512


def exp_sum_nodes(z_min: float, z_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Ascending nodes s_m and positive weights w_m with
    1/z = sum_m w_m exp(-s_m z) to double precision for z in
    [z_min, z_max]: the trapezoid rule of step h = _EXP_SUM_STEP in v,
    where u = log s = v - exp(v0 - v).

    Below v0 = h floor((log(1 / z_max) - 3) / h), where exp(-s z) is
    about 1, the substitution makes the integrand decay double
    exponentially: 15 nodes below v0 hold the head that takes a node per
    h over 37 units of u in u itself.  The rule ends at the first lattice
    point past log(40 / z_min), where the cut tail holds below exp(-40).
    The nodes lie on the h-lattice, so v0 - v is exact: off it, the
    rounding of v doubles the error (8.9e-16 against 4.4e-16 relative).
    Every weight is positive."""
    j0 = math.floor((math.log(1.0 / z_max) - 3.0) / _EXP_SUM_STEP)
    j = np.arange(j0 - 15, math.ceil(math.log(40.0 / z_min) / _EXP_SUM_STEP) + 1)
    e = np.exp(_EXP_SUM_STEP * (j0 - j))
    s = np.exp(_EXP_SUM_STEP * j) * np.exp(-e)
    return s, _EXP_SUM_STEP * s * (1.0 + e)


# ---------------------------------------------------------------------------
# the four associate functionals
# ---------------------------------------------------------------------------

class AssociateNormEngine:
    """Shared tables for evaluating the associate functionals of many
    nonnegative g on one grid.

    The double-integral functional needs the cone kernel
    phi(tau) / (1 + (tau/xi)^(k/n)).  With y = t^(k/n), its logistic
    factor is y(xi) / (y(tau) + y(xi)), and 1/z is the positive
    exponential sum of exp_sum_nodes, so the kernel splits into
    exp(-s_m y(tau)) exp(-s_m y(xi)) over M nodes (68 to 191 on a 1e-8
    span, 338 at 1e-16): no N x N matrix and no particular grid.
    rho0_family makes two passes over the M x N table exp(-s y), in
    column blocks cut short where its entries are exactly 0.0: first for
    the F x M node coefficients of the family, then for the product,
    written over the weighted family.  Each pass builds each block as its
    GEMM needs it, so the table is never whole: that holds F * N + F * M
    floats and one block of at most M * _COLUMN_BLOCK, and makes
    2 ceil(N / _COLUMN_BLOCK) GEMMs and up to 2 M N exponentials.  Every
    term is nonnegative, so each psi0 entry keeps the rule's relative accuracy up to a few ulp of
    rounding; an FFT product is ruled out, as its error scales with the
    row maximum (4.5e-8 relative on tail entries at k/n = 2).  rho0 is
    the one-row case, as rho_tilde is of rho_tilde_family; both families
    run their rows through the grid rules in row blocks.  The reduced
    functionals only need running integrals.
    """

    def __init__(self, space: LorentzSpace, phi, k: int, n: int):
        self.space = space
        t = space.grid.points
        self.t = t
        self.kn = k / float(n)
        self.phi_vals = np.asarray(phi(t), dtype=float)
        self.iphi = _profile_integral(t, self.phi_vals)
        self.jk = cumulative_tail(t, t ** -self.kn * self.phi_vals)
        # log-trapezoid weights for integrals against g(xi) d xi
        u = np.log(t)
        du = np.empty_like(t)
        du[1:-1] = 0.5 * (u[2:] - u[:-2])
        du[0] = 0.5 * (u[1] - u[0])
        du[-1] = 0.5 * (u[-1] - u[-2])
        self.xi_weights = t * du
        # y = t^(k/n) scaled to y(T) = 1, the nodes of 1/(y(tau) + y(xi)),
        # and the weights w y that turn g into the kernel's coefficients
        self.y = (t / t[-1]) ** self.kn
        self.nodes, self.node_weights = exp_sum_nodes(2.0 * self.y[0], 2.0 * self.y[-1])
        self.cone_weights = self.xi_weights * self.y
        # smooth factors multiplying g in the reduced functionals, with
        # their below-grid head masses (g itself is treated as locally
        # constant below the grid: a two-point power fit on staircase or
        # random data would be meaningless)
        self.split_factor = self.iphi + t ** self.kn * self.jk
        self.split_head = head_mass(t, self.split_factor)
        self.power_head = t[0] ** (self.kn + 1.0) / (self.kn + 1.0)

    def _checked(self, g, ndim: int = 1) -> np.ndarray:
        g = np.asarray(g, dtype=float)
        if g.ndim != ndim or g.shape[-1:] != self.t.shape:
            raise DomainError(f"g has shape {g.shape}, expected {ndim}-D "
                              f"with rows of the grid's {len(self.t)} points")
        return g

    # -- the four functionals ----------------------------------------------

    def rho_tilde(self, g: np.ndarray) -> float:
        return float(self.rho_tilde_family(self._checked(g)[None])[0])

    def rho_tilde_family(self, G) -> np.ndarray:
        """rho_tilde of each row of G, an F x N array."""
        # the tail integral of g ends in 0, so the term beyond T adds exactly 0
        return _map_row_blocks(lambda block: _associate_norm_of_cumulative(
            self.space, self.iphi * cumulative_tail(self.t, block)),
            self._checked(G, ndim=2), len(self.t))

    def rho1(self, g: np.ndarray) -> float:
        g = self._checked(g)
        sp = self.space
        inner = (cumulative_from_zero(self.t, g * self.split_factor,
                                      g[0] * self.split_head)
                 - self.jk * cumulative_from_zero(self.t, g * self.t ** self.kn,
                                                  g[0] * self.power_head))
        if not np.all(np.isfinite(inner)):
            return math.inf
        inner = np.maximum(inner, 0.0)
        if sp.q == 1.0:
            return _associate_norm_of_cumulative(sp, inner)
        return float(total_mass(self.t, inner ** sp.qp * sp.w_vals) ** (1.0 / sp.qp))

    def rho2(self, g: np.ndarray) -> float:
        g = self._checked(g)
        sp = self.space
        if sp.q == 1.0:
            return 0.0
        mass = cumulative_from_zero(self.t, g * self.split_factor,
                                    g[0] * self.split_head)[-1]
        if not math.isfinite(mass):
            return math.inf
        return float(mass * sp.tail_w ** (1.0 / sp.qp))

    def rho0(self, g: np.ndarray) -> float:
        return float(self.rho0_family(self._checked(g)[None])[0])

    def _psi0(self, a: np.ndarray) -> np.ndarray:
        """Rows tau -> int Omega(xi, tau) g(xi) dxi for the rows g of G,
        given the weighted family a = cone_weights * G, and written over a."""
        # a row with an infinite or NaN coefficient has that sum in every
        # entry (the kernel is positive); the product would turn inf * 0
        # into NaN where exp(-s y) underflows, so it runs on zeros instead
        bad = ~np.all(np.isfinite(a), axis=1)
        totals = np.sum(a[bad], axis=1)
        a[bad] = 0.0
        coef = np.zeros((len(a), len(self.nodes)))
        # each loop drops its block before asking for the next: a block
        # still named here would stay alive while the next is built
        for cols, table in self._exp_blocks():
            coef[:, :len(table)] += a[:, cols] @ table.T
            del table
        coef *= self.node_weights
        for cols, table in self._exp_blocks():
            np.matmul(coef[:, :len(table)], table, out=a[:, cols])
            del table
        a[bad] = totals[:, None]
        return np.multiply(a, self.phi_vals, out=a)

    def _exp_blocks(self):
        """The M x N table exp(-s_m y_j) as (cols, table) column blocks of
        _COLUMN_BLOCK columns, without its exact zeros, built one block at
        a time as the caller asks for it and released here before the next
        is built: s and y ascend, so a block keeps only the nodes with
        s y(first column) <= _EXP_UNDERFLOW, and every entry it drops is
        exactly 0.0 (numpy's exp is slowest on those)."""
        s, y = self.nodes, self.y
        for j in range(0, len(y), _COLUMN_BLOCK):
            cols = slice(j, j + _COLUMN_BLOCK)
            m = np.searchsorted(s * y[j], _EXP_UNDERFLOW, side="right")
            table = np.multiply.outer(-s[:m], y[cols])
            yield cols, np.exp(table, out=table)
            del table

    def rho0_family(self, G) -> np.ndarray:
        """rho0 of each row of G, an F x N array, which is left as it is."""
        return self._rho0_weighted(np.multiply(self.cone_weights, self._checked(G, ndim=2)))

    def _rho0_weighted(self, a: np.ndarray) -> np.ndarray:
        """rho0 of each row g of G, given a = cone_weights * G, which
        psi0 overwrites."""
        return _map_row_blocks(lambda block: _associate_norm_of_cumulative(
            self.space, cumulative_from_zero(self.t, block)), self._psi0(a), len(self.t))

    def rho0_hat(self, g: np.ndarray) -> float:
        """q = 1 only: the nested form sup_t V^-1 int_0^t phi(tau)
        (int_tau^T g) dtau, which dominates rho_tilde term by term."""
        if self.space.q != 1.0:
            raise DomainError("the nested form is a q = 1 functional")
        g = self._checked(g)
        nested = self.phi_vals * cumulative_tail(self.t, g)
        return _associate_norm_of_cumulative(self.space,
                                             cumulative_from_zero(self.t, nested))


# ---------------------------------------------------------------------------
# Hardy constants
# ---------------------------------------------------------------------------

def hardy_constants(space: LorentzSpace) -> dict:
    """The weighted-Hardy constant

      B0 = sup_t ( int_t^T w )^(1/q') ( int_0^t w^(-q/q') tau^(-q) )^(1/q)

    together with the theoretical bound (q/q')^(1/q') / eps and the
    induced bound on the best inequality constant,
    c3 <= B0 q^(1/q) q'^(1/q').  eps is the largest exponent making
    V(t) t^(-eps) nondecreasing (WitnessMissing when none exists).
    """
    if space.q <= 1.0:
        raise DomainError("Hardy constants are a q > 1 construction")
    t = space.grid.points
    eps = largest_monotone_exponent(t, 1.0 / space.V.values)
    if eps == 0.0:
        raise WitnessMissing("no exponent witness for the cumulative weight")
    q, qp = space.q, space.qp
    w = space.w_vals
    upper = cumulative_tail(t, w)
    lower = cumulative_from_zero(t, w ** (-q / qp) * t ** -q)
    if not np.isfinite(lower[0]):
        raise NonConvergent("lower Hardy integral diverges at 0")
    b0 = float(np.max(upper ** (1.0 / qp) * lower ** (1.0 / q)))
    bound = (q / qp) ** (1.0 / qp) / eps
    return {
        "B0": b0,
        "bound": bound,
        "within_bound": bool(b0 <= bound * (1 + 1e-9)),
        "c3_bound": b0 * q ** (1.0 / q) * qp ** (1.0 / qp),
        "epsilon": eps,
    }


# ---------------------------------------------------------------------------
# the reproducible sample family for equivalence experiments
# ---------------------------------------------------------------------------

FAMILY_SEED = 0x5EED

_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1


def _seed_hash(mult: int, step: int):
    """SeedSequence's 32-bit hash; its multiplier advances by `step` on
    every call."""
    def hash32(value: int) -> int:
        nonlocal mult
        value ^= mult
        mult = mult * step & _M32
        value = value * mult & _M32
        return value ^ value >> 16
    return hash32


def _seed_mix(x: int, y: int) -> int:
    r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
    return r ^ r >> 16


class _FamilyRng:
    """The draws of numpy's `default_rng(seed)` (SeedSequence seeding
    PCG64) for the two calls the families make, bit for bit, in pure
    Python: importing numpy's random module costs about 6 MB, and numpy
    may change Generator streams between releases; these stay fixed."""

    def __init__(self, seed: int):
        # SeedSequence: the seed's little-endian 32-bit words hashed into a
        # pool of 4, then 8 words drawn from the pool
        entropy = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
        mix_hash = _seed_hash(0x43B0D7E5, 0x931E8875)
        pool = [mix_hash(entropy[i] if i < len(entropy) else 0) for i in range(4)]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = _seed_mix(pool[dst], mix_hash(pool[src]))
        for word in entropy[4:]:
            for dst in range(4):
                pool[dst] = _seed_mix(pool[dst], mix_hash(word))
        out_hash = _seed_hash(0x8B51F9DD, 0x58F38DED)
        out = [out_hash(pool[i % 4]) for i in range(8)]
        u = [out[i] | out[i + 1] << 32 for i in range(0, 8, 2)]
        # PCG64: state 0, one step, add the initial state, one more step
        self._inc = ((u[2] << 64 | u[3]) << 1 | 1) & _M128
        self._state = self._inc + (u[0] << 64 | u[1])
        self._next64()
        self._high = None     # the unused upper half of a 64-bit draw

    def _next64(self) -> int:
        s = self._state = (self._state * 0x2360ED051FC65DA44385DF649FCCF645
                           + self._inc) & _M128
        x, rot = (s >> 64 ^ s) & _M64, s >> 122
        return (x >> rot | x << (64 - rot)) & _M64

    def _next32(self) -> int:
        if self._high is not None:
            x, self._high = self._high, None
            return x
        x = self._next64()
        self._high = x >> 32
        return x & _M32

    def _bounded(self, r: int) -> int:
        """Uniform on {0, ..., r} for 0 < r < 2^32 - 1: Lemire's method."""
        m = self._next32() * (r + 1)
        while m & _M32 < (1 << 32) % (r + 1):
            m = self._next32() * (r + 1)
        return m >> 32

    def uniform(self, low: float, high: float, size: int | None = None):
        """A float, or an array of `size` floats, uniform on [low, high)."""
        low, span = float(low), float(high) - float(low)
        draws = [low + span * ((self._next64() >> 11) * 2.0 ** -53)
                 for _ in range(1 if size is None else size)]
        return draws[0] if size is None else np.array(draws)

    def choice(self, n: int, size: int) -> np.ndarray:
        """numpy's `choice(n, size, replace=False)` for size < n where
        n <= 10000 or size <= n // 50: Floyd's sample, then shuffled."""
        taken = []
        for j in range(n - size, n):
            v = self._bounded(j)
            taken.append(j if v in taken else v)
        for i in range(size - 1, 0, -1):
            j = self._bounded(i)
            taken[i], taken[j] = taken[j], taken[i]
        return np.array(taken)


def sample_family(grid: LogGrid, seed: int = FAMILY_SEED) -> np.ndarray:
    """The fixed experiment family of nonnegative g on a grid, one row
    each: 10 head indicators, 10 band indicators, 15 powers t^s with
    s in (-1/2, 2) and 15 decreasing staircases.  Deterministic for a
    given seed and grid, which needs at least 6 points: each staircase
    has 4 interior breaks."""
    if len(grid.points) < 6:
        raise DomainError("the family needs a grid of at least 6 points")
    rng = _FamilyRng(seed)
    t = grid.points
    T = grid.t_max
    family = np.empty((50, len(t)))
    for i, a in enumerate(np.geomspace(1e-4 * T, 0.9 * T, 10)):
        family[i] = t < a
    for i in range(10, 20):
        lo, hi = np.sort(rng.uniform(np.log(1e-5 * T), np.log(T), size=2))
        family[i] = (t >= math.exp(lo)) & (t < math.exp(hi))
    for i, s in enumerate(np.linspace(-0.45, 2.0, 15), start=20):
        family[i] = (t / T) ** s
    for i in range(35, 50):
        breaks = np.sort(rng.choice(len(t) - 2, 4)) + 1
        levels = np.sort(rng.uniform(0.1, 2.0, size=5))[::-1]
        family[i] = np.repeat(levels, np.diff([0, *breaks, len(t)]))
    return family


def equivalence_report(space: LorentzSpace, phi, k: int, n: int,
                       seed: int = FAMILY_SEED) -> dict:
    """The least and largest ratio rho0/rho_tilde over the rows of
    sample_family(space.grid, seed), and the two-sided equivalence
    constant, their spread C = max ratio / min ratio.  A row gives no
    ratio when rho_tilde is 0 or both norms are infinite; min and max
    are NaN when no row gives one.

    The family is built here and is the one 50 x N array of the run:
    rho_tilde reads it first, then it is weighted in place and psi0 is
    written over it."""
    eng = AssociateNormEngine(space, phi, k, n)
    family = sample_family(space.grid, seed)
    rt = eng.rho_tilde_family(family)
    r0 = eng._rho0_weighted(np.multiply(eng.cone_weights, family, out=family))
    keep = (rt > 0) & (np.isfinite(r0) | np.isfinite(rt))
    ratios = r0[keep] / rt[keep]
    lo, hi = (float(ratios.min()), float(ratios.max())) if ratios.size else (math.nan, math.nan)
    # a one-sided infinite norm gives a ratio of 0 or +inf: either makes
    # the spread infinite
    return {"min_ratio": lo, "max_ratio": hi,
            "spread": math.inf if lo == 0.0 or hi == math.inf else hi / lo}
