"""The optimal-lattice construction and its associate-norm machinery.

Given a weighted Lorentz base space and a kernel profile phi, the
smallest function lattice receiving the cone of smoothness envelopes has
an explicit norm built from the aggregate Psi_q: either a plain sup
norm (the limiting q = 1 case) or a weighted Stieltjes integral against
d Psi_q / Psi_q.  Its associate norm is equivalent, under one of two
dominance conditions on phi, to the product functional

    rho_tilde(g) built from (int_0^t phi) * (int_t^T g),

and this module computes all four candidate associate functionals, the
dominance conditions with their exponent witnesses, the dyadic
discretization sequences used to compare them, and the Hardy-inequality
constants that control the q > 1 comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    DomainError,
    Exhausted,
    NonConvergent,
    NoSolution,
    NotEmbedded,
    WitnessMissing,
)
from .gridfn import (
    LogGrid,
    SampledFunction,
    classify_boundedness,
    cumulative_from_zero,
    cumulative_tail,
    head_mass,
    segment_masses,
    total_mass,
)
from .lorentz import (LorentzSpace, _associate_norm_of_cumulative, _profile_integral,
                      embedding_function)


# ---------------------------------------------------------------------------
# tail aggregate and the two dominance conditions
# ---------------------------------------------------------------------------

def tail_embedding_function(space: LorentzSpace, phi, k: int, n: int):
    """(Wtilde, U_q): the tail density Wtilde(t) = V(t)^-1 t^(1-k/n) phi(t)
    and its tail aggregate

        U_1(t) = sup_{[t,T]} Wtilde,
        U_q(t) = ( int_t^T Wtilde^(q') v )^(1/q'),   q > 1,

    with U_q(T) = 0 for q > 1."""
    t = space.grid.points
    wt = t ** (1.0 - k / float(n)) * np.asarray(phi(t), dtype=float) / space.V.values
    wtilde = SampledFunction(space.grid, wt)
    if space.q == 1.0:
        vals = np.maximum.accumulate(wt[::-1])[::-1]
    else:
        vals = cumulative_tail(t, wt ** space.qp * space.v_vals) ** (1.0 / space.qp)
    uq = SampledFunction(space.grid, vals, monotonicity="decreasing")
    return wtilde, uq


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
    which: str              # "A" | "B"
    d: float                # the dominance constant (inf when unbounded)
    d_grid: float           # raw grid supremum of the defining ratio
    epsilon: float          # monotonicity exponent witness (0 when none)
    holds: bool


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
    d_grid = float(np.max(ratio[:-1]))
    # ratios converging to a positive limit carry power-small corrections
    # that a tight log-exponent fit mistakes for slow growth; the
    # genuinely unbounded cases grow like a full power of the log
    tag = classify_boundedness(grid, np.maximum(ratio, 1e-300), e_tol=0.4).tag
    unbounded = tag == "divergent"
    eps = largest_monotone_exponent(t, 1.0 / V.values)
    holds = (not unbounded) and eps > 0.0
    return ConditionWitness(which="A", d=(math.inf if unbounded else d_grid),
                            d_grid=d_grid, epsilon=eps, holds=holds)


def check_condition_b(phi, u_q: SampledFunction, k: int, n: int,
                      grid: LogGrid) -> ConditionWitness:
    """Head-dominated-by-local condition: d2 bounds
    int_0^t tau^(-k/n) phi / ( t^(1-k/n) phi(t) ), together with an
    exponent eps making t^eps U_q(t) nonincreasing."""
    t = grid.points
    ph = np.asarray(phi(t), dtype=float)
    kn = k / float(n)
    integrand = t ** -kn * ph
    head = cumulative_from_zero(t, integrand)
    if not np.isfinite(head[0]):
        d_grid = math.inf
        unbounded = True
    else:
        ratio = head / (t ** (1.0 - kn) * ph)
        d_grid = float(np.max(ratio))
        unbounded = classify_boundedness(grid, ratio, e_tol=0.4).tag == "divergent"
    eps = largest_monotone_exponent(t, u_q.values)
    holds = (not unbounded) and math.isfinite(d_grid) and eps > 0.0
    return ConditionWitness(which="B", d=(math.inf if unbounded else d_grid),
                            d_grid=d_grid, epsilon=eps, holds=holds)


# ---------------------------------------------------------------------------
# the optimal norm
# ---------------------------------------------------------------------------

def half_level_point(psi: SampledFunction) -> float:
    """The point T1 where the nondecreasing aggregate reaches half its
    terminal value (to 1e-6 of that value), by bisection on the
    interpolated grid function.
    Raises NoSolution when the aggregate never drops below half (e.g.
    when its limit at 0 is already at least half)."""
    vals = psi.values
    target = 0.5 * vals[-1]
    if not math.isfinite(target):
        raise NoSolution("aggregate is infinite at T")
    if vals[0] >= target:
        raise NoSolution("aggregate exceeds half its terminal value on the whole grid")
    lo, hi = psi.grid.t_min, psi.grid.t_max
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        val = float(psi(mid))
        if abs(val - target) <= 1e-6 * vals[-1]:
            return mid
        if val < target:
            lo = mid
        else:
            hi = mid
    raise NoSolution("bisection failed to localize the half level")


@dataclass
class OptimalNormSpec:
    """Description of the optimal lattice norm: `case` is "sup" when the
    norm collapses to the plain sup norm (q = 1 with a positive limit of
    the aggregate at 0), else "weighted"."""
    case: str
    psi: SampledFunction
    T1: float | None
    q: float


def make_optimal_norm_spec(space: LorentzSpace, phi) -> OptimalNormSpec:
    """Build the optimal-norm description for an embedded configuration;
    raises NotEmbedded when the aggregate is infinite at T."""
    psi = embedding_function(space, phi)
    if not math.isfinite(psi.values[-1]):
        raise NotEmbedded("aggregate infinite at T; no optimal lattice")
    if space.q == 1.0:
        # positive limit at 0 iff the underlying density neither decays
        # nor diverges; the aggregate is then essentially flat
        if psi.values[0] > 0.5 * psi.values[-1]:
            return OptimalNormSpec(case="sup", psi=psi, T1=None, q=1.0)
    return OptimalNormSpec(case="weighted", psi=psi,
                           T1=half_level_point(psi), q=space.q)


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
    psi = spec.psi(f.grid.points) if f.grid is not spec.psi.grid else spec.psi.values
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
# the four associate functionals
# ---------------------------------------------------------------------------

class AssociateNormEngine:
    """Shared tables for evaluating the associate functionals of many
    nonnegative g on one grid.

    The double-integral functional needs the cone kernel
    phi(tau) / (1 + (tau/xi)^(k/n)).  It relies on the geometric grid,
    where tau/xi = r^(j-i): the logistic factor depends on j - i alone and
    is stored as one Toeplitz row of length 2N - 1 (O(grid) memory, no
    N x N matrix).  rho0_family evaluates a family as one GEMM
    (F x N) . Toeplitz, copying _BLOCK Toeplitz columns at a time into one
    reused buffer: about _BLOCK * N + 2 F * N floats.  Every term is
    nonnegative, so any summation order keeps each psi0 entry to a few ulp;
    an FFT product is ruled out, as its error scales with the row maximum
    (4.5e-8 relative on tail entries at k/n = 2).  rho0 is the one-row
    case.  The reduced functionals only need running integrals.
    """

    # Toeplitz columns copied per GEMM: 64 * N * 8 bytes, 2 MB at N = 4000;
    # wider blocks run faster but lift the peak memory
    _BLOCK = 64

    def __init__(self, space: LorentzSpace, phi, k: int, n: int):
        self.space = space
        self.k, self.n = k, n
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
        # logistic factor of the cone kernel, kernel_row[d + N - 1] =
        # 1 / (1 + r^(kn d)) for d = j - i in 1-N .. N-1
        self.kernel_row = 1.0 / (1.0 + np.concatenate(
            ((t[0] / t[:0:-1]) ** self.kn, (t / t[0]) ** self.kn)))
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

    def _cum_scaled_head(self, g: np.ndarray, factor: np.ndarray,
                         factor_head: float) -> np.ndarray:
        out = np.empty(len(self.t))
        out[0] = g[0] * factor_head
        np.cumsum(segment_masses(self.t, g * factor), out=out[1:])
        out[1:] += out[0]
        return out

    # -- the four functionals ----------------------------------------------

    def rho_tilde(self, g: np.ndarray) -> float:
        g = self._checked(g)
        # the tail integral of g ends in 0, so the term beyond T adds exactly 0
        return _associate_norm_of_cumulative(self.space,
                                             self.iphi * cumulative_tail(self.t, g))

    def rho1(self, g: np.ndarray) -> float:
        g = self._checked(g)
        sp = self.space
        inner = (self._cum_scaled_head(g, self.split_factor, self.split_head)
                 - self.jk * self._cum_scaled_head(g, self.t ** self.kn,
                                                   self.power_head))
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
        mass = self._cum_scaled_head(g, self.split_factor, self.split_head)[-1]
        if not math.isfinite(mass):
            return math.inf
        return float(mass * sp.tail_w ** (1.0 / sp.qp))

    def rho0(self, g: np.ndarray) -> float:
        return float(self.rho0_family(self._checked(g)[None])[0])

    def _psi0(self, G) -> np.ndarray:
        """Rows tau -> int Omega(xi, tau) g(xi) dxi for the rows g of G."""
        N, B = len(self.t), self._BLOCK
        # Toeplitz column j is kernel_row[j:j + N] reversed: reverse G instead
        a = self.xi_weights[::-1] * self._checked(G, ndim=2)[:, ::-1]
        windows = sliding_window_view(self.kernel_row, N)
        buf, out = np.empty((B, N)), np.empty(a.shape)
        for j in range(0, N, B):
            block = buf[:min(B, N - j)]
            np.copyto(block, windows[j:j + B])
            np.matmul(a, block.T, out=out[:, j:j + B])
        return np.multiply(out, self.phi_vals, out=out)

    def rho0_family(self, G) -> np.ndarray:
        """rho0 of each row of G, an F x N array or a list of F rows."""
        return np.array([_associate_norm_of_cumulative(
            self.space, cumulative_from_zero(self.t, psi0)) for psi0 in self._psi0(G)])

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
# dyadic level discretizations
# ---------------------------------------------------------------------------

def _rightmost_crossing(grid: LogGrid, env: np.ndarray, level: float) -> float:
    """sup{ t : env(t) >= level } for a nonincreasing envelope sampled on
    the grid, refined by bisection between the bracketing samples."""
    t = grid.points
    if env[0] < level:
        raise Exhausted(f"level {level} above the envelope maximum {env[0]}")
    idx = int(np.nonzero(env >= level)[0][-1])
    if idx == len(t) - 1:
        return float(t[-1])
    f = SampledFunction(grid, env)
    lo, hi = float(t[idx]), float(t[idx + 1])
    for _ in range(80):
        mid = math.sqrt(lo * hi)
        if f(mid) >= level:
            lo = mid
        else:
            hi = mid
    return lo


def level_discretization(u1: SampledFunction, count: int = 20) -> np.ndarray:
    """nu_m = sup{ t : U(t) = 2^m } for a positive decreasing U
    normalized so U(T) = 1; nu_0 = T, strictly decreasing toward 0.
    Raises Exhausted when the grid floor is reached before `count`."""
    env = np.maximum.accumulate(u1.values[::-1])[::-1]
    env = env / env[-1]
    out = np.empty(count)
    out[0] = u1.grid.t_max
    for m in range(1, count):
        out[m] = _rightmost_crossing(u1.grid, env, 2.0 ** m)
        if out[m] <= u1.grid.t_min * (1 + 1e-9):
            raise Exhausted(f"grid floor reached at index {m}")
    return out


def two_sided_level_discretization(uq: SampledFunction, m_minus: int = 5):
    """delta_m = sup{ tau : U_q(tau) = 2^m } for m in [-m_minus, m_plus];
    requires U_q(T) = 0 and U_q blowing up at 0.  m_plus is the largest
    level found above 10x the grid floor."""
    env = np.maximum.accumulate(uq.values[::-1])[::-1]
    if uq.values[-1] > 1e-12 * env[0]:
        raise DomainError("tail aggregate must vanish at T")
    f10 = SampledFunction(uq.grid, env)(10.0 * uq.grid.t_min)
    m_plus = int(math.floor(math.log2(f10))) if f10 > 0 else 0
    ms = np.arange(-m_minus, m_plus + 1)
    deltas = np.empty(len(ms))
    for i, m in enumerate(ms):
        deltas[i] = _rightmost_crossing(uq.grid, env, 2.0 ** m)
        if deltas[i] <= uq.grid.t_min * (1 + 1e-9):
            raise Exhausted(f"grid floor reached at level index {m}")
    return ms, deltas


# ---------------------------------------------------------------------------
# Hardy constants
# ---------------------------------------------------------------------------

def hardy_constants(space: LorentzSpace, delta: float = 0.0) -> dict:
    """The weighted-Hardy constant

      B_delta = sup_t ( int_t^T w tau^(delta q') )^(1/q')
                      ( int_0^t w^(-q/q') tau^(-(delta+1) q) )^(1/q)

    together with the theoretical bound (q/q')^(1/q') / (eps - delta q)
    and the induced bound on the best inequality constant,
    c3 <= B_delta q^(1/q) q'^(1/q').  eps is the largest exponent making
    V(t) t^(-eps) nondecreasing (WitnessMissing when none exists).
    """
    if space.q <= 1.0:
        raise DomainError("Hardy constants are a q > 1 construction")
    t = space.grid.points
    eps = largest_monotone_exponent(t, 1.0 / space.V.values)
    if eps == 0.0:
        raise WitnessMissing("no exponent witness for the cumulative weight")
    if not delta < eps / space.q:
        raise DomainError(f"delta must be below eps/q = {eps / space.q}")
    q, qp = space.q, space.qp
    w = space.w_vals
    upper = cumulative_tail(t, w * t ** (delta * qp))
    lower = cumulative_from_zero(t, w ** (-q / qp) * t ** (-(delta + 1.0) * q))
    if not np.isfinite(lower[0]):
        raise NonConvergent("lower Hardy integral diverges at 0")
    b_vals = upper ** (1.0 / qp) * lower ** (1.0 / q)
    b_delta = float(np.max(b_vals))
    bound = (q / qp) ** (1.0 / qp) / (eps - delta * q)
    return {
        "B_delta": b_delta,
        "bound": bound,
        "within_bound": bool(b_delta <= bound * (1 + 1e-9)),
        "c3_bound": b_delta * q ** (1.0 / q) * qp ** (1.0 / qp),
        "epsilon": eps,
        "argmax_t": float(t[int(np.argmax(b_vals))]),
    }


# ---------------------------------------------------------------------------
# the reproducible sample family for equivalence experiments
# ---------------------------------------------------------------------------

FAMILY_SEED = 0x5EED


def sample_family(grid: LogGrid, count: int = 50, seed: int = FAMILY_SEED):
    """The fixed experiment family of nonnegative g on a grid:
    10 head indicators, 10 band indicators, 15 powers t^s with
    s in (-1/2, 2), and decreasing staircases for the remainder.
    Deterministic for a given seed and grid."""
    rng = np.random.default_rng(seed)
    t = grid.points
    T = grid.t_max
    family = []
    n_head = min(10, count)
    for a in np.geomspace(1e-4 * T, 0.9 * T, n_head):
        family.append((f"head_{a:.3e}", (t < a).astype(float)))
    n_band = min(10, max(count - len(family), 0))
    for _ in range(n_band):
        lo, hi = np.sort(rng.uniform(np.log(1e-5 * T), np.log(T), size=2))
        family.append(("band_%.2f_%.2f" % (lo, hi),
                       ((t >= math.exp(lo)) & (t < math.exp(hi))).astype(float)))
    n_pow = min(15, max(count - len(family), 0))
    for s in np.linspace(-0.45, 2.0, n_pow):
        family.append((f"power_{s:+.2f}", (t / T) ** s))
    while len(family) < count:
        breaks = np.sort(rng.choice(len(t) - 2, size=4, replace=False)) + 1
        levels = np.sort(rng.uniform(0.1, 2.0, size=5))[::-1]
        vals = np.empty_like(t)
        prev = 0
        for b, lv in zip(list(breaks) + [len(t)], levels):
            vals[prev:b] = lv
            prev = b
        family.append((f"stair_{len(family)}", vals))
    return family[:count]


def equivalence_report(space: LorentzSpace, phi, k: int, n: int, family) -> dict:
    """Ratios rho0/rho_tilde over the sample family; the two-sided
    equivalence constant is the spread C = max ratio / min ratio."""
    eng = AssociateNormEngine(space, phi, k, n)
    rows = [eng._checked(g) for _, g in family]
    rho0s = eng.rho0_family(rows).tolist() if rows else []
    ratios = {}
    infinite = 0
    for (name, _), g, r0 in zip(family, rows, rho0s):
        rt = eng.rho_tilde(g)
        if math.isinf(r0) and math.isinf(rt):
            ratios[name] = math.nan
            infinite += 1
        else:
            ratios[name] = r0 / rt if rt > 0 else math.nan
    vals = [v for v in ratios.values() if math.isfinite(v)]
    lo, hi = (min(vals), max(vals)) if vals else (math.nan, math.nan)
    return {"ratios": ratios, "min_ratio": lo, "max_ratio": hi,
            "spread": math.inf if lo == 0.0 else hi / lo,
            "count": len(vals), "both_infinite": infinite}
