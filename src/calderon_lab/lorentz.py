"""Weighted Lorentz norms, their associates and the embedding criterion.

A weight v(t) = t^a * (iterated-log factors) determines the Lorentz
functional  ( int_0^T (f*)^q v )^(1/q)  and, through its cumulative V and
the dual weight w = V^(-q') v, the associate-norm evaluators.  The
aggregate

    Psi_q(t) = sup_{(0,t]} W          (q = 1)
             = ( int_0^t W^q' v )^(1/q')   (q > 1),
    W(t) = V(t)^(-1) * int_0^t phi,

is nondecreasing, and its finiteness at T decides whether convolutions
against the kernel land in the bounded continuous functions.  Infinity
is a legal value throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, Inconclusive, NonConvergent, TrivialSpace
from .gridfn import (
    LogGrid,
    SampledFunction,
    _map_row_blocks,
    classify_boundedness,
    cumulative_from_zero,
    fitted_head_mass,
    make_log_grid,
    total_mass,
)
from .kernels import KernelSpec, SlowlyVaryingSpec, measure_profile


@dataclass(frozen=True)
class WeightSpec:
    """v(t) = t^power_exponent * sv(t) on (0, T].

    The slowly varying part, when present, already carries any q-th
    power (build it with SlowlyVaryingSpec.powered).  Integrability at 0
    requires power_exponent > -1; otherwise the space is trivial.
    """

    power_exponent: float
    sv: SlowlyVaryingSpec | None = None
    T: float = 1.0

    def __post_init__(self):
        if self.sv is not None and self.sv.scale != self.T:
            raise DomainError("slowly varying factors must be anchored at T")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return t ** self.power_exponent * (self.sv(t) if self.sv is not None else 1.0)


def power_weight(q: float, p: float, T: float = 1.0,
                 sv: SlowlyVaryingSpec | None = None) -> WeightSpec:
    """The standard family v(t) = t^(q/p-1) * b(t)^q: pass the plain b
    as sv and the q-th power is applied here."""
    return WeightSpec(power_exponent=q / p - 1.0,
                      sv=sv.powered(q) if sv is not None else None, T=T)


def cumulative_weight(weight: WeightSpec, grid: LogGrid) -> SampledFunction:
    """V(t) = int_0^t v, increasing; raises TrivialSpace when v is not
    integrable at 0 (the space then contains only 0)."""
    if weight.power_exponent <= -1.0:
        raise TrivialSpace(
            f"weight power {weight.power_exponent} <= -1: V is infinite")
    vals = cumulative_from_zero(grid.points, weight(grid.points))
    if not np.isfinite(vals[0]):
        raise TrivialSpace("cumulative weight is infinite")
    return SampledFunction(grid=grid, values=vals)


class LorentzSpace:
    """The pair (q, weight) with its derived grid quantities.

    Attributes:
      q, qp      -- the exponent and its conjugate (qp = inf at q = 1)
      grid       -- working grid on (0, T]
      v_vals, V  -- weight samples and cumulative weight
      w_vals     -- dual weight V^(-q') v (q > 1 only)
      tail_w     -- int_T^inf w dt, closed form V(T)^(1-q')/(q'-1)
    """

    def __init__(self, q: float, weight: WeightSpec, grid: LogGrid):
        if q < 1.0 or not math.isfinite(q):
            raise DomainError(f"q must lie in [1, inf), got {q}")
        self.q = float(q)
        self.weight = weight
        self.grid = grid
        if abs(self.grid.t_max - weight.T) > 1e-12 * weight.T:
            raise DomainError("grid must end at the weight's T")
        self.v_vals = weight(self.grid.points)
        self.V = cumulative_weight(weight, self.grid)
        if q > 1.0:
            self.qp = q / (q - 1.0)
            self.w_vals = self.V.values ** (-self.qp) * self.v_vals
            self.tail_w = self.V.values[-1] ** (1.0 - self.qp) / (self.qp - 1.0)
        else:
            self.qp = math.inf
            self.w_vals = None
            self.tail_w = None

    @property
    def T(self) -> float:
        return self.weight.T


def lorentz_norm(space: LorentzSpace, fstar: SampledFunction) -> float:
    """Norm of a nonincreasing f* >= 0 on (0, T] in the Lorentz space:

      ( int_0^T (f*)^q v )^(1/q)

    f* is read at the space's grid points: its samples on that grid,
    else its interpolant, which must cover the grid (DomainError
    otherwise); +inf is a legal return value (never an error).
    """
    if fstar.grid.t_max > space.T * (1 + 1e-12):
        raise DomainError("f* must live on (0, T]")
    t = space.grid.points
    y = np.abs(fstar(t)) ** space.q * space.v_vals
    return float(total_mass(t, y) ** (1.0 / space.q))


# ---------------------------------------------------------------------------
# the embedding aggregate and criterion
# ---------------------------------------------------------------------------

def _profile_integral(t, phi_values) -> np.ndarray:
    """int_0^t phi at each point t; NonConvergent when phi is not integrable."""
    iphi = cumulative_from_zero(t, phi_values)
    if not np.isfinite(iphi[0]):
        raise NonConvergent("kernel profile is not integrable at 0")
    return iphi


def embedding_function(space: LorentzSpace, phi: SampledFunction) -> SampledFunction:
    """The nondecreasing aggregate Psi_q(t) whose value at T decides the
    embedding; identically +inf when the defining integral (or sup)
    diverges at the origin."""
    t = space.grid.points
    # W(t) = V(t)^(-1) int_0^t phi, the density the aggregate is built from
    W = _profile_integral(t, phi(t)) / space.V.values
    if space.q == 1.0:
        if classify_boundedness(space.grid, W):
            vals = np.maximum.accumulate(W)
        else:
            vals = np.full_like(t, math.inf)
        return SampledFunction(grid=space.grid, values=vals)
    y = W ** space.qp * space.v_vals
    head = fitted_head_mass(space.grid, y)
    if not math.isfinite(head):
        vals = np.full_like(t, math.inf)
    else:
        vals = cumulative_from_zero(t, y, head) ** (1.0 / space.qp)
    return SampledFunction(grid=space.grid, values=vals)


def embedding_criterion(space: LorentzSpace, kernel: KernelSpec) -> dict:
    """Finiteness classification of Psi_q(T) under grid refinement.

    The aggregate is computed on grids with floors 1e4 and 1e2 times the
    space's (DomainError unless it lies below 1e-4 T), then on the space
    itself, as "psi", each from the kernel's measure profile sampled on
    that grid; growth by more than 10x per refinement (or a divergent
    head) classifies the value as infinite.  An ambiguous trend raises
    Inconclusive rather than deciding silently.
    """
    if space.grid.t_min >= 1e-4 * space.T:
        raise DomainError(f"the criterion refines from 1e4 times the grid floor "
                          f"{space.grid.t_min:g}: it must be below 1e-4 T = {1e-4 * space.T:g}")
    values = []
    for scale in (1e4, 1e2, 1.0):
        sp = space if scale == 1.0 else LorentzSpace(space.q, space.weight, make_log_grid(
            scale * space.grid.t_min, space.T, space.grid.count))
        psi = embedding_function(sp, measure_profile(kernel, sp.grid))
        values.append(float(psi.values[-1]))
    out = {"embeds": False, "psi_at_T": math.inf, "refinements": values, "psi": psi}
    if any(not math.isfinite(v) for v in values):
        return out
    growth = [values[i + 1] / values[i] for i in range(len(values) - 1)]
    if all(g > 10.0 for g in growth):
        return out
    if all(g < 1.5 for g in growth):
        return {**out, "embeds": True, "psi_at_T": values[-1]}
    raise Inconclusive(
        f"refinement trend ambiguous: values {values}")


# ---------------------------------------------------------------------------
# associate norm (the dual evaluator used by envelopes and duality checks)
# ---------------------------------------------------------------------------

def _associate_norm_of_cumulative(space: LorentzSpace, cum: np.ndarray):
    """The associate norm of a density h >= 0 on (0, T], zero beyond T,
    from its cumulative c = int_0^t h on the space's grid:

      q = 1:  sup_t V(t)^(-1) c(t), or +inf when V^(-1) c blows up at 0
      q > 1:  ( int_0^T c^(q') w + c(T)^(q') int_T^inf w )^(1/q'),
              +inf when the head below the grid diverges

    For an F x N block of cumulatives, the array of the F norms.  The
    one rule behind associate_norm and the AssociateNormEngine
    functionals.
    """
    cum = np.asarray(cum, dtype=float)
    rows = cum.reshape(-1, cum.shape[-1])
    out = np.full(len(rows), math.inf)
    live = np.flatnonzero(np.isfinite(rows[:, 0]))
    if space.q == 1.0:
        for i in live:
            vals = rows[i] / space.V.values
            if classify_boundedness(space.grid, np.maximum(vals, 1e-300)):
                out[i] = np.max(vals)
    else:
        # total_mass is +inf on a divergent head, and the sum stays +inf
        y = rows ** space.qp
        y *= space.w_vals
        totals = total_mass(space.grid.points, y)
        for i, total in zip(live, totals[live]):
            # scalar powers, as for a single row
            out[i] = (total + rows[i, -1] ** space.qp * space.tail_w) ** (1.0 / space.qp)
    return out if cum.ndim == 2 else float(out[0])


def _associate_norms(space: LorentzSpace, rows) -> np.ndarray:
    """associate_norm of each row of `rows` (an F x N array or a sequence
    of F rows, sampled on the space's grid and zero beyond T), run
    through the grid rules in row blocks."""
    t = space.grid.points
    return _map_row_blocks(lambda block: _associate_norm_of_cumulative(
        space, cumulative_from_zero(t, np.maximum(block, 0.0))), rows, len(t))


def associate_norm(space: LorentzSpace, hstar: SampledFunction) -> float:
    """Norm of a nonincreasing h* >= 0 on (0, T] in the associate space:

      q = 1:  sup_t V(t)^(-1) int_0^t h*
      q > 1:  ( int_0^inf (int_0^t h*)^(q') w dt )^(1/q')

    h* is read at the space's grid points: its samples on that grid,
    else its interpolant, which must cover the grid (DomainError
    otherwise); +inf when the sup blows up or the integral diverges at 0.
    """
    if hstar.grid.t_max > space.T * (1 + 1e-12):
        raise DomainError("h* must live on (0, T]")
    return float(_associate_norms(space, [hstar(space.grid.points)])[0])
