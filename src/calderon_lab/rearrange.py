"""Decreasing rearrangement and the running-average maximal function.

The input model is a list of values of |f| on equal-measure cells of a
domain of known total measure.  In that model the rearrangement is an
exact sort, and equimeasurability can be checked cell by cell.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptySample, NonConvergent
from .gridfn import (
    LogGrid,
    SampledFunction,
    cumulative_from_zero,
    sample,
)


@dataclass
class MeasurableSample:
    """|f| sampled on equal-measure cells of a domain of total measure
    `domain_measure`.  Values are stored as absolute values."""

    domain_measure: float
    samples: np.ndarray

    def __post_init__(self):
        if self.domain_measure <= 0:
            raise EmptySample("domain_measure must be positive")
        self.samples = np.abs(np.asarray(self.samples, dtype=float))
        if self.samples.size == 0:
            raise EmptySample("no cells")
        if not np.all(np.isfinite(self.samples)):
            raise EmptySample("samples must be finite")

    @property
    def cell_measure(self) -> float:
        return self.domain_measure / self.samples.size

    def level_measure(self, s: float) -> float:
        """Measure of {|f| > s} at cell resolution."""
        return float(np.count_nonzero(self.samples > s)) * self.cell_measure


def rearrangement_steps(f: MeasurableSample) -> np.ndarray:
    """The decreasing rearrangement as a step function: sorted values,
    one per equal-measure cell, nonincreasing and right-continuous."""
    return np.sort(f.samples)[::-1]


def step_evaluate(steps: np.ndarray, cell: float, t) -> np.ndarray:
    """Evaluate the right-continuous step rearrangement at points t > 0:
    the value on [k*cell, (k+1)*cell) is steps[k], zero past the domain."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    idx = np.floor(t / cell).astype(int)
    out = np.zeros_like(t)
    inside = (idx >= 0) & (idx < len(steps))
    out[inside] = steps[idx[inside]]
    return out


def decreasing_rearrangement(f: MeasurableSample, grid: LogGrid) -> SampledFunction:
    """Nonincreasing, right-continuous function on (0, domain_measure)
    equimeasurable with |f|, sampled on a geometric grid.

    The sample keeps the exact sorted-step rearrangement as its `fn`, so
    it reads that step function at every point, on the grid or off it,
    and 0 past the domain.
    """
    steps = rearrangement_steps(f)
    cell = f.cell_measure

    def fstar(t):
        vals = step_evaluate(steps, cell, t)
        # a point sitting exactly at the domain end reads the last cell
        vals[t >= f.domain_measure] = 0.0
        vals[t == f.domain_measure] = steps[-1]
        return vals

    return sample(fstar, grid)


def maximal_function(fstar: SampledFunction) -> SampledFunction:
    """Running average t -> (1/t) * integral of fstar over (0, t).

    Requires fstar nonincreasing and integrable at 0.  The output is
    nonincreasing, dominates fstar, and t * output(t) is nondecreasing.
    """
    t = fstar.grid.points
    cum = cumulative_from_zero(t, fstar.values)
    if not np.isfinite(cum[0]):
        raise NonConvergent("rearrangement is not integrable at 0")
    vals = cum / t
    # running averages of a decreasing function can pick up ~1e-15 noise
    vals = np.maximum(vals, fstar.values)
    vals = np.minimum.accumulate(vals)
    return SampledFunction(grid=fstar.grid, values=vals)
