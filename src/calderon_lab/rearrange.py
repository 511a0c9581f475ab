"""Decreasing rearrangement.

The input model is the values of |f| on equal-measure cells of a
domain of known total measure.  In that model the rearrangement is an
exact sort: the k-th largest value on [k*cell, (k+1)*cell).
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .gridfn import LogGrid, SampledFunction


def decreasing_rearrangement(samples, measure: float, grid: LogGrid) -> SampledFunction:
    """Nonincreasing, right-continuous function on (0, measure)
    equimeasurable with |samples|, the samples read as one value per
    equal-measure cell, sampled at the grid points.

    Each grid point reads the exact sorted-step rearrangement: the
    domain end reads the last cell, and any point past it reads 0.
    """
    if not measure > 0:
        raise DomainError("measure must be positive")
    steps = np.sort(np.abs(np.asarray(samples, dtype=float)))[::-1]
    if steps.size == 0:
        raise DomainError("no cells")
    if not np.all(np.isfinite(steps)):
        raise DomainError("samples must be finite")
    t = grid.points
    # the cell index is capped before the cast: t / cell may not fit an int
    idx = np.floor(np.minimum(t / (measure / steps.size), steps.size - 1)).astype(int)
    return SampledFunction(grid=grid, values=np.where(t <= measure, steps[idx], 0.0))
