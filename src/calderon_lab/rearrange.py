"""Decreasing rearrangement.

The input model is the values of |f| on equal-measure cells of a
domain of known total measure.  In that model the rearrangement is an
exact sort: the k-th largest value on [k*cell, (k+1)*cell).
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .gridfn import LogGrid, SampledFunction, sample


def decreasing_rearrangement(samples, measure: float, grid: LogGrid) -> SampledFunction:
    """Nonincreasing, right-continuous function on (0, measure)
    equimeasurable with |samples|, the samples read as one value per
    equal-measure cell, sampled on a geometric grid.

    The sample keeps the exact sorted-step rearrangement as its `fn`, so
    it reads that step function at every point, on the grid or off it:
    the domain end reads the last cell, and any point past it reads 0.
    """
    if not measure > 0:
        raise DomainError("measure must be positive")
    steps = np.sort(np.abs(np.asarray(samples, dtype=float)))[::-1]
    if steps.size == 0:
        raise DomainError("no cells")
    if not np.all(np.isfinite(steps)):
        raise DomainError("samples must be finite")
    cell = measure / steps.size

    def fstar(t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        idx = np.floor(t / cell).astype(int)
        vals = np.zeros_like(t)
        inside = (idx >= 0) & (idx < steps.size) & (t < measure)
        vals[inside] = steps[idx[inside]]
        vals[t == measure] = steps[-1]
        return vals

    return sample(fstar, grid)
