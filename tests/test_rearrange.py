import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calderon_lab.errors import DomainError
from calderon_lab.gridfn import LogGrid, make_log_grid
from calderon_lab.rearrange import decreasing_rearrangement


def on_points(ts):
    """A grid whose nodes are the probe points ts, where the
    rearrangement is sampled exactly."""
    ts = np.asarray(ts, dtype=float)
    return LogGrid(ts[0], ts[-1], len(ts), ts)


def steps_of(samples, measure):
    """The step values of the rearrangement, sampled at the cell midpoints."""
    cells = len(samples)
    mids = on_points((np.arange(cells) + 0.5) * (measure / cells))
    return decreasing_rearrangement(samples, measure, mids).values


class TestDecreasingRearrangement:
    def test_indicator_moves_to_origin(self):
        # indicator of a set of measure a inside (0, T) becomes the
        # indicator of (0, a)
        vals = np.zeros(100)
        vals[37:57] = 1.0          # measure 0.2 of a domain of measure 1
        steps = steps_of(vals, 1.0)
        assert np.all(steps[:20] == 1.0) and np.all(steps[20:] == 0.0)

    def test_linear_ramp(self):
        # f(t) = t on (0,1) rearranges to 1 - s, up to cell resolution
        cells = 500
        mids = (np.arange(cells) + 0.5) / cells
        g = make_log_grid(1e-4, 1.0, 256)
        fstar = decreasing_rearrangement(mids, 1.0, g)
        assert np.max(np.abs(fstar.values - (1 - g.points))) <= 1.0 / cells

    def test_sine_against_sort_oracle(self):
        cells = 400
        mids = (np.arange(cells) + 0.5) / cells
        vals = np.abs(np.sin(2 * np.pi * mids))
        oracle = np.sort(vals)[::-1]
        assert np.array_equal(steps_of(vals, 1.0), oracle)
        g = make_log_grid(1e-3, 1.0, 128)
        fstar = decreasing_rearrangement(vals, 1.0, g)
        # grid samples read the step function exactly
        idx = np.minimum((g.points * cells).astype(int), cells - 1)
        assert np.allclose(fstar.values[:-1], oracle[idx[:-1]])

    def test_reads_steps_off_the_grid_and_last_cell_at_domain_end(self):
        # each grid point samples the exact step, wherever it lies in its
        # cell; the domain end reads the last cell, past it 0, also where
        # t / cell would not fit an integer
        vals = np.array([4.0, 1.0, 3.0, 2.0])
        fstar = decreasing_rearrangement(vals, 0.5, make_log_grid(1e-3, 0.5, 32))
        assert fstar.values[-1] == 1.0
        probe = on_points([0.1, 0.13, 0.3, 0.5, 0.75, 1e20])
        assert decreasing_rearrangement(vals, 0.5, probe).values.tolist() == \
            [4.0, 3.0, 2.0, 1.0, 0.0, 0.0]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=200),
           st.floats(0.1, 7.0))
    def test_equimeasurability(self, values, measure):
        # |{|f| > s}| counted over the raw samples equals |{f* > s}|
        # counted over the step values, level by level
        values = np.array(values)
        steps = steps_of(values, measure)
        cell = measure / len(values)
        rng = np.random.default_rng(42)
        levels = rng.uniform(0, max(1e-9, steps[0] * 1.01), size=20)
        for s in levels:
            lhs = float(np.count_nonzero(np.abs(values) > s)) * cell
            rhs = float(np.count_nonzero(steps > s)) * cell
            assert abs(lhs - rhs) <= cell * 1e-12

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        vals = rng.random(64)
        a = steps_of(vals, 2.0)
        b = steps_of(rng.permutation(vals), 2.0)
        assert np.array_equal(a, b)

    def test_mass_preservation(self):
        rng = np.random.default_rng(1)
        vals = rng.random(128)
        steps = steps_of(vals, 3.0)
        cell = 3.0 / len(vals)
        assert np.isclose(np.sum(steps) * cell, np.sum(np.abs(vals)) * cell)

    def test_right_continuous_at_cell_edges(self):
        # cells of measure 0.5 on (0, 1.5): each edge reads the next cell
        fstar = decreasing_rearrangement(np.array([1.0, 3.0, 2.0]), 1.5,
                                         on_points([0.49, 0.5, 0.99, 1.0, 1.6]))
        assert fstar.values.tolist() == [3.0, 2.0, 2.0, 1.0, 0.0]

    def test_empty_sample(self):
        g = make_log_grid(1e-3, 1.0, 16)
        with pytest.raises(DomainError):
            decreasing_rearrangement(np.array([]), 1.0, g)
        with pytest.raises(DomainError):
            decreasing_rearrangement(np.array([1.0]), 0.0, g)
        with pytest.raises(DomainError):
            decreasing_rearrangement(np.array([np.inf]), 1.0, g)
