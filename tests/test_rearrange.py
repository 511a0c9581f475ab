import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calderon_lab.errors import EmptySample, NonConvergent
from calderon_lab.gridfn import SampledFunction, make_log_grid, sample
from calderon_lab.rearrange import (
    MeasurableSample,
    decreasing_rearrangement,
    maximal_function,
    rearrangement_steps,
    step_evaluate,
)


class TestDecreasingRearrangement:
    def test_indicator_moves_to_origin(self):
        # indicator of a set of measure a inside (0, T) becomes the
        # indicator of (0, a)
        vals = np.zeros(100)
        vals[37:57] = 1.0          # measure 0.2 of a domain of measure 1
        ms = MeasurableSample(1.0, vals)
        steps = rearrangement_steps(ms)
        assert np.all(steps[:20] == 1.0) and np.all(steps[20:] == 0.0)

    def test_linear_ramp(self):
        # f(t) = t on (0,1) rearranges to 1 - s, up to cell resolution
        cells = 500
        mids = (np.arange(cells) + 0.5) / cells
        ms = MeasurableSample(1.0, mids)
        g = make_log_grid(1e-4, 1.0, 256)
        fstar = decreasing_rearrangement(ms, g)
        assert np.max(np.abs(fstar.values - (1 - g.points))) <= 1.0 / cells

    def test_sine_against_sort_oracle(self):
        cells = 400
        mids = (np.arange(cells) + 0.5) / cells
        vals = np.abs(np.sin(2 * np.pi * mids))
        ms = MeasurableSample(1.0, vals)
        oracle = np.sort(vals)[::-1]
        assert np.array_equal(rearrangement_steps(ms), oracle)
        g = make_log_grid(1e-3, 1.0, 128)
        fstar = decreasing_rearrangement(ms, g)
        # grid samples read the step function exactly
        idx = np.minimum((g.points * cells).astype(int), cells - 1)
        assert np.allclose(fstar.values[:-1], oracle[idx[:-1]])

    def test_reads_steps_off_the_grid_and_last_cell_at_domain_end(self):
        # a point between grid nodes reads the exact step, not an
        # interpolant; the domain end reads the last cell, past it 0
        ms = MeasurableSample(0.5, np.array([4.0, 1.0, 3.0, 2.0]))
        g = make_log_grid(1e-3, 0.5, 32)
        fstar = decreasing_rearrangement(ms, g)
        assert fstar.values[-1] == 1.0
        # 0.13 lies between the nodes 0.1228 (read 4) and 0.1501 (read 3)
        assert fstar(np.array([0.1, 0.13, 0.3, 0.5, 0.75])).tolist() == \
            [4.0, 3.0, 2.0, 1.0, 0.0]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=200),
           st.floats(0.1, 7.0))
    def test_equimeasurability(self, values, measure):
        ms = MeasurableSample(measure, np.array(values))
        steps = rearrangement_steps(ms)
        cell = ms.cell_measure
        rng = np.random.default_rng(42)
        levels = rng.uniform(0, max(1e-9, steps[0] * 1.01), size=20)
        for s in levels:
            lhs = ms.level_measure(s)
            rhs = float(np.count_nonzero(steps > s)) * cell
            assert abs(lhs - rhs) <= cell * 1e-12

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        vals = rng.random(64)
        a = rearrangement_steps(MeasurableSample(2.0, vals))
        b = rearrangement_steps(MeasurableSample(2.0, rng.permutation(vals)))
        assert np.array_equal(a, b)

    def test_mass_preservation(self):
        rng = np.random.default_rng(1)
        vals = rng.random(128)
        ms = MeasurableSample(3.0, vals)
        steps = rearrangement_steps(ms)
        assert np.isclose(np.sum(steps) * ms.cell_measure,
                          np.sum(np.abs(vals)) * ms.cell_measure)

    def test_step_evaluate_right_continuous(self):
        steps = np.array([3.0, 2.0, 1.0])
        cell = 0.5
        assert step_evaluate(steps, cell, [0.49, 0.5, 0.99, 1.0, 1.6]).tolist() \
            == [3.0, 2.0, 2.0, 1.0, 0.0]

    def test_empty_sample(self):
        with pytest.raises(EmptySample):
            MeasurableSample(1.0, np.array([]))
        with pytest.raises(EmptySample):
            MeasurableSample(0.0, np.array([1.0]))
        with pytest.raises(EmptySample):
            MeasurableSample(1.0, np.array([np.inf]))


class TestMaximalFunction:
    def test_constant(self):
        g = make_log_grid(1e-6, 1.0, 128)
        f = SampledFunction(g, np.ones(128))
        m = maximal_function(f)
        assert np.allclose(m.values, 1.0)

    def test_indicator(self):
        a = 0.25
        g = make_log_grid(1e-6, 1.0, 512)
        f = SampledFunction(g, (g.points < a).astype(float))
        m = maximal_function(f)
        expected = np.minimum(1.0, a / g.points)
        # the jump at a lands inside one grid cell
        assert np.max(np.abs(m.values - expected)) < 1.1 * (g.ratio - 1.0)

    def test_inverse_sqrt(self):
        g = make_log_grid(1e-8, 1.0, 256)
        f = sample(lambda s: s ** -0.5, g)
        m = maximal_function(f)
        assert np.allclose(m.values, 2.0 * g.points ** -0.5, rtol=1e-12)

    def test_laws_on_random_decreasing(self):
        rng = np.random.default_rng(9)
        g = make_log_grid(1e-6, 1.0, 200)
        for _ in range(50):
            vals = np.sort(rng.random(200))[::-1]
            f = SampledFunction(g, vals)
            m = maximal_function(f)
            assert np.all(m.values >= vals - 1e-10)
            assert np.all(np.diff(m.values) <= 1e-10)
            tm = g.points * m.values
            assert np.all(np.diff(tm) >= -1e-10)

    def test_nonintegrable(self):
        g = make_log_grid(1e-8, 1.0, 128)
        f = sample(lambda s: 1.0 / s, g)
        with pytest.raises(NonConvergent):
            maximal_function(f)
