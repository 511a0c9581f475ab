import math

import numpy as np
import pytest

from calderon_lab.errors import DomainError, TrivialSpace
from calderon_lab.gridfn import (
    SampledFunction,
    default_grid,
    head_mass,
    make_log_grid,
    sample,
    segment_masses,
)
from calderon_lab.kernels import SlowlyVaryingSpec
from calderon_lab.lorentz import (
    LorentzSpace,
    WeightSpec,
    associate_norm,
    cumulative_weight,
    embedding_criterion,
    embedding_function,
    lorentz_norm,
    power_weight,
)
from calderon_lab.optimal import AssociateNormEngine

FLAT = WeightSpec(power_exponent=0.0)


def indicator_fstar(grid, a):
    return SampledFunction(grid, (grid.points < a).astype(float),
                           monotonicity="decreasing", extension="zero_beyond_T")


class TestCumulativeWeight:
    def test_flat(self):
        V = cumulative_weight(FLAT, default_grid())
        assert np.allclose(V.values, V.grid.points, rtol=1e-12)

    def test_exponent_zero(self):
        # v = t^(q/p - 1) with q = p collapses to v == 1
        V = cumulative_weight(power_weight(2.0, 2.0), default_grid())
        assert np.allclose(V.values, V.grid.points, rtol=1e-12)

    def test_karamata_two_sided(self):
        sv = SlowlyVaryingSpec(factors=(("log", 0.5),), scale=1.0)
        w = power_weight(2.0, 3.0, sv=sv)
        g = default_grid()
        V = cumulative_weight(w, g)
        b_q = sv.powered(2.0)(g.points)
        model = g.points ** (2.0 / 3.0) * b_q
        ratio = V.values / model
        assert ratio.max() / ratio.min() < 5.0

    def test_trivial_space(self):
        with pytest.raises(TrivialSpace):
            cumulative_weight(WeightSpec(power_exponent=-1.2), default_grid())


class TestLorentzNorm:
    def test_indicator_flat(self):
        g = default_grid()
        sp = LorentzSpace(2.0, FLAT, g)
        a = float(g.points[400])        # land exactly on a grid point
        got = lorentz_norm(sp, indicator_fstar(g, a))
        assert abs(got - a ** 0.5) < (g.ratio - 1.0) * a ** 0.5

    def test_ramp_q1(self):
        g = default_grid()
        sp = LorentzSpace(1.0, FLAT, g)
        f = SampledFunction(g, np.maximum(1.0 - g.points, 0.0),
                            monotonicity="decreasing", extension="zero_beyond_T")
        # the ramp is not a power law, so the segment rule is O(h^2) here
        assert abs(lorentz_norm(sp, f) - 0.5) < 5e-4

    def test_indicator_power_weight(self):
        q, p = 2.0, 4.0
        g = default_grid()
        sp = LorentzSpace(q, power_weight(q, p), g)
        a = float(g.points[380])
        got = lorentz_norm(sp, indicator_fstar(g, a))
        expected = (p / q) ** (1 / q) * a ** (1 / p)
        assert abs(got - expected) < (g.ratio - 1.0) * expected

    def test_lattice_monotonicity(self):
        g = default_grid()
        sp = LorentzSpace(2.0, power_weight(2.0, 3.0), g)
        rng = np.random.default_rng(17)
        for _ in range(20):
            f = np.sort(rng.random(g.count))[::-1]
            h = f + np.sort(rng.random(g.count))[::-1]
            nf = lorentz_norm(sp, SampledFunction(g, f, extension="zero_beyond_T"))
            nh = lorentz_norm(sp, SampledFunction(g, h, extension="zero_beyond_T"))
            assert nf <= nh * (1 + 1e-12)

    def test_homogeneity(self):
        g = default_grid()
        sp = LorentzSpace(2.0, FLAT, g)
        f = SampledFunction(g, np.sort(np.random.default_rng(2).random(g.count))[::-1],
                            extension="zero_beyond_T")
        f3 = SampledFunction(g, 3.0 * f.values, extension="zero_beyond_T")
        assert np.isclose(lorentz_norm(sp, f3), 3.0 * lorentz_norm(sp, f), rtol=1e-12)

    def test_constant_extension_costs_infinity(self):
        g = default_grid()
        sp = LorentzSpace(2.0, FLAT, g)
        f = SampledFunction(g, np.ones(g.count), monotonicity="decreasing",
                            extension="constant_beyond_T")
        assert lorentz_norm(sp, f) == math.inf


class TestEmbeddingFunction:
    def test_q1_power_is_infinite(self):
        # flat weight, q = 1: W ~ t^(alpha-1) blows up for alpha < 1
        g = default_grid()
        sp = LorentzSpace(1.0, FLAT, g)
        phi = sample(lambda t: t ** (0.6 - 1.0), g, monotonicity="decreasing")
        psi = embedding_function(sp, phi)
        assert np.all(np.isinf(psi.values))

    def test_closed_form_power(self):
        # flat weight, q = 2, alpha = 0.75, n = 1:
        # Psi(t) = (1/alpha) ((alpha-1) q' + 1)^(-1/q') t^(alpha - 1/q)
        g = default_grid()
        sp = LorentzSpace(2.0, FLAT, g)
        alpha = 0.75
        phi = sample(lambda t: t ** (alpha - 1.0), g, monotonicity="decreasing")
        psi = embedding_function(sp, phi)
        c = (1 / alpha) * ((alpha - 1) * 2 + 1) ** -0.5
        expected = c * g.points ** (alpha - 0.5)
        assert np.max(np.abs(psi.values - expected) / expected) < 1e-5

    def test_nondecreasing(self):
        g = default_grid()
        for q in (1.0, 2.0, 3.0):
            sp = LorentzSpace(q, power_weight(max(q, 1.5), 1.2) if q > 1 else FLAT, g)
            phi = sample(lambda t: t ** -0.25, g, monotonicity="decreasing")
            psi = embedding_function(sp, phi)
            finite = np.isfinite(psi.values)
            assert np.all(np.diff(psi.values[finite]) >= -1e-12)

    def test_karamata_aggregate(self):
        # alpha = n/p: the aggregate collapses to the pure log integral
        # ( int_0^t b^(-q') dtau/tau )^(1/q')
        beta, q = 0.75, 2.0
        qp = 2.0
        sv = SlowlyVaryingSpec(factors=(("log", beta),), scale=1.0)
        w = power_weight(q, 2.0, sv=sv)
        g = default_grid()
        sp = LorentzSpace(q, w, g)
        phi = sample(lambda t: t ** (0.5 - 1.0), g, monotonicity="decreasing")
        psi = embedding_function(sp, phi)
        L = np.log(np.e / g.points)
        model = (L ** (1 - beta * qp) / (beta * qp - 1.0)) ** (1 / qp)
        ratio = psi.values / model
        assert ratio.max() / ratio.min() < 10.0


class TestEmbeddingCriterion:
    @pytest.mark.parametrize("alpha,expected", [(0.75, True), (0.9, True),
                                                (0.5, False), (0.3, False)])
    def test_flat_q2(self, alpha, expected):
        g = default_grid()
        sp = LorentzSpace(2.0, FLAT, g)
        phi = sample(lambda t, a=alpha: t ** (a - 1.0), g, monotonicity="decreasing")
        assert embedding_criterion(sp, phi)["embeds"] is expected

    def test_q1_never_embeds_for_powers(self):
        g = default_grid()
        sp = LorentzSpace(1.0, FLAT, g)
        for alpha in (0.3, 0.6, 0.9):
            phi = sample(lambda t, a=alpha: t ** (a - 1.0), g,
                         monotonicity="decreasing")
            assert embedding_criterion(sp, phi)["embeds"] is False

    @pytest.mark.parametrize("beta,expected", [(0.75, True), (0.25, False)])
    def test_karamata_exponent_rule(self, beta, expected):
        # alpha = n/p: embeds iff beta * q' > 1
        sv = SlowlyVaryingSpec(factors=(("log", beta),), scale=1.0)
        sp = LorentzSpace(2.0, power_weight(2.0, 2.0, sv=sv), default_grid())
        phi = sample(lambda t: t ** (0.5 - 1.0), default_grid(),
                     monotonicity="decreasing")
        assert embedding_criterion(sp, phi)["embeds"] is expected


class TestAssociateNorm:
    def test_holder_duality_spot_check(self):
        g = default_grid()
        rng = np.random.default_rng(1234)
        for q, weight in [(1.0, FLAT), (2.0, FLAT), (2.0, power_weight(2.0, 3.0))]:
            sp = LorentzSpace(q, weight, g)
            for _ in range(50 if q == 2.0 and weight is FLAT else 10):
                fv = np.sort(rng.random(g.count))[::-1]
                gv = np.sort(rng.random(g.count))[::-1]
                f = SampledFunction(g, fv, monotonicity="decreasing",
                                    extension="zero_beyond_T")
                h = SampledFunction(g, gv, monotonicity="decreasing",
                                    extension="zero_beyond_T")
                y = fv * gv
                inner = head_mass(g.points, y) + float(np.sum(segment_masses(g.points, y)))
                bound = lorentz_norm(sp, f) * associate_norm(sp, h)
                assert inner <= bound * (1 + 1e-9)

    @pytest.mark.parametrize("power,expected", [(-0.5, math.inf), (0.0, 1.0)])
    @pytest.mark.parametrize("functional", ["associate_norm", "rho0_hat"])
    def test_q1_blowup_at_zero(self, functional, power, expected):
        # q = 1, flat weight: V^-1 int_0^t h = 2 t^(-1/2) for h = t^(-1/2)
        # is unbounded at 0, so the norm is +inf, not the grid maximum;
        # for h = 1 it is 1
        g = make_log_grid(1e-8, 1.0, 256)
        sp = LorentzSpace(1.0, FLAT, g)
        h = lambda t: t ** power
        if functional == "associate_norm":
            got = associate_norm(sp, SampledFunction(g, h(g.points),
                                                     extension="zero_beyond_T"))
        else:
            # phi = h and g = 1: the nested density phi(t) (T - t) behaves
            # like h at 0
            got = AssociateNormEngine(sp, h, 1, 1).rho0_hat(np.ones(g.count))
        assert got == pytest.approx(expected, rel=1e-6)

    def test_domain_guard(self):
        g = default_grid()
        sp = LorentzSpace(2.0, FLAT, g)
        wide = make_log_grid(1e-8, 2.0, 64)
        with pytest.raises(DomainError):
            associate_norm(sp, SampledFunction(wide, np.ones(64)))


class TestWeightSpec:
    def test_continuation_rules(self):
        # beyond T the weight continues by its leading power
        w_pow = WeightSpec(power_exponent=0.5)
        assert np.isclose(w_pow(4.0), 2.0)

    def test_grid_must_end_at_T(self):
        with pytest.raises(DomainError):
            LorentzSpace(2.0, FLAT, make_log_grid(1e-8, 2.0, 64))
