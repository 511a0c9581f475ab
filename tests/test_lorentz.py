import math

import numpy as np
import pytest

from calderon_lab import gridfn, lorentz
from calderon_lab.errors import DomainError, Inconclusive, TrivialSpace
from calderon_lab.gridfn import (
    SampledFunction,
    cumulative_from_zero,
    head_mass,
    make_log_grid,
    sample,
    segment_masses,
)
from calderon_lab.kernels import KernelSpec, PowerSlowlyVarying, SlowlyVaryingSpec
from calderon_lab.lorentz import (
    LorentzSpace,
    WeightSpec,
    _associate_norm_of_cumulative,
    associate_norm,
    cumulative_weight,
    embedding_criterion,
    embedding_function,
    lorentz_norm,
    power_weight,
)
from calderon_lab.optimal import AssociateNormEngine

FLAT = WeightSpec(power_exponent=0.0)


def power_kernel(alpha):
    """The power kernel on R^1 with z1 = 1 and no log factor: its measure
    profile phi(tau) = (tau/2)^(alpha-1) on (0, 1] has the exponents of
    t^(alpha-1)."""
    return KernelSpec(PowerSlowlyVarying(alpha=alpha, sv=SlowlyVaryingSpec(), z1=1.0), n=1)


def indicator_fstar(grid, a):
    return SampledFunction(grid, (grid.points < a).astype(float))


class TestCumulativeWeight:
    def test_flat(self):
        V = cumulative_weight(FLAT, make_log_grid(1e-8, 1.0, 512))
        assert np.allclose(V.values, V.grid.points, rtol=1e-12)

    def test_exponent_zero(self):
        # v = t^(q/p - 1) with q = p collapses to v == 1
        V = cumulative_weight(power_weight(2.0, 2.0), make_log_grid(1e-8, 1.0, 512))
        assert np.allclose(V.values, V.grid.points, rtol=1e-12)

    def test_karamata_two_sided(self):
        sv = SlowlyVaryingSpec(factors=(("log", 0.5),), scale=1.0)
        w = power_weight(2.0, 3.0, sv=sv)
        g = make_log_grid(1e-8, 1.0, 512)
        V = cumulative_weight(w, g)
        b_q = sv.powered(2.0)(g.points)
        model = g.points ** (2.0 / 3.0) * b_q
        ratio = V.values / model
        assert ratio.max() / ratio.min() < 5.0

    def test_trivial_space(self):
        with pytest.raises(TrivialSpace):
            cumulative_weight(WeightSpec(power_exponent=-1.2), make_log_grid(1e-8, 1.0, 512))


class TestLorentzNorm:
    def test_indicator_flat(self):
        g = make_log_grid(1e-8, 1.0, 512)
        sp = LorentzSpace(2.0, FLAT, g)
        a = float(g.points[400])        # land exactly on a grid point
        got = lorentz_norm(sp, indicator_fstar(g, a))
        assert abs(got - a ** 0.5) < (g.ratio - 1.0) * a ** 0.5

    def test_ramp_q1(self):
        g = make_log_grid(1e-8, 1.0, 512)
        sp = LorentzSpace(1.0, FLAT, g)
        f = SampledFunction(g, np.maximum(1.0 - g.points, 0.0))
        # the ramp is not a power law, so the segment rule is O(h^2) here
        assert abs(lorentz_norm(sp, f) - 0.5) < 5e-4

    def test_indicator_power_weight(self):
        q, p = 2.0, 4.0
        g = make_log_grid(1e-8, 1.0, 512)
        sp = LorentzSpace(q, power_weight(q, p), g)
        a = float(g.points[380])
        got = lorentz_norm(sp, indicator_fstar(g, a))
        expected = (p / q) ** (1 / q) * a ** (1 / p)
        assert abs(got - expected) < (g.ratio - 1.0) * expected

    def test_lattice_monotonicity(self):
        g = make_log_grid(1e-8, 1.0, 512)
        sp = LorentzSpace(2.0, power_weight(2.0, 3.0), g)
        rng = np.random.default_rng(17)
        for _ in range(20):
            f = np.sort(rng.random(g.count))[::-1]
            h = f + np.sort(rng.random(g.count))[::-1]
            nf = lorentz_norm(sp, SampledFunction(g, f))
            nh = lorentz_norm(sp, SampledFunction(g, h))
            assert nf <= nh * (1 + 1e-12)

    def test_homogeneity(self):
        g = make_log_grid(1e-8, 1.0, 512)
        sp = LorentzSpace(2.0, FLAT, g)
        f = SampledFunction(g, np.sort(np.random.default_rng(2).random(g.count))[::-1])
        f3 = SampledFunction(g, 3.0 * f.values)
        assert np.isclose(lorentz_norm(sp, f3), 3.0 * lorentz_norm(sp, f), rtol=1e-12)

    def test_sample_with_fn_reads_as_its_values(self):
        # the indicator of (0, 1] has norm (int_0^1 1)^(1/2) up to the
        # head rule; reading fn or the samples gives the same value
        g = make_log_grid(1e-8, 1.0, 512)
        sp = LorentzSpace(2.0, power_weight(2.0, 2.0), g)
        f = sample(lambda t: (t <= 1.0) * 1.0, g)
        got = lorentz_norm(sp, f)
        assert math.isfinite(got) and got == pytest.approx(1.0, rel=1e-6)
        assert got == lorentz_norm(sp, SampledFunction(g, f.values))


class TestEmbeddingFunction:
    def test_q1_power_is_infinite(self):
        # flat weight, q = 1: W ~ t^(alpha-1) blows up for alpha < 1
        g = make_log_grid(1e-8, 1.0, 512)
        sp = LorentzSpace(1.0, FLAT, g)
        phi = sample(lambda t: t ** (0.6 - 1.0), g)
        psi = embedding_function(sp, phi)
        assert np.all(np.isinf(psi.values))

    def test_closed_form_power(self):
        # flat weight, q = 2, alpha = 0.75, n = 1:
        # Psi(t) = (1/alpha) ((alpha-1) q' + 1)^(-1/q') t^(alpha - 1/q)
        g = make_log_grid(1e-8, 1.0, 512)
        sp = LorentzSpace(2.0, FLAT, g)
        alpha = 0.75
        phi = sample(lambda t: t ** (alpha - 1.0), g)
        psi = embedding_function(sp, phi)
        c = (1 / alpha) * ((alpha - 1) * 2 + 1) ** -0.5
        expected = c * g.points ** (alpha - 0.5)
        assert np.max(np.abs(psi.values - expected) / expected) < 1e-5

    def test_nondecreasing(self):
        g = make_log_grid(1e-8, 1.0, 512)
        for q in (1.0, 2.0, 3.0):
            sp = LorentzSpace(q, power_weight(max(q, 1.5), 1.2) if q > 1 else FLAT, g)
            phi = sample(lambda t: t ** -0.25, g)
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
        g = make_log_grid(1e-8, 1.0, 512)
        sp = LorentzSpace(q, w, g)
        phi = sample(lambda t: t ** (0.5 - 1.0), g)
        psi = embedding_function(sp, phi)
        L = np.log(np.e / g.points)
        model = (L ** (1 - beta * qp) / (beta * qp - 1.0)) ** (1 / qp)
        ratio = psi.values / model
        assert ratio.max() / ratio.min() < 10.0

    def test_fitted_head_log_growth(self):
        # the first-span head of tests/data/fitted_head_log_growth.cfg: the
        # model C t^p log(e/t)^e with p just above -1, whose mass is finite
        mpmath = pytest.importorskip("mpmath")
        C, p, e, t0 = 44.2579, -0.97733, 0.91394, 1e-4
        g = make_log_grid(t0, 1.0, 64)
        y = np.array([C * t0 ** p * math.log(math.e / t0) ** e])
        got = gridfn._power_log_head(g, y, p, e)
        with mpmath.workdps(30):
            # u = log(e/t): C e^(p+1) int_L0^inf e^(-(p+1) u) u^e du
            L0 = mpmath.log(mpmath.e / mpmath.mpf(t0))
            ref = C * mpmath.e ** (p + 1) * mpmath.quad(
                lambda u: mpmath.exp(-(p + 1) * u) * u ** e,
                [L0, L0 + 100, L0 + 1000, L0 + 10000, mpmath.inf])
        assert abs(got - float(ref)) <= 1e-13 * float(ref)


class TestEmbeddingCriterion:
    @pytest.mark.parametrize("alpha,expected", [(0.75, True), (0.9, True),
                                                (0.5, False), (0.3, False)])
    def test_flat_q2(self, alpha, expected):
        g = make_log_grid(1e-8, 1.0, 512)
        sp = LorentzSpace(2.0, FLAT, g)
        assert embedding_criterion(sp, power_kernel(alpha))["embeds"] is expected

    def test_q1_never_embeds_for_powers(self):
        g = make_log_grid(1e-8, 1.0, 512)
        sp = LorentzSpace(1.0, FLAT, g)
        for alpha in (0.3, 0.6, 0.9):
            assert embedding_criterion(sp, power_kernel(alpha))["embeds"] is False

    @pytest.mark.parametrize("beta,expected", [(0.75, True), (0.25, False)])
    def test_karamata_exponent_rule(self, beta, expected):
        # alpha = n/p: embeds iff beta * q' > 1
        sv = SlowlyVaryingSpec(factors=(("log", beta),), scale=1.0)
        sp = LorentzSpace(2.0, power_weight(2.0, 2.0, sv=sv), make_log_grid(1e-8, 1.0, 512))
        assert embedding_criterion(sp, power_kernel(0.5))["embeds"] is expected

    # Psi_q(T) at the grid floors 1e-4 T, 1e-6 T and 1e-8 T of a space on
    # [1e-8 T, T], or at the floors a dict names: the criterion refines
    # from 1e4 times the space's own floor
    @pytest.mark.parametrize("refinements,embeds", [
        ([1.0, 11.0, 121.0], False),        # grows more than 10x at each step
        ([1.0, 1.4, 1.96], True),           # grows less than 1.5x at each step
        ([1.0, 9.0, 81.0], None),           # in between: Inconclusive
        ([1.0, 1.6, 2.56], None),
        ([1.0, 20.0, 21.0], None),          # one step of each kind
        pytest.param({-6: 1.0, -8: 1.4, -10: 1.96}, True, id="floor_1e-10"),
    ])
    def test_three_span_rule(self, refinements, embeds, monkeypatch):
        by_floor = (refinements if isinstance(refinements, dict)
                    else dict(zip((-4, -6, -8), refinements)))
        refinements = list(by_floor.values())

        def fake_psi(space, phi):
            value = by_floor[round(math.log10(space.grid.t_min / space.T))]
            return SampledFunction(space.grid, np.full(space.grid.count, value))

        monkeypatch.setattr(lorentz, "embedding_function", fake_psi)
        g = make_log_grid(10.0 ** min(by_floor), 1.0, 64)
        sp = LorentzSpace(2.0, FLAT, g)
        if embeds is None:
            with pytest.raises(Inconclusive):
                embedding_criterion(sp, power_kernel(0.5))
            return
        verdict = embedding_criterion(sp, power_kernel(0.5))
        assert verdict["embeds"] is embeds
        assert verdict["refinements"] == refinements
        assert verdict["psi_at_T"] == (refinements[-1] if embeds else math.inf)

    def test_floor_at_or_above_1e_4_T(self, monkeypatch):
        # the first refinement would start at 1e4 times the floor, above
        # T: the rule is stated before any grid is built
        g = make_log_grid(1e-3, 1.0, 64)
        sp = LorentzSpace(2.0, FLAT, g)
        monkeypatch.setattr(lorentz, "make_log_grid",
                            lambda *args: pytest.fail("the criterion built a grid"))
        with pytest.raises(DomainError, match=r"1e4 times the grid floor 0\.001: "
                                              r"it must be below 1e-4 T = 0\.0001"):
            embedding_criterion(sp, power_kernel(0.5))


class TestAssociateNorm:
    def test_holder_duality_spot_check(self):
        g = make_log_grid(1e-8, 1.0, 512)
        rng = np.random.default_rng(1234)
        for q, weight in [(1.0, FLAT), (2.0, FLAT), (2.0, power_weight(2.0, 3.0))]:
            sp = LorentzSpace(q, weight, g)
            for _ in range(50 if q == 2.0 and weight is FLAT else 10):
                fv = np.sort(rng.random(g.count))[::-1]
                gv = np.sort(rng.random(g.count))[::-1]
                f = SampledFunction(g, fv)
                h = SampledFunction(g, gv)
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
            got = associate_norm(sp, SampledFunction(g, h(g.points)))
        else:
            # phi = h and g = 1: the nested density phi(t) (T - t) behaves
            # like h at 0
            got = AssociateNormEngine(sp, h, 1, 1).rho0_hat(np.ones(g.count))
        assert got == pytest.approx(expected, rel=1e-6)

    @pytest.mark.parametrize("q", [1.0, 2.0])
    def test_same_grid_reads_samples(self, q, monkeypatch):
        # a sample on the space's own grid is read, never re-interpolated
        g = make_log_grid(1e-6, 1.0, 200)
        sp = LorentzSpace(q, FLAT, g)
        rng = np.random.default_rng(3)
        v = g.points ** -0.4 * rng.uniform(0.5, 1.5, g.count) - 0.2
        h = SampledFunction(g, v)
        expected = _associate_norm_of_cumulative(
            sp, cumulative_from_zero(g.points, np.maximum(v, 0.0)))

        def no_interp(*args):
            raise AssertionError("samples interpolated")

        monkeypatch.setattr(gridfn, "_interp_loglog", no_interp)
        got = associate_norm(sp, h)
        assert math.isfinite(got) and got == expected

    @pytest.mark.parametrize("q", [1.0, 1.5, 4.0])
    def test_block_of_cumulatives_matches_rows(self, q):
        # each row's norm equals the one-row call, bit for bit; row 1 has
        # cum[0] = +inf, row 2 a divergent head (q > 1) or an unbounded
        # V^-1 c (q = 1)
        g = make_log_grid(1e-8, 1.0, 300)
        t = g.points
        sp = LorentzSpace(q, power_weight(q, 2.0), g)
        rng = np.random.default_rng(8)
        H = [t ** -0.3, np.full(g.count, math.inf), t ** -0.999,
             rng.random(g.count), np.where(t < 1e-2, 2.0, 0.5), np.zeros(g.count)]
        C = cumulative_from_zero(t, np.array(H))
        C[1] = math.inf
        got = _associate_norm_of_cumulative(sp, C)
        want = [_associate_norm_of_cumulative(sp, c) for c in C]
        assert all(isinstance(w, float) for w in want)
        assert np.array_equal(got, want)
        assert got[1] == math.inf and got[2] == math.inf
        assert np.all(np.isfinite(got[[0, 3, 4, 5]]))

    def test_domain_guard(self):
        g = make_log_grid(1e-8, 1.0, 512)
        sp = LorentzSpace(2.0, FLAT, g)
        wide = make_log_grid(1e-8, 2.0, 64)
        for norm in (associate_norm, lorentz_norm):
            with pytest.raises(DomainError):
                norm(sp, SampledFunction(wide, np.ones(64)))


class TestWeightSpec:
    def test_grid_must_end_at_T(self):
        with pytest.raises(DomainError):
            LorentzSpace(2.0, FLAT, make_log_grid(1e-8, 2.0, 64))
