import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import calderon_lab.optimal as optimal
import calderon_lab.potentials as potentials
from calderon_lab.errors import (
    DomainError,
    NoSolution,
    NotEmbedded,
)
from calderon_lab.gridfn import (
    SampledFunction,
    cumulative_from_zero,
    cumulative_tail,
    make_log_grid,
    sample,
)
from calderon_lab.kernels import SlowlyVaryingSpec
from calderon_lab.lorentz import (
    LorentzSpace,
    WeightSpec,
    _associate_norm_of_cumulative,
    embedding_function,
    power_weight,
)
from calderon_lab.optimal import (
    FAMILY_SEED,
    AssociateNormEngine,
    _FamilyRng,
    check_condition_a,
    check_condition_b,
    equivalence_report,
    exp_sum_nodes,
    half_level_point,
    hardy_constants,
    largest_monotone_exponent,
    make_optimal_norm_spec,
    optimal_norm,
    sample_family,
    tail_embedding_function,
)

FLAT = WeightSpec(power_exponent=0.0)


def power_phi(grid, alpha, n=1):
    return sample(lambda t, a=alpha, nn=n: t ** (a / nn - 1.0), grid)


class TestTailAggregate:
    def test_power_forms(self):
        # flat weight, n = 2, k = 1, alpha = 1.5:
        # Wtilde = t^((alpha-k)/n - 1), U_q the explicit power integral
        g = make_log_grid(1e-8, 1.0, 512)
        sp = LorentzSpace(2.0, FLAT, g)
        phi = power_phi(g, 1.5, n=2)
        uq = tail_embedding_function(sp, phi, 1, 2)
        ex = (1.5 - 1.0) / 2.0 - 1.0
        expected = np.sqrt(np.maximum((g.points ** (2 * ex + 1) - 1.0)
                                      / -(2 * ex + 1), 0.0))
        assert np.allclose(uq.values[:-1], expected[:-1], rtol=1e-10)

    def test_vanishes_at_T(self):
        g = make_log_grid(1e-8, 1.0, 512)
        for q in (1.5, 2.0, 4.0):
            sp = LorentzSpace(q, FLAT, g)
            uq = tail_embedding_function(sp, power_phi(g, 0.75), 1, 1)
            assert uq.values[-1] == 0.0

    def test_q1_running_sup(self):
        g = make_log_grid(1e-8, 1.0, 512)
        sp = LorentzSpace(1.0, FLAT, g)
        phi = power_phi(g, 0.5)
        u1 = tail_embedding_function(sp, phi, 1, 1)
        # Wtilde = V^-1 t^(1-k/n) phi at k = n = 1
        wt = np.asarray(phi(g.points)) / sp.V.values
        assert np.all(np.diff(u1.values) <= 1e-12)
        assert np.all(u1.values >= wt - 1e-12)


class TestConditions:
    @pytest.mark.parametrize("alpha,a_holds,b_holds", [
        (0.5, True, False), (1.0, False, False), (1.5, False, True)])
    def test_dichotomy(self, alpha, a_holds, b_holds):
        g = make_log_grid(1e-8, 1.0, 512)
        sp = LorentzSpace(2.0, FLAT, g)
        phi = power_phi(g, alpha)
        uq = tail_embedding_function(sp, phi, 1, 1)
        ca = check_condition_a(phi, sp.V, 1, 1, g)
        cb = check_condition_b(phi, uq, 1, 1, g)
        assert ca.holds is a_holds
        assert cb.holds is b_holds
        if not a_holds:
            assert not math.isfinite(ca.d)
        if not b_holds:
            assert not math.isfinite(cb.d)

    @pytest.mark.parametrize("c", [1e-3, 0.1, 0.5])
    def test_condition_a_fails_with_infinite_sup(self, c):
        # phi = t^(-1/2) above c and 0 below: int_0^t phi vanishes below c,
        # so the ratio's grid sup is +inf, and the condition cannot hold
        # however bounded the fit reads the floored ratio
        g = make_log_grid(1e-8, 1.0, 512)
        sp = LorentzSpace(2.0, power_weight(2.0, 1.5), g)
        phi = lambda t: np.where(t > c, t ** -0.5, 0.0)
        ca = check_condition_a(phi, sp.V, 1, 1, g)
        assert ca.d == ca.d_grid == math.inf
        assert ca.epsilon == 1.0
        assert ca.holds is False

    def test_epsilon_witness_flat_weight(self):
        g = make_log_grid(1e-8, 1.0, 512)
        sp = LorentzSpace(2.0, FLAT, g)
        ca = check_condition_a(power_phi(g, 0.5), sp.V, 1, 1, g)
        assert ca.epsilon >= 0.5   # t^eps / t is nonincreasing up to eps = 1

    def test_grid_sup_diverges_at_critical_alpha(self):
        # at alpha = k both dominance constants blow up under refinement
        sups_a, sups_b = [], []
        for pts in (128, 256, 512):
            g = make_log_grid(1e-8, 1.0, pts)
            sp = LorentzSpace(2.0, FLAT, g)
            phi = power_phi(g, 1.0)
            uq = tail_embedding_function(sp, phi, 1, 1)
            sups_a.append(check_condition_a(phi, sp.V, 1, 1, g).d_grid)
            sups_b.append(check_condition_b(phi, uq, 1, 1, g).d_grid)
        assert sups_a[0] < sups_a[1] < sups_a[2]
        assert all(not math.isfinite(s) for s in sups_b)   # head integral diverges

    def test_slowly_varying_tail_witness(self):
        # U_q built from a power-log tail admits an exponent witness
        g = make_log_grid(1e-8, 1.0, 512)
        sp = LorentzSpace(2.0, FLAT, g)
        phi = power_phi(g, 1.5, n=2)
        uq = tail_embedding_function(sp, phi, 1, 2)
        assert largest_monotone_exponent(g.points, uq.values) > 0


class TestHalfLevel:
    def test_power_inversion(self):
        g = make_log_grid(1e-8, 1.0, 512)
        sp = LorentzSpace(2.0, FLAT, g)
        psi = embedding_function(sp, power_phi(g, 0.75))
        T1 = half_level_point(psi)
        # Psi ~ t^0.25, so the half level sits at 2^(-4)
        assert abs(psi(T1) - 0.5 * psi.values[-1]) <= 1e-14 * psi.values[-1]
        assert abs(T1 - 2.0 ** -4) < 1e-4

    def test_constant_has_no_solution(self):
        g = make_log_grid(1e-8, 1.0, 512)
        psi = SampledFunction(g, np.ones(g.count))
        with pytest.raises(NoSolution):
            half_level_point(psi)
        # an aggregate infinite at T has no half level either
        psi = SampledFunction(g, np.r_[np.ones(g.count - 1), np.inf])
        with pytest.raises(NoSolution):
            half_level_point(psi)

    def test_karamata_aggregate_vs_fine_oracle(self):
        beta = 0.75
        sv = SlowlyVaryingSpec(factors=(("log", beta),), scale=1.0)
        w = power_weight(2.0, 2.0, sv=sv)
        coarse = LorentzSpace(2.0, w, make_log_grid(1e-8, 1.0, 512))
        fine = LorentzSpace(2.0, w, make_log_grid(1e-8, 1.0, 5120))
        t1_c = half_level_point(embedding_function(coarse, power_phi(coarse.grid, 0.5)))
        t1_f = half_level_point(embedding_function(fine, power_phi(fine.grid, 0.5)))
        # oracle at 10x resolution agrees within a coarse cell ratio
        assert abs(math.log(t1_c / t1_f)) < 2 * math.log(coarse.grid.ratio) + 0.05


class TestOptimalNorm:
    def test_sup_case_indicator(self):
        # q = 1 with a heavy weight keeps the aggregate away from zero
        g = make_log_grid(1e-8, 1.0, 512)
        w = WeightSpec(power_exponent=-0.25)
        sp = LorentzSpace(1.0, w, g)
        phi = power_phi(g, 0.75)
        spec = make_optimal_norm_spec(sp, phi)
        assert spec.case == "sup"
        f = SampledFunction(g, np.ones(g.count))
        assert optimal_norm(spec, f) == 1.0

    def test_weighted_case_power_probe(self):
        g = make_log_grid(1e-8, 1.0, 512)
        sp = LorentzSpace(2.0, FLAT, g)
        spec = make_optimal_norm_spec(sp, power_phi(g, 0.75))
        assert spec.case == "weighted"
        theta = 0.5
        psi_T = spec.psi.values[-1]
        f = SampledFunction(g, spec.psi.values ** (1 + theta))
        got = optimal_norm(spec, f)
        expected = psi_T ** theta / (theta * 2.0) ** 0.5 + psi_T ** theta
        assert abs(got - expected) < 5e-3 * expected

    def test_aggregate_itself_diverges_under_refinement(self):
        # f = Psi makes the Stieltjes integral a log-divergent sum
        vals = []
        for span in (1e-4, 1e-8, 1e-12):
            g = make_log_grid(span, 1.0, 512)
            sp = LorentzSpace(2.0, WeightSpec(0.0), g)
            spec = make_optimal_norm_spec(sp, power_phi(g, 0.75))
            f = SampledFunction(g, spec.psi.values.copy())
            core = optimal_norm(spec, f) - 1.0   # strip the sup term
            vals.append(core)
        assert vals[0] < vals[1] < vals[2]
        # growth consistent with a log divergence, not saturation
        assert vals[2] - vals[1] > 0.5 * (vals[1] - vals[0])

    def test_monotone_in_the_lattice_sense(self):
        g = make_log_grid(1e-8, 1.0, 512)
        sp = LorentzSpace(2.0, FLAT, g)
        spec = make_optimal_norm_spec(sp, power_phi(g, 0.75))
        rng = np.random.default_rng(8)
        for _ in range(10):
            f = rng.random(g.count)
            h = f + rng.random(g.count)
            assert optimal_norm(spec, SampledFunction(g, f)) <= \
                optimal_norm(spec, SampledFunction(g, h)) * (1 + 1e-12)

    def test_not_embedded(self):
        g = make_log_grid(1e-8, 1.0, 512)
        sp = LorentzSpace(2.0, FLAT, g)
        with pytest.raises(NotEmbedded):
            make_optimal_norm_spec(sp, power_phi(g, 0.3))


class TestAssociatedNorms:
    def setup_method(self):
        self.g = make_log_grid(1e-8, 1.0, 512)
        self.sp = LorentzSpace(2.0, FLAT, self.g)
        self.phi = power_phi(self.g, 1.5, n=2)
        self.eng = AssociateNormEngine(self.sp, self.phi, 1, 2)

    def _norms(self, g):
        """rho0, rho_tilde, rho1 and rho2 of g."""
        eng = self.eng
        return [eng.rho0(g), eng.rho_tilde(g), eng.rho1(g), eng.rho2(g)]

    def test_zero_gives_zero(self):
        assert self._norms(np.zeros(self.g.count)) == [0.0] * 4

    def test_homogeneity(self):
        rng = np.random.default_rng(4)
        gvals = rng.random(self.g.count)
        for a, b in zip(self._norms(gvals), self._norms(3.0 * gvals)):
            assert np.isclose(b, 3.0 * a, rtol=1e-12)

    def test_recorded_ratio_flat_case(self):
        ones = np.ones(self.g.count)
        assert 0.5 <= self.eng.rho0(ones) / self.eng.rho_tilde(ones) <= 10.0

    def test_unembedded_configuration_everything_infinite(self):
        # alpha below n/q: the product functional is infinite for any g
        # with positive tail mass
        phi = power_phi(self.g, 0.5)
        sp = LorentzSpace(2.0, FLAT, self.g)
        eng = AssociateNormEngine(sp, phi, 1, 1)
        chi = (self.g.points < 0.5).astype(float)
        assert eng.rho_tilde(chi) == math.inf

    def test_q1_hat_form_brackets(self):
        # q = 1 with a slowly growing cumulative weight: the nested form
        # dominates the product form and is dominated by (c+1) times it
        w = WeightSpec(power_exponent=-0.5)
        sp = LorentzSpace(1.0, w, self.g)
        phi = power_phi(self.g, 0.75)
        eng = AssociateNormEngine(sp, phi, 1, 1)
        # int_0^t V(s)/s ds = 2 V(t) here, so the bracket constant is 3
        rng = np.random.default_rng(12)
        for _ in range(10):
            gv = rng.random(self.g.count)
            lo = eng.rho_tilde(gv)
            hat = eng.rho0_hat(gv)
            assert lo <= hat * (1 + 1e-9)
            assert hat <= 3.0 * lo * (1 + 1e-6)

    def test_sequence_inequality(self):
        # for beta_m = 2^m: sup_m 2^m sum_{j>=m} a_j <= 2 sup_j 2^j a_j
        rng = np.random.default_rng(77)
        for _ in range(50):
            a = rng.random(40) * rng.integers(0, 2, size=40)
            lhs = max(2.0 ** m * a[m:].sum() for m in range(40))
            rhs = 2.0 * max(2.0 ** j * a[j] for j in range(40))
            assert lhs <= rhs * (1 + 1e-12)


class TestConeKernel:
    @pytest.mark.parametrize("points", [64, 700])
    @pytest.mark.parametrize("k,n", [(1, 3), (1, 2), (1, 1), (2, 1)])
    def test_rho0_matches_dense_matrix(self, k, n, points):
        # The exponential sum and the dense (t_j/t_i)^(k/n) differ by
        # <= 2.8e-15 relative per psi0 entry.  The two-point power fit of
        # head_mass divides that by log r and by the fitted exponent's
        # distance from -1: measured up to 1.3e-13 relative in rho0 at 700
        # points, 8.9e-13 at 4000.
        g = make_log_grid(1e-8, 1.0, points)
        t = g.points
        phi = power_phi(g, 0.75)
        omega = (np.asarray(phi(t))[None, :]
                 / (1.0 + (t[None, :] / t[:, None]) ** (k / n)))
        rng = np.random.default_rng(100 * points + 10 * k + n)
        gs = [*sample_family(g), *rng.random((3, points))]
        finite = 0
        for sp in (LorentzSpace(2.0, FLAT, g), LorentzSpace(1.0, FLAT, g),
                   LorentzSpace(1.0, WeightSpec(power_exponent=-0.5), g)):
            eng = AssociateNormEngine(sp, phi, k, n)
            for gv in gs:
                want = _associate_norm_of_cumulative(
                    sp, cumulative_from_zero(t, (eng.xi_weights * gv) @ omega))
                got = eng.rho0(gv)
                assert math.isfinite(got) == math.isfinite(want)
                if math.isfinite(want):
                    finite += 1
                    assert abs(got - want) <= 1e-11 * want
        assert 0 < finite < 3 * len(gs)

    @pytest.mark.parametrize("points", [64, 700])
    @pytest.mark.parametrize("k,n", [(1, 3), (1, 2), (1, 1), (2, 1)])
    def test_family_psi0_matches_dense_matrix(self, k, n, points):
        # Every term of the exponential sum is nonnegative, so each psi0
        # entry keeps its relative accuracy against the dense product
        # (2.3e-15 seen), down to the head-indicator tail entries below
        # 1e-12 of the row maximum at k/n = 2.  A batched rfft product
        # does not: its error scales with the row maximum, measured at
        # 4.5e-8 relative on such entries at k/n = 2 (1e-8 span, 1000 and
        # 4000 points) and 1.0e-7 in the 700-point case here, so it must
        # fail this test.
        g = make_log_grid(1e-8, 1.0, points)
        t = g.points
        phi = power_phi(g, 0.25)
        omega = (np.asarray(phi(t))[None, :]
                 / (1.0 + (t[None, :] / t[:, None]) ** (k / n)))
        G = sample_family(g)
        assert len(G) == 50
        eng = AssociateNormEngine(LorentzSpace(2.0, FLAT, g), phi, k, n)
        want = (eng.xi_weights * G) @ omega
        got = eng._psi0(eng.cone_weights * G)
        # a narrow band can miss every point of the coarse grid
        empty = ~np.any(G > 0, axis=1)
        assert np.all(got[empty] == 0.0)
        want, got = want[~empty], got[~empty]
        assert np.all(want > 0)
        if k == 2 * n:
            assert np.any(want < 1e-12 * want.max(axis=1, keepdims=True))
        assert np.max(np.abs(got - want) / want) <= 1e-13

    @pytest.mark.parametrize("span", [1e-8, 1e-16])
    @pytest.mark.parametrize("kn", [1 / 3, 2 / 3, 1.0, 2.0])
    def test_exp_sum_nodes_reproduce_reciprocal(self, span, kn):
        # sum w exp(-s z) = 1/z over the engine's range z = y(tau) + y(xi),
        # y = (t/T)^(k/n), each sum taken exactly: 4.4e-16 seen
        z_min = 2.0 * span ** kn
        s, w = exp_sum_nodes(z_min, 2.0)
        for z in np.geomspace(z_min, 2.0, 2001):
            total = math.fsum(w * np.exp(-s * z))
            assert abs(total * z - 1.0) <= 1e-15
        assert np.all(w > 0) and np.all(np.diff(s) > 0)
        # s = exp(v - e), w = h s (1 + e): v = log s + w / (h s) - 1 lies
        # on the h-lattice, one step apart
        j = (np.log(s) + w / (0.25 * s) - 1.0) / 0.25
        assert np.max(np.abs(j - np.round(j))) <= 1e-9
        assert np.all(np.diff(np.round(j)) == 1)
        # the trapezoid rule in u = log s took 189-312 and 214-459 nodes
        most = {1e-8: {1 / 3: 68, 2 / 3: 93, 1.0: 117, 2.0: 191},
                1e-16: {1 / 3: 93, 2 / 3: 142, 1.0: 191, 2.0: 338}}
        assert len(s) <= most[span][kn]

    def test_exp_table_cut_drops_only_zeros(self):
        # k/n = 2 on a 1e-16 span: the blocks keep the leading rows of the
        # full table exp(-s y), bit for bit, and every entry they drop is
        # exactly 0.0
        g = make_log_grid(1e-16, 1.0, 4000)
        eng = AssociateNormEngine(LorentzSpace(2.0, FLAT, g), power_phi(g, 0.25), 2, 1)
        full = np.exp(np.multiply.outer(-eng.nodes, eng.y))
        kept = 0
        blocks = list(eng._exp_blocks())   # a generator: both loops read it
        covered = np.concatenate([np.arange(4000)[cols] for cols, _ in blocks])
        assert np.array_equal(covered, np.arange(4000))
        for cols, table in blocks:
            assert np.array_equal(table, full[:len(table), cols])
            assert np.all(full[len(table):, cols] == 0.0)
            kept += table.size
        assert kept < 0.9 * full.size

    @pytest.mark.parametrize("span", [1e-8, 1e-16])
    @pytest.mark.parametrize("k,n", [(1, 3), (2, 3), (1, 1), (2, 1)])
    def test_family_psi0_matches_dense_columns_at_4000_points(self, k, n, span):
        # 50 columns tau of the dense product, never an N x N matrix: the
        # node count and the column blocks at the size the lattice runs
        g = make_log_grid(span, 1.0, 4000)
        t = g.points
        phi = power_phi(g, 0.25)
        cols = np.linspace(0, len(t) - 1, 50).astype(int)
        omega = (np.asarray(phi(t))[None, cols]
                 / (1.0 + (t[None, cols] / t[:, None]) ** (k / n)))
        G = sample_family(g)
        eng = AssociateNormEngine(LorentzSpace(2.0, FLAT, g), phi, k, n)
        want = (eng.xi_weights * G) @ omega
        got = eng._psi0(eng.cone_weights * G)[:, cols]
        assert np.all(got[want == 0] == 0.0)
        pos = want > 0
        assert np.max(np.abs(got[pos] - want[pos]) / want[pos]) <= 1e-13

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("where", [0, 3, 698, 699])
    def test_infinite_entry_gives_infinite_rho0(self, where):
        # exp(-s y) underflows to 0 for large s, so an inf entry must not
        # reach the product, where inf * 0 would be NaN and warn
        g = make_log_grid(1e-8, 1.0, 700)
        eng = AssociateNormEngine(LorentzSpace(2.0, FLAT, g), power_phi(g, 0.75), 1, 2)
        bad, good = np.ones(700), np.linspace(1.0, 2.0, 700)
        bad[where] = math.inf
        assert eng.rho0(bad) == math.inf
        got = eng.rho0_family(np.array([good, bad, good]))
        assert got[1] == math.inf
        assert math.isfinite(got[0])
        for value in (got[2], eng.rho0(good)):
            assert abs(value - got[0]) <= 1e-12 * got[0]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_empty_family(self):
        g = make_log_grid(1e-8, 1.0, 64)
        eng = AssociateNormEngine(LorentzSpace(2.0, FLAT, g), power_phi(g, 0.75), 1, 2)
        assert eng.rho0_family(np.empty((0, 64))).shape == (0,)
        assert eng.rho_tilde_family(np.empty((0, 64))).shape == (0,)

    @pytest.mark.parametrize("length", [63, 65])
    @pytest.mark.parametrize("method", ["rho0", "rho_tilde", "rho1", "rho2",
                                        "rho0_hat", "rho0_family", "rho_tilde_family"])
    def test_wrong_length_rejected(self, method, length):
        g = make_log_grid(1e-8, 1.0, 64)
        eng = AssociateNormEngine(LorentzSpace(1.0, FLAT, g), power_phi(g, 0.75),
                                  1, 1)
        arg = np.ones((3, length)) if method.endswith("_family") else np.ones(length)
        with pytest.raises(DomainError):
            getattr(eng, method)(arg)

    @pytest.mark.parametrize("shape", [(64,), (2, 3, 64)])
    def test_family_rank_rejected(self, shape):
        g = make_log_grid(1e-8, 1.0, 64)
        eng = AssociateNormEngine(LorentzSpace(1.0, FLAT, g), power_phi(g, 0.75),
                                  1, 1)
        for family in (eng.rho0_family, eng.rho_tilde_family):
            with pytest.raises(DomainError):
                family(np.ones(shape))

    @pytest.mark.parametrize("q,alpha,k,n", [(2.0, 1.5, 1, 2), (1.0, 0.75, 1, 1),
                                             (2.0, 0.5, 1, 1), (4.0, 0.6, 2, 1)])
    def test_rho_tilde_family_matches_per_g(self, q, alpha, k, n):
        # row blocks of the 2000-point family against one call per g, and
        # against the product rule on that single g
        g = make_log_grid(1e-8, 1.0, 2000)
        t = g.points
        sp = LorentzSpace(q, FLAT, g)
        eng = AssociateNormEngine(sp, power_phi(g, alpha, n=n), k, n)
        rows = sample_family(g)
        got = eng.rho_tilde_family(rows)
        want = [eng.rho_tilde(gv) for gv in rows]
        assert np.array_equal(got, want)
        assert np.array_equal(got, [_associate_norm_of_cumulative(
            sp, eng.iphi * cumulative_tail(t, gv)) for gv in rows])

    def test_memory_linear_in_grid(self):
        # A dense 4000 x 4000 cone kernel and its ratio temporary take
        # 256 MB.  RSS, not tracemalloc: numpy's internal copy of a strided
        # matmul operand does not show in tracemalloc.  Measured growth:
        # 2.9-3.1 MiB with the report's own family (1.6 MB, weighted in
        # place and overwritten by psi0), one block of the exponential
        # table (at most 0.5 MB for its 117 nodes) and the family's node
        # coefficients; 2.9 MiB when the report weighted a copy of a
        # family built before it, 4.9 MiB when the whole table, at most
        # 3.7 MB, was built once for both passes, 0.8 MiB with the
        # earlier per-g np.convolve loop.
        code = (
            "import resource, sys\n"
            "import numpy as np\n"
            "from calderon_lab.gridfn import make_log_grid, sample\n"
            "from calderon_lab.lorentz import LorentzSpace, WeightSpec\n"
            "from calderon_lab.optimal import AssociateNormEngine, equivalence_report, sample_family\n"
            "g = make_log_grid(1e-8, 1.0, 4000)\n"
            "sp = LorentzSpace(2.0, WeightSpec(power_exponent=0.0), g)\n"
            "phi = sample(lambda t: t ** -0.25, g)\n"
            "family = sample_family(g)\n"
            "unit = 1 if sys.platform == 'darwin' else 1024   # ru_maxrss in KiB\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "rep = equivalence_report(sp, phi, 1, 1)\n"
            "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "eng = AssociateNormEngine(sp, phi, 1, 1)\n"
            "r0, rt = eng.rho0_family(family), eng.rho_tilde_family(family)\n"
            "ratios = np.sum(np.isfinite(r0) & np.isfinite(rt) & (rt > 0))\n"
            "print(ratios, rep['spread'], (after - before) * unit)\n")
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + [p for p in [env.get("PYTHONPATH")] if p])
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout.split()
        assert int(out[0]) == 50
        assert math.isfinite(float(out[1]))
        assert int(out[2]) < 64 * 2 ** 20

    def test_rho0_family_builds_one_table_block_at_a_time(self, traced_peak_mib):
        # k/n = 2 on 4000 points: the weighted copy of the caller's family
        # is 50 x 4000 floats, 1.53 MiB, one block of the exponential
        # table at most 191 x 512, 0.75 MiB, and the row blocks of the
        # grid rules a few 0.12 MiB temporaries: 2.52 MiB measured.  Two
        # live blocks, the previous one held while the next was built,
        # peaked at 3.20 MiB; the whole cut table, 4.2 MiB, at 6.01 MiB
        g = make_log_grid(1e-8, 1.0, 4000)
        eng = AssociateNormEngine(LorentzSpace(2.0, FLAT, g), power_phi(g, 0.25), 2, 1)
        family = sample_family(g)
        assert traced_peak_mib(lambda: eng.rho0_family(family)) < 2.8

    def test_equivalence_report_holds_one_family_array(self, traced_peak_mib):
        # k/n = 2 on 4000 points: the report's family, 1.53 MiB, is weighted
        # in place and psi0 is written over it, beside one 191 x 512 table
        # block, 0.75 MiB, and the engine's O(N) rows of 31 KiB each.  A
        # weighted copy of the family and two live blocks peaked at 5.13 MiB
        g = make_log_grid(1e-8, 1.0, 4000)
        sp = LorentzSpace(2.0, FLAT, g)
        phi = power_phi(g, 0.7)
        assert traced_peak_mib(lambda: equivalence_report(sp, phi, 2, 1)) < 3.5

    def test_family_functionals_leave_the_family_unchanged(self):
        # psi0 is written over the weighted family it is given, never over
        # the caller's rows; the infinite row takes the non-finite path
        g = make_log_grid(1e-8, 1.0, 700)
        eng = AssociateNormEngine(LorentzSpace(2.0, FLAT, g), power_phi(g, 0.75), 2, 1)
        family = sample_family(g)
        family[3, 5] = math.inf
        kept = family.copy()
        r0, rt = eng.rho0_family(family), eng.rho_tilde_family(family)
        assert np.array_equal(family, kept)
        assert r0[3] == math.inf and np.all(np.isfinite(np.delete(r0, 3)))
        assert len(rt) == 50


class TestEquivalence:
    def test_condition_a_family(self):
        g = make_log_grid(1e-8, 1.0, 512)
        sp = LorentzSpace(4.0, FLAT, g)
        phi = power_phi(g, 0.6, n=2)
        family = sample_family(g)
        rep = equivalence_report(sp, phi, 1, 2)
        eng = AssociateNormEngine(sp, phi, 1, 2)
        r0, rt = eng.rho0_family(family), eng.rho_tilde_family(family)
        # every row gives a ratio
        assert np.all(np.isfinite(r0) & np.isfinite(rt) & (rt > 0))
        assert rep["spread"] < 50.0
        assert rep["min_ratio"] > 0.9

    def test_one_sided_infinite_ratio(self, monkeypatch):
        # rho0 = inf with rho_tilde finite gives a +inf ratio; like the
        # zero ratio of the mirror case, it makes the spread infinite
        g = make_log_grid(1e-8, 1.0, 512)
        sp = LorentzSpace(4.0, FLAT, g)
        phi = power_phi(g, 0.6, n=2)
        real = AssociateNormEngine._rho0_weighted
        def first_infinite(self, a):
            out = real(self, a)
            out[0] = math.inf
            return out
        monkeypatch.setattr(AssociateNormEngine, "_rho0_weighted", first_infinite)
        rep = equivalence_report(sp, phi, 1, 2)
        assert 0.0 < rep["min_ratio"] < math.inf
        assert rep["max_ratio"] == math.inf
        assert rep["spread"] == math.inf

    def test_condition_b_family(self):
        g = make_log_grid(1e-8, 1.0, 512)
        sp = LorentzSpace(2.0, FLAT, g)
        phi = power_phi(g, 1.5, n=2)
        rep = equivalence_report(sp, phi, 1, 2)
        assert rep["spread"] < 50.0
        assert rep["min_ratio"] > 0.9

    def test_limiting_equal_smoothness(self):
        # alpha = k with a decaying log factor: the aggregate follows
        # W = V^-1 t^(alpha/n) lambda and the equivalence still holds
        g = make_log_grid(1e-8, 1.0, 512)
        sv = SlowlyVaryingSpec(factors=(("log", -2.0),), scale=1.0)
        phi = sample(lambda t: sv(np.minimum(t, 1.0)) * np.ones_like(t), g)
        sp = LorentzSpace(2.0, FLAT, g)
        psi = embedding_function(sp, phi)
        model_w = sv(g.points)     # V^-1 t^(alpha/n) lambda with alpha = n = 1
        kernel_w = np.asarray(phi(g.points)) * 0 + model_w
        assert np.isfinite(psi.values[-1])
        rep = equivalence_report(sp, phi, 1, 1)
        assert rep["spread"] < 50.0

    @pytest.mark.parametrize("q,alpha,k,n", [(2.0, 1.5, 1, 2), (1.0, 0.75, 1, 1),
                                             (2.0, 0.5, 1, 1), (4.0, 0.6, 2, 1)])
    def test_report_matches_per_g_loop(self, q, alpha, k, n):
        # the family product against one rho0/rho_tilde evaluation per g;
        # at (1.0, 0.75) and the non-embedded (2.0, 0.5) most or all of the
        # family is infinite under both functionals
        g = make_log_grid(1e-8, 1.0, 300)
        sp = LorentzSpace(q, FLAT, g)
        phi = power_phi(g, alpha, n=n)
        family = sample_family(g)
        rep = equivalence_report(sp, phi, k, n)
        eng = AssociateNormEngine(sp, phi, k, n)
        r0s, rts = eng.rho0_family(family).tolist(), eng.rho_tilde_family(family).tolist()
        # the one-row product sums in another order than the family's:
        # 9.7e-14 relative seen at 300 and 2000 points
        np.testing.assert_allclose(r0s, [eng.rho0(gv) for gv in family], rtol=1e-12, atol=0)
        assert rts == [eng.rho_tilde(gv) for gv in family]
        ratios = [r0 / rt for r0, rt in zip(r0s, rts)
                  if rt > 0 and not (math.isinf(r0) and math.isinf(rt))]
        if not ratios:
            assert all(math.isnan(rep[key]) for key in ("min_ratio", "max_ratio", "spread"))
            return
        lo, hi = min(ratios), max(ratios)
        assert (rep["min_ratio"], rep["max_ratio"]) == (lo, hi)
        assert rep["spread"] == (math.inf if lo == 0.0 or hi == math.inf else hi / lo)

    def test_neither_condition_reported(self):
        g = make_log_grid(1e-8, 1.0, 512)
        sp = LorentzSpace(2.0, FLAT, g)
        phi = power_phi(g, 1.0)
        uq = tail_embedding_function(sp, phi, 1, 1)
        ca = check_condition_a(phi, sp.V, 1, 1, g)
        cb = check_condition_b(phi, uq, 1, 1, g)
        assert not ca.holds and not cb.holds
        rep = equivalence_report(sp, phi, 1, 1)
        assert "spread" in rep    # still evaluated, never asserted


class TestHardy:
    def test_flat_weight_value_and_bounds(self):
        # flat weight, q = 2: the product is ((1/t - 1) t)^(1/2)
        # = (1 - t)^(1/2), whose supremum over (0, 1) is 1, attained in
        # the limit t -> 0
        sp = LorentzSpace(2.0, FLAT, make_log_grid(1e-8, 1.0, 512))
        h = hardy_constants(sp)
        assert abs(h["B0"] - 1.0) < 1e-4
        assert h["epsilon"] == 1.0
        assert h["B0"] <= h["bound"] * (1 + 1e-9)
        assert abs(h["bound"] - 1.0) < 1e-12
        assert h["c3_bound"] <= 2.0 * (1 + 1e-9)
        assert h["within_bound"]


class TestSampleFamily:
    def test_reproducible(self):
        g = make_log_grid(1e-8, 1.0, 512)
        assert np.array_equal(sample_family(g), sample_family(g))

    def test_count_and_nonnegative(self):
        g = make_log_grid(1e-8, 1.0, 512)
        fam = sample_family(g)
        assert fam.shape == (50, len(g.points))
        assert np.all(fam >= 0)

    @pytest.mark.parametrize("points", [6, 7, 513, 4000])
    @pytest.mark.parametrize("seed", [FAMILY_SEED, 1, 2 ** 40])
    def test_built_in_place_equals_list_of_rows(self, points, seed):
        # the rows written into one preallocated array against the rows
        # built as a list and copied by np.array, bit for bit
        g = make_log_grid(1e-8, 1.0, points)
        rng = optimal._FamilyRng(seed)
        t, T = g.points, g.t_max
        rows = [t < a for a in np.geomspace(1e-4 * T, 0.9 * T, 10)]
        for _ in range(10):
            lo, hi = np.sort(rng.uniform(np.log(1e-5 * T), np.log(T), size=2))
            rows.append((t >= math.exp(lo)) & (t < math.exp(hi)))
        rows += [(t / T) ** s for s in np.linspace(-0.45, 2.0, 15)]
        for _ in range(15):
            breaks = np.sort(rng.choice(len(t) - 2, 4)) + 1
            levels = np.sort(rng.uniform(0.1, 2.0, size=5))[::-1]
            rows.append(np.repeat(levels, np.diff([0, *breaks, len(t)])))
        want = np.array(rows, dtype=float)
        got = sample_family(g, seed)
        assert got.dtype == want.dtype and got.flags.c_contiguous
        assert np.array_equal(got, want)


class _NumpyRng:
    """numpy's default_rng(seed) behind the two calls the families make:
    the oracle for _FamilyRng, in the test process only."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def uniform(self, low, high, size=None):
        return self.rng.uniform(low, high, size)

    def choice(self, n, size):
        return self.rng.choice(n, size=size, replace=False)


# 0, the family seed, 2^32 (two words) and seeds of 3 and 7 words beside
# 300 seeds below 2^30
ORACLE_SEEDS = ([0, 1, FAMILY_SEED, 2 ** 31 - 1, 2 ** 32, 2 ** 64 + 7, 2 ** 200 + 12345]
                + np.random.default_rng(39).integers(0, 2 ** 30, 300).tolist())


class TestFamilyRng:
    def test_families_match_numpy(self, monkeypatch):
        # each family built on _FamilyRng and on numpy's generator, so the
        # oracle replays exactly the families' own calls; the grid sizes
        # give choice populations of 14, 254 and 3998
        def build(seed, points):
            return (sample_family(make_log_grid(1e-8, 1.0, points), seed=seed),
                    potentials.bump_and_staircase_family(count=10, resolution=64, seed=seed))
        ours = {seed: build(seed, (16, 256, 4000)[i % 3])
                for i, seed in enumerate(ORACLE_SEEDS)}
        monkeypatch.setattr(optimal, "_FamilyRng", _NumpyRng)
        monkeypatch.setattr(potentials, "_FamilyRng", _NumpyRng)
        for i, seed in enumerate(ORACLE_SEEDS):
            sample, fields = build(seed, (16, 256, 4000)[i % 3])
            assert np.array_equal(ours[seed][0], sample), seed
            for (_, a), (_, b) in zip(ours[seed][1], fields):
                assert np.array_equal(a.values, b.values), seed

    @pytest.mark.parametrize("n", [10 ** 4, 10 ** 6])
    def test_large_populations_match_numpy(self, n):
        for seed in ORACLE_SEEDS[:20]:
            ours, ref = _FamilyRng(seed), _NumpyRng(seed)
            for _ in range(20):
                assert np.array_equal(ours.choice(n, 4), ref.choice(n, 4))
                assert ours.uniform(0.1, 2.0) == ref.uniform(0.1, 2.0)

    def test_family_needs_six_points(self):
        # each staircase takes 4 distinct interior breaks
        with pytest.raises(DomainError, match="at least 6 points"):
            sample_family(make_log_grid(1e-8, 1.0, 5))
        assert sample_family(make_log_grid(1e-8, 1.0, 6)).shape == (50, 6)

    def test_pinned_first_draws(self):
        # fails on its own if the replica changes; a numpy release that
        # changes Generator streams fails only the oracle tests
        rng = _FamilyRng(FAMILY_SEED)
        assert rng.uniform(0.0, 1.0, size=4).tolist() == [
            0.13792884403799988, 0.9902106560036337, 0.22251158457391984, 0.6299875481900222]
        assert rng.choice(1000, 4).tolist() == [105, 207, 199, 487]
        assert rng.uniform(0.0, 1.0) == 0.6747322574565765
