import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from calderon_lab.errors import (
    DomainError,
    Exhausted,
    NoSolution,
    NotEmbedded,
)
from calderon_lab.gridfn import (
    SampledFunction,
    cumulative_from_zero,
    cumulative_tail,
    default_grid,
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
    AssociateNormEngine,
    check_condition_a,
    check_condition_b,
    equivalence_report,
    exp_sum_nodes,
    half_level_point,
    hardy_constants,
    largest_monotone_exponent,
    level_discretization,
    make_optimal_norm_spec,
    optimal_norm,
    sample_family,
    tail_embedding_function,
    two_sided_level_discretization,
)

FLAT = WeightSpec(power_exponent=0.0)


def power_phi(grid, alpha, n=1):
    return sample(lambda t, a=alpha, nn=n: t ** (a / nn - 1.0), grid)


class TestTailAggregate:
    def test_power_forms(self):
        # flat weight, n = 2, k = 1, alpha = 1.5:
        # Wtilde = t^((alpha-k)/n - 1), U_q the explicit power integral
        g = default_grid()
        sp = LorentzSpace(2.0, FLAT, g)
        phi = power_phi(g, 1.5, n=2)
        wt, uq = tail_embedding_function(sp, phi, 1, 2)
        ex = (1.5 - 1.0) / 2.0 - 1.0
        assert np.allclose(wt.values, g.points ** ex, rtol=1e-12)
        expected = np.sqrt(np.maximum((g.points ** (2 * ex + 1) - 1.0)
                                      / -(2 * ex + 1), 0.0))
        assert np.allclose(uq.values[:-1], expected[:-1], rtol=1e-10)

    def test_vanishes_at_T(self):
        g = default_grid()
        for q in (1.5, 2.0, 4.0):
            sp = LorentzSpace(q, FLAT, g)
            _, uq = tail_embedding_function(sp, power_phi(g, 0.75), 1, 1)
            assert uq.values[-1] == 0.0

    def test_q1_running_sup(self):
        g = default_grid()
        sp = LorentzSpace(1.0, FLAT, g)
        wt, u1 = tail_embedding_function(sp, power_phi(g, 0.5), 1, 1)
        assert np.all(np.diff(u1.values) <= 1e-12)
        assert np.all(u1.values >= wt.values - 1e-12)


class TestConditions:
    @pytest.mark.parametrize("alpha,a_holds,b_holds", [
        (0.5, True, False), (1.0, False, False), (1.5, False, True)])
    def test_dichotomy(self, alpha, a_holds, b_holds):
        g = default_grid()
        sp = LorentzSpace(2.0, FLAT, g)
        phi = power_phi(g, alpha)
        wt, uq = tail_embedding_function(sp, phi, 1, 1)
        ca = check_condition_a(phi, sp.V, 1, 1, g)
        cb = check_condition_b(phi, uq, 1, 1, g)
        assert ca.holds is a_holds
        assert cb.holds is b_holds
        if not a_holds:
            assert not math.isfinite(ca.d)
        if not b_holds:
            assert not math.isfinite(cb.d)

    def test_epsilon_witness_flat_weight(self):
        g = default_grid()
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
            wt, uq = tail_embedding_function(sp, phi, 1, 1)
            sups_a.append(check_condition_a(phi, sp.V, 1, 1, g).d_grid)
            sups_b.append(check_condition_b(phi, uq, 1, 1, g).d_grid)
        assert sups_a[0] < sups_a[1] < sups_a[2]
        assert all(not math.isfinite(s) for s in sups_b)   # head integral diverges

    def test_slowly_varying_tail_witness(self):
        # U_q built from a power-log tail admits an exponent witness
        g = default_grid()
        sp = LorentzSpace(2.0, FLAT, g)
        phi = power_phi(g, 1.5, n=2)
        _, uq = tail_embedding_function(sp, phi, 1, 2)
        assert largest_monotone_exponent(g.points, uq.values) > 0


class TestHalfLevel:
    def test_power_inversion(self):
        g = default_grid()
        sp = LorentzSpace(2.0, FLAT, g)
        psi = embedding_function(sp, power_phi(g, 0.75))
        T1 = half_level_point(psi)
        # Psi ~ t^0.25, so the half level sits at 2^(-4)
        assert abs(psi(T1) - 0.5 * psi.values[-1]) <= 1e-14 * psi.values[-1]
        assert abs(T1 - 2.0 ** -4) < 1e-4

    def test_constant_has_no_solution(self):
        g = default_grid()
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
        coarse = LorentzSpace(2.0, w, default_grid(points=512))
        fine = LorentzSpace(2.0, w, default_grid(points=5120))
        t1_c = half_level_point(embedding_function(coarse, power_phi(coarse.grid, 0.5)))
        t1_f = half_level_point(embedding_function(fine, power_phi(fine.grid, 0.5)))
        # oracle at 10x resolution agrees within a coarse cell ratio
        assert abs(math.log(t1_c / t1_f)) < 2 * math.log(coarse.grid.ratio) + 0.05


class TestOptimalNorm:
    def test_sup_case_indicator(self):
        # q = 1 with a heavy weight keeps the aggregate away from zero
        g = default_grid()
        w = WeightSpec(power_exponent=-0.25)
        sp = LorentzSpace(1.0, w, g)
        phi = power_phi(g, 0.75)
        spec = make_optimal_norm_spec(sp, phi)
        assert spec.case == "sup"
        f = SampledFunction(g, np.ones(g.count))
        assert optimal_norm(spec, f) == 1.0

    def test_weighted_case_power_probe(self):
        g = default_grid()
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
        g = default_grid()
        sp = LorentzSpace(2.0, FLAT, g)
        spec = make_optimal_norm_spec(sp, power_phi(g, 0.75))
        rng = np.random.default_rng(8)
        for _ in range(10):
            f = rng.random(g.count)
            h = f + rng.random(g.count)
            assert optimal_norm(spec, SampledFunction(g, f)) <= \
                optimal_norm(spec, SampledFunction(g, h)) * (1 + 1e-12)

    def test_not_embedded(self):
        g = default_grid()
        sp = LorentzSpace(2.0, FLAT, g)
        with pytest.raises(NotEmbedded):
            make_optimal_norm_spec(sp, power_phi(g, 0.3))


class TestAssociatedNorms:
    def setup_method(self):
        self.g = default_grid()
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
        g = default_grid(points=points)
        t = g.points
        phi = power_phi(g, 0.75)
        omega = (np.asarray(phi(t))[None, :]
                 / (1.0 + (t[None, :] / t[:, None]) ** (k / n)))
        rng = np.random.default_rng(100 * points + 10 * k + n)
        gs = [gv for _, gv in sample_family(g)] + [rng.random(points)
                                                   for _ in range(3)]
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
        g = default_grid(points=points)
        t = g.points
        phi = power_phi(g, 0.25)
        omega = (np.asarray(phi(t))[None, :]
                 / (1.0 + (t[None, :] / t[:, None]) ** (k / n)))
        G = np.array([gv for _, gv in sample_family(g)])
        assert len(G) == 50
        eng = AssociateNormEngine(LorentzSpace(2.0, FLAT, g), phi, k, n)
        want = (eng.xi_weights * G) @ omega
        got = eng._psi0(G)
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
        blocks = eng._exp_blocks()
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
        G = np.array([gv for _, gv in sample_family(g)])
        eng = AssociateNormEngine(LorentzSpace(2.0, FLAT, g), phi, k, n)
        want = (eng.xi_weights * G) @ omega
        got = eng._psi0(G)[:, cols]
        assert np.all(got[want == 0] == 0.0)
        pos = want > 0
        assert np.max(np.abs(got[pos] - want[pos]) / want[pos]) <= 1e-13

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("where", [0, 3, 698, 699])
    def test_infinite_entry_gives_infinite_rho0(self, where):
        # exp(-s y) underflows to 0 for large s, so an inf entry must not
        # reach the product, where inf * 0 would be NaN and warn
        g = default_grid(points=700)
        eng = AssociateNormEngine(LorentzSpace(2.0, FLAT, g), power_phi(g, 0.75), 1, 2)
        bad, good = np.ones(700), np.linspace(1.0, 2.0, 700)
        bad[where] = math.inf
        assert eng.rho0(bad) == math.inf
        got = eng.rho0_family([good, bad, good])
        assert got[1] == math.inf
        assert math.isfinite(got[0])
        for value in (got[2], eng.rho0(good)):
            assert abs(value - got[0]) <= 1e-12 * got[0]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_empty_family(self):
        g = default_grid(points=64)
        eng = AssociateNormEngine(LorentzSpace(2.0, FLAT, g), power_phi(g, 0.75), 1, 2)
        assert eng.rho0_family(np.empty((0, 64))).shape == (0,)
        assert eng.rho0_family([]).shape == (0,)

    @pytest.mark.parametrize("length", [63, 65])
    @pytest.mark.parametrize("method", ["rho0", "rho_tilde", "rho1", "rho2",
                                        "rho0_hat", "rho0_family", "rho_tilde_family"])
    def test_wrong_length_rejected(self, method, length):
        g = default_grid(points=64)
        eng = AssociateNormEngine(LorentzSpace(1.0, FLAT, g), power_phi(g, 0.75),
                                  1, 1)
        arg = np.ones((3, length)) if method.endswith("_family") else np.ones(length)
        with pytest.raises(DomainError):
            getattr(eng, method)(arg)

    @pytest.mark.parametrize("shape", [(64,), (2, 3, 64)])
    def test_family_rank_rejected(self, shape):
        g = default_grid(points=64)
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
        g = default_grid(points=2000)
        t = g.points
        sp = LorentzSpace(q, FLAT, g)
        eng = AssociateNormEngine(sp, power_phi(g, alpha, n=n), k, n)
        rows = [gv for _, gv in sample_family(g, count=50)]
        got = eng.rho_tilde_family(rows)
        assert np.array_equal(got, eng.rho_tilde_family(np.array(rows)))
        want = [eng.rho_tilde(gv) for gv in rows]
        assert np.array_equal(got, want)
        assert np.array_equal(got, [_associate_norm_of_cumulative(
            sp, eng.iphi * cumulative_tail(t, gv)) for gv in rows])

    def test_memory_linear_in_grid(self):
        # A dense 4000 x 4000 cone kernel and its ratio temporary take
        # 256 MB.  RSS, not tracemalloc: numpy's internal copy of a strided
        # matmul operand does not show in tracemalloc.  Measured growth:
        # 6.0 MiB with the family product (the weighted family, 1.6 MB,
        # overwritten by the result, the exponential table, at most 3.7 MB
        # for its 117 nodes, and the family's node coefficients), 5.3 MiB
        # when each pass rebuilt the table in a 2 MB buffer, 0.8 MiB with
        # the earlier per-g np.convolve loop.
        code = (
            "import resource, sys\n"
            "from calderon_lab.gridfn import default_grid, sample\n"
            "from calderon_lab.lorentz import LorentzSpace, WeightSpec\n"
            "from calderon_lab.optimal import equivalence_report, sample_family\n"
            "g = default_grid(points=4000)\n"
            "sp = LorentzSpace(2.0, WeightSpec(power_exponent=0.0), g)\n"
            "phi = sample(lambda t: t ** -0.25, g)\n"
            "family = sample_family(g, count=50)\n"
            "unit = 1 if sys.platform == 'darwin' else 1024   # ru_maxrss in KiB\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "rep = equivalence_report(sp, phi, 1, 1, family)\n"
            "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "print(rep['count'], (after - before) * unit)\n")
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + [p for p in [env.get("PYTHONPATH")] if p])
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout.split()
        assert int(out[0]) == 50
        assert int(out[1]) < 64 * 2 ** 20


class TestEquivalence:
    def test_condition_a_family(self):
        g = default_grid()
        sp = LorentzSpace(4.0, FLAT, g)
        phi = power_phi(g, 0.6, n=2)
        rep = equivalence_report(sp, phi, 1, 2, sample_family(g, count=50))
        assert rep["count"] == 50
        assert rep["spread"] < 50.0
        assert rep["min_ratio"] > 0.9

    def test_one_sided_infinite_ratio(self, monkeypatch):
        # rho0 = inf with rho_tilde finite gives a +inf ratio; like the
        # zero ratio of the mirror case, it makes the spread infinite
        g = default_grid()
        sp = LorentzSpace(4.0, FLAT, g)
        phi = power_phi(g, 0.6, n=2)
        real = AssociateNormEngine.rho0_family
        def first_infinite(self, G):
            out = real(self, G)
            out[0] = math.inf
            return out
        monkeypatch.setattr(AssociateNormEngine, "rho0_family", first_infinite)
        family = sample_family(g, count=50)
        rep = equivalence_report(sp, phi, 1, 2, family)
        assert rep["ratios"][family[0][0]] == math.inf
        assert rep["max_ratio"] == math.inf
        assert rep["spread"] == math.inf

    def test_condition_b_family(self):
        g = default_grid()
        sp = LorentzSpace(2.0, FLAT, g)
        phi = power_phi(g, 1.5, n=2)
        rep = equivalence_report(sp, phi, 1, 2, sample_family(g, count=50))
        assert rep["spread"] < 50.0
        assert rep["min_ratio"] > 0.9

    def test_limiting_equal_smoothness(self):
        # alpha = k with a decaying log factor: the aggregate follows
        # W = V^-1 t^(alpha/n) lambda and the equivalence still holds
        g = default_grid()
        sv = SlowlyVaryingSpec(factors=(("log", -2.0),), scale=1.0)
        phi = sample(lambda t: sv(np.minimum(t, 1.0)) * np.ones_like(t), g)
        sp = LorentzSpace(2.0, FLAT, g)
        psi = embedding_function(sp, phi)
        model_w = sv(g.points)     # V^-1 t^(alpha/n) lambda with alpha = n = 1
        kernel_w = np.asarray(phi(g.points)) * 0 + model_w
        assert np.isfinite(psi.values[-1])
        rep = equivalence_report(sp, phi, 1, 1, sample_family(g, count=30))
        assert rep["spread"] < 50.0

    @pytest.mark.parametrize("q,alpha,k,n", [(2.0, 1.5, 1, 2), (1.0, 0.75, 1, 1),
                                             (2.0, 0.5, 1, 1), (4.0, 0.6, 2, 1)])
    def test_report_matches_per_g_loop(self, q, alpha, k, n):
        # the family product against one rho0/rho_tilde evaluation per g;
        # at (1.0, 0.75) and the non-embedded (2.0, 0.5) most or all of the
        # family is infinite under both functionals
        g = default_grid(points=300)
        sp = LorentzSpace(q, FLAT, g)
        phi = power_phi(g, alpha, n=n)
        family = sample_family(g, count=50)
        rep = equivalence_report(sp, phi, k, n, family)
        eng = AssociateNormEngine(sp, phi, k, n)
        count = infinite = 0
        for name, gv in family:
            r0, rt = eng.rho0(gv), eng.rho_tilde(gv)
            got = rep["ratios"][name]
            if math.isinf(r0) and math.isinf(rt):
                infinite += 1
                assert math.isnan(got)
                continue
            want = r0 / rt if rt > 0 else math.nan
            count += math.isfinite(want)
            assert math.isnan(got) == math.isnan(want)
            assert got == want or abs(got - want) <= 1e-12 * abs(want)
        assert rep["count"] == count
        assert rep["both_infinite"] == infinite

    def test_neither_condition_reported(self):
        g = default_grid()
        sp = LorentzSpace(2.0, FLAT, g)
        phi = power_phi(g, 1.0)
        wt, uq = tail_embedding_function(sp, phi, 1, 1)
        ca = check_condition_a(phi, sp.V, 1, 1, g)
        cb = check_condition_b(phi, uq, 1, 1, g)
        assert not ca.holds and not cb.holds
        rep = equivalence_report(sp, phi, 1, 1, sample_family(g, count=20))
        assert "spread" in rep    # still evaluated, never asserted


class TestDiscretization:
    def test_exact_power_levels(self):
        g = default_grid()
        u1 = SampledFunction(g, g.points ** -0.5)
        nu = level_discretization(u1, count=8)
        assert np.max(np.abs(nu - 2.0 ** (-2.0 * np.arange(8)))) < 1e-10
        # U = 1/t, +inf on its first two points: the levels above U(t_2)
        # stop at t_1, where the first finite segment starts
        g = make_log_grid(1e-3, 1.0, 32)
        vals = 1.0 / g.points
        vals[:2] = np.inf
        nu = level_discretization(SampledFunction(g, vals), count=12)
        assert np.allclose(nu[:10], 2.0 ** -np.arange(10.0), rtol=1e-12, atol=0.0)
        assert nu[10] == nu[11] == g.points[1] == 0.0012496091412919868

    def test_ratio_bound_with_witness(self):
        g = default_grid()
        u1 = SampledFunction(g, g.points ** -0.5)
        eps = largest_monotone_exponent(g.points, u1.values)
        nu = level_discretization(u1, count=8)
        assert np.all(nu[:-1] <= 2.0 ** (1.0 / eps) * nu[1:] * (1 + 1e-9))
        assert np.all(np.diff(nu) < 0)

    def test_plateau_returns_rightmost(self):
        g = make_log_grid(1e-6, 1.0, 400)
        vals = np.where(g.points < 1e-3, 16.0, np.where(g.points < 0.25, 2.0, 1.0))
        env = SampledFunction(g, vals)
        nu = level_discretization(env, count=2)
        # level 2 is attained on (1e-3-ish, 0.25): rightmost point wins
        assert abs(nu[1] - 0.25) < 0.25 * (g.ratio - 1.0) * 1.1

    def test_exhausted(self):
        g = make_log_grid(1e-2, 1.0, 64)
        u1 = SampledFunction(g, g.points ** -0.5)
        with pytest.raises(Exhausted):
            level_discretization(u1, count=12)
        # U = t^-1/2 on [2^-8, 1] reaches 2^4 exactly at t_min
        g = make_log_grid(2.0 ** -8, 1.0, 64)
        u1 = SampledFunction(g, g.points ** -0.5)
        assert np.allclose(level_discretization(u1, count=4), 2.0 ** (-2.0 * np.arange(4)))
        with pytest.raises(Exhausted, match="grid floor"):
            level_discretization(u1, count=5)

    def test_two_sided_guards(self):
        g = make_log_grid(0.25, 1.0, 3)
        with pytest.raises(DomainError, match="vanish at T"):
            two_sided_level_discretization(SampledFunction(g, g.points ** -0.5))
        # 10 t_min lies past T, where U_q is not sampled
        with pytest.raises(DomainError, match="10 t_min below T"):
            two_sided_level_discretization(SampledFunction(g, [1.0, 0.5, 0.0]))

    def test_two_sided_levels_against_fine_oracle(self):
        gc = default_grid(points=512)
        gf = default_grid(points=5120)
        spc = LorentzSpace(2.0, FLAT, gc)
        spf = LorentzSpace(2.0, FLAT, gf)
        _, uq_c = tail_embedding_function(spc, power_phi(gc, 1.5, n=2), 1, 2)
        _, uq_f = tail_embedding_function(spf, power_phi(gf, 1.5, n=2), 1, 2)
        ms_c, d_c = two_sided_level_discretization(uq_c, m_minus=5)
        ms_f, d_f = two_sided_level_discretization(uq_f, m_minus=5)
        shared = min(len(d_c), len(d_f))
        for i in range(shared):
            assert abs(math.log(d_c[i] / d_f[i])) <= math.log(gc.ratio) + 1e-9

    def test_two_sided_window_and_ratio(self):
        g = default_grid()
        sp = LorentzSpace(2.0, FLAT, g)
        _, uq = tail_embedding_function(sp, power_phi(g, 1.5, n=2), 1, 2)
        eps = largest_monotone_exponent(g.points, uq.values)
        ms, deltas = two_sided_level_discretization(uq, m_minus=5)
        assert ms[0] == -5
        d0 = deltas[list(ms).index(0)]
        assert 0.0 < d0 < 1.0
        assert np.all(np.diff(deltas) < 0)
        assert np.all(deltas[:-1] <= deltas[1:] * 2.0 ** (1.0 / eps) * (1 + 1e-9))
        # delta_m approaches T from below as m -> -infinity
        tail5 = deltas[:5]
        assert np.all(np.diff(tail5) < 0) and tail5[0] > 0.5

    def test_doubling_shifts_index(self):
        g = default_grid()
        sp = LorentzSpace(2.0, FLAT, g)
        _, uq = tail_embedding_function(sp, power_phi(g, 1.5, n=2), 1, 2)
        ms1, d1 = two_sided_level_discretization(uq, m_minus=4)
        uq2 = SampledFunction(g, 2.0 * uq.values)
        ms2, d2 = two_sided_level_discretization(uq2, m_minus=4)
        # levels of 2 U at index m+1 match levels of U at index m
        lookup = dict(zip(ms2, d2))
        for m, d in zip(ms1, d1):
            if m + 1 in lookup:
                assert np.isclose(lookup[m + 1], d, rtol=1e-6)


class TestHardy:
    def test_flat_weight_value_and_bounds(self):
        # flat weight, q = 2, delta = 0: the product is ((1/t - 1) t)^(1/2)
        # = (1 - t)^(1/2), whose supremum over (0, 1) is 1, attained in
        # the limit t -> 0
        sp = LorentzSpace(2.0, FLAT, default_grid())
        h = hardy_constants(sp, delta=0.0)
        assert abs(h["B_delta"] - 1.0) < 1e-4
        assert h["epsilon"] == 1.0
        assert h["B_delta"] <= h["bound"] * (1 + 1e-9)
        assert abs(h["bound"] - 1.0) < 1e-12
        assert h["c3_bound"] <= 2.0 * (1 + 1e-9)
        assert h["within_bound"]

    def test_positive_delta(self):
        sp = LorentzSpace(2.0, FLAT, default_grid())
        h = hardy_constants(sp, delta=0.2)
        assert h["within_bound"]
        assert h["B_delta"] <= (2.0 / 2.0) ** 0.5 / (1.0 - 0.4) + 1e-9

    def test_delta_above_eps_over_q(self):
        sp = LorentzSpace(2.0, FLAT, default_grid())
        with pytest.raises(Exception):
            hardy_constants(sp, delta=0.6)


class TestSampleFamily:
    def test_reproducible(self):
        g = default_grid()
        a = sample_family(g, count=50)
        b = sample_family(g, count=50)
        assert [n for n, _ in a] == [n for n, _ in b]
        for (_, x), (_, y) in zip(a, b):
            assert np.array_equal(x, y)

    def test_count_and_nonnegative(self):
        g = default_grid()
        fam = sample_family(g, count=50)
        assert len(fam) == 50
        for _, gv in fam:
            assert np.all(gv >= 0)
