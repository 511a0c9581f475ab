"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line with the key measured values.  Run with `pytest -s` to see the
lines as they complete.  Desk scale throughout: n small, T = 1,
512-point grids.
"""

import json
import math

import numpy as np

from calderon_lab.cli import parse_config_text, run
from calderon_lab.gridfn import (
    LogGrid,
    make_log_grid,
    sample,
)
from calderon_lab.kernels import (
    BesselMcDonald,
    KernelSpec,
    PowerSlowlyVarying,
    SlowlyVaryingSpec,
    auto_z1,
    bessel_k,
)
from calderon_lab.lorentz import (
    LorentzSpace,
    WeightSpec,
    embedding_criterion,
    embedding_function,
)
from calderon_lab.optimal import (
    AssociateNormEngine,
    check_condition_a,
    check_condition_b,
    equivalence_report,
    hardy_constants,
    sample_family,
)
from calderon_lab.potentials import (
    bump_and_staircase_family,
    calderon_norms,
    convolver,
    modulus_curves,
    modulus_of_smoothness,
    power_modulus_norm,
    sample_field,
    upper_cone_check,
)
from calderon_lab.optimal import make_optimal_norm_spec
from calderon_lab.rearrange import decreasing_rearrangement

FLAT = WeightSpec(power_exponent=0.0)


def report(number, ok, message):
    print(f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'} - {message}")
    assert ok, f"criterion {number}: {message}"


def test_criterion_01_rearrangement_oracle():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        size = int(rng.integers(10, 1001))
        vals = rng.normal(scale=rng.uniform(0.5, 5.0), size=size)
        measure = float(rng.uniform(0.2, 9.0))
        # the step values, sampled at the cell midpoints
        cell = measure / size
        mids = (np.arange(size) + 0.5) * cell
        steps = decreasing_rearrangement(
            vals, measure, LogGrid(mids[0], mids[-1], size, mids)).values
        oracle = np.sort(np.abs(vals))[::-1]
        assert np.array_equal(steps, oracle)
        levels = rng.uniform(0.0, float(oracle[0]) * 1.05, size=20)
        for s in levels:
            gap = abs(np.count_nonzero(np.abs(vals) > s) * cell
                      - np.count_nonzero(steps > s) * cell)
            worst = max(worst, gap)
    report(1, worst <= 1e-12,
           f"100 samples match the sort oracle exactly; equimeasurability gap {worst:.1e}")


def test_criterion_03_bessel_kernel():
    rhos = np.linspace(0.1, 10.0, 20)
    worst = 0.0
    for rho in rhos:
        exact = math.sqrt(math.pi / (2 * rho)) * math.exp(-rho)
        worst = max(worst, abs(bessel_k(0.5, float(rho)) - exact) / exact)
    kern = KernelSpec(BesselMcDonald(nu=0.125), n=1)
    y1 = auto_z1(kern)
    ys = np.geomspace(1e-6, y1, 128)
    ratio = kern.profile(ys) * ys ** 0.25
    rhat = ratio / ratio[0]
    in_band = bool(np.all((rhat >= 0.25) & (rhat <= 4.0)))
    report(3, worst < 1e-8 and in_band,
           f"K_1/2 matches the closed form to {worst:.1e}; small-argument ratio "
           f"stays in [1/4, 4] on (0, {y1:.3f}]")


def test_criterion_04_embedding_classifier():
    g = make_log_grid(1e-8, 1.0, 512)
    results = {}
    for q, alphas, expected in [
        (2.0, (0.6, 0.75, 0.9), True),
        (2.0, (0.3, 0.5), False),
        (1.0, (0.3, 0.5, 0.6, 0.75, 0.9), False),
    ]:
        sp = LorentzSpace(q, FLAT, g)
        for alpha in alphas:
            # phi(tau) = (tau/2)^(alpha-1) on (0, 1]
            kernel = KernelSpec(PowerSlowlyVarying(alpha=alpha, sv=SlowlyVaryingSpec(),
                                                   z1=1.0), n=1)
            results[(q, alpha)] = embedding_criterion(sp, kernel)["embeds"] is expected
    report(4, all(results.values()),
           "q=2 embeds exactly for alpha in {0.6, 0.75, 0.9}; q=1 never embeds "
           "below alpha = 1 (k = 2 configuration)")


def test_criterion_05_aggregate_closed_form():
    alpha, q = 0.75, 2.0
    g = make_log_grid(1e-8, 1.0, 512)
    sp = LorentzSpace(q, FLAT, g)
    phi = sample(lambda t: t ** (alpha - 1.0), g)
    psi = embedding_function(sp, phi)
    c = (1.0 / alpha) * ((alpha - 1.0) * 2.0 + 1.0) ** -0.5
    expected = c * g.points ** (alpha - 0.5)
    err = float(np.max(np.abs(psi.values - expected) / expected))
    # the derived quadrature oracle fixes the exponent at alpha - 1/q;
    # a power-only reading of the aggregate would give alpha - 1 instead,
    # and the toolkit follows the integral (discrepancy recorded, not
    # resolved)
    report(5, err < 1e-5,
           f"aggregate matches c*t^(alpha-1/q) with c={c:.6f} to {err:.1e} "
           f"(exponent alpha-1/q = {alpha - 0.5}, not alpha-1)")


def test_criterion_06_condition_dichotomy():
    outcomes = {}
    d_growth = []
    # refinement pushes the grid floor down; at alpha = k the supremum
    # grows without bound as the floor descends
    for span in (1e-4, 1e-6, 1e-8):
        g = make_log_grid(span, 1.0, 512)
        sp = LorentzSpace(2.0, FLAT, g)
        for alpha in (0.5, 1.0, 1.5):
            phi = sample(lambda t, a=alpha: t ** (a - 1.0), g)
            eng = AssociateNormEngine(sp, phi, 1, 1)
            ca, cb = check_condition_a(eng), check_condition_b(eng)
            if span == 1e-8:
                outcomes[alpha] = (ca.holds, cb.holds)
            if alpha == 1.0:
                d_growth.append((ca.d_grid, cb.d_grid))
    dichotomy = (outcomes[0.5] == (True, False)
                 and outcomes[1.0] == (False, False)
                 and outcomes[1.5] == (False, True))
    a_diverges = (d_growth[0][0] * 1.3 < d_growth[1][0]
                  and d_growth[1][0] * 1.2 < d_growth[2][0])
    b_diverges = all(not math.isfinite(d[1]) for d in d_growth)
    report(6, dichotomy and a_diverges and b_diverges,
           f"A holds iff alpha<k, B holds iff alpha>k; at alpha=k the grid "
           f"suprema grow {d_growth[0][0]:.1f} -> {d_growth[1][0]:.1f} -> "
           f"{d_growth[2][0]:.1f} (A), diverge immediately (B)")


def test_criterion_07_hardy_constants():
    sp = LorentzSpace(2.0, FLAT, make_log_grid(1e-8, 1.0, 512))
    h = hardy_constants(sp)
    # closed-form maximization oracle: the product is
    # ((1/t - 1) t)^(1/2) = (1 - t)^(1/2), supremum 1 as t -> 0+.
    # (The criterion sheet quotes 0.5 from maximizing t - t^2, which is
    # not the value of the displayed product; the oracle computed from
    # the stated integrals gives 1, sitting exactly on the theoretical
    # bound eps^-1 (q'-1)^(-1/q') = 1.)
    oracle = 1.0
    ok = (abs(h["B0"] - oracle) <= 1e-4
          and h["B0"] <= 1.0 + 1e-9
          and h["c3_bound"] <= 2.0 + 1e-9)
    report(7, ok,
           f"B0 = {h['B0']:.6f} matches the closed-form supremum 1 "
           f"(<= bound 1); c3 bound {h['c3_bound']:.4f} <= q/eps = 2")


def test_criterion_08_equivalence_families():
    # condition (A) run: (n, k, alpha) = (2, 1, 0.6); the base exponent is
    # raised to q = 4 so the aggregate is finite (at q = 2 the configuration
    # is not embedded and both functionals are identically infinite);
    # condition (B) run: (n, k, alpha, q) = (2, 1, 1.5, 2) as stated.
    stats = {}
    for label, (n, k, alpha, q) in [("A", (2, 1, 0.6, 4.0)),
                                    ("B", (2, 1, 1.5, 2.0))]:
        spreads = {}
        for pts in (256, 512):
            g = make_log_grid(1e-8, 1.0, pts)
            sp = LorentzSpace(q, FLAT, g)
            phi = sample(lambda t, a=alpha, nn=n: t ** (a / nn - 1.0), g)
            eng = AssociateNormEngine(sp, phi, k, n)
            cond = check_condition_a(eng) if label == "A" else check_condition_b(eng)
            assert cond.holds
            family = sample_family(g)
            rep = equivalence_report(eng)
            r0, rt = eng.rho0_family(family), eng.rho_tilde_family(family)
            # every row gives a ratio
            rep["all_rows"] = bool(np.all(np.isfinite(r0) & np.isfinite(rt) & (rt > 0)))
            spreads[pts] = rep
        stats[label] = spreads
    ok = True
    msgs = []
    for label, spreads in stats.items():
        fine = spreads[512]
        coarse = spreads[256]
        ok &= fine["all_rows"]
        ok &= fine["spread"] < 50.0
        ok &= fine["min_ratio"] > 1.0 - 0.01
        drift = abs(fine["spread"] - coarse["spread"]) / coarse["spread"]
        ok &= drift < 0.25
        msgs.append(f"{label}: C={fine['spread']:.3f} "
                    f"(ratios [{fine['min_ratio']:.3f},{fine['max_ratio']:.3f}], "
                    f"drift {drift:.1%})")
    report(8, ok, "; ".join(msgs))


def test_criterion_10_moduli_of_smoothness():
    u = sample_field(np.sin, 8.0, 4096)
    worst = max(abs(modulus_of_smoothness(u, 1, float(t)) - 2 * math.sin(t / 2))
                for t in np.linspace(0.15, math.pi - 1e-6, 15))
    rng = np.random.default_rng(0x5EED)
    dil_ok = True
    for trial in range(10):
        coef = rng.normal(size=3)
        field = sample_field(lambda x: coef[0] * np.sin(2 * x)
                             + coef[1] * np.cos(5 * x) + coef[2] * np.sin(11 * x),
                             4.0, 1024)
        k = 1 + trial % 2
        for lam in (0.5, 2.0, 3.0):
            lhs = modulus_of_smoothness(field, k, lam * 0.2)
            rhs = (1 + lam) ** k * modulus_of_smoothness(field, k, 0.2)
            dil_ok &= lhs <= rhs * (1 + 1e-9)
    line = sample_field(lambda x: 7 - 2 * x, 2.0, 65)
    annihilation = max(modulus_of_smoothness(line, k, t) / line.sup_norm()
                       for k in (2, 3) for t in (0.01, 0.125, 1.0))
    report(10, worst < 1e-3 and dil_ok and annihilation <= 1e-12,
           f"omega_1(sin) off by {worst:.1e} (< 1e-3); dilation bound holds; "
           f"omega_2, omega_3 of a line {annihilation:.1e} of its sup")


def test_criterion_11_upper_cone_estimate():
    g = make_log_grid(1e-8, 1.0, 512)
    sp = LorentzSpace(2.0, FLAT, g)
    kern = KernelSpec(BesselMcDonald(nu=0.125), n=1)   # alpha = 0.75
    tg = make_log_grid(1e-4, 1.0, 48)
    phi = sample(kern.measure_profile_fn(), g)
    c1 = {}
    for res in (256, 512):
        fam = bump_and_staircase_family(count=10, resolution=res)
        c1[res] = max(upper_cone_check(sp, kern, phi, 1, fam, t_grid=tg).values())
    drift = abs(c1[512] - c1[256]) / c1[256]
    ok = math.isfinite(c1[512]) and drift < 0.20
    report(11, ok,
           f"empirical upper constant {c1[256]:.4f} (res 256) -> {c1[512]:.4f} "
           f"(res 512), drift {drift:.1%} < 20%")


def test_criterion_12_besov_specialization():
    g = make_log_grid(1e-8, 1.0, 512)
    sp = LorentzSpace(2.0, FLAT, g)
    kern = KernelSpec(BesselMcDonald(nu=0.125), n=1)
    phi = sample(kern.measure_profile_fn(), g)
    spec = make_optimal_norm_spec(sp, phi)
    tg = make_log_grid(1e-6, 1.0, 64)
    fam = bump_and_staircase_family(count=10, resolution=256)
    conv = convolver(kern, fam[0][1])
    us = [conv(f) for _, f in fam]
    oms = modulus_curves(us, 1, tg)
    factors = []
    for u, om, opt in zip(us, oms, calderon_norms(us, oms, spec, 1, 1)):
        direct = u.sup_norm() + power_modulus_norm(om, 0.75 - 0.5, 2.0)
        factors.append(max(opt / direct, direct / opt))
    worst = max(factors)
    report(12, worst <= 8.0,
           f"optimal and direct smoothness norms agree within factor "
           f"{worst:.3f} <= 8 over 10 fields")


def test_criterion_13_cli_determinism(tmp_path):
    text = ("scenario = equivalence_sweep\nspace.q = 2\nn = 2\nk = 1\n"
            "kernel.alpha = 1.5\nseed = 99\ngrid.points = 256\n")
    run(parse_config_text(text), out_dir=tmp_path / "one")
    run(parse_config_text(text), out_dir=tmp_path / "two")

    def normalized(p):
        doc = json.loads((p / "report.json").read_text())
        doc.pop("wall_time_s")
        return json.dumps(doc, sort_keys=True)

    same_report = normalized(tmp_path / "one") == normalized(tmp_path / "two")
    same_series = ((tmp_path / "one" / "series" / "uq.csv").read_bytes()
                   == (tmp_path / "two" / "series" / "uq.csv").read_bytes())
    report(13, same_report and same_series,
           "two runs with the same seed produce byte-identical reports "
           "modulo the wall-time field")
