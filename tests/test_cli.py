import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from calderon_lab import cli, gridfn, lorentz, optimal, potentials
from calderon_lab.cli import (
    main,
    parse_config_text,
    run,
    selftest,
    sweep,
)
from calderon_lab.errors import ConfigInvalid, Inconclusive
from calderon_lab.optimal import AssociateNormEngine, equivalence_report
from test_golden import _mismatches

DATA = Path(__file__).resolve().parent / "data"
FAST = "grid.points = 256\n"


def strip_wall_time(text: str) -> str:
    return "\n".join(line for line in text.splitlines()
                     if '"wall_time_s"' not in line)


class TestConfigParsing:
    def test_minimal(self):
        cfg = parse_config_text("scenario = embedding_check\n")
        assert cfg.scenario == "embedding_check"
        assert cfg.q == 2.0

    def test_comments_and_spacing(self):
        cfg = parse_config_text(
            "# a comment\nscenario=embedding_check   # trailing\n\n  k =  2 \n")
        assert cfg.k == 2

    # kernel.nu and out are not keys: alpha gives the Bessel order, and
    # --out (or run's out_dir) the output directory
    @pytest.mark.parametrize("key", ["bogus.key", "kernel.nu", "out"])
    def test_unknown_key(self, key):
        with pytest.raises(ConfigInvalid, match="unknown key"):
            parse_config_text(f"scenario = embedding_check\n{key} = 1\n")

    def test_repeated_key(self):
        with pytest.raises(ConfigInvalid,
                           match=r"^line 4: space\.q is already set on line 2$"):
            parse_config_text("scenario = embedding_check\nspace.q = 2\nk = 1\nspace.q = 4\n")

    def test_line_without_equals(self):
        with pytest.raises(ConfigInvalid, match="line 2: expected 'key = value'"):
            parse_config_text("scenario = embedding_check\nk 2\n")

    def test_bad_value(self):
        with pytest.raises(ConfigInvalid):
            parse_config_text("scenario = embedding_check\nk = two\n")

    def test_missing_scenario(self):
        with pytest.raises(ConfigInvalid):
            parse_config_text("k = 1\n")

    def test_range_validation(self):
        with pytest.raises(ConfigInvalid):
            parse_config_text("scenario = embedding_check\nspace.q = 0.5\n").validate()
        with pytest.raises(ConfigInvalid):
            parse_config_text("scenario = embedding_check\nkernel.alpha = 1.5\n").validate()
        with pytest.raises(ConfigInvalid):
            parse_config_text("scenario = nonsense\n").validate()


class TestConfigContract:
    # parse_config_text checks syntax only; validate, which run calls
    # first, is the one place that rejects a config
    BAD_Q = "scenario = embedding_check\nspace.q = 0.5\n"

    def test_parse_accepts_validate_rejects(self):
        cfg = parse_config_text(self.BAD_Q)
        assert cfg.q == 0.5
        with pytest.raises(ConfigInvalid, match=r"^space\.q: must be >= 1$"):
            cfg.validate()

    def test_main_run_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(self.BAD_Q)
        assert main(["run", str(path)]) == 2
        assert capsys.readouterr().err == "config error: space.q: must be >= 1\n"

    def test_override_validated_with_file(self, tmp_path, capsys):
        # grid.points = 8 is out of range in the file
        path = tmp_path / "small.cfg"
        path.write_text("scenario = embedding_check\nkernel.alpha = 0.75\n"
                        "grid.points = 8\n")
        assert main(["run", str(path)]) == 2
        assert capsys.readouterr().err == \
            "config error: grid.points: must be at least 16\n"


class TestValidationBounds:
    # each of these used to pass validation and fail inside run
    @pytest.mark.parametrize("scenario, key, bad, good", [
        ("besov_case", "kernel.z1", "0", "1e-3"),
        ("covering_sample", "kernel.z1", "-1", "0.5"),
        ("besov_case", "field.resolution", "15", "16"),
        ("covering_sample", "field.resolution", "15", "16"),
        ("equivalence_sweep", "seed", "-1", "0"),
        ("besov_case", "seed", "-1", "0"),
        ("embedding_check", "space.q", "inf", "2"),
        ("embedding_check", "space.p", "nan", "4"),
        ("lorentz_karamata_case", "space.b_log", "inf", "0.75"),
        ("embedding_check", "kernel.alpha", "nan", "0.5"),
        ("embedding_check", "kernel.z1", "inf", "1"),
        ("embedding_check", "kernel.lambda_log", "nan", "0.5"),
        ("embedding_check", "T", "nan", "1"),
        ("embedding_check", "grid.tmin", "-inf", "1e-6"),
        ("embedding_check", "space.p", "1", "4"),
        ("embedding_check", "kernel.variant", "gauss", "bessel_mcdonald"),
        ("embedding_check", "k", "0", "1"),
        ("embedding_check", "n", "4", "1"),
        ("embedding_check", "n", "0", "1"),
        ("embedding_check", "T", "0", "1"),
        ("embedding_check", "grid.tmin", "1", "1e-6"),
        # the modulus reads k*T within the field box [-3, 3]
        ("besov_case", "T", "6.01", "6"),
        ("covering_sample", "T", "6.01", "6"),
    ])
    def test_both_sides(self, tmp_path, scenario, key, bad, good):
        base = f"scenario = {scenario}\n{FAST}"
        with pytest.raises(ConfigInvalid, match=f"^{re.escape(key)}: "):
            parse_config_text(base + f"{key} = {bad}\n").validate()
        cfg = parse_config_text(base + f"{key} = {good}\n")
        cfg.validate()
        assert cfg.scenario == scenario
        path = tmp_path / "bad.cfg"
        path.write_text(base + f"{key} = {bad}\n")
        assert main(["run", str(path)]) == 2

    @pytest.mark.parametrize("k, bad, good", [(2, "3.01", "3"), (3, "2.01", "2")])
    def test_field_span_in_the_box(self, k, bad, good):
        # the bound is on k*T: at most 6, the width of the field box [-3, 3]
        base = f"scenario = besov_case\nk = {k}\n{FAST}"
        with pytest.raises(ConfigInvalid, match="^T: "):
            parse_config_text(base + f"T = {bad}\n").validate()
        parse_config_text(base + f"T = {good}\n").validate()

    @pytest.mark.parametrize("variant", ["power", "bessel_mcdonald"])
    def test_kernel_profile_underflow(self, variant):
        # phi is nonincreasing, so 0 at the grid floor is 0 on every grid:
        # T = 1e12 puts the floor at 1e4, z = 5e3, where phi underflows
        base = f"scenario = equivalence_sweep\nkernel.variant = {variant}\n"
        for T in ("1e12", "1e20"):
            with pytest.raises(ConfigInvalid, match=r"^T: .* kernel profile underflows to 0 "):
                parse_config_text(base + f"T = {T}\n").validate()
        for T in ("1e4", "1e11"):
            parse_config_text(base + f"T = {T}\n").validate()

    def test_kernel_profile_underflow_moves_with_z1(self):
        # z = 5e3 at the floor lies inside the power head (0, z1] for z1 = 1e4
        parse_config_text("scenario = equivalence_sweep\nkernel.z1 = 1e4\nT = 1e12\n").validate()

    def test_field_resolution_ignored_without_fields(self):
        cfg = parse_config_text("scenario = embedding_check\nfield.resolution = 8\n")
        assert cfg.field_resolution == 8


class TestClosedFormRejection:
    # Phi(z) = z^(alpha-n) (1 + log(z1/z))^lambda is nonincreasing on
    # (0, z*] exactly when -lambda <= (n - alpha)(1 + log(z1/z*)); the grid
    # scenarios sample up to z* = min(z1, (T/V_n)^(1/n)), the field
    # scenarios are held to z* = z1
    @staticmethod
    def zstar(n, fields=False):
        ball = {1: 2.0, 2: math.pi, 3: 4.0 * math.pi / 3.0}[n]
        return 1.0 if fields else min(1.0, (1.0 / ball) ** (1.0 / n))

    def threshold(self, n, alpha, fields=False):
        return -(n - alpha) * (1.0 + math.log(1.0 / self.zstar(n, fields)))

    @staticmethod
    def rises_below(cfg, z):
        kernel = cli._build_kernel(cfg)
        return kernel.profile(z) > kernel.profile(z * (1.0 - 1e-4))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_lambda_both_sides_grid(self, n):
        alpha = 0.75 * n
        lam = self.threshold(n, alpha)
        base = (f"scenario = embedding_check\nn = {n}\nkernel.alpha = {alpha}\n"
                + FAST)
        good = parse_config_text(base + f"kernel.lambda_log = {0.99 * lam!r}\n")
        assert not self.rises_below(good, self.zstar(n))
        assert run(good).error is None
        bad = parse_config_text(base + f"kernel.lambda_log = {1.01 * lam!r}\n")
        assert self.rises_below(bad, self.zstar(n))
        with pytest.raises(ConfigInvalid, match=r"^kernel\.lambda_log: "):
            run(bad)

    def test_lambda_both_sides_fields(self):
        lam = self.threshold(1, 0.75, fields=True)
        zstar = self.zstar(1, fields=True)
        base = ("scenario = besov_case\nkernel.alpha = 0.75\n"
                "field.resolution = 128\n" + FAST)
        good = parse_config_text(base + f"kernel.lambda_log = {0.99 * lam!r}\n")
        assert not self.rises_below(good, zstar)
        assert run(good).error is None
        bad = parse_config_text(base + f"kernel.lambda_log = {1.01 * lam!r}\n")
        assert self.rises_below(bad, zstar)
        with pytest.raises(ConfigInvalid, match=r"^kernel\.lambda_log: "):
            run(bad)

    @pytest.mark.parametrize("scenario", ["besov_case", "covering_sample"])
    def test_fields_one_dimensional(self, scenario, tmp_path):
        text = f"scenario = {scenario}\nn = 2\nkernel.alpha = 1.5\n"
        with pytest.raises(ConfigInvalid, match=r"^n: "):
            run(parse_config_text(text))
        path = tmp_path / "c.cfg"
        path.write_text(text)
        assert main(["run", str(path)]) == 2

    def test_lorentz_karamata_needs_log_weight(self):
        cfg = parse_config_text("scenario = lorentz_karamata_case\n")
        with pytest.raises(ConfigInvalid, match=r"^space\.b_log: "):
            cfg.validate()


class TestRun:
    def test_embedding_true(self):
        cfg = parse_config_text(
            "scenario = embedding_check\nspace.q = 2\nkernel.alpha = 0.75\n" + FAST)
        rec = run(cfg)
        assert rec.passed
        assert rec.scalars["embeds"] is True

    def test_embedding_false_q1(self):
        cfg = parse_config_text(
            "scenario = embedding_check\nspace.q = 1\nkernel.alpha = 0.6\n" + FAST)
        rec = run(cfg)
        assert rec.scalars["embeds"] is False

    def test_error_wrapped_not_raised(self):
        # a non-embedded optimal-norm request records the failure
        cfg = parse_config_text(
            "scenario = optimal_norm\nspace.q = 2\nkernel.alpha = 0.3\n" + FAST)
        rec = run(cfg)
        assert not rec.passed
        assert "NotEmbedded" in rec.error

    def test_determinism(self, tmp_path):
        text = ("scenario = equivalence_sweep\nspace.q = 2\nn = 2\nk = 1\n"
                "kernel.alpha = 1.5\nseed = 7\n" + FAST)
        r1 = run(parse_config_text(text), out_dir=tmp_path / "a")
        r2 = run(parse_config_text(text), out_dir=tmp_path / "b")
        a = strip_wall_time((tmp_path / "a" / "report.json").read_text())
        b = strip_wall_time((tmp_path / "b" / "report.json").read_text())
        assert a == b
        assert (tmp_path / "a" / "series" / "uq.csv").read_text() \
            == (tmp_path / "b" / "series" / "uq.csv").read_text()

    def test_series_files_sorted(self, tmp_path):
        cfg = parse_config_text(
            "scenario = embedding_check\nkernel.alpha = 0.75\n" + FAST)
        run(cfg, out_dir=tmp_path)
        lines = (tmp_path / "series" / "psi.csv").read_text().splitlines()
        assert lines[0] == "t,value"
        ts = [float(l.split(",")[0]) for l in lines[1:]]
        assert all(b > a for a, b in zip(ts, ts[1:]))
        dat = (tmp_path / "series" / "psi.dat").read_text().splitlines()
        assert len(dat) == len(ts)
        assert len(dat[0].split()) == 2


class TestSweep:
    def test_empty_raises(self):
        with pytest.raises(ConfigInvalid):
            sweep([])

    def test_identical_configs_identical_rows(self, tmp_path):
        text = "scenario = embedding_check\nkernel.alpha = 0.75\n" + FAST
        cfgs = [parse_config_text(text) for _ in range(3)]
        recs = sweep(cfgs, out_dir=tmp_path)
        rows = (tmp_path / "summary.csv").read_text().splitlines()[1:]
        stripped = [",".join(r.split(",")[1:]) for r in rows]
        assert stripped[0] == stripped[1] == stripped[2]

    def test_failure_isolated(self):
        good = parse_config_text(
            "scenario = embedding_check\nkernel.alpha = 0.75\n" + FAST)
        bad = parse_config_text(
            "scenario = lorentz_karamata_case\nkernel.alpha = 0.75\n" + FAST)
        recs = sweep([bad, good])
        assert recs[0].error is not None
        assert recs[1].passed

    def test_config_error_reported_per_item(self, tmp_path):
        # a ConfigInvalid raised inside run still gets its own report.json
        good = parse_config_text(
            "scenario = embedding_check\nkernel.alpha = 0.75\n" + FAST)
        bad = parse_config_text(
            "scenario = lorentz_karamata_case\nkernel.alpha = 0.75\n" + FAST)
        sweep([bad, good], out_dir=tmp_path)
        docs = [json.loads((tmp_path / f"item_{i:03d}" / "report.json").read_text())
                for i in range(2)]
        assert docs[0]["error"].startswith("ConfigInvalid: space.b_log: ")
        assert not docs[0]["passed"]
        assert docs[1]["passed"]
        row = (tmp_path / "summary.csv").read_text().splitlines()[1]
        assert row.startswith("item_000,lorentz_karamata_case,False,ConfigInvalid: space.b_log: ")

    def test_kernel_profile_underflow_is_an_item(self):
        # it used to pass with NaN ratios
        bad = parse_config_text("scenario = equivalence_sweep\nT = 1e12\n")
        good = parse_config_text("scenario = embedding_check\nkernel.alpha = 0.75\n" + FAST)
        recs = sweep([bad, good])
        assert recs[0].error.startswith("ConfigInvalid: T: 1e+12 puts the grid floor 10000 ")
        assert recs[1].passed

    def test_condition_flips_across_k(self):
        # alpha sweep over the dominance threshold: the condition column
        # flips from A to B as alpha crosses k
        texts = [
            "scenario = equivalence_sweep\nspace.q = 4\nn = 2\nk = 1\n"
            "kernel.alpha = 0.6\n" + FAST,
            "scenario = equivalence_sweep\nspace.q = 4\nn = 2\nk = 1\n"
            "kernel.alpha = 1.3\n" + FAST,
        ]
        recs = sweep([parse_config_text(t) for t in texts])
        assert recs[0].scalars["condition"] == "A"
        assert recs[1].scalars["condition"] == "B"


class TestScenarios:
    def test_fitted_head_log_growth_not_nonconvergent(self):
        # lattice item whose first-span head is the fitted model with
        # p = -0.977: finite, so the criterion may stay undecided but must
        # not call the head divergent
        rec = run(parse_config_text((DATA / "fitted_head_log_growth.cfg").read_text()))
        assert rec.error is None or rec.error.startswith("Inconclusive: "), rec.error
        if rec.error is None:
            assert rec.scalars["embeds"]

    @pytest.mark.parametrize("scenario", ["embedding_check", "lorentz_karamata_case"])
    def test_criterion_value_0_is_inconclusive(self, scenario):
        # at T = 1e12 phi underflows to 0 on all three criterion grids; the
        # growth ratios used to divide by zero.  validate rejects the config,
        # so the criterion reads the space and kernel the scenario builds
        cfg = parse_config_text(f"scenario = {scenario}\nspace.p = 2\n"
                                "space.b_log = 0.75\nkernel.alpha = 0.5\nT = 1e12\n" + FAST)
        with pytest.raises(Inconclusive) as exc:
            lorentz.embedding_criterion(cli._space(cfg), cli._build_kernel(cfg))
        assert str(exc.value) == "refinement value 0: values [0.0, 0.0, 0.0]"

    def test_optimal_norm(self):
        rec = run(parse_config_text(
            "scenario = optimal_norm\nkernel.alpha = 0.75\n" + FAST))
        assert rec.passed
        assert rec.scalars["case"] == "weighted"
        assert 0.0 < rec.scalars["T1"] < 1.0

    def test_envelope(self):
        rec = run(parse_config_text(
            "scenario = envelope\nkernel.alpha = 0.75\n" + FAST))
        assert rec.passed
        assert abs(rec.scalars["small_t_slope"] - 0.25) < 0.05

    def test_envelope_slope_window_scales_with_T(self):
        # a pure power kernel and a flat weight: the envelope is the same
        # curve in t/T, so the small-t slope does not depend on T
        def slope(T):
            rec = run(parse_config_text(
                f"scenario = envelope\nkernel.alpha = 0.75\nT = {T}\n" + FAST))
            assert rec.error is None
            return rec.scalars["small_t_slope"]
        assert slope(1e-3) == pytest.approx(slope(1.0), rel=1e-12, abs=0.0)

    @pytest.mark.xfail(strict=True,
                       reason="ROADMAP item 4: fitted q = 1 boundedness verdict")
    def test_envelope_q1_borderline_finite(self):
        # q = 1, p = 2, alpha = 1/2: the fitted boundedness verdict calls
        # V^-1 c divergent at 7 of the 48 t values, between finite
        # neighbours near 1.41, so small_t_slope is NaN and both checks fail
        rec = run(parse_config_text(
            "scenario = envelope\nspace.q = 1\nspace.p = 2\nkernel.alpha = 0.5\n"
            "k = 1\nn = 1\n"))
        vals = rec.series["envelope"][1]
        assert len(vals) == 48
        assert np.all(np.isfinite(vals))

    def test_envelope_infinite_head_fails_without_warning(self):
        # the same config: its +inf values make NaN differences, which
        # fails nondecreasing the same way whether or not RuntimeWarnings
        # are errors
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rec = run(parse_config_text(
                "scenario = envelope\nspace.q = 1\nspace.p = 2\nkernel.alpha = 0.5\n"
                "k = 1\nn = 1\n"))
        assert rec.error is None
        assert np.any(np.isinf(rec.series["envelope"][1]))
        assert {name: a["passed"] for name, a in rec.assertions.items()} == \
            {"nondecreasing": False, "endpoint_factor_two": False}

    def test_equivalence_neither_condition(self):
        rec = run(parse_config_text(
            "scenario = equivalence_sweep\nkernel.alpha = 0.999\nk = 1\n" + FAST))
        assert rec.scalars["condition"] == "neither"
        assert rec.scalars.get("equivalence_unverified") is True
        assert rec.passed    # recorded, never asserted

    def test_lorentz_karamata(self):
        rec = run(parse_config_text(
            "scenario = lorentz_karamata_case\nspace.q = 2\nspace.p = 2\n"
            "space.b_log = 0.75\nkernel.alpha = 0.5\n" + FAST))
        assert rec.passed
        assert rec.scalars["embeds"] is True
        assert rec.scalars["borderline_alpha"] is True

    def test_covering_sample(self):
        rec = run(parse_config_text(
            "scenario = covering_sample\nkernel.variant = bessel_mcdonald\n"
            "kernel.alpha = 0.75\nfield.resolution = 128\n" + FAST))
        assert rec.passed
        assert math.isfinite(rec.scalars["empirical_c1"])
        assert rec.scalars["delta1"] > 0

    @pytest.mark.xfail(strict=True,
                       reason="ROADMAP item 4: fitted nontriviality gate")
    def test_besov_nontriviality_near_critical_alpha(self):
        # q = 2, p = 1000, alpha = 0.995: t^(k/n)/Psi decays like
        # t^(k - alpha + 1/p) = t^0.006, and int t^0.012 dt/t is finite,
        # but the gate asks for a fitted exponent above 0.01 and calls the
        # lattice trivial (alpha = 0.99 passes it)
        rec = run(parse_config_text(
            "scenario = besov_case\nspace.q = 2\nspace.p = 1000\n"
            "kernel.alpha = 0.995\nk = 1\nn = 1\n"))
        assert rec.error is None

    @pytest.mark.xfail(strict=True,
                       reason="ROADMAP item 10: the outer test grid runs past the tail's underflow")
    def test_covering_sample_power_large_z1(self):
        # the outer grid of check_derivative_conditions runs to 10 z1, and
        # the power tail underflows to 0 past z - z1 ~ 745: a2 is 0/0
        rec = run(parse_config_text(
            "scenario = covering_sample\nkernel.z1 = 100\nfield.resolution = 128\n" + FAST))
        assert rec.error is None
        assert rec.assertions["derivative_bounds"]["passed"]
        assert math.isfinite(rec.scalars["a2"])

    def test_covering_sample_bessel_k3(self):
        # the Bessel-profile derivatives are closed forms, so k = 3 is
        # checked like k = 1 and 2
        rec = run(parse_config_text(
            "scenario = covering_sample\nkernel.variant = bessel_mcdonald\n"
            "kernel.alpha = 0.75\nk = 3\nfield.resolution = 256\n" + FAST))
        assert rec.error is None
        assert rec.passed
        assert rec.assertions["derivative_bounds"]["passed"]

    def test_equivalence_zero_min_ratio(self):
        # q = 1 borderline: rho0 and rho_tilde disagree on finiteness for
        # some g, so the smallest finite ratio is 0 and the spread is
        # infinite, without a division by zero.  The aggregate is infinite
        # at T, so the scenario stops at NotEmbedded; the report is built
        # directly
        cfg = parse_config_text(
            "scenario = equivalence_sweep\nspace.q = 1\nspace.b_log = 1.244\n"
            "kernel.alpha = 0.916\nk = 1\nn = 1\ngrid.points = 256\n"
            "seed = 211290874\n")
        space, phi = cli._space_and_profile(cfg)
        rep = equivalence_report(AssociateNormEngine(space, phi, cfg.k, cfg.n), cfg.seed)
        assert rep["min_ratio"] == 0.0
        assert rep["spread"] == math.inf
        assert run(cfg).error.startswith("NotEmbedded: ")

    def test_besov_case(self):
        rec = run(parse_config_text(
            "scenario = besov_case\nkernel.variant = bessel_mcdonald\n"
            "kernel.alpha = 0.75\nfield.resolution = 128\n" + FAST))
        assert rec.passed
        assert rec.scalars["factor_spread"] < 8.0

    def test_besov_k2_factor(self):
        # k = 2 with most of the t grid below the field spacing: the
        # modulus of the interpolant grows like t * spacing there, so the
        # direct norm is finite and the factors are positive
        rec = run(parse_config_text((DATA / "besov_k2.cfg").read_text()))
        assert rec.error is None
        assert rec.scalars["factor_min"] > 0
        assert rec.assertions["two_sided_factor"]["passed"]

    @pytest.mark.parametrize("name", ["besov_k2", "besov_k3"])
    def test_higher_order_besov_reports_pinned(self, name):
        # the second- and third-order modulus checked end to end against
        # the report next to the config, floats to the goldens' tolerance
        got = json.loads(run(parse_config_text((DATA / f"{name}.cfg").read_text())).to_json())
        del got["wall_time_s"]
        assert _mismatches(got, json.loads((DATA / f"{name}.json").read_text())) == []

    def test_equivalence_4000_report_pinned(self):
        # the family product of AssociateNormEngine at the largest grid the
        # lattice benchmark runs, checked end to end against the report
        # next to each config: its seed 104, item 107 (k/n = 1/3) and item
        # 75 (k/n = 2, where the table exp(-s y) has the most exact zeros)
        for name in ("equivalence_4000", "equivalence_k2_4000"):
            got = json.loads(run(parse_config_text((DATA / f"{name}.cfg").read_text())).to_json())
            del got["wall_time_s"]
            assert _mismatches(got, json.loads((DATA / f"{name}.json").read_text())) == [], name

    def test_besov_zero_factor(self, monkeypatch):
        # an infinite direct norm gives a zero factor; the spread is then
        # infinite, without a division by zero, and the check fails
        real, calls = cli.power_modulus_norm, []
        def first_infinite(*args):
            calls.append(args)
            return math.inf if len(calls) == 1 else real(*args)
        monkeypatch.setattr(cli, "power_modulus_norm", first_infinite)
        rec = run(parse_config_text((DATA / "besov_k2.cfg").read_text()))
        assert rec.error is None
        assert rec.scalars["factor_min"] == 0.0
        assert rec.scalars["factor_max"] > 0
        assert rec.scalars["factor_spread"] == math.inf
        assert not rec.assertions["two_sided_factor"]["passed"]

    def test_besov_direct_exponent_uses_p(self, monkeypatch):
        # the aggregate behaves like t^(alpha/n - 1/p), so the direct power
        # norm takes that exponent, not alpha/n - 1/q
        real, exponents = cli.power_modulus_norm, []
        def capture(omega, exponent, q):
            exponents.append(exponent)
            return real(omega, exponent, q)
        monkeypatch.setattr(cli, "power_modulus_norm", capture)
        rec = run(parse_config_text(
            "scenario = besov_case\nspace.q = 2\nspace.p = 4\nkernel.alpha = 0.75\n"
            "field.resolution = 128\n" + FAST))
        assert rec.error is None
        assert exponents and set(exponents) == {0.75 - 1.0 / 4.0}


class TestGridSpanFloor:
    # q = 2, k = 2, alpha = 0.75: the largest power of t formed is t^-4.5,
    # the tail density (t^-2 phi / V)^2
    BASE = ("scenario = equivalence_sweep\nspace.q = 2\nn = 1\nk = 2\n"
            "kernel.alpha = 0.75\ngrid.points = 256\n")

    def test_overflowing_span_rejected(self, tmp_path):
        # at 1e-200 the powers overflow, and the run used to end in
        # NonConvergent: lower Hardy integral diverges at 0
        with pytest.raises(ConfigInvalid, match=r"span 1e-200 is below 5\.62e-35: t\^-4\.5"):
            parse_config_text(self.BASE + "grid.tmin = 1e-200\n").validate()
        for tmin in ("1e-200", "5.5e-35"):
            cfg = tmp_path / f"{tmin}.cfg"
            cfg.write_text(self.BASE + f"grid.tmin = {tmin}\n")
            assert main(["run", str(cfg)]) == 2

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_span_inside_floor_runs_clean(self):
        # a RuntimeWarning would end the scenario as ScenarioFailed
        rec = run(parse_config_text(self.BASE + "grid.tmin = 5.7e-35\n"))
        assert rec.error is None
        assert rec.passed

    # the embedding criterion refines from 1e4 times the span, so its
    # scenarios need a span below 1e-4; at 0.00455 this config passed the
    # float-range floor and ended in ScenarioFailed: RuntimeWarning: overflow
    CRITERION = ("space.q = 1.02\nkernel.alpha = 0.8\nk = 1\ngrid.points = 256\n"
                 "grid.tmin = 0.00455\n")

    @pytest.mark.parametrize("scenario", ["embedding_check", "lorentz_karamata_case"])
    def test_criterion_span_rejected(self, scenario, tmp_path):
        text = f"scenario = {scenario}\nspace.b_log = 1\n" + self.CRITERION
        with pytest.raises(ConfigInvalid, match=r"^grid\.tmin: .*below 1e-4"):
            parse_config_text(text).validate()
        cfg = tmp_path / "c.cfg"
        cfg.write_text(text)
        assert main(["run", str(cfg)]) == 2
        # at q = 2 the float-range floor is far lower, and 1e-4 is the bound;
        # the scenarios with neither a refinement grid nor a modulus grid
        # keep their spans
        base = f"scenario = {scenario}\nspace.b_log = 1\n"
        with pytest.raises(ConfigInvalid, match=r"^grid\.tmin: .*below 1e-4"):
            parse_config_text(base + "grid.tmin = 1e-4\n").validate()
        parse_config_text(base + "grid.tmin = 9.9e-5\n").validate()
        parse_config_text(base.replace(scenario, "optimal_norm") + "grid.tmin = 1e-3\n").validate()

    def test_besov_span_rejected(self, tmp_path):
        # besov_case reads the aggregate, sampled on the space's grid only,
        # on its modulus grid from 1e-6 T; at 1e-3 that read ended in
        # DomainError: a sample without fn is read on [0.001, 1] only
        base = ("scenario = besov_case\nspace.q = 2\ngrid.points = 128\n"
                "field.resolution = 64\n")
        cfg = tmp_path / "c.cfg"
        cfg.write_text(base + "grid.tmin = 1e-3\n")
        with pytest.raises(ConfigInvalid, match=r"^grid\.tmin: .*at most 1e-06$"):
            parse_config_text(cfg.read_text()).validate()
        assert main(["run", str(cfg)]) == 2
        # at 1e-6 both grids start at the same point
        rec = run(parse_config_text(base + "grid.tmin = 1e-6\n"))
        assert rec.error is None
        assert rec.passed


class TestReuse:
    """What a scenario builds once, it reads again instead of rebuilding."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"embedding_function": 0, "LorentzSpace": 0, "half_level_point": 0}
        real_psi, real_half = lorentz.embedding_function, optimal.half_level_point

        def psi(*args):
            counts["embedding_function"] += 1
            return real_psi(*args)

        def half(*args):
            counts["half_level_point"] += 1
            return real_half(*args)

        class CountedSpace(lorentz.LorentzSpace):
            def __init__(self, *args):
                counts["LorentzSpace"] += 1
                super().__init__(*args)

        for module in (cli, lorentz, optimal):
            for name, fn in (("embedding_function", psi), ("LorentzSpace", CountedSpace)):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, fn)
        monkeypatch.setattr(optimal, "half_level_point", half)
        return counts

    @pytest.mark.parametrize("scenario", ["embedding_check", "lorentz_karamata_case"])
    def test_criterion_item_builds_three_aggregates(self, scenario, counts):
        # the criterion's finest aggregate is the one the report shows
        rec = run(parse_config_text(f"scenario = {scenario}\nspace.p = 2\n"
                                    "space.b_log = 0.75\nkernel.alpha = 0.5\n" + FAST))
        assert rec.passed
        assert counts["embedding_function"] == 3
        assert counts["LorentzSpace"] == 3

    def test_optimal_norm_bisects_once(self, counts):
        rec = run(parse_config_text("scenario = optimal_norm\nkernel.alpha = 0.75\n" + FAST))
        assert rec.passed
        assert counts["half_level_point"] == 1

    # an optimal_norm config whose half level point T1 lies below the
    # grid floor, so T1 cannot be bisected
    NO_HALF_LEVEL = (DATA / "optimal_norm_no_half_level.cfg").read_text()

    def test_besov_case_needs_no_half_level(self, counts):
        # besov_case never reads T1; it used to end in NoSolution
        rec = run(parse_config_text(self.NO_HALF_LEVEL.replace("scenario = optimal_norm",
                                                               "scenario = besov_case")))
        assert rec.error is None
        assert rec.passed
        assert 1.5 < rec.scalars["factor_spread"] < 2.5
        assert counts["half_level_point"] == 0

    def test_optimal_norm_without_half_level_writes_no_scalar(self, counts):
        rec = run(parse_config_text(self.NO_HALF_LEVEL))
        assert rec.error == ("NoSolution: aggregate exceeds half its terminal value "
                             "on the whole grid: the half level lies below t_min = 1e-08")
        assert rec.scalars == {}
        assert counts["half_level_point"] == 1

    def test_equivalence_sweep_integrates_phi_twice(self, monkeypatch):
        # once for the aggregate and once for the engine, whose iphi and
        # jk both dominance conditions read
        calls = []
        real = lorentz._profile_integral

        def counted(*args):
            calls.append(1)
            return real(*args)

        for module in (lorentz, optimal):
            monkeypatch.setattr(module, "_profile_integral", counted)
        rec = run(parse_config_text((DATA / "golden" / "equivalence_sweep.cfg").read_text()))
        assert rec.error is None
        assert rec.scalars["condition"] == "B"
        assert len(calls) == 2

    def test_equivalence_sweep_reads_phi_twice(self, monkeypatch):
        # once for the aggregate and once for the engine, whose samples
        # U_q and both dominance conditions read
        reads = []
        real = cli._space_and_profile

        def counted(cfg):
            space, phi = real(cfg)
            return space, lambda t: reads.append(1) or phi(t)

        monkeypatch.setattr(cli, "_space_and_profile", counted)
        rec = run(parse_config_text((DATA / "golden" / "equivalence_sweep.cfg").read_text()))
        assert rec.error is None
        assert rec.scalars["condition"] == "B"
        assert len(reads) == 2


class TestBlockSizes:
    """A row's grid rules and a step's vertex sums do not depend on the
    block they run in: the reports stay byte-identical, apart from
    wall_time_s, whatever the block sizes."""

    CONFIGS = (sorted((DATA / "golden").glob("*.cfg"))
               + [DATA / "equivalence_k2_4000.cfg", DATA / "besov_k2.cfg"])

    @classmethod
    def reports(cls):
        return [strip_wall_time(run(parse_config_text(path.read_text())).to_json())
                for path in cls.CONFIGS]

    @pytest.fixture(scope="class")
    def reference(self):
        return self.reports()

    @pytest.mark.parametrize("module, name, value", [
        (gridfn, "_ROW_BLOCK_ELEMENTS", 2 ** 8), (gridfn, "_ROW_BLOCK_ELEMENTS", 2 ** 20),
        (potentials, "_VERTEX_BLOCK", 1), (potentials, "_VERTEX_BLOCK", 32)])
    def test_reports_do_not_depend_on_block_size(self, reference, monkeypatch,
                                                  module, name, value):
        monkeypatch.setattr(module, name, value)
        assert self.reports() == reference


class TestMain:
    def test_exit_codes(self, tmp_path):
        good = tmp_path / "good.cfg"
        good.write_text("scenario = embedding_check\nkernel.alpha = 0.75\n" + FAST)
        assert main(["run", str(good)]) == 0
        failing = tmp_path / "fail.cfg"
        failing.write_text("scenario = optimal_norm\nkernel.alpha = 0.3\n" + FAST)
        assert main(["run", str(failing)]) == 1
        broken = tmp_path / "broken.cfg"
        broken.write_text("scenario = what\n")
        assert main(["run", str(broken)]) == 2

    @pytest.mark.parametrize("scenario", ["embedding_check", "optimal_norm",
                                          "equivalence_sweep", "envelope",
                                          "lorentz_karamata_case"])
    def test_kernel_profile_underflow_exits_2(self, tmp_path, capsys, scenario):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"scenario = {scenario}\nspace.b_log = 0.75\nT = 1e12\n")
        assert main(["run", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            "config error: T: 1e+12 puts the grid floor 10000 where the kernel profile "
            "underflows to 0 (kernel.z1 = 1)\n")

    @pytest.mark.parametrize("name, content", [("missing.cfg", None),
                                               ("latin1.cfg", b"scenario = envelope\n# \xe9\n")])
    def test_unreadable_config_exits_2(self, tmp_path, capsys, name, content):
        path = tmp_path / name
        if content is not None:
            path.write_bytes(content)
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot read {path}: ")
        assert err.count("\n") == 1

    def test_sweep_over_an_undecodable_config_exits_2(self, tmp_path, capsys):
        (tmp_path / "a.cfg").write_text("scenario = embedding_check\n" + FAST)
        (tmp_path / "b.cfg").write_bytes(b"scenario = envelope\n# \xe9\n")
        assert main(["sweep", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot read {tmp_path / 'b.cfg'}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_unwritable_output_directory_exits_2(self, tmp_path, capsys, monkeypatch,
                                                 command):
        # --out under a plain file: no scenario runs, and one output error
        # line names the directory
        ran = []
        monkeypatch.setattr(cli, "_SCENARIO_FNS", {
            name: lambda cfg, rec: ran.append(cfg.scenario) for name in cli._SCENARIO_FNS})
        cfg = tmp_path / "c.cfg"
        cfg.write_text("scenario = embedding_check\nkernel.alpha = 0.75\n" + FAST)
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "sub"
        target = str(cfg) if command == "run" else str(tmp_path)
        assert main([command, target, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"output error: cannot create {out}: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err
        assert ran == []

    # the config file is the one spelling of every run input: the
    # command line takes only --out (and sweep's ignored --workers)
    @pytest.mark.parametrize("flag, value", [("--grid-points", "128"),
                                             ("--tmin", "1e-6"), ("--seed", "3")])
    @pytest.mark.parametrize("command", ["run", "sweep", "selftest"])
    def test_config_keys_are_not_flags(self, tmp_path, capsys, command, flag, value):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("scenario = embedding_check\nkernel.alpha = 0.75\n" + FAST)
        target = {"run": [str(cfg)], "sweep": [str(tmp_path)], "selftest": []}[command]
        with pytest.raises(SystemExit) as exc:
            main([command, *target, flag, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err

    def test_sweep_directory(self, tmp_path):
        d = tmp_path / "cfgs"
        d.mkdir()
        (d / "a.cfg").write_text(
            "scenario = embedding_check\nkernel.alpha = 0.75\n" + FAST)
        (d / "b.cfg").write_text(
            "scenario = embedding_check\nkernel.alpha = 0.6\n" + FAST)
        out = tmp_path / "sweep_out"
        assert main(["sweep", str(d), "--out", str(out)]) == 0
        assert (out / "summary.csv").exists()

    def test_sweep_rejects_per_item(self, tmp_path):
        # a file with an out-of-range value gets its own report and
        # summary row; the sweep runs the rest and exits 1
        d = tmp_path / "cfgs"
        d.mkdir()
        (d / "a.cfg").write_text(
            "scenario = embedding_check\nkernel.alpha = 0.75\n" + FAST)
        (d / "b.cfg").write_text("scenario = embedding_check\nspace.q = 0.5\n")
        out = tmp_path / "sweep_out"
        assert main(["sweep", str(d), "--out", str(out)]) == 1
        good, bad = (json.loads((out / f"item_{i:03d}" / "report.json").read_text())
                     for i in range(2))
        assert good["passed"]
        assert bad["error"].startswith("ConfigInvalid: space.q: ")
        assert not bad["passed"]
        row = (out / "summary.csv").read_text().splitlines()[2].split(",")
        assert row[:4] == ["item_001", "embedding_check", "False", bad["error"]]

    def test_sweep_ignores_workers(self, tmp_path, monkeypatch):
        # items run one after another: neither the flag nor the variable
        # changes what a sweep does
        monkeypatch.setenv("CALDERON_LAB_WORKERS", "x")
        d = tmp_path / "cfgs"
        d.mkdir()
        for name, alpha in (("a", 0.75), ("b", 0.6)):
            (d / f"{name}.cfg").write_text(
                f"scenario = embedding_check\nkernel.alpha = {alpha}\n" + FAST)
        plain, flagged = tmp_path / "plain", tmp_path / "flagged"
        assert main(["sweep", str(d), "--out", str(plain)]) == 0
        assert main(["sweep", str(d), "--workers", "2", "--out", str(flagged)]) == 0
        assert ((flagged / "summary.csv").read_text()
                == (plain / "summary.csv").read_text())

    def test_selftest(self):
        recs = selftest()
        assert all(r.passed for r in recs)


class TestEmptySeries:
    def test_sweep_survives_infinite_aggregate(self, tmp_path):
        # alpha = 0.3 < 1/q: the aggregate is infinite everywhere, so the
        # psi series is empty
        empty = parse_config_text("scenario = embedding_check\nspace.q = 2\n"
                                  "kernel.alpha = 0.3\n" + FAST)
        fine = parse_config_text("scenario = embedding_check\nkernel.alpha = 0.75\n"
                                 + FAST)
        recs = sweep([empty, fine], out_dir=tmp_path)
        assert recs[0].scalars["embeds"] is False
        rows = (tmp_path / "summary.csv").read_text().splitlines()
        assert len(rows) == 3
        series = tmp_path / "item_000" / "series"
        assert (series / "psi.csv").read_text() == "t,value\n"
        assert len((tmp_path / "item_001" / "series" / "psi.csv")
                   .read_text().splitlines()) > 1
