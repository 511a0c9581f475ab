"""Configuration-driven experiment runner.

Configs are plain text, one dotted key per line:

    scenario = embedding_check
    space.q = 2
    kernel.variant = power
    kernel.alpha = 0.75
    k = 1
    n = 1

`#` starts a comment; whitespace around `=` is ignored.  See the README
for the full key list.  Every run writes a JSON report (with one
assertion verdict per checked quantity), CSV series `t,value`, and
plain two-column .dat files; reports are byte-identical across runs
with the same config and seed, apart from the wall-time field, on one
machine with one OpenBLAS thread count (the matrix products' summation
order follows the thread count).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigInvalid, NotEmbedded, ToolkitError
from .gridfn import SampledFunction, _map_row_blocks, make_log_grid, total_mass
from .kernels import (
    BesselMcDonald,
    KernelSpec,
    PowerSlowlyVarying,
    SlowlyVaryingSpec,
    check_derivative_conditions,
    measure_profile,
    cone_kernel,
    unit_ball_volume,
)
from .lorentz import (
    LorentzSpace,
    WeightSpec,
    associate_norm,
    embedding_criterion,
    embedding_function,
    power_weight,
)
from .optimal import (
    FAMILY_SEED,
    check_condition_a,
    check_condition_b,
    equivalence_report,
    hardy_constants,
    make_optimal_norm_spec,
    optimal_norm,
    tail_embedding_function,
)
from .potentials import (
    FAMILY_BOX_HALFWIDTH,
    bump_and_staircase_family,
    calderon_norms,
    convolver,
    envelope_bounds,
    modulus_curves,
    power_modulus_norm,
    upper_cone_check,
)

# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass
class ExperimentConfig:
    scenario: str
    q: float = 2.0
    p: float | None = None          # power weight t^(q/p-1); None -> v == 1
    b_log: float = 0.0              # log exponent of the slowly varying b
    kernel_variant: str = "power"   # "power" | "bessel_mcdonald"
    alpha: float = 0.75             # Bessel variant: order nu = (n - alpha)/2
    z1: float = 1.0
    lambda_log: float = 0.0         # kernel slowly-varying log exponent
    k: int = 1
    n: int = 1
    T: float = 1.0
    grid_points: int = 512
    tmin_span: float = 1e-8
    field_resolution: int = 256
    seed: int = FAMILY_SEED

    @property
    def weight_p(self) -> float:
        """The p of the weight t^(q/p-1): space.p, or q when it is not set
        (then q/p - 1 is exactly 0)."""
        return self.p if self.p is not None else self.q

    def validate(self) -> None:
        """Reject, with ConfigInvalid naming the key, a config that no run
        can handle: a value out of its range, or a kernel or space the
        scenario does not cover."""
        def bad(fieldname, reason):
            raise ConfigInvalid(f"{fieldname}: {reason}")
        for key, (attr, conv) in _KEY_MAP.items():
            value = getattr(self, attr)
            if conv is float and value is not None and not math.isfinite(value):
                bad(key, f"must be finite, got {value}")
        if self.scenario not in SCENARIOS:
            bad("scenario", f"must be one of {SCENARIOS}")
        if self.q < 1.0:
            bad("space.q", "must be >= 1")
        if self.p is not None and self.p <= 1.0:
            bad("space.p", "must be > 1")
        if self.kernel_variant not in ("power", "bessel_mcdonald"):
            bad("kernel.variant", "must be power or bessel_mcdonald")
        if not (1 <= self.n <= 3):
            bad("n", "must be 1, 2, or 3")
        if not (0.0 < self.alpha < self.n):
            bad("kernel.alpha", f"must lie in (0, n) = (0, {self.n})")
        if self.z1 <= 0.0:
            bad("kernel.z1", "must be positive")
        if self.k < 1:
            bad("k", "must be a positive integer")
        if self.T <= 0:
            bad("T", "must be positive")
        if self.grid_points < 16:
            bad("grid.points", "must be at least 16")
        if not (0.0 < self.tmin_span < 1.0):
            bad("grid.tmin", "span must lie in (0, 1)")
        if self.scenario in _FIELD_SCENARIOS and self.field_resolution < 16:
            bad("field.resolution", "must be at least 16")
        if self.seed < 0:
            bad("seed", "must be a non-negative integer")
        # span^-e must stay within half the float range, leaving room for
        # products and sums; e is the largest power of t formed: V^-q', the
        # tail density (t^-k/n phi / V)^q', W^q' v, t^-k/n phi, the Hardy t^-q
        a, kn, b = self.q / self.weight_p, self.k / self.n, self.alpha / self.n
        qp = self.q / (self.q - 1.0) if self.q > 1.0 else 1.0   # the q = 1 sup forms
        e = max(abs(x) for x in (qp * a, qp * (b - kn - a), qp * (b - a) + a - 1.0,
                                 b - kn - 1.0, self.q))
        floor = math.exp(-0.5 * math.log(np.finfo(float).max) / e)
        if self.tmin_span < floor:
            bad("grid.tmin", f"span {self.tmin_span:g} is below {floor:.3g}: t^-{e:g}, "
                "the largest power of t formed, must stay within half the float range")
        if self.tmin_span >= 1e-4 and self.scenario in ("embedding_check",
                                                        "lorentz_karamata_case"):
            bad("grid.tmin", "the criterion refines from 1e4 times this span: must be below 1e-4")
        if self.tmin_span > _MODULUS_SPAN and self.scenario == "besov_case":
            bad("grid.tmin", f"the aggregate is read on the modulus grid from {_MODULUS_SPAN:g} "
                f"times T: must be at most {_MODULUS_SPAN:g}")
        fields = self.scenario in _FIELD_SCENARIOS
        if fields and self.n != 1:
            bad("n", "fields are one-dimensional: must be 1 for this scenario")
        if fields and self.k * self.T > 2.0 * FAMILY_BOX_HALFWIDTH:
            bad("T", f"the modulus reads k*T = {self.k * self.T:g}: must be at most "
                f"the field box width {2.0 * FAMILY_BOX_HALFWIDTH:g}")
        if self.scenario == "lorentz_karamata_case" and self.b_log == 0.0:
            bad("space.b_log", "this scenario needs a log weight factor")
        if self.kernel_variant == "power" and self.lambda_log < 0.0:
            # Phi(z) = z^(alpha-n) l(z)^lambda, l(z) = 1 + log(z1/z), on (0, z1]
            # has d log Phi / d log z = (alpha - n) - lambda/l, largest where l
            # is smallest: at the largest z used, min(z1, (T/V_n)^(1/n)) on the
            # grid; fields use offsets up to z = 6, so all of (0, z1], l >= 1
            zmax = (self.T / unit_ball_volume(self.n)) ** (1.0 / self.n)
            ell = 1.0 if fields else 1.0 + math.log(self.z1 / min(self.z1, zmax))
            bound = (self.n - self.alpha) * ell
            if -self.lambda_log > bound:
                bad("kernel.lambda_log", f"{self.lambda_log:g} makes the kernel profile "
                    f"increase: needs -lambda_log <= (n - alpha) l(z*) = {bound:.6g}")


_KEY_MAP = {
    "scenario": ("scenario", str),
    "space.q": ("q", float),
    "space.p": ("p", float),
    "space.b_log": ("b_log", float),
    "kernel.variant": ("kernel_variant", str),
    "kernel.alpha": ("alpha", float),
    "kernel.z1": ("z1", float),
    "kernel.lambda_log": ("lambda_log", float),
    "k": ("k", int),
    "n": ("n", int),
    "T": ("T", float),
    "grid.points": ("grid_points", int),
    "grid.tmin": ("tmin_span", float),
    "field.resolution": ("field_resolution", int),
    "seed": ("seed", int),
}


def parse_config_text(text: str) -> ExperimentConfig:
    """The config a text spells, unvalidated (run validates it);
    ConfigInvalid on bad syntax or a key set twice."""
    values, lines = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigInvalid(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        if key not in _KEY_MAP:
            raise ConfigInvalid(f"line {lineno}: unknown key {key!r}")
        if key in lines:
            raise ConfigInvalid(f"line {lineno}: {key} is already set on line {lines[key]}")
        lines[key] = lineno
        attr, conv = _KEY_MAP[key]
        try:
            values[attr] = conv(val)
        except ValueError as exc:
            raise ConfigInvalid(f"line {lineno}: {key}: {exc}") from None
    if "scenario" not in values:
        raise ConfigInvalid("scenario: missing required key")
    return ExperimentConfig(**values)


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------

@dataclass
class ReportRecord:
    scenario: str
    inputs: dict
    scalars: dict = field(default_factory=dict)
    assertions: dict = field(default_factory=dict)
    series: dict = field(default_factory=dict)      # name -> (t, values)
    wall_time_s: float = 0.0
    error: str | None = None

    @property
    def passed(self) -> bool:
        return self.error is None and all(
            a["passed"] for a in self.assertions.values())

    def to_json(self) -> str:
        doc = {
            "scenario": self.scenario,
            "inputs": self.inputs,
            "scalars": _plain(self.scalars),
            "assertions": _plain(self.assertions),
            "series": sorted(self.series),
            "passed": self.passed,
            "error": self.error,
            "wall_time_s": self.wall_time_s,
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _plain(obj):
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        return {"inf": "Infinity", "-inf": "-Infinity"}.get(str(x), x) \
            if not math.isfinite(x) else x
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    return obj


def _check(assertions: dict, name: str, passed: bool, value, detail: str = ""):
    assertions[name] = {"passed": bool(passed), "value": _plain(value),
                        "detail": detail}


def write_report(record: ReportRecord, out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(record.to_json())
    series_dir = out / "series"
    series_dir.mkdir(exist_ok=True)
    for name, (t, vals) in record.series.items():
        pairs = [(repr(float(a)), repr(float(b))) for a, b in zip(t, vals)]
        lines_csv = ["t,value"] + [f"{a},{b}" for a, b in pairs]
        (series_dir / f"{name}.csv").write_text("\n".join(lines_csv) + "\n")
        lines_dat = [f"{a} {b}" for a, b in pairs]
        (series_dir / f"{name}.dat").write_text("\n".join(lines_dat) + "\n")


# ---------------------------------------------------------------------------
# shared builders
# ---------------------------------------------------------------------------

def _build_weight(cfg: ExperimentConfig) -> WeightSpec:
    sv = None
    if cfg.b_log != 0.0:
        sv = SlowlyVaryingSpec(factors=(("log", cfg.b_log),), scale=cfg.T)
    return power_weight(cfg.q, cfg.weight_p, T=cfg.T, sv=sv)


def _build_kernel(cfg: ExperimentConfig) -> KernelSpec:
    if cfg.kernel_variant == "bessel_mcdonald":
        return KernelSpec(BesselMcDonald(nu=(cfg.n - cfg.alpha) / 2.0), n=cfg.n)
    factors = (("log", cfg.lambda_log),) if cfg.lambda_log != 0.0 else ()
    sv = SlowlyVaryingSpec(factors=factors, scale=cfg.z1)
    return KernelSpec(PowerSlowlyVarying(alpha=cfg.alpha, sv=sv, z1=cfg.z1), n=cfg.n)


def _space(cfg: ExperimentConfig) -> LorentzSpace:
    grid = make_log_grid(cfg.tmin_span * cfg.T, cfg.T, cfg.grid_points)
    return LorentzSpace(cfg.q, _build_weight(cfg), grid)


def _space_and_profile(cfg: ExperimentConfig):
    space = _space(cfg)
    return space, measure_profile(_build_kernel(cfg), space.grid)


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

def _scenario_embedding_check(cfg: ExperimentConfig, rec: ReportRecord):
    space = _space(cfg)
    crit = embedding_criterion(space, _build_kernel(cfg))
    psi = crit["psi"]
    rec.scalars["embeds"] = crit["embeds"]
    rec.scalars["psi_at_T"] = crit["psi_at_T"]
    rec.scalars["refinements"] = crit["refinements"]
    finite = np.isfinite(psi.values)
    rec.series["psi"] = (space.grid.points[finite], psi.values[finite])
    _check(rec.assertions, "psi_nondecreasing",
           bool(np.all(np.diff(psi.values[finite]) >= -1e-12)), crit["psi_at_T"],
           "aggregate must be nondecreasing in t")


def _scenario_optimal_norm(cfg: ExperimentConfig, rec: ReportRecord):
    space, phi = _space_and_profile(cfg)
    spec = make_optimal_norm_spec(space, phi)
    T1 = spec.T1            # raises NoSolution before any scalar is written
    rec.scalars["case"] = spec.case
    rec.scalars["psi_at_T"] = float(spec.psi.values[-1])
    if T1 is not None:
        rec.scalars["T1"] = T1
        target = 0.5 * spec.psi.values[-1]
        _check(rec.assertions, "half_level",
               abs(spec.psi(T1) - target) <= 1e-6 * spec.psi.values[-1],
               T1, "aggregate at T1 must be half its terminal value")
    probe = SampledFunction(space.grid, np.minimum(spec.psi.values, spec.psi.values[-1]) ** 1.5)
    small = SampledFunction(space.grid, 0.5 * probe.values)
    n_big, n_small = optimal_norm(spec, probe), optimal_norm(spec, small)
    rec.scalars["probe_norm"] = n_big
    _check(rec.assertions, "homogeneity",
           abs(n_small - 0.5 * n_big) <= 1e-9 * n_big, n_small,
           "norm of f/2 equals half the norm of f")
    _check(rec.assertions, "monotone",
           n_small <= n_big * (1 + 1e-12), n_big,
           "smaller envelope has smaller norm")
    rec.series["psi"] = (space.grid.points, spec.psi.values)


def _scenario_equivalence_sweep(cfg: ExperimentConfig, rec: ReportRecord):
    space, phi = _space_and_profile(cfg)
    if not math.isfinite(embedding_function(space, phi).values[-1]):
        raise NotEmbedded("aggregate infinite at T; no equivalence to measure")
    uq = tail_embedding_function(space, phi, cfg.k, cfg.n)
    ca = check_condition_a(phi, space.V, cfg.k, cfg.n, space.grid)
    cb = check_condition_b(phi, uq, cfg.k, cfg.n, space.grid)
    condition = "A" if ca.holds else ("B" if cb.holds else "neither")
    rec.scalars["condition"] = condition
    rec.scalars["d1"] = ca.d
    rec.scalars["d2"] = cb.d
    rec.scalars["epsilon_a"] = ca.epsilon
    rec.scalars["epsilon_b"] = cb.epsilon
    rep = equivalence_report(space, phi, cfg.k, cfg.n, cfg.seed)
    rec.scalars["ratio_min"] = rep["min_ratio"]
    rec.scalars["ratio_max"] = rep["max_ratio"]
    rec.scalars["ratio_spread"] = rep["spread"]
    rec.series["uq"] = (space.grid.points, uq.values)
    if cfg.q > 1.0:
        h = hardy_constants(space)
        rec.scalars["hardy_B0"] = h["B0"]
        rec.scalars["hardy_bound"] = h["bound"]
        _check(rec.assertions, "hardy_within_bound", h["within_bound"],
               h["B0"], "Hardy constant sits below its theoretical bound")
    if condition == "neither":
        rec.scalars["equivalence_unverified"] = True
        _check(rec.assertions, "spread_recorded", True, rep["spread"],
               "neither dominance condition holds; spread recorded, not asserted")
    else:
        _check(rec.assertions, "spread_bounded",
               math.isfinite(rep["spread"]) and rep["spread"] < 50.0,
               rep["spread"], "two-sided equivalence constant below 50")


def _scenario_envelope(cfg: ExperimentConfig, rec: ReportRecord):
    space, phi = _space_and_profile(cfg)
    tg = make_log_grid(1e-6 * cfg.T, cfg.T, 48)
    upper = envelope_bounds(space, phi, cfg.k, cfg.n, tg)
    rec.series["envelope"] = (tg.points, upper.values)
    with np.errstate(invalid="ignore"):     # inf - inf is NaN, which fails
        _check(rec.assertions, "nondecreasing",
               bool(np.all(np.diff(upper.values) >= -1e-10 * upper.values[:-1])),
               float(upper.values[-1]), "envelope curve must be nondecreasing")
    profile_norm = associate_norm(space, phi)
    ratio = upper.values[-1] / profile_norm
    rec.scalars["value_at_T_over_profile_norm"] = ratio
    _check(rec.assertions, "endpoint_factor_two",
           0.5 - 1e-9 <= ratio <= 1.0 + 1e-9, ratio,
           "kernel at t=T sits between half and all of the profile norm")
    sel = tg.points <= 1e-2 * cfg.T
    A = np.vstack([np.ones(sel.sum()), np.log(tg.points[sel])]).T
    slope = float(np.linalg.lstsq(A, np.log(upper.values[sel]), rcond=None)[0][1])
    rec.scalars["small_t_slope"] = slope


# besov_case's modulus grid starts at this span of T; the aggregate, sampled
# on the space's grid, is read there through its interpolant
_MODULUS_SPAN = 1e-6


def _scenario_besov_case(cfg: ExperimentConfig, rec: ReportRecord):
    space, phi = _space_and_profile(cfg)
    spec = make_optimal_norm_spec(space, phi)
    kernel = _build_kernel(cfg)
    fields = bump_and_staircase_family(count=10, resolution=cfg.field_resolution,
                                       seed=cfg.seed)
    exponent = cfg.alpha / cfg.n - 1.0 / cfg.weight_p
    tg = make_log_grid(_MODULUS_SPAN * cfg.T, cfg.T, 64)
    conv = convolver(kernel, fields[0][1])
    us = [conv(f) for _, f in fields]
    # one modulus curve per field, shared by both norms
    omegas = modulus_curves(us, cfg.k, tg, n=cfg.n)
    opts = calderon_norms(us, omegas, spec, cfg.k, cfg.n)
    directs = [u.sup_norm() + power_modulus_norm(om, exponent, cfg.q)
               for u, om in zip(us, omegas)]
    factors = np.array([opt / direct if direct > 0 else math.nan
                        for opt, direct in zip(opts, directs)])
    lo, hi = float(np.nanmin(factors)), float(np.nanmax(factors))
    rec.scalars["factor_min"] = lo
    rec.scalars["factor_max"] = hi
    # an infinite direct norm gives a zero factor: the spread is then
    # infinite, or NaN when every factor is zero, and the check fails
    spread = hi / lo if lo > 0 else (math.inf if hi > 0 else math.nan)
    rec.scalars["factor_spread"] = spread
    _check(rec.assertions, "two_sided_factor",
           lo > 0 and max(hi, 1.0 / lo) <= 8.0,
           spread, "optimal and direct smoothness norms agree within factor 8")


def _scenario_lorentz_karamata_case(cfg: ExperimentConfig, rec: ReportRecord):
    space = _space(cfg)
    crit = embedding_criterion(space, _build_kernel(cfg))
    rec.scalars["embeds"] = crit["embeds"]
    rec.scalars["psi_at_T"] = crit["psi_at_T"]
    alpha, p = cfg.alpha, cfg.weight_p
    borderline = abs(alpha / cfg.n - 1.0 / p) < 1e-12
    rec.scalars["borderline_alpha"] = borderline
    if cfg.q > 1.0:
        rec.scalars["expected_embeds"] = (
            (alpha / cfg.n > 1.0 / p) or (borderline and cfg.b_log * space.qp > 1.0))
        _check(rec.assertions, "criterion_matches_exponent_rule",
               crit["embeds"] == rec.scalars["expected_embeds"], crit["embeds"],
               "embedding classification matches the exponent rule")
    psi = crit["psi"]
    finite = np.isfinite(psi.values)
    rec.series["psi"] = (space.grid.points[finite], psi.values[finite])
    if crit["embeds"] and not borderline:
        t = space.grid.points
        b = SlowlyVaryingSpec(factors=(("log", cfg.b_log),), scale=cfg.T)(t)
        model = t ** (alpha / cfg.n - 1.0 / p) / b
        ratio = psi.values / model
        rec.scalars["model_ratio_spread"] = float(ratio.max() / ratio.min())
        _check(rec.assertions, "power_model_two_sided",
               ratio.max() / ratio.min() < 50.0, rec.scalars["model_ratio_spread"],
               "aggregate matches the power-times-log model up to constants")


def _scenario_covering_sample(cfg: ExperimentConfig, rec: ReportRecord):
    space, phi = _space_and_profile(cfg)
    kernel = _build_kernel(cfg)
    report = check_derivative_conditions(kernel, cfg.k)
    rec.scalars["a1"] = report.a1
    rec.scalars["a2"] = report.a2
    rec.scalars["delta1"] = report.delta1
    rec.scalars["z1"] = report.z1
    rec.scalars["consistency_T"] = kernel.ball_volume * report.z1 ** cfg.n
    _check(rec.assertions, "derivative_bounds",
           report.inner_ok and report.outer_ok and report.lower_ok,
           [report.a1, report.a2, report.delta1],
           "profile satisfies the two-scale derivative bounds")
    t = space.grid.points
    # sufficiency pair for the associate construction: the profile lies in
    # the associate space and the kernel sees every scale
    c0 = associate_norm(space, phi)
    rec.scalars["c0_profile_norm"] = c0
    _check(rec.assertions, "profile_in_associate_space", math.isfinite(c0), c0,
           "the profile must have finite associate norm")
    tg = np.geomspace(1e-6 * cfg.T, cfg.T, 16)
    masses = _map_row_blocks(lambda block: total_mass(t, block),
                             cone_kernel(phi, cfg.k, cfg.n, tg[:, None], t), len(t))
    rec.scalars["kernel_mass_min"] = float(np.min(masses))
    _check(rec.assertions, "kernel_mass_positive", bool(np.all(masses > 0)),
           float(np.min(masses)), "cone kernel mass positive at every scale")
    fam = bump_and_staircase_family(count=3, resolution=cfg.field_resolution,
                                    seed=cfg.seed)
    ratios = upper_cone_check(space, kernel, phi, cfg.k, fam,
                              t_grid=make_log_grid(1e-4 * cfg.T, cfg.T, 32))
    c1 = max(ratios.values())
    rec.scalars["empirical_c1"] = c1
    rec.scalars["covering_ratios"] = ratios
    _check(rec.assertions, "upper_constant_finite", math.isfinite(c1),
           c1, "empirical upper constant recorded (no direction asserted)")


_SCENARIO_FNS = {
    "embedding_check": _scenario_embedding_check,
    "optimal_norm": _scenario_optimal_norm,
    "equivalence_sweep": _scenario_equivalence_sweep,
    "envelope": _scenario_envelope,
    "besov_case": _scenario_besov_case,
    "lorentz_karamata_case": _scenario_lorentz_karamata_case,
    "covering_sample": _scenario_covering_sample,
}
SCENARIOS = tuple(_SCENARIO_FNS)
_FIELD_SCENARIOS = ("besov_case", "covering_sample")


# ---------------------------------------------------------------------------
# run / sweep
# ---------------------------------------------------------------------------

def run(cfg: ExperimentConfig, out_dir=None) -> ReportRecord:
    """Execute one scenario; deterministic given the seed.  Writes the
    report and series files when an output directory is known."""
    cfg.validate()
    rec = ReportRecord(scenario=cfg.scenario, inputs=_inputs_echo(cfg))
    start = time.perf_counter()
    try:
        _SCENARIO_FNS[cfg.scenario](cfg, rec)
    except ToolkitError as exc:
        rec.error = f"{type(exc).__name__}: {exc}"
    except Exception as exc:   # defensive: a scenario bug should not kill a sweep
        rec.error = f"ScenarioFailed: {type(exc).__name__}: {exc}"
    rec.wall_time_s = time.perf_counter() - start
    if out_dir:
        write_report(rec, out_dir)
    return rec


def _inputs_echo(cfg: ExperimentConfig) -> dict:
    return _plain({k: v for k, v in vars(cfg).items() if v is not None})


def sweep(configs, out_dir=None) -> list[ReportRecord]:
    """Run many configs one after another, in input order; one failure
    never aborts the rest.  A summary CSV is written when out_dir is set."""
    configs = list(configs)
    if not configs:
        raise ConfigInvalid("sweep: empty config list")
    names = [f"item_{i:03d}" for i in range(len(configs))]
    records = []
    for name, cfg in zip(names, configs):
        item_dir = Path(out_dir) / name if out_dir else None
        try:
            records.append(run(cfg, out_dir=item_dir))
        except ConfigInvalid as exc:
            rec = ReportRecord(scenario=cfg.scenario, inputs=_inputs_echo(cfg),
                               error=f"{type(exc).__name__}: {exc}")
            if item_dir:
                write_report(rec, item_dir)
            records.append(rec)

    if out_dir:
        lines = ["item,scenario,passed,error," +
                 "psi_at_T,condition,ratio_spread,empirical_c1"]
        def cell(value):
            return repr(float(value)) if isinstance(value, (int, float)) else ""
        for name, rec in zip(names, records):
            s = rec.scalars
            lines.append(",".join([
                name, rec.scenario, str(rec.passed),
                (rec.error or "").replace(",", ";"),
                cell(s.get("psi_at_T")), str(s.get("condition", "")),
                cell(s.get("ratio_spread")), cell(s.get("empirical_c1")),
            ]))
        Path(out_dir).mkdir(parents=True, exist_ok=True)
        (Path(out_dir) / "summary.csv").write_text("\n".join(lines) + "\n")
    return records


def selftest(out_dir=None) -> list[ReportRecord]:
    """A fast end-to-end exercise of the main scenarios."""
    texts = ["scenario = embedding_check\nkernel.alpha = 0.75\n",
             "scenario = optimal_norm\nkernel.alpha = 0.75\n",
             "scenario = equivalence_sweep\nn = 2\nkernel.alpha = 1.5\nk = 1\n",
             "scenario = besov_case\nkernel.variant = bessel_mcdonald\n"
             "kernel.alpha = 0.75\nfield.resolution = 128\n"]
    return sweep([parse_config_text(text + "space.q = 2\ngrid.points = 256\n")
                  for text in texts], out_dir=out_dir)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", type=str, default=None)
    parser = argparse.ArgumentParser(prog="calderon-lab",
                                     description="numerical experiments on "
                                                 "smoothness norms and optimal lattices")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", parents=[common], help="run one config file")
    p_run.add_argument("config")
    p_sweep = sub.add_parser("sweep", parents=[common],
                             help="run every .cfg file in a directory")
    p_sweep.add_argument("config_dir")
    p_sweep.add_argument("--workers", type=int,
                         help="accepted and ignored: items run one after another")
    sub.add_parser("selftest", parents=[common],
                   help="fast built-in scenario exercise")
    args = parser.parse_args(argv)

    try:
        if args.command == "run":
            cfg = parse_config_text(Path(args.config).read_text())
            labelled = [(cfg.scenario, run(cfg, out_dir=args.out))]
        elif args.command == "sweep":
            paths = sorted(Path(args.config_dir).glob("*.cfg"))
            if not paths:
                raise ConfigInvalid(f"no .cfg files in {args.config_dir}")
            # run validates: sweep rejects an invalid item in its own report
            configs = [parse_config_text(p.read_text()) for p in paths]
            labelled = [(p.name, rec)
                        for p, rec in zip(paths, sweep(configs, out_dir=args.out))]
        else:
            labelled = [(rec.scenario, rec) for rec in selftest(out_dir=args.out)]
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    for name, rec in labelled:
        print(f"{name}: passed={rec.passed}"
              + (f" error={rec.error}" if rec.error else ""))
    return 0 if all(rec.passed for _, rec in labelled) else 1


if __name__ == "__main__":
    sys.exit(main())
