"""Seeded config generators for the three benchmark workloads.

The program only ever sees the generated config text; the seed stays in
the benchmark.  Each workload is a stratified design: every seed draws
the same number of items in each (scenario, size, category) stratum and
varies the remaining parameters inside it, so throughput and failure
share are comparable across seeds while the configs themselves differ.
Configs that make the program fail are kept: they are part of what
`fail_frac` measures.
"""

from __future__ import annotations

import math
import random

LATTICE_SCENARIOS = ("embedding_check", "optimal_norm", "equivalence_sweep",
                     "envelope", "lorentz_karamata_case")
SMOOTHNESS_SCENARIOS = ("besov_case", "covering_sample")
ALL_SCENARIOS = LATTICE_SCENARIOS + SMOOTHNESS_SCENARIOS

Q_LEVELS = (1.0, 1.5, 2.0, 4.0)
UNIT_BALL = {1: 2.0, 2: math.pi, 3: 4.0 * math.pi / 3.0}
# slowly varying corrections: (kernel.lambda_log kind, space.b_log present).
# The kernel factor is l(z)^lambda with l(z) = 1 + log(z1/z) >= l_min on
# the sampled range; z^(alpha-n) l(z)^lambda is decreasing there exactly
# when -lambda < (n - alpha) l_min.  "neg" draws lambda below that
# threshold, "neg_bump" above it (a non-monotone profile).
LAMBDA_KINDS = ("none", "pos", "neg", "neg_bump")
CORRECTIONS = tuple((lam, blog) for blog in (False, True) for lam in LAMBDA_KINDS)

LATTICE_PER_SCENARIO = 32          # 160 lattice items per seed
LATTICE_POINTS = (1000, 4000)
# `equivalence_sweep` items that all take the largest grid size.  These
# are a run's slowest ops; at three passes they make 21 ops of one cost,
# and the tail rank (the 11th slowest op) is their median, not the
# latency of whichever single item a seed puts at the top.
LATTICE_TAIL_ITEMS = 7
SMOOTHNESS_RESOLUTIONS = (256, 512)
# the cheapest embedded cell, left out: without it the cheap items fill
# the lowest three of nine ranks and the median op is the middle one of
# the three mid-cost items' nine ops, not an edge of that group
SMOOTHNESS_SKIPPED = ("covering_sample", "power", 256)


def _balanced(rng: random.Random, levels, count: int) -> list:
    """`count` values cycling through `levels` from a seeded start, in
    seeded order."""
    start = rng.randrange(len(levels))
    out = [levels[(start + i) % len(levels)] for i in range(count)]
    rng.shuffle(out)
    return out


def config_text(items: dict) -> str:
    return "".join(f"{key} = {value}\n" for key, value in items.items())


def _kernel_and_space(rng: random.Random, n: int, q: float, p: float | None,
                      correction, alpha_frac: float, variant: str = "power") -> dict:
    lam, blog = correction
    cfg = {"space.q": q}
    if p is not None:
        cfg["space.p"] = p
    if blog:
        cfg["space.b_log"] = round(rng.uniform(0.25, 1.5), 3)
    cfg["kernel.variant"] = variant
    alpha = round(n * alpha_frac, 3)
    cfg["kernel.alpha"] = alpha
    if lam != "none" and variant == "power":
        # largest z sampled: the ball of measure T = 1 has radius (1/V_n)^(1/n)
        l_min = 1.0 + math.log(1.0 / (1.0 / UNIT_BALL[n]) ** (1.0 / n))
        threshold = (n - alpha) * l_min
        value = {"pos": rng.uniform(0.25, 1.0),
                 "neg": -threshold * rng.uniform(0.3, 0.7),
                 "neg_bump": -threshold * rng.uniform(1.3, 2.0)}[lam]
        cfg["kernel.lambda_log"] = round(value, 3)
    return cfg


def _p(rng: random.Random, given: bool) -> float | None:
    return round(rng.uniform(1.25, 4.0), 3) if given else None


def _alpha_frac(rng: random.Random, regime: str, exponent: float) -> float:
    """alpha/n above or below the embedding exponent 1/p (p defaults to
    q), kept 0.05 away from it; "above" is impossible when 1/p >= 0.9
    (q = 1 without p) and falls back to the top of the range."""
    lo, hi = (exponent + 0.05, 0.95) if regime == "above" else (0.05, exponent - 0.05)
    if hi <= lo:
        lo, hi = (0.9, 0.95) if regime == "above" else (0.05, 0.1)
    return rng.uniform(lo, hi)


def lattice_configs(seed: int) -> list[str]:
    """Grid-only scenarios at 1e3..4e3 grid points: power kernels with and
    without slowly varying corrections, q in {1, 1.5, 2, 4}, optional p,
    k in {1, 2}, n in 1..3.

    Per scenario, every (correction, embedding regime) cell appears
    equally often and takes one grid size from each block of a fixed
    size ladder.  Whether the kernel embeds decides most outcomes, a
    non-monotone kernel profile makes an item fail early, and an
    item's cost grows as grid.points squared unless it fails early; so
    pairing these at random would make a seed's work and failure share
    vary by 15%.  Within a block the non-monotone-profile cells, which
    fail before any engine is built, take the smallest sizes, so the
    largest engine build (and with it the peak memory) is the same in
    every seed.  In `equivalence_sweep`, which does most of the work, the
    top LATTICE_TAIL_ITEMS sizes of the ladder are all the largest size,
    so that the slowest ops are several items of one cost.
    """
    rng = random.Random(f"lattice:{seed}")
    m = LATTICE_PER_SCENARIO
    lo, hi = LATTICE_POINTS
    ladder = [int(round(lo * (hi / lo) ** (i / (m - 1)))) for i in range(m)]
    items = []
    for scenario in LATTICE_SCENARIOS:
        sizes_for = ladder
        if scenario == "equivalence_sweep":
            # by far the costliest scenario: its top sizes set the tail
            sizes_for = ladder[:m - LATTICE_TAIL_ITEMS] + [hi] * LATTICE_TAIL_ITEMS
        corrections = CORRECTIONS
        if scenario == "lorentz_karamata_case":
            # the scenario needs a log weight factor
            corrections = tuple(c for c in CORRECTIONS if c[1])
        cells = [(corr, regime) for corr in corrections for regime in ("above", "below")]
        design = []
        for block in range(m // len(cells)):
            sizes = sizes_for[block * len(cells):(block + 1) * len(cells)]
            rng.shuffle(cells)
            cells.sort(key=lambda cell: cell[0][0] != "neg_bump")   # stable sort
            design.extend(zip(cells, sizes))
        rng.shuffle(design)
        cols = zip(design, _balanced(rng, Q_LEVELS, m), _balanced(rng, (False, True), m),
                   _balanced(rng, (1, 2), m), _balanced(rng, (1, 2, 3), m))
        group = []
        for ((corr, regime), points), q, with_p, k, n in cols:
            p = _p(rng, with_p)
            frac = _alpha_frac(rng, regime, 1.0 / (p or q))
            cfg = {"scenario": scenario}
            cfg.update(_kernel_and_space(rng, n, q, p, corr, frac))
            cfg.update({"k": k, "n": n, "grid.points": points,
                        "seed": rng.randrange(1 << 30)})
            group.append(config_text(cfg))
        items.extend(group)
    rng.shuffle(items)
    return items


def smoothness_configs(seed: int) -> list[str]:
    """Convolution scenarios: both kernel variants, field.resolution in
    {256, 512}, varied q, alpha and k, n in 1..3.

    Each (scenario, variant, resolution) cell but SMOOTHNESS_SKIPPED
    holds one "embedded" item: one-dimensional with alpha/n above 1/q,
    so that the whole smoothness path runs.  Resolution 256 takes q = 2 and resolution 512 takes
    q = 4; k is 1 at 256 and 2 at 512 for the power kernel, and the
    other way round for the Bessel kernel.  Each scenario also holds one
    light item: `besov_case` one-dimensional below that exponent (an
    embedding verdict), `covering_sample` two- or three-dimensional.
    Resolution, k, q and these roles decide the cost and the outcome of
    an item, so they are fixed and the seed draws alpha, the fields and
    the light items: a seed's costliest items, which set the tail, are
    then the same cells.  Light items are few, so the median op is an
    embedded one, in the middle of the mid-cost group.
    """
    rng = random.Random(f"smoothness:{seed}")
    items = []

    def item(scenario, variant, resolution, k, q, role):
        n = rng.choice((2, 3)) if role == "multidim" else 1
        if role == "subcritical":
            frac = rng.uniform(0.05, 1.0 / q - 0.05)
        else:
            frac = rng.uniform(1.0 / q + 0.05, 0.95)
        cfg = {"scenario": scenario}
        cfg.update(_kernel_and_space(rng, n, q, None, ("none", False), frac, variant))
        cfg.update({"k": k, "n": n, "field.resolution": resolution,
                    "seed": rng.randrange(1 << 30)})
        items.append(config_text(cfg))

    variants = ("power", "bessel_mcdonald")
    for scenario in SMOOTHNESS_SCENARIOS:
        for variant, ks in zip(variants, ((1, 2), (2, 1))):
            for resolution, k, q in zip(SMOOTHNESS_RESOLUTIONS, ks, (2.0, 4.0)):
                if (scenario, variant, resolution) != SMOOTHNESS_SKIPPED:
                    item(scenario, variant, resolution, k, q, "embedded")
    for scenario, role in zip(SMOOTHNESS_SCENARIOS, ("subcritical", "multidim")):
        item(scenario, rng.choice(variants), rng.choice(SMOOTHNESS_RESOLUTIONS),
             rng.choice((1, 2)), rng.choice(Q_LEVELS[1:]), role)
    rng.shuffle(items)
    return items


def sweep_configs(seed: int) -> list[str]:
    """One config directory for the cold CLI workload: every scenario
    once, one more one-dimensional `besov_case`, so that a two-worker
    pool has two long items to run in parallel, and one two- or
    three-dimensional `besov_case`.  Sizes stay small: this workload
    measures process start, imports, the pool and output writing.

    The configs are well conditioned: q in {2, 4}, alpha/n above 1/q,
    no kernel log factor.  Each item's cost and outcome then hardly depend
    on the seed; `lattice` and `smoothness` cover the parameter space and
    its defects.  In particular every aggregate here is finite: an item
    whose aggregate is infinite everywhere has an empty `psi` series, and
    `write_report` then raises IndexError, which ends the whole sweep
    process without a summary (see perfbench/README.md).
    """
    rng = random.Random(f"cli_sweep:{seed}")
    out = []
    for scenario, n in ([(s, None) for s in LATTICE_SCENARIOS]
                        + [(s, 1) for s in SMOOTHNESS_SCENARIOS]
                        + [("besov_case", 1), ("besov_case", rng.choice((2, 3)))]):
        # one-dimensional convolution items have k = 1, so their cost
        # hardly depends on the seed; the two- or three-dimensional one
        # meets the one-dimensional field family and fails
        field = scenario in SMOOTHNESS_SCENARIOS
        n = n or rng.choice((1, 2, 3))
        blog = scenario == "lorentz_karamata_case" or rng.random() < 0.5
        q = rng.choice(Q_LEVELS[2:])
        cfg = {"scenario": scenario}
        cfg.update(_kernel_and_space(rng, n, q, None, ("none", blog),
                                     rng.uniform(1.0 / q + 0.05, 0.95)))
        cfg.update({"k": 1 if field else rng.choice((1, 2)), "n": n,
                    "grid.points": 256 if field else rng.choice((256, 384, 512)),
                    "field.resolution": 128,
                    "seed": rng.randrange(1 << 30)})
        out.append(config_text(cfg))
    return out


GENERATORS = {
    "lattice": lattice_configs,
    "smoothness": smoothness_configs,
    "cli_sweep": sweep_configs,
}
