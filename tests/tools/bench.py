"""Traced peak memory of fixed runs, for the working tree and another revision.

    python tests/tools/bench.py [<rev>]

Each number is the peak of the memory that tracemalloc traces while one
call runs, after one untraced call of the same call, so that lazy
imports and caches do not count (the method of the tests'
`traced_peak_mib` fixture; numpy reports its array buffers to
tracemalloc).  The calls:

  * `cli.run(cli.parse_config_text(text))` of each config text in
    CONFIGS: the 4000-point k/n = 2 equivalence sweep, a 4000-point
    envelope, a k = 2 besov_case at field resolution 512 and a
    covering_sample.  Config texts keep the runs independent of the
    library's signatures;
  * `AssociateNormEngine.rho0_family` of the 4000-point sample family
    at k/n = 2, with the engine and the family built before it.

The working tree is measured and, given <rev>, that revision too, its
committed files unpacked (`git archive`) into a temporary directory
removed again afterwards.  Each side runs in its own subprocess with that
side's `src/` first on the path.  The record, with the Python and numpy
versions, is written to BENCH_layers.json at the repository root, and a
table of the peaks in MiB is printed.  A run whose report carries an
error stops the tool with exit status 1, as its peak would mean nothing.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import io
import json
import platform
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RECORD = ROOT / "BENCH_layers.json"

CONFIGS = {
    "equivalence_sweep_k2_4000": (
        "scenario = equivalence_sweep\nspace.q = 2\nkernel.alpha = 0.7\n"
        "k = 2\nn = 1\ngrid.points = 4000\n"),
    "envelope_4000": (
        "scenario = envelope\nspace.q = 2\nkernel.variant = power\nkernel.alpha = 1.5\n"
        "k = 1\nn = 2\ngrid.points = 4000\n"),
    "besov_case_k2_512": (
        "scenario = besov_case\nkernel.variant = bessel_mcdonald\nkernel.alpha = 0.848\n"
        "space.q = 2\nk = 2\nfield.resolution = 512\n"),
    "covering_sample": (
        "scenario = covering_sample\nspace.q = 2\nkernel.variant = bessel_mcdonald\n"
        "kernel.alpha = 0.75\nk = 2\nn = 1\ngrid.points = 256\nfield.resolution = 128\n"
        "seed = 11\n"),
}
LAYERS = ("rho0_family_k2_4000",)

# run in each side's subprocess: argv holds this file and that side's
# src/; the peaks go to stdout as one JSON object
_RUNNER = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("bench", sys.argv[1])
bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench)
print(json.dumps(bench.measure(sys.argv[2])))
"""


def traced_peak_mib(fn) -> float:
    """The peak of the memory traced while fn runs, in MiB, fn having run
    once untraced first."""
    import tracemalloc
    fn()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return (tracemalloc.get_traced_memory()[1] - base) / 2 ** 20
    finally:
        tracemalloc.stop()


def measure(src: str) -> dict:
    """The peak of every config and layer, run by the package under `src`."""
    sys.path.insert(0, src)
    from calderon_lab import cli
    from calderon_lab.gridfn import make_log_grid, sample
    from calderon_lab.lorentz import LorentzSpace, WeightSpec
    from calderon_lab.optimal import AssociateNormEngine, sample_family

    peaks = {}
    for name, text in CONFIGS.items():
        cfg = cli.parse_config_text(text)
        reports = []
        peaks[name] = traced_peak_mib(lambda: reports.append(cli.run(cfg)))
        errors = {rec.error for rec in reports}
        if errors != {None}:
            raise SystemExit(f"bench: {name} failed under {src}: {errors}")
    g = make_log_grid(1e-8, 1.0, 4000)
    eng = AssociateNormEngine(LorentzSpace(2.0, WeightSpec(power_exponent=0.0), g),
                              sample(lambda t: t ** -0.75, g), 2, 1)
    family = sample_family(g)
    peaks["rho0_family_k2_4000"] = traced_peak_mib(lambda: eng.rho0_family(family))
    return {name: round(value, 4) for name, value in peaks.items()}


def run_side(tree: Path) -> dict:
    proc = subprocess.run([sys.executable, "-c", _RUNNER, __file__, str(tree / "src")],
                          stdout=subprocess.PIPE, text=True)
    if proc.returncode:
        raise SystemExit(f"bench: the runner failed under {tree}")
    return json.loads(proc.stdout.splitlines()[-1])


def table(record: dict) -> str:
    """The peaks of every side as a Markdown table, one row per run."""
    sides = record["sides"]
    lines = ["| run | " + " | ".join(side["tree"] for side in sides) + " |",
             "|---" * (len(sides) + 1) + "|"]
    for name in [*CONFIGS, *LAYERS]:
        lines.append(f"| {name} | "
                     + " | ".join(f"{side['peaks_mib'][name]:.2f}" for side in sides) + " |")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", nargs="?", help="a revision to measure beside the working tree")
    args = parser.parse_args(argv)
    sides = []
    if args.rev:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify",
                              args.rev + "^{commit}"],
                             check=True, capture_output=True, text=True).stdout.strip()
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", sha],
                                 check=True, capture_output=True).stdout
        with tempfile.TemporaryDirectory(prefix="bench_") as tmp:
            with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
                tar.extractall(tmp, filter="data")
            sides.append({"tree": sha[:12], "peaks_mib": run_side(Path(tmp))})
    sides.append({"tree": "working tree", "peaks_mib": run_side(ROOT)})
    record = {"tool": "tests/tools/bench.py", "metric": "traced_peak_mib",
              "python": platform.python_version(), "numpy": importlib.metadata.version("numpy"),
              "configs": CONFIGS, "layers": list(LAYERS), "sides": sides}
    RECORD.write_text(json.dumps(record, indent=2) + "\n")
    print(table(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
