"""Paths, subprocess plumbing, statistics and output checks shared by the
benchmark's workloads.  Standard library only."""

from __future__ import annotations

import csv
import json
import math
import os
import statistics
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUNS = BENCH_DIR / "_runs"           # run records and scratch output (git-ignored)
PACKAGE = SRC / "calderon_lab" / "__init__.py"

# error classes that are mathematical verdicts, not failures
VERDICTS = frozenset({"NotEmbedded", "TrivialSpace", "Inconclusive"})
# a tail percentile needs at least this many samples beyond it
TAIL_BEYOND = 10


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, a failed probe)."""


def require_sources() -> None:
    if not PACKAGE.is_file():
        raise BenchError(f"program sources not found: expected {PACKAGE.relative_to(ROOT)}")


def import_program():
    """Import calderon_lab from this checkout's src/, never from elsewhere."""
    require_sources()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import calderon_lab
    if Path(calderon_lab.__file__).resolve() != PACKAGE.resolve():
        raise BenchError(f"calderon_lab imported from {calderon_lab.__file__}, not src/")
    return calderon_lab


def child_env() -> dict:
    """Environment for program subprocesses: this checkout's sources
    first, and no worker-count override (the CLI flag decides)."""
    env = dict(os.environ)
    env.pop("CALDERON_LAB_WORKERS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def median(values) -> float:
    return float(statistics.median(values))


def spread_out(ops: int, probes: int) -> list[int]:
    """How many of `probes` probes to run before each of `ops` ops, so
    that they fall evenly over the run."""
    counts = [0] * ops
    for j in range(probes):
        counts[j * ops // probes] += 1
    return counts


def tail(values) -> tuple[float, float]:
    """The highest nearest-rank percentile with at least TAIL_BEYOND
    samples above it, and that percentile.  With too few samples this is
    the maximum (percentile 100)."""
    xs = sorted(values)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0
    rank = n - TAIL_BEYOND           # 1-based rank; TAIL_BEYOND samples lie above
    return xs[rank - 1], 100.0 * rank / n


# ---------------------------------------------------------------------------
# report checks
# ---------------------------------------------------------------------------

def strip_wall_time(report_json: str) -> str:
    """A report with its wall-time field removed: the part that must be
    byte-identical between runs of the same config."""
    doc = json.loads(report_json)
    doc.pop("wall_time_s", None)
    return json.dumps(doc, sort_keys=True)


def item_failed(report: dict) -> bool:
    """An item fails on any error other than a mathematical verdict
    (config rejections included) or on any failed assertion."""
    error = report.get("error")
    if error and error.split(":", 1)[0] not in VERDICTS:
        return True
    return not all(a.get("passed") for a in report.get("assertions", {}).values())


def check_series_file(path: Path, sep: str, header: str | None) -> str | None:
    """Problem with one series file, or None: two numeric columns,
    strictly increasing t, no duplicates."""
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        return f"{path.name}: {exc}"
    if header is not None:
        if not lines or lines[0] != header:
            return f"{path.name}: header is not {header!r}"
        lines = lines[1:]
    previous = -math.inf
    for number, line in enumerate(lines, start=1):
        cells = line.split(sep)
        try:
            t, _ = (float(c) for c in cells)
        except ValueError:
            return f"{path.name}: row {number} is not two numbers"
        if not t > previous:
            return f"{path.name}: t not strictly increasing at row {number}"
        previous = t
    return None


def check_item_dir(item_dir: Path) -> tuple[str | None, str | None]:
    """(report text, problem) for one sweep item's output directory."""
    try:
        text = (item_dir / "report.json").read_text()
        report = json.loads(text)
    except (OSError, ValueError) as exc:
        return None, f"{item_dir.name}: report.json unreadable: {exc}"
    for name in report.get("series", []):
        for suffix, sep, header in ((".csv", ",", "t,value"), (".dat", " ", None)):
            problem = check_series_file(item_dir / "series" / f"{name}{suffix}", sep, header)
            if problem:
                return text, f"{item_dir.name}: {problem}"
    return text, None


def read_summary(path: Path) -> list[dict] | None:
    try:
        with path.open(newline="") as fh:
            return list(csv.DictReader(fh))
    except OSError:
        return None
