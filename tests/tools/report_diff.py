"""Compare the reports of the working tree with those of another revision.

    python tests/tools/report_diff.py <rev>

The committed files of <rev> are unpacked (`git archive`) into a
temporary directory, removed again afterwards.  Each side then runs, in its own subprocess with that
side's `src/` first on the path, the same configs, taken from the
working tree:

  * every item of seeds 101-110 of the three generators in
    `perfbench/workloads.py` (lattice, smoothness, cli_sweep);
  * every config in `tests/data` and `tests/data/golden`.

Each item is `cli.run(cli.parse_config_text(text))`; a config the
program rejects before running (ConfigInvalid) is recorded by its
error.  A report that differs apart from `wall_time_s` is printed with
its number of changed floats and their largest relative change, and
the tool exits 1 if any report differs, 0 if all are identical.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import json
import math
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SEEDS = range(101, 111)
WORKLOADS = ("lattice", "smoothness", "cli_sweep")

# run in each side's subprocess: argv holds that side's src/, a JSON
# list of config texts and the file for the JSON list of report texts
_RUNNER = """
import json, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from calderon_lab import cli
from calderon_lab.errors import ToolkitError
out = []
for text in json.loads(Path(sys.argv[2]).read_text()):
    try:
        out.append(cli.run(cli.parse_config_text(text)).to_json())
    except ToolkitError as exc:
        out.append(f"raised {type(exc).__name__}: {exc}")
Path(sys.argv[3]).write_text(json.dumps(out))
"""


def configs() -> list[tuple[str, str]]:
    """(label, config text) of every item compared, from the working tree."""
    spec = importlib.util.spec_from_file_location(
        "_bench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    items = [(f"{name} seed {seed} #{i}", text)
             for name in WORKLOADS for seed in SEEDS
             for i, text in enumerate(workloads.GENERATORS[name](seed))]
    data = ROOT / "tests" / "data"
    for path in sorted(data.glob("*.cfg")) + sorted((data / "golden").glob("*.cfg")):
        items.append((str(path.relative_to(ROOT)), path.read_text()))
    return items


def _normalised(report: str) -> object:
    """The report without wall_time_s, or the text of a rejection."""
    try:
        doc = json.loads(report)
    except json.JSONDecodeError:
        return report
    doc.pop("wall_time_s", None)
    return doc


def compare(old: str, new: str) -> tuple[int, float, int] | None:
    """None when the two reports are the same apart from wall_time_s;
    else (floats changed, their largest relative change, other values
    changed), a structural change counting as one other value."""
    a, b = _normalised(old), _normalised(new)
    if json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True):
        return None
    floats, worst, other = 0, 0.0, 0

    def walk(x, y):
        nonlocal floats, worst, other
        if isinstance(x, float) and isinstance(y, float):
            if repr(x) == repr(y):      # NaN equals NaN, -0.0 differs from 0.0
                return
            floats += 1
            scale = max(abs(x), abs(y))
            rel = abs(x - y) / scale if scale else 0.0
            worst = max(worst, rel if math.isfinite(rel) else math.inf)
        elif isinstance(x, dict) and isinstance(y, dict) and x.keys() == y.keys():
            for key in x:
                walk(x[key], y[key])
        elif isinstance(x, list) and isinstance(y, list) and len(x) == len(y):
            for u, v in zip(x, y):
                walk(u, v)
        elif type(x) is not type(y) or x != y:
            other += 1

    walk(a, b)
    return floats, worst, other


def run_sides(trees: list[Path], texts: list[str], tmp: Path) -> list[list[str]]:
    """The report texts of each tree, its runner started beside the others."""
    configs_file = tmp / "configs.json"
    configs_file.write_text(json.dumps(texts))
    outs = [tmp / f"reports_{i}.json" for i in range(len(trees))]
    procs = [subprocess.Popen([sys.executable, "-c", _RUNNER, str(tree / "src"),
                               str(configs_file), str(out)])
             for tree, out in zip(trees, outs)]
    if any([proc.wait() for proc in procs]):
        raise SystemExit("report_diff: a side's runner failed")
    return [json.loads(out.read_text()) for out in outs]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="the revision to compare the working tree with")
    args = parser.parse_args(argv)
    items = configs()
    texts = [text for _, text in items]
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.rev],
                             check=True, capture_output=True).stdout
    with tempfile.TemporaryDirectory(prefix="report_diff_") as tmp:
        old_tree = Path(tmp) / "old"
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(old_tree, filter="data")
        old, new = run_sides([old_tree, ROOT], texts, Path(tmp))
    differ = 0
    for (label, _), a, b in zip(items, old, new):
        diff = compare(a, b)
        if diff is not None:
            differ += 1
            floats, worst, other = diff
            print(f"{label}: {floats} floats changed, largest relative change "
                  f"{worst:.3g}" + (f", {other} other values changed" if other else ""))
    print(f"{differ} of {len(items)} reports differ from {args.rev} apart from wall_time_s")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
