"""The lines of src/calderon_lab that no compared item reaches.

    python tests/tools/reach.py

Runs the items of `report_diff.configs()` (every item of seeds 101-110
of the three benchmark generators and every config in `tests/data`) in
this process under the stdlib `trace` module, as `report_diff.py` runs
them on each side, and prints, per module of `src/calderon_lab`, the
executable lines inside functions that no item reached.  Module-level
code is left out: a line that module or class-body code also starts
(an import, a def, decorator or default-argument line, a constant)
runs on import whatever the items do.  A run took 15.7 s on a 2-vCPU
VM.
"""

from __future__ import annotations

import dis
import importlib.util
import inspect
import sys
import trace
import types
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
ROOT = TOOLS.parents[1]
PACKAGE = ROOT / "src" / "calderon_lab"


def function_lines(source: str) -> set[int]:
    """The lines that code inside the functions of `source` starts,
    less those that its module-level or class-body code starts."""
    inside, outside = set(), set()
    stack = [compile(source, "<source>", "exec")]
    while stack:
        code = stack.pop()
        lines = {line for _, line in dis.findlinestarts(code) if line is not None}
        (inside if code.co_flags & inspect.CO_OPTIMIZED else outside).update(lines)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return inside - outside


def spans(lines) -> str:
    """'3-5, 9' for the lines 3, 4, 5 and 9."""
    out = []
    for line in sorted(lines):
        if out and out[-1][1] == line - 1:
            out[-1][1] = line
        else:
            out.append([line, line])
    return ", ".join(f"{a}-{b}" if a < b else f"{a}" for a, b in out)


def main() -> int:
    spec = importlib.util.spec_from_file_location("report_diff", TOOLS / "report_diff.py")
    report_diff = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(report_diff)
    items = report_diff.configs()
    tracer = trace.Trace(count=1, trace=0)
    tracer.runfunc(report_diff.run_items, str(ROOT / "src"), [text for _, text in items])
    reached = set(tracer.results().counts)
    total_missed = total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = function_lines(path.read_text())
        missed = {line for line in lines if (str(path), line) not in reached}
        total_missed += len(missed)
        total += len(lines)
        print(f"{path.name}: {len(missed)} of {len(lines)} lines unreached"
              + (f": {spans(missed)}" if missed else ""))
    print(f"{total_missed} of {total} function lines in src/calderon_lab "
          f"reached by none of {len(items)} items")
    return 0


if __name__ == "__main__":
    sys.exit(main())
