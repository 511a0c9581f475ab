"""The outcome of every benchmark item, pinned.

Every item that `tests/tools/report_diff.py` compares (seeds 101-110 of
the three workload generators, the `tests/data` and golden configs) and
each `selftest` item is run through `cli.run`.  Its outcome is the
scenario, the error class (None when the run ends without error), each
assertion's pass/fail and the `embeds`/`expected_embeds` verdicts; no
other float is compared.  The expected outcomes are in
`tests/data/outcomes.json`, which

    PYTHONPATH=src python tests/test_outcomes.py

writes again from the working tree.
"""

import importlib.util
import json
import sys
import warnings
from collections import Counter
from pathlib import Path

from calderon_lab import cli
from calderon_lab.errors import ConfigInvalid

HERE = Path(__file__).resolve().parent
OUTCOMES = HERE / "data" / "outcomes.json"

_SPEC = importlib.util.spec_from_file_location(
    "report_diff", HERE / "tools" / "report_diff.py")
report_diff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(report_diff)


def _outcome(rec: cli.ReportRecord) -> dict:
    out = {"scenario": rec.scenario,
           "error": rec.error.split(":", 1)[0] if rec.error else None,
           "assertions": {name: a["passed"] for name, a in rec.assertions.items()}}
    for key in ("embeds", "expected_embeds"):
        if key in rec.scalars:
            out[key] = bool(rec.scalars[key])
    return out


def census() -> dict:
    """label -> outcome of every item, in report_diff's order, then the
    selftest items."""
    outcomes = {}
    for label, text in report_diff.configs():
        cfg = cli.parse_config_text(text)
        try:
            outcomes[label] = _outcome(cli.run(cfg))
        except ConfigInvalid:
            outcomes[label] = {"scenario": cfg.scenario, "error": "ConfigInvalid",
                               "assertions": {}}
    for i, rec in enumerate(cli.selftest()):
        outcomes[f"selftest #{i}"] = _outcome(rec)
    return outcomes


def _kind(outcome: dict) -> str:
    if outcome["error"]:
        return outcome["error"]
    return "pass" if all(outcome["assertions"].values()) else "failed assertion"


def summary(outcomes: dict) -> dict:
    """Counts of each kind of outcome per workload (the label's first word)."""
    counts = {}
    for label, outcome in outcomes.items():
        counts.setdefault(label.split()[0], Counter())[_kind(outcome)] += 1
    return {name: dict(c.most_common()) for name, c in counts.items()}


def test_every_outcome_pinned():
    want = json.loads(OUTCOMES.read_text())
    got = census()
    assert list(got) == list(want)
    changed = [label for label in want if got[label] != want[label]]
    assert not changed, [(label, want[label], got[label]) for label in changed[:10]]


if __name__ == "__main__":
    # the test runs with RuntimeWarnings from the package as errors
    # (pyproject.toml), which turn a run into ScenarioFailed
    warnings.filterwarnings("error", category=RuntimeWarning, module="calderon_lab")
    outcomes = census()
    OUTCOMES.write_text("{\n" + ",\n".join(
        f"  {json.dumps(label)}: {json.dumps(outcome, sort_keys=True)}"
        for label, outcome in outcomes.items()) + "\n}\n")
    json.dump(summary(outcomes), sys.stdout, indent=1)
    print()
