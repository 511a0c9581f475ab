"""The comparison of tests/tools/report_diff.py on synthetic reports."""

import importlib.util
import json
import math
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "report_diff", Path(__file__).resolve().parent / "tools" / "report_diff.py")
report_diff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(report_diff)


def _report(**changes):
    doc = {"scenario": "besov_case", "inputs": {"k": 2, "space.q": 2.0},
           "scalars": {"factor_min": 1.25, "factor_max": 3.5, "spread": math.nan,
                       "ratios": [0.5, 2.0, math.inf]},
           "assertions": {"two_sided_factor": {"passed": True, "value": 2.8}},
           "series": ["psi"], "error": None, "wall_time_s": 0.0123}
    for key, value in changes.items():
        section, name = key.split("__")
        doc[section][name] = value
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_wall_time_and_nan_alone_are_no_difference():
    base = _report()
    assert report_diff.compare(base, base) is None
    other_time = json.loads(base)
    other_time["wall_time_s"] = 9.0
    assert report_diff.compare(base, json.dumps(other_time)) is None


def test_counts_changed_floats_and_largest_relative_change():
    base = _report()
    moved = _report(scalars__factor_min=1.25 * (1 + 4e-12),
                    scalars__ratios=[0.5, 2.0 * (1 - 1e-15), math.inf])
    floats, worst, other = report_diff.compare(base, moved)
    assert (floats, other) == (2, 0)
    assert math.isclose(worst, 4e-12, rel_tol=1e-3)


def test_other_changes_are_counted_apart():
    base = _report()
    # a NaN or an infinity that becomes a number changes without bound
    assert report_diff.compare(base, _report(scalars__spread=1.0)) == (1, math.inf, 0)
    assert report_diff.compare(base, _report(scalars__factor_min=-0.0)) == (1, 1.0, 0)
    assert report_diff.compare(_report(scalars__factor_min=0.0),
                               _report(scalars__factor_min=-0.0)) == (1, 0.0, 0)
    assert report_diff.compare(base, _report(assertions__two_sided_factor={
        "passed": False, "value": 2.8})) == (0, 0.0, 1)
    assert report_diff.compare(base, _report(scalars__extra=1.0)) == (0, 0.0, 1)
    assert report_diff.compare(base, _report(inputs__k=3)) == (0, 0.0, 1)
    rejected = "raised ConfigInvalid: k must be a positive integer"
    assert report_diff.compare(rejected, rejected) is None
    assert report_diff.compare(base, rejected) == (0, 0.0, 1)
