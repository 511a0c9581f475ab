"""Golden reports: one small config per scenario, run through cli.run and
compared with the report.json contents checked in next to it.

Floats are compared to 1e-12 relative, so that a different BLAS
summation order cannot fail the test; everything else must match
exactly.  The expected files hold the report without `wall_time_s`.
"""

import json
import math
from pathlib import Path

import pytest

from calderon_lab import cli

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"
CONFIGS = sorted(GOLDEN.glob("*.cfg"))
REL_TOL = 1e-12


def _mismatches(got, want, path="$"):
    """Paths at which got differs from want."""
    if isinstance(want, float) and isinstance(got, float):
        if got == want or math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0):
            return []
        return [f"{path}: {got!r} != {want!r}"]
    if type(got) is not type(want):
        return [f"{path}: {type(got).__name__} != {type(want).__name__}"]
    if isinstance(want, dict):
        if set(got) != set(want):
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [m for key in want for m in _mismatches(got[key], want[key], f"{path}.{key}")]
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [m for i, (a, b) in enumerate(zip(got, want))
                for m in _mismatches(a, b, f"{path}[{i}]")]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


def test_mismatch_detector():
    assert _mismatches({"a": [1.0, "x"]}, {"a": [1.0 + 1e-15, "x"]}) == []
    assert _mismatches({"a": 1.0}, {"a": 1.0 + 1e-9}) != []
    assert _mismatches({"a": 1}, {"a": 1.0}) != []
    assert _mismatches({"a": "Infinity"}, {"a": "Infinity"}) == []


def test_one_config_per_scenario():
    assert sorted(p.stem for p in CONFIGS) == sorted(cli.SCENARIOS)


@pytest.mark.parametrize("cfg_path", CONFIGS, ids=lambda p: p.stem)
def test_report_matches_golden(cfg_path):
    got = json.loads(cli.run(cli.parse_config_text(cfg_path.read_text())).to_json())
    del got["wall_time_s"]
    want = json.loads(cfg_path.with_suffix(".json").read_text())
    assert _mismatches(got, want) == []
