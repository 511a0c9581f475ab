"""The schema of BENCH_layers.json, the record of tests/tools/bench.py;
no number in it is checked."""

import importlib.util
import json
import math
from pathlib import Path

from calderon_lab.cli import parse_config_text

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "bench", Path(__file__).resolve().parent / "tools" / "bench.py")
bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench)


def test_record_schema():
    doc = json.loads((ROOT / "BENCH_layers.json").read_text())
    assert set(doc) == {"tool", "metric", "python", "numpy", "configs", "layers", "sides"}
    assert (doc["tool"], doc["metric"]) == ("tests/tools/bench.py", "traced_peak_mib")
    assert isinstance(doc["python"], str) and isinstance(doc["numpy"], str)
    # the record was made with the tool's present configs
    assert doc["configs"] == bench.CONFIGS
    assert doc["layers"] == list(bench.LAYERS)
    names = {*bench.CONFIGS, *bench.LAYERS}
    assert doc["sides"] and doc["sides"][-1]["tree"] == "working tree"
    for side in doc["sides"]:
        assert set(side) == {"tree", "peaks_mib"}
        assert set(side["peaks_mib"]) == names
        assert all(isinstance(v, float) and math.isfinite(v) and v > 0
                   for v in side["peaks_mib"].values())
    assert len(bench.table(doc).splitlines()) == 2 + len(names)


def test_configs_parse():
    for text in bench.CONFIGS.values():
        parse_config_text(text)
