"""Fast self-check of the benchmark harness.

    python3 perfbench/check_harness.py

Checks that the same seed gives the same configs, that the self-time
arithmetic is right on a synthetic span tree, that the tail rule picks
the right rank, that every metric the benchmark can print is named,
with its unit, in BENCHMARK.json, and that the tracer's step count for
`modulus_curve` matches the steps the program takes on tiny fields.
Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common      # noqa: E402
import run         # noqa: E402
import tracer      # noqa: E402
import workloads   # noqa: E402


def check_generators() -> None:
    for name, generate in workloads.GENERATORS.items():
        first, again, other = generate(7), generate(7), generate(8)
        assert first == again, f"{name}: seed 7 gives two different config lists"
        assert first != other, f"{name}: seeds 7 and 8 give the same configs"
        assert len(first) == len(other), f"{name}: item count depends on the seed"
        for text in first:
            keys = [line.split("=", 1)[0].strip() for line in text.splitlines()]
            assert keys[0] == "scenario" and len(keys) == len(set(keys)), text
    scenarios = {t.splitlines()[0].split("=")[1].strip()
                 for t in workloads.sweep_configs(7)}
    assert scenarios == set(workloads.ALL_SCENARIOS), "cli_sweep misses a scenario"


def check_self_times() -> None:
    # root 0 [0, 10] on thread 1: child 1 [1, 4] with grandchild 2 [2, 3];
    # children 3 [5, 9] and 4 [6, 8] on thread 2 overlap
    def span(sid, parent, name, start, end, thread=1):
        return (sid, parent, name, start, end, 0, thread, None, None)

    spans = [span(2, 1, "gridfn.integrate", 2.0, 3.0),
             span(1, 0, "lorentz.associate_norm", 1.0, 4.0),
             span(3, 0, "cli.run", 5.0, 9.0, thread=2),
             span(4, 0, "cli.run", 6.0, 8.0, thread=2),
             span(0, -1, "cli.sweep", 0.0, 10.0)]
    selfs = tracer.self_times(spans)
    expected = {0: 10.0 - 3.0 - 4.0, 1: 2.0, 2: 1.0, 3: 4.0, 4: 2.0}
    for sid, value in expected.items():
        assert abs(selfs[sid] - value) < 1e-12, (sid, selfs[sid], value)
    metrics = tracer.layer_metrics(spans)
    assert metrics["gridfn.integrate.calls"] == 1
    assert abs(metrics["cli.run.self_s"] - 6.0) < 1e-12
    assert abs(metrics["cli.self_s"] - 9.0) < 1e-12
    assert abs(tracer.parallel_efficiency(spans, 2) - 6.0 / 20.0) < 1e-12
    assert abs(tracer.main_thread_self(spans, 1) - 10.0) < 1e-12


def check_tail() -> None:
    assert common.tail(range(1, 101)) == (90, 90.0)
    assert common.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def check_metric_names() -> None:
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert declared == run.END_TO_END, "end_to_end differs from BENCHMARK.json"
    printed = dict.fromkeys(tracer.layer_metrics([]), None)
    printed.update(tracer.EXTRA_PER_LAYER)
    units = run.units()
    assert printed.keys() == units.keys()
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared == units, "per_layer differs from BENCHMARK.json"
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)


def check_modulus_steps() -> None:
    """tracer._modulus_steps restates how modulus_of_smoothness samples
    steps; count the program's private difference evaluations on tiny
    fields and compare."""
    program = common.import_program()
    potentials = program.potentials
    original = potentials._difference_sup
    calls = [0]

    def counting(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    t_grid = program.make_log_grid(0.01, 0.2, 3)
    potentials._difference_sup = counting
    try:
        for n, directions in ((1, 16), (1, 5), (2, 16), (2, 3), (3, 6)):
            field = potentials.sample_field(
                lambda *xs: sum(x * x for x in xs), n, 1.0, 16)
            for k in (1, 2):
                calls[0] = 0
                potentials.modulus_curve(field, k, t_grid, directions=directions)
                expected = tracer._modulus_steps((field, k, t_grid),
                                                 {"directions": directions}, None)
                assert calls[0] == expected["steps"], (n, directions, k, calls[0], expected)
    finally:
        potentials._difference_sup = original


def main() -> int:
    checks = (check_generators, check_self_times, check_tail, check_metric_names,
              check_modulus_steps)
    for check in checks:
        try:
            check()
        except AssertionError as exc:
            print(f"FAIL {check.__name__}: {exc}")
            return 1
        print(f"ok   {check.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
