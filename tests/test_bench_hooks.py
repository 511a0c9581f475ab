"""The benchmark's tracer wraps the package's functions and methods by
name.  Renaming or deleting a traced method breaks `run.py --trace 1`,
and a renamed function silently zeroes its per-layer metrics, so this
test loads `perfbench/tracer.py` (without importing it as a package
module, and without writing anything next to it), installs it on the
package and checks that every name it relies on resolves."""

import inspect
import types
from pathlib import Path

import pytest

import calderon_lab

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
# span names of functions deleted on purpose: their metrics read 0 until
# the benchmark's own files drop them (the closed-form masses replaced
# the adaptive quadrature)
RETIRED = {"gridfn.integrate"}


def _load_tracer():
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


def _resolve(dotted: str):
    layer, attr = dotted.split(".", 1)
    return getattr(getattr(calderon_lab, layer), attr)


def test_tracer_installs_and_uninstalls():
    tracer = _load_tracer()
    before = calderon_lab.potentials.modulus_curve
    t = tracer.Tracer()
    try:
        t.install(calderon_lab)
        assert calderon_lab.potentials.modulus_curve is not before
    finally:
        t.uninstall()
    assert calderon_lab.potentials.modulus_curve is before


def test_tracer_names_resolve():
    tracer = _load_tracer()
    for layer in tracer.LAYERS:
        assert inspect.ismodule(getattr(calderon_lab, layer)), layer
    method_spans = set(tracer.METHODS.values())
    for (layer, cls_name, method) in tracer.METHODS:
        cls = getattr(getattr(calderon_lab, layer), cls_name)
        assert method in cls.__dict__, f"{layer}.{cls_name}.{method}"
    for metric, _, key, names in tracer.PER_LAYER:
        if key == "layer":
            assert inspect.ismodule(getattr(calderon_lab, names)), metric
            continue
        for name in names:
            if name in RETIRED:
                with pytest.raises(AttributeError):
                    _resolve(name)
            elif name not in method_spans:
                assert callable(_resolve(name)), f"{metric}: {name}"
    for name in tracer.COUNTERS:
        if name not in method_spans:
            assert callable(_resolve(name)), name


def test_modulus_counter_binds_the_signature():
    # the step counter binds modulus_curve's arguments by position to
    # the names u, k, t_grid, n, directions: a fifth parameter of the
    # signature would be bound as directions
    params = list(inspect.signature(calderon_lab.potentials.modulus_curve).parameters)
    assert params == ["u", "k", "t_grid", "n"]


def test_modulus_counter_reads_the_field_dimension():
    # the step counter reads u.n, which FieldSample keeps as a class
    # attribute for it: 2 * 16 steps per t of a one-dimensional field
    tracer = _load_tracer()
    field = calderon_lab.bump_and_staircase_family(count=1, resolution=64)[0][1]
    t_grid = calderon_lab.make_log_grid(1e-3, 1.0, 8)
    steps = tracer._modulus_steps((field, 1, t_grid), {}, None)
    assert steps == {"steps": t_grid.count * 32}
