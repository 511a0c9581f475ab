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
# the benchmark's own files drop them.  The closed-form masses replaced
# the adaptive quadrature; the scenarios reach the modulus and its
# Stieltjes norm through modulus_curves and calderon_norms only.
RETIRED = {"gridfn.integrate", "potentials.modulus_curve",
           "potentials.stieltjes_modulus_norm"}


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
    before = calderon_lab.potentials.modulus_curves
    t = tracer.Tracer()
    try:
        t.install(calderon_lab)
        assert calderon_lab.potentials.modulus_curves is not before
    finally:
        t.uninstall()
    assert calderon_lab.potentials.modulus_curves is before


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
        if name in RETIRED:
            with pytest.raises(AttributeError):
                _resolve(name)
        elif name not in method_spans:
            assert callable(_resolve(name)), name

