"""In-memory spans around the calls into calderon_lab's modules, and the
per-layer metrics aggregated from them.

`Tracer.install()` replaces every public function of the traced modules
(and a few methods that carry the heavy work) by a wrapper that records
one span per call: name, start, end, parent span, op id and thread.
The program's code is not changed; the wrappers live here and are put in
place from the benchmark's own process (or from `child.py` in a CLI
child).  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import threading
import time
from pathlib import Path

import numpy as np

LAYERS = ("gridfn", "rearrange", "kernels", "lorentz", "optimal", "potentials", "cli")

# methods traced besides the public module-level functions: (module,
# class, method) -> span name
METHODS = {
    ("optimal", "AssociateNormEngine", "__init__"): "optimal.engine_build",
    **{("optimal", "AssociateNormEngine", m): "optimal.rho"
       for m in ("rho_tilde", "rho1", "rho2", "rho0", "rho0_hat")},
    ("kernels", "KernelSpec", "profile"): "kernels.profile",
}

# (metric name, unit, what to sum, span names).  What to sum is "calls",
# "self" (self-time), "errors", a counter or error class name, or
# "layer": the self-time of every span of that layer.
PER_LAYER = [
    ("gridfn.segment_masses.calls", "count", "calls", ("gridfn.segment_masses",)),
    ("gridfn.segment_masses.self_s", "s", "self", ("gridfn.segment_masses",)),
    ("gridfn.cumulative.self_s", "s", "self",
     ("gridfn.cumulative_from_zero", "gridfn.cumulative_tail")),
    ("gridfn.classify.calls", "count", "calls",
     ("gridfn.classify_zero_endpoint", "gridfn.classify_boundedness")),
    ("gridfn.classify.self_s", "s", "self",
     ("gridfn.classify_zero_endpoint", "gridfn.classify_boundedness")),
    ("gridfn.integrate.calls", "count", "calls", ("gridfn.integrate",)),
    ("gridfn.integrate.self_s", "s", "self", ("gridfn.integrate",)),
    ("gridfn.integrate.errors", "count", "errors", ("gridfn.integrate",)),
    ("gridfn.self_s", "s", "layer", "gridfn"),
    ("rearrange.decreasing_rearrangement.calls", "count", "calls",
     ("rearrange.decreasing_rearrangement",)),
    ("rearrange.decreasing_rearrangement.self_s", "s", "self",
     ("rearrange.decreasing_rearrangement",)),
    ("rearrange.self_s", "s", "layer", "rearrange"),
    ("kernels.profile.calls", "count", "calls", ("kernels.profile",)),
    ("kernels.profile.points", "count", "points", ("kernels.profile",)),
    ("kernels.profile.self_s", "s", "self", ("kernels.profile",)),
    ("kernels.check_derivative_conditions.self_s", "s", "self",
     ("kernels.check_derivative_conditions",)),
    ("kernels.self_s", "s", "layer", "kernels"),
    ("lorentz.embedding_function.calls", "count", "calls", ("lorentz.embedding_function",)),
    ("lorentz.embedding_function.self_s", "s", "self", ("lorentz.embedding_function",)),
    ("lorentz.embedding_criterion.calls", "count", "calls", ("lorentz.embedding_criterion",)),
    ("lorentz.embedding_criterion.self_s", "s", "self", ("lorentz.embedding_criterion",)),
    ("lorentz.embedding_criterion.inconclusive", "count", "Inconclusive",
     ("lorentz.embedding_criterion",)),
    ("lorentz.associate_norm.calls", "count", "calls", ("lorentz.associate_norm",)),
    ("lorentz.associate_norm.self_s", "s", "self", ("lorentz.associate_norm",)),
    ("lorentz.self_s", "s", "layer", "lorentz"),
    ("optimal.engine_build.calls", "count", "calls", ("optimal.engine_build",)),
    ("optimal.engine_build.self_s", "s", "self", ("optimal.engine_build",)),
    ("optimal.engine_build.bytes_computed", "B", "bytes", ("optimal.engine_build",)),
    ("optimal.rho.calls", "count", "calls", ("optimal.rho",)),
    ("optimal.rho.self_s", "s", "self", ("optimal.rho",)),
    ("optimal.conditions.self_s", "s", "self",
     ("optimal.check_condition_a", "optimal.check_condition_b")),
    ("optimal.make_optimal_norm_spec.self_s", "s", "self", ("optimal.make_optimal_norm_spec",)),
    ("optimal.hardy_constants.self_s", "s", "self", ("optimal.hardy_constants",)),
    ("optimal.self_s", "s", "layer", "optimal"),
    ("potentials.convolve.calls", "count", "calls", ("potentials.convolve",)),
    ("potentials.convolve.self_s", "s", "self", ("potentials.convolve",)),
    ("potentials.convolve.errors", "count", "errors", ("potentials.convolve",)),
    ("potentials.modulus_curve.calls", "count", "calls", ("potentials.modulus_curve",)),
    # the curve's per-t modulus_of_smoothness calls are its work
    ("potentials.modulus_curve.self_s", "s", "self",
     ("potentials.modulus_curve", "potentials.modulus_of_smoothness")),
    ("potentials.modulus_steps", "count", "steps", ("potentials.modulus_curve",)),
    ("potentials.upper_cone_check.self_s", "s", "self", ("potentials.upper_cone_check",)),
    ("potentials.envelope_bounds.self_s", "s", "self", ("potentials.envelope_bounds",)),
    ("potentials.modulus_norms.self_s", "s", "self",
     ("potentials.stieltjes_modulus_norm", "potentials.power_modulus_norm")),
    ("potentials.self_s", "s", "layer", "potentials"),
    ("cli.parse.self_s", "s", "self", ("cli.parse_config_text",)),
    ("cli.run.self_s", "s", "self", ("cli.run",)),
    ("cli.write_report.calls", "count", "calls", ("cli.write_report",)),
    ("cli.write_report.self_s", "s", "self", ("cli.write_report",)),
    ("cli.write_report.bytes", "B", "bytes", ("cli.write_report",)),
    ("cli.self_s", "s", "layer", "cli"),
]
# measured outside the span tree, in run.py: name -> unit
EXTRA_PER_LAYER = {
    "cli.sweep.parallel_efficiency": "ratio",
    "setup.process_start_s": "s",
    "setup.import_s": "s",
    "setup.lazy_import_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.accounted_frac": "ratio",
    "trace.ops": "count",
}


# ---------------------------------------------------------------------------
# counters computed from a call's inputs and outputs
# ---------------------------------------------------------------------------

def _profile_points(args, kwargs, result):
    z = args[1] if len(args) > 1 else kwargs["z"]
    return {"points": int(np.size(z))}


def _engine_bytes(args, kwargs, result):
    space = args[1] if len(args) > 1 else kwargs["space"]
    n = len(space.grid.points)
    return {"bytes": 2 * n * n * 8}      # the ratio and cone-kernel matrices


def _modulus_steps(args, kwargs, result):
    names = ("u", "k", "t_grid", "n", "directions")
    bound = dict(zip(names, args), **kwargs)
    u, t_count = bound["u"], bound["t_grid"].count
    directions = bound.get("directions", 16)
    if u.n == 1:
        per_t = 2 * directions
    else:
        magnitudes = len(range(0, directions, 4)) if directions >= 4 else directions
        per_t = (magnitudes + 1) * 32
    return {"steps": t_count * per_t}


def _report_bytes(args, kwargs, result):
    record = args[0] if args else kwargs["record"]
    out = Path(args[1] if len(args) > 1 else kwargs["out_dir"])
    files = [out / "report.json"] + [out / "series" / f"{name}{suffix}"
                                     for name in record.series for suffix in (".csv", ".dat")]
    return {"bytes": sum(f.stat().st_size for f in files if f.exists())}


COUNTERS = {
    "kernels.profile": _profile_points,
    "optimal.engine_build": _engine_bytes,
    "potentials.modulus_curve": _modulus_steps,
    "cli.write_report": _report_bytes,
}


# ---------------------------------------------------------------------------
# recording
# ---------------------------------------------------------------------------

class Tracer:
    """Records spans; one instance per traced process.

    A span is a tuple (id, parent, name, start, end, op, thread, error,
    counters).  A span that starts on a thread other than the main one
    with nothing open on that thread is parented to the span open on the
    main thread, so a thread pool's items nest under the call that
    started the pool.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.op = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = threading.main_thread()
        self.main_ident = self._main.ident
        self._main_stack: list[int] = []
        self._undo: list[tuple] = []

    def _stack(self) -> list:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str):
        counter = COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            elif stack is not tracer._main_stack and tracer._main_stack:
                parent = tracer._main_stack[-1]
            else:
                parent = -1
            span_id = next(tracer._ids)
            stack.append(span_id)
            error, counts = None, None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                if counter is not None and error is None:
                    counts = counter(args, kwargs, result)
                tracer.spans.append((span_id, parent, name, start, end, tracer.op,
                                     threading.get_ident(), error, counts))
            return result

        return traced

    def span(self, name: str, start: float, end: float) -> None:
        """Record a span measured elsewhere (a root, on the main thread)."""
        self.spans.append((next(self._ids), -1, name, start, end, self.op,
                           threading.get_ident(), None, None))

    def install(self, package) -> None:
        """Wrap the traced functions of `package` (calderon_lab) in place,
        in every module namespace that holds them."""
        modules = [getattr(package, layer) for layer in LAYERS]
        namespaces = [package] + modules
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[1]
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                wrapped = self.wrap(fn, f"{layer}.{attr}")
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            self._undo.append((ns, key, value))
                            setattr(ns, key, wrapped)
        for (layer, cls_name, method), name in METHODS.items():
            cls = getattr(getattr(package, layer), cls_name)
            original = cls.__dict__[method]
            self._undo.append((cls, method, original))
            setattr(cls, method, self.wrap(original, name))

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of its interval that its child
    spans cover (children on several threads may overlap; their union
    is subtracted)."""
    children: dict[int, list] = {}
    for sid, parent, _, start, end, *_ in spans:
        children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _, _, start, end, *_ in spans:
        covered, cursor = 0.0, start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[sid] = (end - start) - covered
    return out


def aggregate(spans) -> dict[str, dict]:
    """Span name -> {"calls", "self", "errors", counter sums and error
    class counts}."""
    selfs = self_times(spans)
    out: dict[str, dict] = {}
    for sid, _, name, _, _, _, _, error, counts in spans:
        entry = out.setdefault(name, {"calls": 0, "self": 0.0, "errors": 0})
        entry["calls"] += 1
        entry["self"] += selfs[sid]
        if error is not None:
            entry["errors"] += 1
            entry[error] = entry.get(error, 0) + 1
        for key, value in (counts or {}).items():
            entry[key] = entry.get(key, 0) + value
    return out


def layer_metrics(spans) -> dict[str, float]:
    """The span-derived per-layer metrics of PER_LAYER, by name."""
    by_name = aggregate(spans)
    out = {}
    for metric, _, key, names in PER_LAYER:
        if key == "layer":
            out[metric] = sum(v["self"] for k, v in by_name.items()
                              if k.split(".", 1)[0] == names)
        else:
            out[metric] = sum(by_name.get(name, {}).get(key, 0) for name in names)
    return out


def main_thread_self(spans, main_thread: int) -> float:
    """Self-time summed over the spans of the main thread, as if the
    other threads' spans were not there: the wall time the spans cover
    on that thread."""
    return sum(self_times([s for s in spans if s[6] == main_thread]).values())


def parallel_efficiency(spans, workers: int) -> float:
    """Sum of sweep item times over workers times sweep wall, averaged
    over the sweeps traced; 0 when no sweep ran."""
    sweeps = {s[0]: s for s in spans if s[2] == "cli.sweep"}
    if not sweeps:
        return 0.0
    ratios = []
    for sid, sweep in sweeps.items():
        items = sum(s[4] - s[3] for s in spans if s[1] == sid and s[2] == "cli.run")
        ratios.append(items / (workers * (sweep[4] - sweep[3])))
    return sum(ratios) / len(ratios)
