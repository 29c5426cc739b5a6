"""Spans and counts around the calls into fluxlab, from outside the package.

`install()` wraps, without touching the source:

- every public module-level function of the layer modules, plus the few
  private ones the per-layer metrics name (`_newton_inverse`,
  `_basis_potentials`, `_certified_generator`), and rebinds every
  `from .x import f` copy of each wrapped function in every fluxlab module;
- the public methods of the classes those modules define, on the class,
  plus `PeriodicInterpolator.__init__/__call__`,
  `VectorInterpolator.__init__/__call__`, `TimeField.__call__`,
  `TorusMap._get_interp` and `Isotopy._inverses`;
- the transforms of `numpy.fft` and `scipy.ndimage.map_coordinates`, the
  two kernels every layer calls.

Each call records a span (id, parent id, name, start, end, unit id).  Spans
stay in memory; `Tracer.dump` writes them once the traced work is done.
A layer's self time is the sum over its spans of the span's duration minus
the time covered by its child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("mesh", "interpolate", "forms", "maps", "isotopy", "displacement",
          "catalog", "suites")

FFT_FUNCTIONS = ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2",
                 "irfft2", "fftn", "ifftn", "rfftn", "irfftn", "hfft", "ihfft")

PRIVATE_FUNCTIONS = {"_newton_inverse", "_basis_potentials", "_certified_generator"}
EXTRA_METHODS = {
    "PeriodicInterpolator": ("__init__", "__call__"),
    "VectorInterpolator": ("__init__", "__call__"),
    "TorusMap": ("_get_interp",),
    "Isotopy": ("_inverses",),
    "TimeField": ("__call__",),
}

#: span name -> the per-layer metric stem it feeds, where the two differ
METRIC_OF = {
    "interpolate.PeriodicInterpolator.__init__": "interpolate.build",
    "interpolate.PeriodicInterpolator.__call__": "interpolate.eval",
    "mesh.GridMesh.derivative": "mesh.derivative",
    "maps._newton_inverse": "maps.newton_inverse",
    "isotopy.symplectic_flux": "isotopy.flux",
    "isotopy.volume_flux": "isotopy.flux",
    "isotopy.f_functional": "isotopy.path_functionals",
    "isotopy.f_functional_path": "isotopy.path_functionals",
    "isotopy.geodesic_functional": "isotopy.path_functionals",
    "isotopy.hofer_like_length": "isotopy.path_functionals",
    "isotopy.Isotopy._inverses": "isotopy.inverses",
    "isotopy.Isotopy.inverse_path": "isotopy.inverses",
    "displacement._basis_potentials": "displacement.basis_potentials",
    "displacement.UnitSphereSampler.materialize": "displacement.materialize",
}


class Tracer:
    """In-memory span recorder with running per-metric aggregates."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.unit = -1
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[tuple] = []      # (id, parent, name id, t0, t1, unit)
        self._stack: list[list] = []      # [id, t0, child_s]
        self._active: Counter = Counter()  # metric -> open spans
        self._flux_frames: list[list] = []
        self.calls: Counter = Counter()
        self.incl_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()

    def _name_id(self, name: str) -> int:
        i = self._name_ids.get(name)
        if i is None:
            i = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return i

    def wrap(self, fn, name: str, layer: str, on_call=None):
        """A wrapper of `fn` that records one span per call.

        `on_call(tracer, args, kwargs)` may add counts; it runs inside the
        span, before the call.
        """
        metric = METRIC_OF.get(name, name)
        if layer == "catalog":
            metric = "catalog.build"
        elif name.startswith("suites.suite_"):
            metric = "suites." + name[len("suites.suite_"):].replace("_", "-")
        outer_calls_only = layer == "catalog"
        name_id = self._name_id(name)
        clock = time.perf_counter
        stack, active = self._stack, self._active

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outermost = active[metric] == 0
            if outermost or not outer_calls_only:
                self.calls[metric] += 1
            active[metric] += 1
            parent = stack[-1][0] if stack else -1
            sid = len(self.spans)
            self.spans.append(None)
            frame = [sid, clock(), 0.0]
            stack.append(frame)
            try:
                if on_call is not None:
                    on_call(self, args, kwargs)
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                active[metric] -= 1
                dur = t1 - frame[1]
                self.self_s[layer] += dur - frame[2]
                if outermost:
                    self.incl_s[metric] += dur
                if stack:
                    stack[-1][2] += dur
                self.spans[sid] = (sid, parent, name_id, frame[1], t1, self.unit)

        return traced

    # -- hit/miss bookkeeping -------------------------------------------------

    def flux_enter(self):
        self._flux_frames.append([False])

    def flux_exit(self):
        missed = self._flux_frames.pop()[0]
        self.counts["isotopy.flux.lookups"] += 1
        self.counts["isotopy.flux.hits"] += 0 if missed else 1

    def flux_miss(self):
        if self._flux_frames:
            self._flux_frames[-1][0] = True

    # -- output ------------------------------------------------------------------

    def dump(self, path) -> None:
        """Write every span as one JSON document."""
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id,
                       "fields": ["id", "parent", "name", "start_s", "end_s", "unit"],
                       "names": self.names,
                       "spans": [s for s in self.spans if s is not None]}, fh)


def _points(coords) -> int:
    """Points in a (2, ...) coordinate array; a single (2,) point is one."""
    return int(math.prod(np.shape(coords)[1:]))


def _flux_wrapper(tracer: Tracer, traced):
    @functools.wraps(traced)
    def flux(*args, **kwargs):
        tracer.flux_enter()
        try:
            return traced(*args, **kwargs)
        finally:
            tracer.flux_exit()
    return flux


def install(tracer: Tracer) -> None:
    """Wrap the kernels, the layer functions and the layer methods."""
    import scipy.ndimage

    import fluxlab  # noqa: F401  (loads every layer module)

    for fname in FFT_FUNCTIONS:
        fn = getattr(np.fft, fname, None)
        if fn is not None:
            setattr(np.fft, fname, tracer.wrap(
                fn, "numpy.fft", "numpy.fft",
                lambda t, a, k: t.counts.update(
                    {"numpy.fft.elements": int(np.size(a[0] if a else k["a"]))})))
    scipy.ndimage.map_coordinates = tracer.wrap(
        scipy.ndimage.map_coordinates, "ndimage.map_coordinates",
        "ndimage.map_coordinates",
        lambda t, a, k: t.counts.update(
            {"ndimage.map_coordinates.points":
             _points(a[1] if len(a) > 1 else k["coordinates"])}))

    replaced: dict[int, object] = {}
    for layer in LAYERS:
        mod = sys.modules[f"fluxlab.{layer}"]
        for name, obj in list(vars(mod).items()):
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and (not name.startswith("_") or name in PRIVATE_FUNCTIONS)):
                replaced[id(obj)] = _wrap_function(tracer, layer, name, obj)
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__ \
                    and not issubclass(obj, BaseException):
                _wrap_methods(tracer, layer, obj)

    # rebind every copy (`from .x import f`) in every fluxlab module
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "fluxlab" and not mod_name.startswith("fluxlab."):
            continue
        for name, obj in list(vars(mod).items()):
            if id(obj) in replaced:
                setattr(mod, name, replaced[id(obj)])
    registry = sys.modules["fluxlab.suites"].SUITE_REGISTRY
    for key, fn in list(registry.items()):
        if id(fn) in replaced:
            registry[key] = replaced[id(fn)]


def _wrap_function(tracer: Tracer, layer: str, name: str, fn):
    span = f"{layer}.{name}"
    if span == "isotopy._certified_generator":
        return tracer.wrap(fn, span, layer, lambda t, a, k: t.flux_miss())
    traced = tracer.wrap(fn, span, layer)
    if span in ("isotopy.symplectic_flux", "isotopy.volume_flux"):
        return _flux_wrapper(tracer, traced)
    return traced


def _wrap_methods(tracer: Tracer, layer: str, cls) -> None:
    extra = EXTRA_METHODS.get(cls.__name__, ())
    for name, attr in list(vars(cls).items()):
        if not inspect.isfunction(attr):
            continue  # properties, cached properties, class/static methods
        if name.startswith("_") and name not in extra:
            continue
        span = f"{layer}.{cls.__name__}.{name}"
        on_call = _METHOD_COUNTERS.get(span)
        setattr(cls, name, tracer.wrap(attr, span, layer, on_call))


def _interp_eval(t: Tracer, a, k):
    t.counts["interpolate.eval.points"] += _points(a[1] if len(a) > 1 else k["points"])


def _get_interp(t: Tracer, a, k):
    self, key = a[0], (a[1] if len(a) > 1 else k["key"])
    t.counts["maps.interp_cache.lookups"] += 1
    t.counts["maps.interp_cache.hits"] += int(key in self._interp)


def _timefield_interp(t: Tracer, a, k):
    self, time_ = a[0], (a[1] if len(a) > 1 else k["t"])
    t.counts["isotopy.timefield_cache.lookups"] += 1
    t.counts["isotopy.timefield_cache.hits"] += int(self._key(time_) in self._interps)


def _timefield_call(t: Tracer, a, k):
    if t._active["isotopy.integrate_flow"]:
        t.counts["isotopy.integrate_flow.stages"] += 1


def _newton_step(t: Tracer, a, k):
    if t._active["maps.newton_inverse"]:
        t.counts["maps.newton_inverse.iterations"] += 1


_METHOD_COUNTERS = {
    "interpolate.PeriodicInterpolator.__call__": _interp_eval,
    "maps.TorusMap._get_interp": _get_interp,
    "maps.TorusMap.interp_jac_rough": _newton_step,
    "isotopy.TimeField.interp": _timefield_interp,
    "isotopy.TimeField.__call__": _timefield_call,
}


def _ratio(hits: float, lookups: float) -> float:
    return hits / lookups if lookups else 0.0


def layer_metrics(tracer: Tracer, suites) -> dict[str, float]:
    """The per-layer metrics, by name, from one tracer."""
    c, s, n, k = tracer.calls, tracer.incl_s, tracer.self_s, tracer.counts
    m = {
        "numpy.fft.calls": c["numpy.fft"],
        "numpy.fft.s": s["numpy.fft"],
        "numpy.fft.elements": k["numpy.fft.elements"],
        "ndimage.map_coordinates.calls": c["ndimage.map_coordinates"],
        "ndimage.map_coordinates.s": s["ndimage.map_coordinates"],
        "ndimage.map_coordinates.points": k["ndimage.map_coordinates.points"],
        "interpolate.build.calls": c["interpolate.build"],
        "interpolate.build.s": s["interpolate.build"],
        "interpolate.eval.calls": c["interpolate.eval"],
        "interpolate.eval.s": s["interpolate.eval"],
        "interpolate.eval.points": k["interpolate.eval.points"],
        "interpolate.self_s": n["interpolate"],
        "mesh.derivative.calls": c["mesh.derivative"],
        "mesh.self_s": n["mesh"],
        "forms.hodge_decompose.calls": c["forms.hodge_decompose"],
        "forms.hodge_decompose.s": s["forms.hodge_decompose"],
        "forms.self_s": n["forms"],
        "maps.compose.calls": c["maps.compose"],
        "maps.compose.s": s["maps.compose"],
        "maps.newton_inverse.calls": c["maps.newton_inverse"],
        "maps.newton_inverse.s": s["maps.newton_inverse"],
        "maps.newton_inverse.iterations": k["maps.newton_inverse.iterations"],
        "maps.pullback_oneform.calls": c["maps.pullback_oneform"],
        "maps.pullback_oneform.s": s["maps.pullback_oneform"],
        "maps.interp_cache.hit_ratio": _ratio(k["maps.interp_cache.hits"],
                                              k["maps.interp_cache.lookups"]),
        "maps.self_s": n["maps"],
        "isotopy.integrate_flow.calls": c["isotopy.integrate_flow"],
        "isotopy.integrate_flow.s": s["isotopy.integrate_flow"],
        "isotopy.integrate_flow.stages": k["isotopy.integrate_flow.stages"],
        "isotopy.flux.calls": c["isotopy.flux"],
        "isotopy.flux.s": s["isotopy.flux"],
        "isotopy.flux.hit_ratio": _ratio(k["isotopy.flux.hits"],
                                         k["isotopy.flux.lookups"]),
        "isotopy.orbit_integral.calls": c["isotopy.orbit_integral"],
        "isotopy.orbit_integral.s": s["isotopy.orbit_integral"],
        "isotopy.path_functionals.s": s["isotopy.path_functionals"],
        "isotopy.inverses.s": s["isotopy.inverses"],
        "isotopy.commutator_generator.s": s["isotopy.commutator_generator"],
        "isotopy.timefield_cache.hit_ratio": _ratio(
            k["isotopy.timefield_cache.hits"], k["isotopy.timefield_cache.lookups"]),
        "isotopy.self_s": n["isotopy"],
        "displacement.psi_norm.calls": c["displacement.psi_norm"],
        "displacement.psi_norm.s": s["displacement.psi_norm"],
        "displacement.psi_norm.hit_ratio": (
            1.0 - c["displacement.basis_potentials"] / c["displacement.psi_norm"]
            if c["displacement.psi_norm"] else 0.0),
        "displacement.basis_potentials.calls": c["displacement.basis_potentials"],
        "displacement.basis_potentials.s": s["displacement.basis_potentials"],
        "displacement.materialize.calls": c["displacement.materialize"],
        "displacement.materialize.s": s["displacement.materialize"],
        "displacement.delta_via_flux.calls": c["displacement.delta_via_flux"],
        "displacement.delta_via_flux.s": s["displacement.delta_via_flux"],
        "displacement.self_s": n["displacement"],
        "catalog.build.calls": c["catalog.build"],
        "catalog.build.s": s["catalog.build"],
        "catalog.self_s": n["catalog"],
    }
    for suite in suites:
        m[f"suites.{suite}.s"] = s[f"suites.{suite}"]
    return m
