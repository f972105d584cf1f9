"""Per-layer tracing from outside the package.

``install`` wraps the public functions of each layer module (plus the eps
methods, the sampler build and the calibration's SciPy least-squares call)
and rebinds every module attribute that refers to them, so calls between
modules, such as ``roughness.pressure_plane_plane``, pass through the
wrappers too. Each wrapped call is a span on a stack: its self time is its
duration minus its children's, and it is charged to its layer. Helper
modules (``numerics``, the kernel backends) are not wrapped, so their time
counts toward the layer that called them.

Spans are kept in memory with parent links, except for the hot leaf calls
(eps evaluations and the functions below them), which are only counted
and timed. Span durations include the round's speed-probe interruptions
(about 2.5%); self times exclude them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

PACKAGE = "casimir_mto"
LAYERS = ("materials", "lifshitz", "roughness", "oscillator",
          "electrostatics", "yukawa", "cli")

# Called thousands of times per integral: counted and timed, no span record.
QUIET = {
    "materials.SampledDielectric.eps", "materials.DrudeOnly.eps",
    "materials.Tabulated.eps", "materials.drude_eps", "materials.drude_eps2",
    "materials.kk_to_imaginary_axis", "materials.drude_eps_via_dispersion",
    "oscillator.resonant_frequency", "oscillator.gradient_from_frequency",
    "yukawa.yukawa_force_sphere_plane",
}
EPS_METHODS = ("SampledDielectric", "DrudeOnly", "Tabulated")


class Tracer:
    """Span stack with per-layer self time and named counters."""

    def __init__(self):
        self.spans: list[tuple] = []   # (id, parent id, name, start, end)
        self._stack: list[list] = []   # [span id, time covered by children]
        self._next_id = 0
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.time_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)

    def exclude(self, seconds: float) -> None:
        """Charge time spent outside the program (a speed probe) to no layer."""
        if self._stack:
            self._stack[-1][1] += seconds

    def call(self, layer, name, quiet, fn, args, kwargs, after):
        self._next_id += 1
        frame = [self._next_id, 0.0]
        parent = self._stack[-1][0] if self._stack else 0
        self._stack.append(frame)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self._stack.pop()
            d = t1 - t0
            self.self_s[layer] += d - frame[1]
            if self._stack:
                self._stack[-1][1] += d
            self.calls[name] += 1
            self.time_s[name] += d
            if not quiet:
                self.spans.append((frame[0], parent, name, t0, t1))
        if after is not None:
            after(self.counts, args, kwargs, result)
        return result


def _wrap(tracer: Tracer, layer: str, name: str, fn, after=None):
    quiet = name in QUIET

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(layer, name, quiet, fn, args, kwargs, after)

    return traced


# Counters read from a wrapped call's arguments or result.
def _count_integral(counts, args, kwargs, result):
    counts["lifshitz.inner_evals"] += int(result.evaluations)


def _count_average(counts, args, kwargs, result):
    dist = next(a for a in (*args, *kwargs.values()) if hasattr(a, "n_entries"))
    z = args[0] if args else kwargs["z"]
    counts["roughness.entry_integrals"] += dist.n_entries * int(np.size(z))


def _count_sweep(counts, args, kwargs, result):
    counts["oscillator.sweep_points"] += len(result)


def _count_nfev(counts, args, kwargs, result):
    counts["electrostatics.lm_nfev"] += int(result.nfev)


AFTER = {
    "lifshitz.pressure_plane_plane": _count_integral,
    "lifshitz.force_sphere_plane": _count_integral,
    "roughness.averaged_pressure": _count_average,
    "roughness.averaged_force": _count_average,
    "oscillator.simulate_sweep": _count_sweep,
    "electrostatics.least_squares": _count_nfev,
}


def install() -> Tracer:
    """Wrap the layers of the imported package and return the tracer."""
    tracer = Tracer()
    modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
    replace = {}  # id(original) -> wrapper
    for layer, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != mod.__name__:
                continue
            name = f"{layer}.{attr}"
            replace[id(obj)] = _wrap(tracer, layer, name, obj, AFTER.get(name))

    # The fit's SciPy boundary, where the LM evaluation count is read.
    es = modules["electrostatics"]
    es.least_squares = _wrap(tracer, "electrostatics", "electrostatics.least_squares",
                             es.least_squares, AFTER["electrostatics.least_squares"])

    mat = modules["materials"]
    for cls_name in EPS_METHODS:
        cls = getattr(mat, cls_name)
        name = f"materials.{cls_name}.eps"
        cls.eps = _wrap(tracer, "materials", name, cls.__dict__["eps"])
    build = mat.SampledDielectric.__dict__["from_model"].__func__
    mat.SampledDielectric.from_model = classmethod(
        _wrap(tracer, "materials", "materials.SampledDielectric.from_model", build))

    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
            continue
        for attr, obj in list(vars(mod).items()):
            wrapper = replace.get(id(obj))
            if wrapper is not None:
                setattr(mod, attr, wrapper)
    return tracer


def summarize(tracer: Tracer) -> dict:
    """Per-round layer numbers and the span durations used for percentiles."""
    c, n, t, s = tracer.counts, tracer.calls, tracer.time_s, tracer.self_s
    integrals = n["lifshitz.pressure_plane_plane"] + n["lifshitz.force_sphere_plane"]
    eps_names = [f"materials.{cls}.eps" for cls in EPS_METHODS]
    integral_names = ("lifshitz.pressure_plane_plane", "lifshitz.force_sphere_plane")
    return {
        "counts": {
            "lifshitz.integrals": integrals,
            "lifshitz.inner_evals": c["lifshitz.inner_evals"],
            "materials.eps_calls": sum(n[e] for e in eps_names),
            "materials.sampler_builds": n["materials.SampledDielectric.from_model"],
            "materials.registry_loads": n["materials.load_registry"],
            "roughness.averages": n["roughness.averaged_pressure"] + n["roughness.averaged_force"],
            "roughness.entry_integrals": c["roughness.entry_integrals"],
            "oscillator.sweep_points": c["oscillator.sweep_points"],
            "electrostatics.fits": n["electrostatics.calibrate"],
            "electrostatics.lm_nfev": c["electrostatics.lm_nfev"],
            "yukawa.limits": n["yukawa.alpha_limit"],
            "yukawa.force_evals": n["yukawa.yukawa_force_sphere_plane"],
            "cli.jobs": n["cli.main"],
        },
        "times_s": {
            **{f"{layer}.self_s": s[layer] for layer in LAYERS},
            "materials.eps_s": sum(t[e] for e in eps_names),
            "materials.sampler_build_s": t["materials.SampledDielectric.from_model"],
        },
        "integral_ms": [1e3 * (end - start) for _, _, name, start, end in tracer.spans
                        if name in integral_names],
        "fit_ms": [1e3 * (end - start) for _, _, name, start, end in tracer.spans
                   if name == "electrostatics.calibrate"],
        "spans": tracer.spans,
    }
