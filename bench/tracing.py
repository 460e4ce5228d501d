"""Spans around each layer's public functions, wrapped from outside the program.

``Tracer.install()`` replaces each function at the module attribute its
callers look up (``casimirchip.designer.plate_pressure``,
``casimirchip.lifshitz.eps_imag_freq``, ...) with a wrapper that records a
span ``[name, start, end, parent, request, info]``.  Spans stay in memory;
``summarize`` turns them into per-layer numbers after the run.  Nothing in
the program changes, so a traced run computes exactly what an untraced one
does.
"""

from __future__ import annotations

import functools
import importlib
import math
import statistics
import threading
import warnings
from time import perf_counter

# (module, attribute, span name): every binding of a layer function that
# the CLI's code paths call through.
TARGETS = (
    ("cli", "main", "cli.main"),
    ("cli", "load_device_config", "config.load_device_config"),
    ("cli", "parse_material_spec", "config.parse_material_spec"),
    ("cli", "run_gap_sweep", "designer.run_gap_sweep"),
    ("cli", "simulate_temperature_scan", "designer.simulate_temperature_scan"),
    ("cli", "plate_pressure", "lifshitz.plate_pressure"),
    ("designer", "plate_pressure", "lifshitz.plate_pressure"),
    ("lifshitz", "plate_pressure", "lifshitz.plate_pressure"),
    ("designer", "differential_pressure", "lifshitz.differential_pressure"),
    ("lifshitz", "eps_imag_freq", "materials.eps_imag_freq"),
    ("lifshitz", "zero_frequency_plasma_weight", "materials.zero_frequency_plasma_weight"),
    ("cli", "pressure_to_gap_change", "mechanics.pressure_to_gap_change"),
    ("designer", "pressure_to_gap_change", "mechanics.pressure_to_gap_change"),
    ("cli", "gap_change_to_frequency_shift", "readout.gap_change_to_frequency_shift"),
    ("designer", "gap_change_to_frequency_shift", "readout.gap_change_to_frequency_shift"),
    ("cli", "pdh_voltage", "readout.pdh_voltage"),
    ("designer", "pdh_voltage", "readout.pdh_voltage"),
    ("designer", "min_detectable_pressure", "readout.min_detectable_pressure"),
    ("cli", "sweep_csv", "serialize.sweep_csv"),
    ("cli", "scan_csv", "serialize.scan_csv"),
    ("cli", "render_kv", "serialize.render_kv"),
)

# Layers whose self time is reported in the benchmark's result line: each
# runs on every workload.  designer does not run on point_queries, so its
# numbers go to the trace file only.
SELF_TIME_LAYERS = ("cli", "config", "lifshitz", "materials", "mechanics", "readout",
                    "serialize")


def _pressure_info(args, kwargs, result):
    gap, temperature, mat_a, mat_b = args[:4]
    bar = result.truncation_estimate + result.quadrature_estimate
    return {
        "key": f"{gap!r}|{temperature!r}|{mat_a!r}|{mat_b!r}",
        "terms": result.terms_used,
        "bar_rel": bar / abs(result.pressure) if result.pressure else math.inf,
    }


def _bytes_info(args, kwargs, result):
    return {"bytes": len(result.encode("utf-8"))}


INFO = {
    "lifshitz.plate_pressure": _pressure_info,
    "serialize.sweep_csv": _bytes_info,
    "serialize.scan_csv": _bytes_info,
    "serialize.render_kv": _bytes_info,
}


def _count_clamps(fn):
    """pdh_voltage, returning (voltage, clamp warnings it raised).

    Every warning is re-issued, so the program's stderr is unchanged apart
    from the registry's once-per-message filtering.
    """
    @functools.wraps(fn)
    def call(*args, **kwargs):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = fn(*args, **kwargs)
        for w in caught:
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
        return out, sum("linear PDH window" in str(w.message) for w in caught)

    return call


class Tracer:
    """Collects spans from wrapped layer functions; install, run, uninstall."""

    def __init__(self):
        self.spans = []
        self.request = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        info = INFO.get(name)
        clamps = name == "readout.pdh_voltage"
        inner = _count_clamps(fn) if clamps else fn

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request, None]
            with self._lock:
                stack.append(len(self.spans))
                self.spans.append(record)
            record[1] = perf_counter()
            try:
                result = inner(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if clamps:
                result, clamped = result
                record[5] = {"clamped": clamped}
            elif info is not None:
                record[5] = info(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(f"casimirchip.{module_name}")
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def percentile(values, q):
    """Nearest-rank percentile, q in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def summarize(spans, wall):
    """Per-function and per-layer numbers from a finished span list.

    A function's (or layer's) busy time counts only its outermost spans, so
    nested calls of the same function (layer) are not counted twice; self
    time is a span's duration minus the durations of its direct children.
    """
    dur = [end - start for _, start, end, _, _, _ in spans]
    child_time = [0.0] * len(spans)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            child_time[span[3]] += dur[i]

    def nested_in(i, match):
        parent = spans[i][3]
        while parent >= 0:
            if match(spans[parent][0]):
                return True
            parent = spans[parent][3]
        return False

    funcs, layers = {}, {}
    for i, (name, _, _, _, _, info) in enumerate(spans):
        layer = name.split(".")[0]
        f = funcs.setdefault(name, {"calls": 0, "busy_s": 0.0, "durations": [], "info": []})
        f["calls"] += 1
        f["durations"].append(dur[i])
        if info is not None:
            f["info"].append(info)
        if not nested_in(i, lambda n: n == name):
            f["busy_s"] += dur[i]
        lay = layers.setdefault(layer, {"busy_s": 0.0, "self_s": 0.0})
        lay["self_s"] += dur[i] - child_time[i]
        if not nested_in(i, lambda n: n.split(".")[0] == layer):
            lay["busy_s"] += dur[i]

    def calls(name):
        return funcs.get(name, {}).get("calls", 0)

    def busy(name):
        return funcs.get(name, {}).get("busy_s", 0.0)

    pressure = funcs.get("lifshitz.plate_pressure", {"durations": [], "info": []})
    infos = pressure["info"]
    terms = sum(i["terms"] for i in infos)
    loads = funcs.get("config.load_device_config", {"durations": []})["durations"]
    out = {
        "config.load_device_config.calls": calls("config.load_device_config"),
        "config.load_device_config.s": statistics.median(loads) if loads else 0.0,
        "lifshitz.plate_pressure.calls": calls("lifshitz.plate_pressure"),
        "lifshitz.plate_pressure.busy_s": busy("lifshitz.plate_pressure"),
        "lifshitz.plate_pressure.call_p95_s":
            percentile(pressure["durations"], 0.95) if pressure["durations"] else 0.0,
        "lifshitz.terms": terms,
        "lifshitz.terms_max": max((i["terms"] for i in infos), default=0),
        "lifshitz.us_per_term":
            busy("lifshitz.plate_pressure") * 1e6 / terms if terms else 0.0,
        "lifshitz.unique_ratio":
            len({i["key"] for i in infos}) / len(infos) if infos else 0.0,
        "lifshitz.err_bar_rel_max": max((i["bar_rel"] for i in infos), default=0.0),
        "lifshitz.differential_pressure.calls": calls("lifshitz.differential_pressure"),
        "lifshitz.busy_share": layers.get("lifshitz", {}).get("busy_s", 0.0) / wall,
        "materials.eps_imag_freq.calls": calls("materials.eps_imag_freq"),
        "materials.eps_imag_freq.busy_s": busy("materials.eps_imag_freq"),
        "materials.zero_frequency_plasma_weight.calls":
            calls("materials.zero_frequency_plasma_weight"),
        "mechanics.pressure_to_gap_change.busy_s": busy("mechanics.pressure_to_gap_change"),
        "readout.pdh_voltage.calls": calls("readout.pdh_voltage"),
        "readout.pdh_clamped": sum(i["clamped"] for i in
                                   funcs.get("readout.pdh_voltage", {"info": []})["info"]),
        "readout.busy_s": layers.get("readout", {}).get("busy_s", 0.0),
        "serialize.busy_s": layers.get("serialize", {}).get("busy_s", 0.0),
        "serialize.bytes_out": sum(i["bytes"] for name, f in funcs.items()
                                   if name.startswith("serialize.") for i in f["info"]),
    }
    for layer in SELF_TIME_LAYERS:
        out[f"{layer}.self_s"] = layers.get(layer, {}).get("self_s", 0.0)
    # Numbers that exist only on some workloads: trace file only.
    extra = {
        "designer.run_gap_sweep.busy_s": busy("designer.run_gap_sweep"),
        "designer.simulate_temperature_scan.busy_s":
            busy("designer.simulate_temperature_scan"),
        "designer.self_s": layers.get("designer", {}).get("self_s", 0.0),
        "lifshitz.differential_pressure.busy_s": busy("lifshitz.differential_pressure"),
        "readout.pdh_voltage.busy_s": busy("readout.pdh_voltage"),
        "readout.min_detectable_pressure.busy_s": busy("readout.min_detectable_pressure"),
        "serialize.sweep_csv.busy_s": busy("serialize.sweep_csv"),
        "serialize.scan_csv.busy_s": busy("serialize.scan_csv"),
        "serialize.render_kv.busy_s": busy("serialize.render_kv"),
        "layers": layers,
        "functions": {name: {"calls": f["calls"], "busy_s": f["busy_s"]}
                      for name, f in sorted(funcs.items())},
    }
    return out, extra
