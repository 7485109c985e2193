"""Opt-in span tracing of the public functions of each jjaging layer.

``Tracer`` wraps every public function defined in the layer modules and
rebinds every ``jjaging.*`` module attribute bound to that function object,
because modules import names directly (``jjaging.ensemble.simulate_trajectory``
is the function object of ``jjaging.trajectory``).  Private names are not
wrapped, so their time is self time of the public caller.

Spans are kept in memory as ``[name, start, end, parent, op, info]`` and
written out at the end.  A span's self time is its duration minus the time
its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict

LAYERS = ("model", "trajectory", "ensemble", "fitting", "dataio", "cli")

# dataio functions that move file bytes, with the position of their path argument.
_WRITERS = {"save_measurements": 1, "write_report": 1, "export_plot_data": 1}
_READERS = {"load_measurements": 0, "load_schedule": 0, "load_events": 0,
            "read_report": 0, "sha256_of_file": 0}


def _path_arg(args, kwargs, pos):
    return kwargs["path"] if "path" in kwargs else args[pos]


def _info(name: str, args, kwargs, result):
    """Count taken at the layer boundary, recorded with the span."""
    func = name.split(".", 1)[1]
    if func == "simulate_trajectory":
        return len(result)
    if func == "simulate_chip":
        return len(result.records)
    if func in ("fit_single_log", "fit_two_log"):
        return [result.iterations, result.converged]
    if name.startswith("dataio.") and func in _WRITERS:
        return os.path.getsize(_path_arg(args, kwargs, _WRITERS[func]))
    return None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op_id = -1
        self._stack: list[int] = []
        self._bindings: list[tuple] = []   # (module, attribute, original, wrapper)
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "jjaging" or n.startswith("jjaging."))]
        for layer in LAYERS:
            mod = importlib.import_module(f"jjaging.{layer}")
            for fname, fn in sorted(vars(mod).items()):
                if (fname.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapper = self._wrap(f"{layer}.{fname}", fn)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            self._bindings.append((m, attr, fn, wrapper))

    def install(self):
        for m, attr, _, wrapper in self._bindings:
            setattr(m, attr, wrapper)

    def uninstall(self):
        for m, attr, fn, _ in self._bindings:
            setattr(m, attr, fn)

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        layer, func = name.split(".", 1)
        reads = layer == "dataio" and func in _READERS
        pos = _READERS.get(func)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nbytes = os.path.getsize(_path_arg(args, kwargs, pos)) if reads else None
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id, nbytes]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if not reads:
                span[5] = _info(name, args, kwargs, result)
            return result

        return wrapper

    def write(self, path, header: dict):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for sid, (name, start, end, parent, op, info) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "info": info}) + "\n")


def self_times(spans, lo: int, hi: int) -> list[float]:
    """Self time of spans[lo:hi]; a span's children lie in the same range."""
    own = [s[2] - s[1] for s in spans[lo:hi]]
    for s in spans[lo:hi]:
        if s[3] >= lo:
            own[s[3] - lo] -= s[2] - s[1]
    return own


# (metric, unit, better) for every per-layer metric, in report order.
PER_LAYER = (
    ("trajectory.calls", "count", "lower"),
    ("trajectory.self_s", "s", "lower"),
    ("trajectory.samples", "count", "higher"),
    ("trajectory.us_per_sample", "us", "lower"),
    ("trajectory.events_applied", "count", "higher"),
    ("ensemble.draw_chip_s", "s", "lower"),
    ("ensemble.simulate_chip_self_s", "s", "lower"),
    ("ensemble.aggregate_s", "s", "lower"),
    ("ensemble.records", "count", "higher"),
    ("ensemble.us_per_record", "us", "lower"),
    ("fitting.fits", "count", "higher"),
    ("fitting.fit_self_s", "s", "lower"),
    ("fitting.fit_chip_self_s", "s", "lower"),
    ("fitting.lm_iterations", "count", "lower"),
    ("fitting.us_per_iteration", "us", "lower"),
    ("fitting.nonconverged", "count", "lower"),
    ("dataio.write_s", "s", "lower"),
    ("dataio.read_s", "s", "lower"),
    ("dataio.bytes_written", "bytes", "lower"),
    ("dataio.bytes_read", "bytes", "lower"),
    ("dataio.write_mb_per_s", "MB/s", "higher"),
    ("dataio.read_mb_per_s", "MB/s", "higher"),
    ("dataio.report_build_s", "s", "lower"),
    ("model.calls", "count", "lower"),
    ("model.self_s", "s", "lower"),
    ("cli.simulate_self_s", "s", "lower"),
    ("cli.fit_self_s", "s", "lower"),
    ("cli.predict_self_s", "s", "lower"),
    ("cli.anneal_self_s", "s", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
)


def _ratio(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def layer_metrics(spans, lo: int, hi: int) -> dict[str, float]:
    """Per-layer metrics over spans[lo:hi] (one traced pass).  A ratio whose
    base is zero (no such work in the workload) reads 0."""
    own = self_times(spans, lo, hi)
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    info: dict[str, list] = defaultdict(list)
    for s, t in zip(spans[lo:hi], own):
        self_s[s[0]] += t
        calls[s[0]] += 1
        if s[5] is not None:
            info[s[0]].append(s[5])

    def layer(prefix, table):
        return sum(v for k, v in table.items() if k.startswith(prefix + "."))

    def total(names, table=self_s):
        return sum(table[n] for n in names)

    fit_names = ("fitting.fit_single_log", "fitting.fit_two_log")
    fit_info = info["fitting.fit_single_log"] + info["fitting.fit_two_log"]
    writers = [f"dataio.{n}" for n in _WRITERS]
    readers = [f"dataio.{n}" for n in _READERS]
    m = {
        "trajectory.calls": layer("trajectory", calls),
        "trajectory.self_s": layer("trajectory", self_s),
        "trajectory.samples": sum(info["trajectory.simulate_trajectory"]),
        "trajectory.events_applied": total(("trajectory.apply_voltage_anneal",
                                            "trajectory.apply_thermal_anneal"), calls),
        "ensemble.draw_chip_s": self_s["ensemble.draw_chip"],
        "ensemble.simulate_chip_self_s": self_s["ensemble.simulate_chip"],
        "ensemble.aggregate_s": self_s["ensemble.aggregate_series"],
        "ensemble.records": sum(info["ensemble.simulate_chip"]),
        "fitting.fits": len(fit_info),
        "fitting.fit_self_s": total(fit_names),
        "fitting.fit_chip_self_s": self_s["fitting.fit_chip"],
        "fitting.lm_iterations": sum(it for it, _ in fit_info),
        "fitting.nonconverged": sum(not ok for _, ok in fit_info),
        "dataio.write_s": total(writers),
        "dataio.read_s": total(readers),
        "dataio.bytes_written": sum(sum(info[n]) for n in writers),
        "dataio.bytes_read": sum(sum(info[n]) for n in readers),
        "dataio.report_build_s": self_s["dataio.build_fit_report"],
        "model.calls": layer("model", calls),
        "model.self_s": layer("model", self_s),
        "cli.simulate_self_s": self_s["cli.cmd_simulate"],
        "cli.fit_self_s": self_s["cli.cmd_fit"],
        "cli.predict_self_s": self_s["cli.cmd_predict"],
        "cli.anneal_self_s": self_s["cli.cmd_anneal"],
    }
    m["trajectory.us_per_sample"] = _ratio(m["trajectory.self_s"], m["trajectory.samples"], 1e6)
    m["ensemble.us_per_record"] = _ratio(m["ensemble.simulate_chip_self_s"],
                                         m["ensemble.records"], 1e6)
    m["fitting.us_per_iteration"] = _ratio(m["fitting.fit_self_s"], m["fitting.lm_iterations"], 1e6)
    m["dataio.write_mb_per_s"] = _ratio(m["dataio.bytes_written"], m["dataio.write_s"], 1e-6)
    m["dataio.read_mb_per_s"] = _ratio(m["dataio.bytes_read"], m["dataio.read_s"], 1e-6)
    return m
