"""Timing wrappers around the program's public functions, for the traced run.

Every public module-level function of the traced modules (and the
ConductanceForm.from_matrix constructor) is replaced, on every module
attribute bound to it, by a wrapper that opens a span. Spans nest through
a stack, so a span's self time is its duration minus the time of the
spans it caused. Totals are kept per function; the spans themselves are
recorded only while `recording` is set, in flat typed arrays.
"""
from __future__ import annotations

import functools
import gzip
import inspect
import json
import statistics
import sys
from array import array
from pathlib import Path
from time import perf_counter
from typing import Callable

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
LAYERS = ("angles", "structure", "networks", "renorm", "relations", "gd",
          "reports", "cli")

# Values summed from a traced function's result, named after the function.
RESULT_COUNTERS: dict[str, tuple[str, Callable[[object], float]]] = {
    "relations.is_preserved": ("true", lambda r: 1 if r else 0),
    "relations.rho_search": ("evaluations", lambda r: r.evaluations),
    "renorm.solve_eigenform": ("iterations", lambda r: r.iterations),
    "gd.gd_solve": ("iterations", lambda r: r.iterations),
    "gd.gd_relation_rhos": ("evaluations",
                            lambda r: (r.pq_pairs.evaluations
                                       + r.side_pairs.evaluations)),
}


class Tracer:
    """Span stack, per-function totals and the recorded span arrays."""

    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.counters: dict[str, float] = {}
        self.stack: list[list] = []
        self.recording = False
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        fid = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        counter = RESULT_COUNTERS.get(name)
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][2] if stack else -1
            span = -1
            if self.recording:
                span = len(self.span_name)
                self.span_name.append(fid)
                self.span_start.append(0.0)
                self.span_end.append(0.0)
                self.span_parent.append(parent)
            frame = [0.0, fid, span]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                self.self_s[fid] += duration - frame[0]
                self.calls[fid] += 1
                if stack:
                    stack[-1][0] += duration
                if span >= 0:
                    self.span_start[span] = start
                    self.span_end[span] = end
            if counter is not None:
                key = f"{name}.{counter[0]}"
                self.counters[key] = (self.counters.get(key, 0)
                                      + counter[1](result))
            return result

        return wrapper

    def install(self, package) -> None:
        """Wrap the public functions of the traced modules everywhere."""
        wrappers: dict[int, Callable] = {}
        for layer in LAYERS:
            module = sys.modules[f"{package.__name__}.{layer}"]
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == module.__name__
                        and id(value) not in wrappers):
                    wrappers[id(value)] = self._wrap(f"{layer}.{attr}", value)
        form_cls = sys.modules[f"{package.__name__}.networks"].ConductanceForm
        original = form_cls.__dict__["from_matrix"]
        self._restore.append((form_cls, "from_matrix", original))
        setattr(form_cls, "from_matrix", classmethod(
            self._wrap("networks.from_matrix", original.__func__)))
        prefix = package.__name__ + "."
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == package.__name__
                                      or modname.startswith(prefix)):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def snapshot(self) -> dict[str, float]:
        """Running totals: calls, self seconds and result counters."""
        out: dict[str, float] = dict(self.counters)
        for name, calls, self_s in zip(self.names, self.calls, self.self_s):
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + calls
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + self_s
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                s for n, s in zip(self.names, self.self_s)
                if n.startswith(layer + "."))
        return out

    def dump(self, path) -> int:
        """Write the recorded spans as gzipped tab-separated lines.

        A span's parent is the line number of the span that called it
        (-1 for none); times are seconds from the first span's start.
        Returns the number of spans written.
        """
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\n")
            t0 = self.span_start[0] if self.span_start else 0.0
            for i, (fid, start, end, parent) in enumerate(zip(
                    self.span_name, self.span_start, self.span_end,
                    self.span_parent)):
                fh.write(f"{i}\t{self.names[fid]}\t{start - t0:.9f}\t"
                         f"{end - t0:.9f}\t{parent}\n")
        return len(self.span_name)


def per_layer_metrics() -> dict[str, str]:
    """Per-layer metric names and units, as BENCHMARK.json lists them."""
    with open(BENCHMARK_JSON, "r", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def per_pass_metrics(passes: list[dict[str, float]],
                     scales: list[float]) -> dict[str, float]:
    """Per-layer values of one pass.

    Counts come from the first pass, so they do not depend on how many
    passes fit in the run. Self times are the median over passes of each
    pass's self time, scaled to reference speed by that pass's factor.
    """
    first = passes[0]
    out = {}
    for name, unit in per_layer_metrics().items():
        if unit == "count":
            out[name] = first.get(name, 0)
        elif unit == "s":
            out[name] = statistics.median(
                p.get(name, 0.0) * s for p, s in zip(passes, scales))
    tests = first.get("relations.is_preserved.calls", 0)
    out["relations.preserved_per_test"] = (
        first.get("relations.is_preserved.true", 0) / tests if tests else 0.0)
    return out
