"""Span recorder that wraps photonlab's public functions from outside the package.

Each wrapped call becomes one span: name, the function it timed, start, end,
parent span and the problem sizes of the call. Spans stay in memory and are
written out by the caller when the run ends. With ``memory=True`` each span
also records the peak of tracemalloc-traced memory above its starting level;
tracemalloc slows the calls down, so that pass is kept apart from the timed one.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
import tracemalloc


def _synth_sizes(m, grid, *args, **kwargs):
    import numpy as np
    return {"points": int(grid.n_points), "modes": int(np.count_nonzero(m.amps))}


def _stencil_sizes(vf, *args, **kwargs):
    return {"points": int(vf.size // vf.shape[-1])}


def _snapshot_sizes(snap, *args, **kwargs):
    return {"points": int(snap.grid.n_points)}


def _lifecycle_sizes(emit, detect, med, grid1d, times):
    return {"cells": int(len(times)) * int(grid1d.n_points)}


def count_lines(path) -> int:
    with open(path, "rb") as fh:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))


def _file_sizes(paths):
    return {"bytes": sum(os.path.getsize(p) for p in paths),
            "rows": sum(count_lines(p) - 1 for p in paths if p.endswith(".csv"))}


def _csv_written(result, path, *args, **kwargs):
    return _file_sizes([path])


def _reports_written(result, *args, **kwargs):
    return _file_sizes(result)


def _timings(result, *args, **kwargs):
    return {"timings": dict(result.timings)}


# (module, function, span name, sizes before the call, record after the call)
TARGETS = (
    ("photonlab.modes", "kvectors", "modes.kprep", None, None),
    ("photonlab.modes", "measure_weights", "modes.kprep", None, None),
    ("photonlab.relativity", "polarization_bases", "modes.kprep", None, None),
    ("photonlab.modes", "boost_amplitudes", "modes.boost", None, None),
    ("photonlab.fields", "synthesize", "fields.synthesize", _synth_sizes, None),
    ("photonlab.fields", "maxwell_residual", "fields.maxwell_residual", None, None),
    ("photonlab.fdops", "divergence", "fdops.stencil", _stencil_sizes, None),
    ("photonlab.fdops", "curl", "fdops.stencil", _stencil_sizes, None),
    ("photonlab.current", "number_density", "current.bilinear", _snapshot_sizes, None),
    ("photonlab.current", "current_density", "current.bilinear", _snapshot_sizes, None),
    ("photonlab.current", "helicity_density", "current.bilinear", _snapshot_sizes, None),
    ("photonlab.current", "photon_current", "current.bilinear", _snapshot_sizes, None),
    ("photonlab.current", "continuity_residual", "current.continuity", None, None),
    ("photonlab.medium", "lifecycle_1d", "medium.lifecycle", _lifecycle_sizes, None),
    ("photonlab.csvio", "write_modes_csv", "csvio.write", None, _csv_written),
    ("photonlab.csvio", "write_fields_csv", "csvio.write", None, _csv_written),
    ("photonlab.csvio", "write_current_csv", "csvio.write", None, _csv_written),
    ("photonlab.csvio", "write_lifecycle_csv", "csvio.write", None, _csv_written),
    ("photonlab.csvio", "write_report_files", "csvio.write", None, _reports_written),
    ("photonlab.verify", "run_verify", "verify.run", None, _timings),
    ("photonlab.scenarios", "run_scenario", "scenarios.run", None, _timings),
)


class Tracer:
    """In-memory span list; one instance per traced process."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    def wrap(self, fn, name: str, sizes=None, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "fn": fn.__name__, "id": len(self.spans),
                    "parent": self._stack[-1]["id"] if self._stack else None}
            if sizes is not None:
                span.update(sizes(*args, **kwargs))
            self.spans.append(span)
            if self.memory:
                self._open_memory(span)
            self._stack.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
                if self.memory:
                    self._close_memory(span)
            if after is not None:
                span.update(after(result, *args, **kwargs))
            return result
        return traced

    # tracemalloc keeps one global peak; each span resets it on entry and
    # hands its own peak up to the enclosing span on exit.
    def _open_memory(self, span):
        current, peak = tracemalloc.get_traced_memory()
        if self._stack:
            top = self._stack[-1]
            top["_peak"] = max(top["_peak"], peak)
        tracemalloc.reset_peak()
        span["_base"] = span["_peak"] = current

    def _close_memory(self, span):
        span["_peak"] = max(span["_peak"], tracemalloc.get_traced_memory()[1])
        if self._stack:
            top = self._stack[-1]
            top["_peak"] = max(top["_peak"], span["_peak"])
        span["peak_bytes"] = span.pop("_peak") - span.pop("_base")

    def install(self) -> None:
        """Wrap every target in its defining module and wherever it was imported by name."""
        importlib.import_module("photonlab")
        modules = [m for n, m in list(sys.modules.items())
                   if (n == "photonlab" or n.startswith("photonlab.")) and m is not None]
        for module_name, attr, name, sizes, after in TARGETS:
            original = getattr(importlib.import_module(module_name), attr)
            traced = self.wrap(original, name, sizes, after)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)
        if self.memory:
            tracemalloc.start()
