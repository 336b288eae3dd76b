"""Per-layer tracing from outside the package.

`traced(tracer)` swaps each public function in `LAYERS` for a wrapper that
records one span per call (name, start, end, parent) and puts the
originals back on exit, also when the traced code raises. A function is
replaced wherever a fedminimax module holds a reference to it, because
modules import each other's functions by name (`from .core import
vec_mean`). Methods are replaced on their class.

Spans live in flat arrays (one entry per call, a few million per minute of
tracing); `summarize` reduces them to calls, total and self seconds per
layer. Self time is a span's duration minus the durations of its direct
children: spans nest strictly on one thread, so the children never overlap.
No layer below calls itself, so a layer's total time counts no interval
twice.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from array import array

import numpy as np

# metric prefix -> (module, attribute path inside the module)
LAYERS = {
    "config.load": ("fedminimax.config", "parse_config"),
    "problems.build": ("fedminimax.config", "RunConfig.build_problem"),
    "federation.partition": ("fedminimax.federation", "partition"),
    "theory.estimate_constants": ("fedminimax.theory", "estimate_constants"),
    "algorithms.run": ("fedminimax.algorithms", "run"),
    "algorithms.local_step": ("fedminimax.algorithms", "local_step"),
    "algorithms.sync_step": ("fedminimax.algorithms", "sync_step"),
    "core.precondition": ("fedminimax.core", "precondition"),
    "core.vec_mean": ("fedminimax.core", "vec_mean"),
    "estimators.storm_update": ("fedminimax.estimators", "storm_update"),
    "estimators.generate": ("fedminimax.estimators", "AdaptiveAccumulator.generate"),
    "problems.grad_stoch": ("fedminimax.problems.base", "grad_stoch"),
    "problems.grad_full": ("fedminimax.problems.base", "grad_full"),
    "metrics.record": ("fedminimax.metrics", "TraceRecorder.record"),
    "metrics.grad_norm_F": ("fedminimax.metrics", "grad_norm_F"),
    "metrics.ascend_y": ("fedminimax.metrics", "ascend_y"),
    "metrics.emit_csv": ("fedminimax.metrics", "emit_csv"),
    "metrics.render_summary": ("fedminimax.metrics", "render_summary"),
}


class Tracer:
    """In-memory span store for one traced region."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._open = [-1]

    def __len__(self) -> int:
        return len(self.start)

    def wrap(self, name: str, fn):
        """Return `fn` wrapped so that each call records a span named `name`."""
        nid = len(self.names)
        self.names.append(name)
        name_id, start, end, parent, open_spans = self.name_id, self.start, self.end, self.parent, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced_call(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(open_spans[-1])
            end.append(0.0)
            open_spans.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                open_spans.pop()

        return traced_call

    def summarize(self) -> dict[str, dict[str, float]]:
        """calls, total_s and self_s per layer name (every wrapped name, called or not)."""
        n_names = len(self.names)
        ids = np.asarray(self.name_id)
        dur = np.asarray(self.end) - np.asarray(self.start)
        parent = np.asarray(self.parent)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_dur = dur - covered
        calls = np.bincount(ids, minlength=n_names)
        total = np.bincount(ids, weights=dur, minlength=n_names)
        own = np.bincount(ids, weights=self_dur, minlength=n_names)
        return {
            name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(own[i])}
            for i, name in enumerate(self.names)
        }


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def _sites(original) -> list[tuple[object, str]]:
    """Every (module, attribute) of a loaded fedminimax module bound to `original`."""
    sites = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "fedminimax" or mod_name.startswith("fedminimax.")):
            continue
        for attr, value in vars(mod).items():
            if value is original:
                sites.append((mod, attr))
    return sites


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install span-recording wrappers for `LAYERS`; restore the originals on exit.
    Use a fresh Tracer for each traced region."""
    patched: list[tuple[object, str, object]] = []
    try:
        for name, (module_name, path) in LAYERS.items():
            owner, attr = _resolve(module_name, path)
            if isinstance(owner, type):
                original = vars(owner)[attr]
                sites = [(owner, attr)]
            else:
                original = getattr(owner, attr)
                sites = _sites(original)
            wrapper = tracer.wrap(name, original)
            for site, site_attr in sites:
                patched.append((site, site_attr, original))
                setattr(site, site_attr, wrapper)
        yield tracer
    finally:
        for site, site_attr, original in reversed(patched):
            setattr(site, site_attr, original)
