"""In-memory spans around the calls into each hessint module, for the traced run.

The wrappers are installed on module attributes from outside the library and
removed afterwards; the untraced run never installs them. A span records its
name, start, end and parent; self time is its duration minus the time its
direct children cover. Work the wrappers do after a call returns (reading hull
sizes) is itself a child span named ``trace.bookkeeping``, so it never counts
as self time of a library layer.
"""

from __future__ import annotations

import functools
import os
from contextlib import contextmanager
from time import perf_counter

import numpy as np

import hessint.counterexample as cx
import hessint.envelope_lab as lab
import hessint.exponent_bounds as xb
import hessint.special_functions as sf

# the library's test for a downward (lower-hull) facet normal
_LOWER_FACET_TOL = 1e-12

NAME, START, END, PARENT, STATS = range(5)


class Tracer:
    """Spans as [name, start, end, parent index, stats dict] plus plain counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        rec = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, None]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec[END] = perf_counter()

    def wrap(self, name: str, fn, on_return=None):
        """fn inside a span; on_return(args, kwargs, result) gives the span's stats."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            if on_return is not None:
                with self.span("trace.bookkeeping"):
                    rec[STATS] = on_return(args, kwargs, result)
            return result
        return traced

    def count(self, name: str, fn):
        """fn with a call counter and no span (for calls too frequent to span)."""
        self.counters.setdefault(name, 0)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counters[name] += 1
            return fn(*args, **kwargs)
        return counted

    def take(self) -> tuple[list[list], dict[str, int]]:
        """Return and clear the spans and counters recorded so far."""
        spans, counters = self.spans, dict(self.counters)
        self.spans = []
        self.counters = dict.fromkeys(self.counters, 0)
        return spans, counters


def _hull_stats(args, kwargs, hull):
    cloud = args[0]
    d = cloud.shape[1] - 1
    lower = hull.equations[:, d] < -_LOWER_FACET_TOL
    on_hull = np.unique(hull.simplices[lower]).size if lower.any() else 0
    return {"points": int(cloud.shape[0]), "lower_facets": int(lower.sum()),
            "on_hull": int(on_hull),
            "qj": "QJ" in str(kwargs.get("qhull_options") or "")}


def _grid_bytes(args, kwargs, grid):
    # header file plus the float64 payload (inline or sidecar)
    return {"bytes": os.path.getsize(args[1]) + int(grid.values.nbytes)}


def install(tracer: Tracer):
    """Wrap the public entry points of every layer; returns a function that undoes it."""
    saved = []

    def patch(owner, attr, new):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    for mod in (sf, xb):
        for attr in ("lambert_w0", "lambert_wm1"):
            patch(mod, attr, tracer.wrap("special_functions.lambert_w", getattr(mod, attr)))
    patch(xb, "compute_report", tracer.wrap("exponent_bounds.compute_report", xb.compute_report))
    patch(xb, "phi", tracer.count("exponent_bounds.phi", xb.phi))
    patch(cx, "divergence_scan", tracer.wrap("counterexample.divergence_scan", cx.divergence_scan))
    patch(cx, "lattice_ball_count",
          tracer.wrap("counterexample.lattice_ball_count", cx.lattice_ball_count))
    load = lab.GridFunction.__dict__["load"].__func__
    patch(lab.GridFunction, "load",
          classmethod(tracer.wrap("envelope_lab.grid_load", load, _grid_bytes)))
    patch(lab, "ConvexHull", tracer.wrap("envelope_lab.qhull", lab.ConvexHull, _hull_stats))
    for attr in ("a_convex_envelope", "theta_field", "tail_distribution", "decay_experiment"):
        patch(lab, attr, tracer.wrap(f"envelope_lab.{attr}", getattr(lab, attr)))

    def restore():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
    return restore


def self_times(spans: list[list]) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    dur = np.array([s[END] - s[START] for s in spans])
    child = np.zeros(len(spans))
    for s, d in zip(spans, dur):
        if s[PARENT] >= 0:
            child[s[PARENT]] += d
    return dur - child


def layer_metrics(spans: list[list], counters: dict[str, int]) -> dict[str, float]:
    """Per-layer counts and busy/self times of one pass over a workload's invocations."""
    selft = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)

    def idx(name):
        return by_name.get(name, [])

    def busy(name):
        # outermost spans of this name only, so nested calls are not counted twice
        return float(sum(spans[i][END] - spans[i][START] for i in idx(name)
                         if spans[i][PARENT] < 0 or spans[spans[i][PARENT]][NAME] != name))

    def self_sum(name):
        return float(sum(selft[i] for i in idx(name)))

    hulls = [spans[i] for i in idx("envelope_lab.qhull")]
    done = [h[STATS] for h in hulls if h[STATS] is not None]  # calls that did not raise
    theta_ids = set(idx("envelope_lab.theta_field"))
    env_ids = set(idx("envelope_lab.a_convex_envelope"))
    env_hulls = [h[STATS] for h in hulls if h[PARENT] in env_ids and h[STATS] is not None]
    env_points = sum(h["points"] for h in env_hulls)
    loads = [spans[i][STATS] for i in idx("envelope_lab.grid_load")]
    return {
        "special_functions.evals": len(idx("special_functions.lambert_w")),
        "special_functions.busy_s": busy("special_functions.lambert_w"),
        "exponent_bounds.reports": len(idx("exponent_bounds.compute_report")),
        "exponent_bounds.busy_s": busy("exponent_bounds.compute_report"),
        "exponent_bounds.phi_evals": counters.get("exponent_bounds.phi", 0),
        "counterexample.scan_busy_s": busy("counterexample.divergence_scan"),
        "counterexample.lattice_calls": len(idx("counterexample.lattice_ball_count")),
        "counterexample.lattice_busy_s": busy("counterexample.lattice_ball_count"),
        "envelope_lab.grid_load_s": busy("envelope_lab.grid_load"),
        "envelope_lab.grid_bytes": sum(s["bytes"] for s in loads),
        "envelope_lab.hull_calls": len(hulls),
        "envelope_lab.hull_points_mean":
            float(np.mean([h["points"] for h in done])) if done else 0.0,
        "envelope_lab.lower_facets_mean":
            float(np.mean([h["lower_facets"] for h in done])) if done else 0.0,
        "envelope_lab.qhull_busy_s": busy("envelope_lab.qhull"),
        "envelope_lab.qj_fallbacks": sum(h["qj"] for h in done),
        "envelope_lab.theta_busy_s": busy("envelope_lab.theta_field"),
        "envelope_lab.theta_probes": sum(h[PARENT] in theta_ids for h in hulls),
        "envelope_lab.theta_self_s": self_sum("envelope_lab.theta_field"),
        "envelope_lab.envelope_calls": len(env_ids),
        "envelope_lab.values_self_s": self_sum("envelope_lab.a_convex_envelope"),
        "envelope_lab.plane_evals": sum(h["lower_facets"] * h["points"] for h in env_hulls),
        "envelope_lab.value_useful_ratio":
            sum(h["points"] - h["on_hull"] for h in env_hulls) / env_points if env_points else 0.0,
        "envelope_lab.tail_busy_s": busy("envelope_lab.tail_distribution"),
        "cli.self_s": self_sum("cli.main"),
    }


def dump_spans(spans: list[list]) -> list[list]:
    """Spans as JSON-ready rows [name, start, end, parent, self, stats]."""
    selft = self_times(spans)
    return [[s[NAME], s[START], s[END], s[PARENT], float(t), s[STATS]]
            for s, t in zip(spans, selft)]
