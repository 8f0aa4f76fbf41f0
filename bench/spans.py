"""Spans around the package's public names, installed from outside.

`install()` rebinds the names a pipeline calls through (module globals and
two `PatchedField` methods) to thin wrappers that record one span per call:
name, thread, start, end and the span that was open when the call began.
Spans stay in memory until the worker writes them out at the end.
`layer_metrics()` turns the written spans into the per-layer numbers.

A call made from a study worker thread has no open span in its own thread;
its parent is the innermost span open in the thread that installed the
tracer, which during `minimizer_comparison` is the study span.
"""

from __future__ import annotations

import os
import threading
import time


class Tracer:
    """In-memory span recorder shared by every wrapped name."""

    def __init__(self):
        self.spans = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack = []

    def _stack(self):
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name, fn, *args, **kwargs):
        """Call `fn` inside a span; returns (result, span record)."""
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        with self._lock:
            sid = len(self.spans)
            record = {"id": sid, "name": name, "parent": parent,
                      "thread": threading.get_ident(), "start": 0.0, "end": 0.0}
            self.spans.append(record)
        stack.append(sid)
        record["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
        return result, record


def _wrap(tracer, name, fn, annotate=None):
    def wrapper(*args, **kwargs):
        result, record = tracer.span(name, fn, *args, **kwargs)
        if annotate is not None:
            record.update(annotate(result, args, kwargs))
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _rows_bytes(result, args, kwargs):
    table, path = args[0], args[1]
    return {"rows": len(table.rows), "bytes": os.path.getsize(path)}


def _kde_pairs(result, args, kwargs):
    samples = args[0]
    n = samples.points.shape[0] if hasattr(samples, "points") else len(samples)
    return {"pairs": int(n) * int(len(result))}


def _fill(result, args, kwargs):
    return {"fill": int(result.L.nnz + result.U.nnz)}


def _iterations(result, args, kwargs):
    return {"iterations": int(result.iterations)}


def _edges(result, args, kwargs):
    return {"edges": int(result.num_edges)}


def _points(result, args, kwargs):
    return {"points": int(result.size)}


# (span name, annotation) for each name rebound in pdirichlet.cli and
# pdirichlet.experiments; a name a module does not import is skipped.
_PIPELINE_NAMES = {
    "sample_density": ("density.sample", None),
    "skde_fit": ("density.skde_fit", None),
    "build_patches": ("patches.build", None),
    "ContinuumProblem": ("continuum.problem", None),
    "minimize_continuum": ("continuum.solve", _iterations),
    "build_epsilon_graph": ("graph.build", _edges),
    "minimize_discrete": ("graph.solve", _iterations),
    "minimizer_comparison": ("experiments.study", None),
    "write_csv": ("csvio.write", _rows_bytes),
}


def install(tracer: Tracer) -> None:
    """Rebind the traced names to span-recording wrappers."""
    from pdirichlet import cli, continuum, density, experiments, graph

    for module in (cli, experiments):
        for attr, (name, annotate) in _PIPELINE_NAMES.items():
            if hasattr(module, attr):
                setattr(module, attr, _wrap(tracer, name, getattr(module, attr), annotate))
    density.kde_evaluate = _wrap(tracer, "density.kde_point", density.kde_evaluate, _kde_pairs)
    continuum.splu = _wrap(tracer, "continuum.factor", continuum.splu, _fill)
    graph.discrete_energy = _wrap(tracer, "graph.energy", graph.discrete_energy)
    graph.discrete_energy_gradient = _wrap(
        tracer, "graph.gradient", graph.discrete_energy_gradient
    )
    field = continuum.PatchedField
    field.evaluate = _wrap(tracer, "continuum.field_eval", field.evaluate, _points)
    field.on_mesh = _wrap(tracer, "continuum.field_eval", field.on_mesh, _points)


def _union(intervals) -> float:
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it covered by its children."""
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        kids = [(max(c["start"], s["start"]), min(c["end"], s["end"]))
                for c in children.get(s["id"], ())]
        out[s["id"]] = (s["end"] - s["start"]) - _union(k for k in kids if k[1] > k[0])
    return out


# name -> (unit, better) of every metric `layer_metrics` returns
SPAN_METRICS = {
    "density.kde_point_s": ("s", "lower"),
    "density.kde_point_calls": ("count", "lower"),
    "density.kde_pairs": ("count", "lower"),
    "density.sample_s": ("s", "lower"),
    "density.skde_fit_s": ("s", "lower"),
    "density.skde_fits": ("count", "lower"),
    "patches.build_s": ("s", "lower"),
    "patches.builds": ("count", "lower"),
    "continuum.solve_s": ("s", "lower"),
    "continuum.solves": ("count", "lower"),
    "continuum.iterations": ("count", "lower"),
    "continuum.factor_s": ("s", "lower"),
    "continuum.factorizations": ("count", "lower"),
    "continuum.factor_fill": ("count", "lower"),
    "continuum.field_eval_s": ("s", "lower"),
    "continuum.field_points": ("count", "lower"),
    "graph.build_s": ("s", "lower"),
    "graph.edges": ("count", "lower"),
    "graph.solve_s": ("s", "lower"),
    "graph.iterations": ("count", "lower"),
    "graph.energy_calls": ("count", "lower"),
    "graph.energy_s": ("s", "lower"),
    "graph.gradient_calls": ("count", "lower"),
    "graph.gradient_s": ("s", "lower"),
    "graph.accept_ratio": ("ratio", "higher"),
    "csvio.write_s": ("s", "lower"),
    "csvio.rows": ("count", "lower"),
    "csvio.bytes": ("bytes", "lower"),
    "experiments.study_s": ("s", "lower"),
    "experiments.busy_s": ("s", "lower"),
    "experiments.parallel_eff": ("ratio", "higher"),
    "cli.self_s": ("s", "lower"),
}


def layer_metrics(spans, threads: int) -> dict:
    """Per-layer totals of one traced workload run (all its invocations).

    Each span gets its self time as "self_s". A layer that does no work in
    the run reports 0 for each of its metrics.
    `experiments.busy_s` sums, over threads, the time each thread spent in
    spans whose parent is the study span; `experiments.parallel_eff` divides
    it by the study's wall time times the study's thread count.
    """
    def pick(name):
        return [s for s in spans if s["name"] == name]

    def total(name):
        return float(sum(s["end"] - s["start"] for s in pick(name)))

    def count(name, key=None):
        return int(sum(s.get(key, 1) if key else 1 for s in pick(name)))

    study_s = total("experiments.study")
    busy = 0.0
    for study in pick("experiments.study"):
        by_thread = {}
        for s in spans:
            if s["parent"] == study["id"]:
                by_thread.setdefault(s["thread"], []).append((s["start"], s["end"]))
        busy += sum(_union(iv) for iv in by_thread.values())
    energy_calls = count("graph.energy")
    iterations = count("graph.solve", "iterations")
    own = self_times(spans)
    for s in spans:
        s["self_s"] = own[s["id"]]
    return {
        "density.kde_point_s": total("density.kde_point"),
        "density.kde_point_calls": count("density.kde_point"),
        "density.kde_pairs": count("density.kde_point", "pairs"),
        "density.sample_s": total("density.sample"),
        "density.skde_fit_s": total("density.skde_fit"),
        "density.skde_fits": count("density.skde_fit"),
        "patches.build_s": total("patches.build"),
        "patches.builds": count("patches.build"),
        "continuum.solve_s": total("continuum.solve"),
        "continuum.solves": count("continuum.solve"),
        "continuum.iterations": count("continuum.solve", "iterations"),
        "continuum.factor_s": total("continuum.factor"),
        "continuum.factorizations": count("continuum.factor"),
        "continuum.factor_fill": count("continuum.factor", "fill"),
        "continuum.field_eval_s": total("continuum.field_eval"),
        "continuum.field_points": count("continuum.field_eval", "points"),
        "graph.build_s": total("graph.build"),
        "graph.edges": count("graph.build", "edges"),
        "graph.solve_s": total("graph.solve"),
        "graph.iterations": iterations,
        "graph.energy_calls": energy_calls,
        "graph.energy_s": total("graph.energy"),
        "graph.gradient_calls": count("graph.gradient"),
        "graph.gradient_s": total("graph.gradient"),
        "graph.accept_ratio": iterations / energy_calls if energy_calls else 0.0,
        "csvio.write_s": total("csvio.write"),
        "csvio.rows": count("csvio.write", "rows"),
        "csvio.bytes": count("csvio.write", "bytes"),
        "experiments.study_s": study_s,
        "experiments.busy_s": busy,
        "experiments.parallel_eff": busy / (study_s * threads) if study_s else 0.0,
        "cli.self_s": float(sum(s["self_s"] for s in pick("cli.run"))),
    }
