"""Spans and counters around the calls into uncmap's public functions.

The tracer wraps each listed function at every module binding that holds
it (``synth.point_along`` as well as ``geometry.point_along``), and methods
on their class, so the wrappers see every call the program makes. A span is
(name, start, end, parent index); spans stay in memory until the caller
aggregates or writes them. Self time is a span's duration minus the
durations of its direct children; all work is single-threaded, so children
never overlap.

A counter hook runs after its span has closed but while the parent span is
still open, so its time would count as the parent's self time. The hooks
therefore only keep references (file paths, point arrays, result sizes);
the file sizes and the Chamfer pair hashing are computed in ``aggregate``,
after the repetition.
"""

from __future__ import annotations

import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np


class Tracer:
    """Records spans and counters for one repetition at a time."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._scope = ""
        self._files: dict[str, list] = defaultdict(list)
        self._chamfer_args: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def stage(self, name: str, func, *args):
        """Run ``func(*args)`` as a top-level span that scopes the counters."""
        self._scope = name
        idx = self._open(name)
        try:
            return func(*args)
        finally:
            self._close(idx)
            self._scope = ""

    def wrap(self, name: str, func, hook=None):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._close(idx)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return traced

    def reset(self) -> None:
        self.spans = []
        self.counters = Counter()
        self._files = defaultdict(list)
        self._chamfer_args = []

    # -- aggregation ---------------------------------------------------------

    def aggregate(self) -> dict:
        """Calls, total and self seconds per span name, plus the counters."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        total: Counter = Counter()
        self_s: Counter = Counter()
        for i, (name, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            self_s[name] += end - start - child[i]
        nll_in_fit = sum(1 for name, _, _, parent in self.spans
                         if name == "probmap.nll_loss" and parent >= 0
                         and self.spans[parent][0] == "fitting.fit_gradient")
        counters = dict(self.counters)
        for counter, paths in self._files.items():
            counters[counter] = sum(os.path.getsize(path) for path in paths)
        counters["chamfer_distinct_pairs"] = len({
            (scope, np.asarray(a, dtype=float).tobytes(), np.asarray(b, dtype=float).tobytes())
            for scope, a, b in self._chamfer_args})
        counters["nll_evals_in_fit_gradient"] = nll_in_fit
        return {"calls": dict(calls), "total_s": dict(total), "self_s": dict(self_s),
                "counters": counters}


# -- counter hooks -------------------------------------------------------------

def _bytes_written(tracer, args, kwargs, result):
    tracer._files["io.bytes_written"].append(args[0])


def _bytes_read(tracer, args, kwargs, result):
    tracer._files["io.bytes_read"].append(args[0])


def _chamfer_pair(tracer, args, kwargs, result):
    tracer._chamfer_args.append((tracer._scope, args[0], args[1]))


def _matched_pairs(tracer, args, kwargs, result):
    tracer.counters["calibration.pairs"] += len(result.mu)


def _range_warning(tracer, args, kwargs, result):
    if result > 0:
        tracer.counters["probmap.range_warnings"] += 1


def _fit_iterations(tracer, args, kwargs, result):
    tracer.counters["fitting.fit_gradient.iterations"] += result.iterations


def _fit_vertices(tracer, args, kwargs, result):
    tracer.counters["fitting.fit_map.vertices"] += sum(len(el.mu) for el in result.elements)


# (span name, module, owner attribute path, counter hook). A dotted owner
# path names a method on a class; the class is patched once, which covers
# every module that imported the class.
TARGETS = [
    ("geometry.point_along", "geometry", "point_along", None),
    ("geometry.nearest_point_on_polyline", "geometry", "nearest_point_on_polyline", None),
    ("geometry.resample", "geometry", "resample", None),
    ("geometry.segment_intersects_disc", "geometry", "segment_intersects_disc", None),
    ("geometry.Polyline", "geometry", "Polyline.__init__", None),
    ("geometry.check_perception_range", "geometry", "check_perception_range", _range_warning),
    ("synth.generate_scene", "synth", "generate_scene", None),
    ("synth.observe", "synth", "observe", None),
    ("synth.NoiseModel.true_scale", "synth", "NoiseModel.true_scale", None),
    ("synth.predict_blind", "synth", "predict_blind", None),
    ("synth.predict_weighted", "synth", "predict_weighted", None),
    ("synth.build_dataset", "synth", "build_dataset", None),
    ("io.save_map", "io", "save_map", None),
    ("io.save_trajectories", "io", "save_trajectories", None),
    ("io.write_json", "io", "write_json", _bytes_written),
    ("io.write_csv", "io", "write_csv", _bytes_written),
    ("io.load_map", "io", "load_map", _bytes_read),
    ("io.load_trajectories", "io", "load_trajectories", _bytes_read),
    ("io.load_manifest", "io", "load_manifest", _bytes_read),
    ("map_eval.evaluate_scenes", "map_eval", "evaluate_scenes", None),
    ("map_eval.chamfer", "map_eval", "chamfer", _chamfer_pair),
    ("calibration.match_vertex_pairs", "calibration", "match_vertex_pairs", _matched_pairs),
    ("calibration.coverage_arrays", "calibration", "coverage_arrays", None),
    ("calibration.reliability", "calibration", "reliability", None),
    ("pred_eval.evaluate_trajectories", "pred_eval", "evaluate_trajectories", None),
    ("pred_eval.binned_ci", "pred_eval", "binned_ci", None),
    ("probmap.mean_map", "probmap", "mean_map", None),
    ("probmap.nll_loss", "probmap", "nll_loss", None),
    ("fitting.fit_gradient", "fitting", "fit_gradient", _fit_iterations),
    ("fitting.fit_closed_form", "fitting", "fit_closed_form", None),
    ("fitting.fit_map", "fitting", "fit_map", _fit_vertices),
]


def install(tracer: Tracer):
    """Wrap every target at every uncmap binding.

    Returns a function that puts the original functions back, so that
    traced and untraced repetitions can alternate in one process.
    """
    import importlib

    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "uncmap" or name.startswith("uncmap."))]
    patched = []
    for name, module_name, path, hook in TARGETS:
        owner = importlib.import_module(f"uncmap.{module_name}")
        *owner_path, attr = path.split(".")
        for part in owner_path:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        traced = tracer.wrap(name, original, hook)
        owners = [(owner, attr)] if owner_path else [
            (module, key) for module in modules
            for key, value in list(vars(module).items()) if value is original]
        for target, key in owners:
            setattr(target, key, traced)
            patched.append((target, key, original))

    def uninstall() -> None:
        for target, key, original in patched:
            setattr(target, key, original)

    return uninstall


def per_layer_metrics(agg: dict, names: list[str]) -> dict[str, float]:
    """Evaluate each per-layer metric name against one repetition's aggregate.

    Names end in ``.calls`` or ``.self_s`` of a span, ``.s`` of a CLI stage
    span (its whole duration), or name a counter or a derived ratio.
    """
    calls, self_s, total, counters = (agg["calls"], agg["self_s"], agg["total_s"],
                                      agg["counters"])
    out = {}
    for metric in names:
        if metric == "map_eval.chamfer.distinct_ratio":
            n = calls.get("map_eval.chamfer", 0)
            value = counters["chamfer_distinct_pairs"] / n if n else 0.0
        elif metric == "fitting.nll_evals_per_iteration":
            its = counters.get("fitting.fit_gradient.iterations", 0)
            value = counters["nll_evals_in_fit_gradient"] / its if its else 0.0
        elif metric in ("io.bytes_written", "io.bytes_read", "calibration.pairs",
                        "probmap.range_warnings", "fitting.fit_gradient.iterations",
                        "fitting.fit_map.vertices"):
            value = counters.get(metric, 0)
        elif metric.startswith("cli.") and metric.endswith(".s"):
            value = total.get(metric[:-2], 0.0)
        elif metric.endswith(".calls"):
            value = calls.get(metric[:-len(".calls")], 0)
        elif metric.endswith(".self_s"):
            value = self_s.get(metric[:-len(".self_s")], 0.0)
        else:
            raise KeyError(f"no rule computes per-layer metric {metric!r}")
        out[metric] = value
    return out
