"""Span recording for the traced benchmark run.

Spans are recorded by rebinding, in each calling module, the public name
that module looks up (``evidnet.cli.load_csv``, ``evidnet.training.
optimizer_step``, ...), so no file of the package changes. Each span
carries its name, start and end (``perf_counter_ns``), the process CPU
time spent inside it, the index of its parent span and the id of the
operation it belongs to. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time

# (calling module, name it looks up, span name). A name called from
# several modules is rebound in each of them under one span name.
TRACE_POINTS = (
    ("evidnet.cli", "main", "cli.main"),
    ("evidnet.cli", "load_csv", "dataio.load_csv"),
    ("evidnet.cli", "load_model", "dataio.load_model"),
    ("evidnet.cli", "save_model", "dataio.save_model"),
    ("evidnet.cli", "export_predictions", "dataio.export_predictions"),
    ("evidnet.cli", "init_model", "model.init_model"),
    ("evidnet.cli", "forward_batch", "model.forward_batch"),
    ("evidnet.cli", "train", "training.train"),
    ("evidnet.cli", "metrics_report", "metrics.metrics_report"),
    ("evidnet.dataio", "forward_batch", "model.forward_batch"),
    ("evidnet.dataio", "write_csv", "dataio.write_csv"),
    ("evidnet.dataio", "save_model", "dataio.save_model"),
    ("evidnet.dataio", "load_model", "dataio.load_model"),
    ("evidnet.model", "init_model", "model.init_model"),
    ("evidnet.model", "kmeans_init", "model.kmeans_init"),
    ("evidnet.model", "forward", "model.forward"),
    ("evidnet.model", "forward_batch", "model.forward_batch"),
    ("evidnet.training", "train", "training.train"),
    ("evidnet.training", "optimizer_step", "training.optimizer_step"),
    ("evidnet.training", "forward_batch", "model.forward_batch"),
    ("evidnet.belief", "combine_all", "belief.combine_all"),
    ("evidnet.belief", "dempster_combine", "belief.dempster_combine"),
)


def _annotate(name, args, result) -> dict:
    """Work counts recorded at the span's boundary."""
    if name == "dataio.load_csv":
        return {"rows": result.n, "cells": result.n * (result.d_in + 1)}
    if name == "model.forward_batch":
        return {"rows": len(args[1])}
    if name == "belief.dempster_combine":
        return {"pairs": len(args[0].masses) * len(args[1].masses)}
    return {}


class Span:
    __slots__ = ("name", "start", "end", "cpu", "parent", "op", "info")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = start
        self.cpu = 0
        self.parent = parent
        self.op = op
        self.info = {}


class Tracer:
    """Collects spans from the rebound names while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = "setup"
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, time.perf_counter_ns(), parent, self.op)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            if name == "training.train":
                kwargs["on_epoch"] = _epoch_clock(span, kwargs.get("on_epoch"))
            cpu0 = time.process_time_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.cpu = time.process_time_ns() - cpu0
                span.end = time.perf_counter_ns()
                self._stack.pop()
            span.info.update(_annotate(name, args, result))
            return result

        return traced

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        for module_name, attr, span_name in TRACE_POINTS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(span_name, original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start_ns": s.start,
                    "end_ns": s.end, "cpu_ns": s.cpu, "parent": s.parent, "op": s.op,
                    **s.info,
                }) + "\n")


def _epoch_clock(span: Span, inner):
    """on_epoch hook that stamps each epoch's end (perf_counter_ns and
    process CPU ns) onto the train span."""
    stamps = span.info.setdefault("epoch_ends_ns", [])
    start_cpu = time.process_time_ns()

    def on_epoch(record):
        stamps.append((time.perf_counter_ns(), time.process_time_ns() - start_cpu))
        if inner is not None:
            inner(record)

    return on_epoch


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(spans: list[Span], factor) -> dict[str, float]:
    """Per-layer figures from operation spans (set-up spans only where named).

    ``factor(start_s, end_s)`` calibrates the CPU time spent in a
    perf_counter interval, as for the end-to-end times. Times are medians
    over calls; counts are medians over operations, so they repeat
    exactly whatever the number of operations a run fits in. Self time is a span's CPU time minus that
    of its direct children, calibrated over the span's interval.
    """

    def calibrated(cpu_ns, start_ns, end_ns):
        return cpu_ns / 1e9 * factor(start_ns / 1e9, end_ns / 1e9)

    dur = [calibrated(s.cpu, s.start, s.end) for s in spans]
    own_ns = [s.cpu for s in spans]
    for s in spans:
        if s.parent is not None:
            own_ns[s.parent] -= s.cpu
    own = [calibrated(ns, s.start, s.end) for ns, s in zip(own_ns, spans)]
    ops = [i for i, s in enumerate(spans) if s.op != "setup"]
    op_ids = {spans[i].op for i in ops}

    def calls(name, pool=ops):
        return [i for i in pool if spans[i].name == name]

    def med_s(name, pool=ops):
        return _median(dur[i] for i in calls(name, pool))

    def self_of(name):
        return _median(own[i] for i in calls(name))

    def per_op(name, key=None):
        totals = dict.fromkeys(op_ids, 0)
        for i in calls(name):
            totals[spans[i].op] += spans[i].info[key] if key else 1
        return _median(totals.values())

    def rate(name, key):
        spent = sum(dur[i] for i in calls(name))
        return sum(spans[i].info[key] for i in calls(name)) / spent if spent else 0.0

    def child_seconds(parent_name, child_name):
        out = dict.fromkeys(calls(parent_name), 0.0)
        for i in calls(child_name):
            if spans[i].parent in out:
                out[spans[i].parent] += dur[i]
        return _median(out.values())

    epochs = []
    for i in calls("training.train"):
        prev, prev_cpu = spans[i].start, 0
        for t, cpu in spans[i].info.get("epoch_ends_ns", []):
            epochs.append(calibrated(cpu - prev_cpu, prev, t))
            prev, prev_cpu = t, cpu

    every = range(len(spans))
    return {
        "cli.self_s": self_of("cli.main"),
        "dataio.load_csv_s": med_s("dataio.load_csv"),
        "dataio.load_csv_cells_per_s": rate("dataio.load_csv", "cells"),
        "dataio.export_predictions_self_s": self_of("dataio.export_predictions"),
        "dataio.write_csv_s": med_s("dataio.write_csv", every),
        "dataio.save_model_s": med_s("dataio.save_model", every),
        "dataio.load_model_s": med_s("dataio.load_model", every),
        "dataio.csv_rows_read": per_op("dataio.load_csv", "rows"),
        "model.init_model_s": med_s("model.init_model", every),
        "model.kmeans_init_s": med_s("model.kmeans_init", every),
        "model.forward_batch_s": med_s("model.forward_batch"),
        "model.forward_batch_rows_per_s": rate("model.forward_batch", "rows"),
        "model.forward_us_p50": med_s("model.forward") * 1e6,
        "training.epoch_s_p50": _median(epochs),
        "training.steps": per_op("training.optimizer_step"),
        "training.optimizer_step_us": med_s("training.optimizer_step") * 1e6,
        "training.validation_s": child_seconds("training.train", "model.forward_batch"),
        "training.step_compute_s": self_of("training.train"),
        "metrics.metrics_report_s": med_s("metrics.metrics_report"),
        "belief.combine_all_us_p50": med_s("belief.combine_all") * 1e6,
        "belief.dempster_combine_calls": per_op("belief.dempster_combine"),
        "belief.focal_pairs": per_op("belief.dempster_combine", "pairs"),
    }
