"""In-memory span recorder for the traced replay.

A span is (name, start, end, parent index, op id, failed). Spans stay in a
list until the run ends; `layer_times` folds them into per-function
inclusive seconds and per-module self seconds, where a span's self time is
its duration minus the time its direct children cover.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter

LAYERS = ("dataset_io", "features", "accdoa", "augment", "se_block", "metrics", "cli")
FEATURE_FUNCS = ("stft", "log_linear_spectrogram", "eigenvector_intensity",
                 "compute_norm_stats", "normalize", "save_norm_stats")
IO_FUNCS = {"read_manifest": "rows", "read_foa_wav": "mb", "write_feature_file": "mb",
            "read_feature_file": "mb", "read_label_csv": "rows", "write_label_csv": "rows"}


def per_layer_names():
    """Every per-layer metric with its unit, in BENCHMARK.json order."""
    names = {f"features.{f}.s": "s" for f in FEATURE_FUNCS}
    names.update({"features.tf_bins": "count", "features.zero_intensity_bins": "count",
                  "features.unit_norm_bins": "count"})
    names.update({f"dataset_io.{f}.s": "s" for f in IO_FUNCS})
    names.update({f"dataset_io.{f}.{v}": "MB" if v == "mb" else "count"
                  for f, v in IO_FUNCS.items()})
    names.update({"accdoa.ensemble_average.s": "s", "accdoa.decode.s": "s",
                  "accdoa.decode.events": "count", "metrics.compute_seld_scores.s": "s",
                  "metrics.cells": "count", "metrics.pairs": "count",
                  "metrics.cost_entries": "count", "augment.augment_pipeline.s": "s",
                  "se_block.multi_dim_se_forward.s": "s",
                  "se_block.multi_dim_se_backward.s": "s",
                  "cli.extract.parallel_efficiency": "ratio"})
    for layer in LAYERS:
        names.update({f"{layer}.self_s": "s", f"{layer}.share": "ratio",
                      f"{layer}.failed": "count"})
    names["trace.overhead_ratio"] = "ratio"
    return names


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []

    @contextmanager
    def span(self, name):
        record = [name, perf_counter(), None,
                  self._stack[-1] if self._stack else None, self.op, False]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        except BaseException:
            record[5] = True
            raise
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def layer_times(self):
        """({function name: inclusive s}, {module: self s}, {module: failed spans}).

        A failure is charged to the innermost span that raised, so an
        exception bubbling through its parents counts once.
        """
        inclusive = defaultdict(float)
        self_s = defaultdict(float)
        failed = defaultdict(int)
        child_time = defaultdict(float)
        failed_child = set()
        for name, start, end, parent, _op, bad in self.spans:
            if parent is not None:
                child_time[parent] += end - start
                if bad:
                    failed_child.add(parent)
        for index, (name, start, end, _parent, _op, bad) in enumerate(self.spans):
            module = name.split(".", 1)[0]
            inclusive[name] += end - start
            self_s[module] += end - start - child_time[index]
            if bad and index not in failed_child:
                failed[module] += 1
        return dict(inclusive), dict(self_s), dict(failed)


class NullTracer:
    """Same interface, records nothing: the untraced replay."""

    op = None

    def span(self, name):
        return nullcontext()

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)
