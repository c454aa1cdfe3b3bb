"""Spans and counters recorded from outside the package.

``instrument`` wraps the public functions of each locuskit module where its
caller looks the name up (``locuskit.cli.mean_shift``,
``locuskit.shifts.extract_clusters``, ``locuskit.density.pairwise_sq_dists``,
the kernel classes' ``gram_values``, ...) and restores every original on
exit.  Nothing inside ``src/`` is changed.

Spans are kept in memory as ``[name, start, end, parent, pass_id]`` and
written once when the benchmark ends.  A span's self time is its duration
minus the durations of its direct children; spans nest strictly because
every wrapped call happens on the calling thread.
"""

from __future__ import annotations

import importlib
import inspect
import os
import time
from collections import defaultdict
from contextlib import contextmanager

CLI_TASKS = (
    "cluster-meanshift",
    "cluster-medoidshift",
    "generate-diffusion",
    "transformer-demo",
    "fit-qkv",
    "regress-local-linear",
    "regress-local-mean",
    "classify-local",
    "density-kde",
    "tune-bandwidth",
    "denoise-nlm",
    "embed-lle",
)

# Span names whose summed self time is reported as "<name>_s".
LAYER_SPANS = (
    "dataio.ingest",
    "dataio.write",
    "svg.emit",
    "kernels.gram_values",
    "kernels.pairwise_sq_dists",
    "kernels.normalize_rows",
    "shifts.mean_shift",
    "shifts.extract_clusters",
    "shifts.medoid_shift",
    "density.diffusion_generate",
    "density.kde",
    "estimators.local_linear_predict",
    "estimators.local_mean_predict",
    "estimators.local_mode_predict",
    "estimators.loo_error",
    "adaptive.tune_bandwidth",
    "adaptive.fit_qkv",
    "sequence.transformer_encode",
    "sequence.attention_layer",
    "sequence.nlm_denoise_image",
    "embedding.lle_weights",
    "embedding.lle_embed",
)

# Exact counters: (metric name, unit).
COUNTERS = (
    ("dataio.bytes_out", "bytes"),
    ("svg.bytes_out", "bytes"),
    ("kernels.gram_values_calls", "count"),
    ("kernels.gram_entries", "count"),
    ("shifts.sweeps", "count"),
    ("shifts.distance_calls", "count"),
    ("shifts.unconverged_rows", "count"),
    ("shifts.empty_rows", "count"),
    ("density.kde_calls", "count"),
    ("estimators.local_linear_predict_calls", "count"),
    ("estimators.local_mean_predict_calls", "count"),
    ("estimators.local_mode_predict_calls", "count"),
    ("estimators.jittered", "count"),
    ("adaptive.loss_evals", "count"),
    ("adaptive.qkv_steps", "count"),
    ("sequence.nlm_threads", "count"),
)


class Tracer:
    """In-memory span log plus named counters for one traced pass."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counters = defaultdict(int)
        self.pass_id = None

    def open(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.pass_id])
        self.stack.append(len(self.spans) - 1)

    def close(self):
        self.spans[self.stack.pop()][2] = time.perf_counter()

    @contextmanager
    def span(self, name):
        self.open(name)
        try:
            yield
        finally:
            self.close()

    def inside(self, name):
        return any(self.spans[i][0] == name for i in self.stack)

    def self_times(self):
        """Per-span duration minus the time its direct children cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def task_breakdown(self, own):
        """Per ``cli.<task>`` span: layer self times inside it, remainder, duration.

        Spans are stored in opening order and nest strictly, so the spans
        after a task span that open before it ends are its descendants.
        """
        out = []
        for i, (name, start, end, _, pass_id) in enumerate(self.spans):
            if not name.startswith("cli."):
                continue
            layers = defaultdict(float)
            j = i + 1
            while j < len(self.spans) and self.spans[j][1] < end:
                layers[self.spans[j][0]] += own[j]
                j += 1
            out.append({
                "task": name[4:],
                "pass_id": pass_id,
                "duration_s": end - start,
                "unspanned_s": own[i],
                "layers_self_s": dict(layers),
            })
        return out

    def to_json(self):
        return {
            "fields": ["name", "start", "end", "parent", "pass_id"],
            "spans": self.spans,
            "counters": dict(self.counters),
        }


# ---------------------------------------------------------------------------
# observers: turn a wrapped call's arguments and result into counters
# ---------------------------------------------------------------------------

def _bytes_written(counter, path_index):
    def observe(tr, result, args, kwargs):
        tr.counters[counter] += os.path.getsize(args[path_index])

    return observe


def _calls(counter):
    def observe(tr, result, args, kwargs):
        tr.counters[counter] += 1

    return observe


def _gram_values(tr, result, args, kwargs):
    if tr.inside("kernels.gram_values"):
        return  # a composite kernel's inner call; the outer call counts
    rows, cols = result.shape
    tr.counters["kernels.gram_values_calls"] += 1
    tr.counters["kernels.gram_entries"] += rows * cols
    if tr.inside("shifts.mean_shift"):
        tr.counters["shifts.gram_rows"] += rows


def row_flags(res):
    """Mean-shift rows that neither converged nor emptied, and empty rows."""
    return {
        "unconverged_rows": int((~res.converged_flags & ~res.empty_flags).sum()),
        "empty_rows": int(res.empty_flags.sum()),
    }


def _mean_shift(tr, res, args, kwargs):
    tr.counters["shifts.sweeps"] += len(res.trajectories) - 1
    tr.counters["shifts.live_rows"] += int(res.iterations.sum())
    for name, count in row_flags(res).items():
        tr.counters["shifts." + name] += count


def _local_linear(tr, result, args, kwargs):
    tr.counters["estimators.local_linear_predict_calls"] += 1
    tr.counters["estimators.jittered"] += bool(result[2])


def _tune(tr, res, args, kwargs):
    tr.counters["adaptive.loss_evals"] += len(res.curve)


def _qkv(tr, result, args, kwargs):
    tr.counters["adaptive.qkv_steps"] += len(result[1]) - 1


def _nlm(tr, result, args, kwargs):
    from locuskit.runtime import max_threads

    tr.counters["sequence.nlm_threads"] = max(tr.counters["sequence.nlm_threads"], max_threads())


# (module, attribute, span name, observer)
PATCHES = (
    ("locuskit.cli", "ingest_csv", "dataio.ingest", None),
    ("locuskit.cli", "read_pgm", "dataio.ingest", None),
    ("locuskit.cli", "write_csv", "dataio.write", _bytes_written("dataio.bytes_out", 0)),
    ("locuskit.cli", "write_pgm", "dataio.write", _bytes_written("dataio.bytes_out", 0)),
    # metrics.json carries a runtime, so its size is not an exact count
    ("locuskit.cli", "write_json", "dataio.write", None),
    ("locuskit.cli", "emit_svg", "svg.emit", _bytes_written("svg.bytes_out", 2)),
    ("locuskit.cli", "mean_shift", "shifts.mean_shift", _mean_shift),
    ("locuskit.cli", "medoid_shift", "shifts.medoid_shift", None),
    ("locuskit.shifts", "extract_clusters", "shifts.extract_clusters", None),
    ("locuskit.cli", "kde", "density.kde", _calls("density.kde_calls")),
    ("locuskit.cli", "diffusion_generate", "density.diffusion_generate", None),
    ("locuskit.cli", "local_linear_predict", "estimators.local_linear_predict", _local_linear),
    ("locuskit.adaptive", "local_linear_predict", "estimators.local_linear_predict", _local_linear),
    ("locuskit.cli", "local_mean_predict", "estimators.local_mean_predict",
     _calls("estimators.local_mean_predict_calls")),
    ("locuskit.cli", "local_mode_predict", "estimators.local_mode_predict",
     _calls("estimators.local_mode_predict_calls")),
    ("locuskit.cli", "loo_error", "estimators.loo_error", None),
    ("locuskit.adaptive", "loo_error", "estimators.loo_error", None),
    ("locuskit.cli", "tune_bandwidth", "adaptive.tune_bandwidth", _tune),
    ("locuskit.cli", "fit_qkv", "adaptive.fit_qkv", _qkv),
    ("locuskit.cli", "transformer_encode", "sequence.transformer_encode", None),
    ("locuskit.sequence", "attention_layer", "sequence.attention_layer", None),
    ("locuskit.cli", "nlm_denoise_image", "sequence.nlm_denoise_image", _nlm),
    ("locuskit.cli", "lle_weights", "embedding.lle_weights", None),
    ("locuskit.cli", "lle_embed", "embedding.lle_embed", None),
    ("locuskit.kernels", "pairwise_sq_dists", "kernels.pairwise_sq_dists", None),
    ("locuskit.density", "pairwise_sq_dists", "kernels.pairwise_sq_dists", None),
) + tuple(
    (f"locuskit.{module}", "normalize_rows", "kernels.normalize_rows", None)
    for module in ("kernels", "shifts", "estimators", "adaptive", "sequence", "embedding")
)


def _wrap(tr, fn, name, observe):
    def wrapper(*args, **kwargs):
        tr.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tr.close()
        if observe is not None:
            observe(tr, result, args, kwargs)
        return result

    return wrapper


def _counting_distance(tr, medoid_shift):
    """medoid_shift(k, d, X, ...) with ``d`` counted per call."""

    def wrapper(k, d, *args, **kwargs):
        def counted(a, b):
            tr.counters["shifts.distance_calls"] += 1
            return d(a, b)

        return medoid_shift(k, counted, *args, **kwargs)

    return wrapper


def _kernel_classes():
    kernels = importlib.import_module("locuskit.kernels")
    return [
        cls for _, cls in inspect.getmembers(kernels, inspect.isclass)
        if issubclass(cls, kernels.Kernel) and "gram_values" in vars(cls)
    ]


@contextmanager
def instrument(tr):
    """Patch every entry of ``PATCHES`` and each kernel's gram_values."""
    saved = []

    def patch(owner, attr, new):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    try:
        for module_name, attr, name, observe in PATCHES:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            if attr == "medoid_shift":
                fn = _counting_distance(tr, fn)
            patch(module, attr, _wrap(tr, fn, name, observe))
        for cls in _kernel_classes():
            patch(cls, "gram_values", _wrap(tr, vars(cls)["gram_values"], "kernels.gram_values", _gram_values))
        yield tr
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(tr):
    """Per-layer metrics of a finished traced pass, as {name: (value, unit)}."""
    own = tr.self_times()
    totals = defaultdict(float)
    for (name, start, end, _, _), o in zip(tr.spans, own):
        if name.startswith("cli."):
            totals[name + "_s"] += end - start
            totals["cli.self_s"] += o
        else:
            totals[name + "_s"] += o
    out = {f"cli.{task}_s": (totals[f"cli.{task}_s"], "s") for task in CLI_TASKS}
    out["cli.self_s"] = (totals["cli.self_s"], "s")
    for name in LAYER_SPANS:
        out[name + "_s"] = (totals[name + "_s"], "s")
    for name, unit in COUNTERS:
        out[name] = (tr.counters[name], unit)
    gram_rows = tr.counters["shifts.gram_rows"]
    out["shifts.live_row_ratio"] = (tr.counters["shifts.live_rows"] / gram_rows if gram_rows else 0.0, "ratio")
    return out
