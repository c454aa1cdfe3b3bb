"""Batch command-line surface: ``locuskit <task> --config cfg.json``.

Every task reads one self-describing JSON config, writes ``results.csv``
and ``metrics.json`` (plus ``plot.svg`` where a figure makes sense) into
the output directory, and exits 0 on success, 2 on validation failure, 3
on numeric failure.  Errors also go to stderr as single-line JSON.  A
task's runner only computes; ``run_task`` writes every file once the
runner has returned, so a task that raises leaves no output file.

All randomness flows from the config's 64-bit ``seed`` through one
splitting rule: the effective seed is ``seed XOR blake2b(task_name)``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from . import synth
from .adaptive import _local_linear_with_loo, fit_qkv, tune_bandwidth
from .dataio import Columns, ingest_csv, read_pgm, write_csv, write_json, write_pgm
from .density import (  # kde is unused here, but perfbench/tracer.py wraps it by name
    DiffusionSchedule, diffusion_generate, kde, kde_values,
)
from .embedding import (  # lle_weights is unused here, but perfbench/tracer.py wraps it by name
    _lle_knn_weights, amds_factorize, cooccurrence_embed, lle_embed, lle_weights, read_corpus, trimap_embed,
)
from .errors import EmptyNeighborhood, LocusKitError, NumericError, ValidationError
from .estimators import (  # the three *_predict are unused here, but perfbench/tracer.py wraps them by name
    Dataset, local_linear_predict, local_mean_predict, local_mode_predict, loo_error,
)
from .kernels import _is_integer, _nearest, gaussian, gram, local_reduce, make_kernel, pairwise_sq_dists
from .metrics import accuracy, adjusted_rand_index, r2_score, w1_distance
from .sequence import (
    MlpParams,
    Sequence,
    TransformerLayer,
    gaussian_moving_average,
    nlm_denoise,
    nlm_denoise_image,
    transformer_encode,
)
from .shifts import mean_shift, medoid_shift, relaxation_label
from .svg import emit_svg

__all__ = ["main", "run_task", "TASKS"]


# ---------------------------------------------------------------------------
# config schema machinery
# ---------------------------------------------------------------------------

_REQUIRED = object()  # the default of a key or field that must be given


@dataclass(frozen=True)
class Key:
    name: str
    convert: object  # a ``_rule`` converter
    default: object = None
    help: str = ""


@dataclass(frozen=True)
class TaskSpec:
    name: str
    description: str
    keys: tuple
    runner: object
    stochastic: bool = False

    def key_help(self) -> str:
        lines = [f"config keys for {self.name}:"]
        for k in self.keys:
            req = "required" if k.default is _REQUIRED else f"default {k.default!r}"
            lines.append(f"  {k.name} ({k.convert.rule}; {req}) {k.help}".rstrip())
        return "\n".join(lines)


def _rule(rule: str, accept, cast=lambda value: value):
    """Converter: ``cast(value)`` if ``accept(value)``, else ``ValueError``; errors and ``--help`` print ``rule``."""

    def convert(value):
        if not accept(value):
            raise ValueError(rule)
        return cast(value)

    convert.rule = rule
    return convert


def _is_real(value) -> bool:
    """True for a JSON number: 3 and 3.5, not True or "3"."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _integer(minimum=None):
    rule = "int" if minimum is None else f"int >= {minimum}"
    return _rule(rule, lambda v: _is_integer(v) and (minimum is None or v >= minimum), int)


def _choice(*names: str):
    return _rule("one of " + ", ".join(map(repr, names)), lambda v: v in names)


_any = _rule("any value", lambda v: True)
_bool = _rule("bool", lambda v: isinstance(v, bool))
_str = _rule("str", lambda v: isinstance(v, str))
_dict = _rule("dict", lambda v: isinstance(v, dict))
_int = _integer()
_count = _integer(1)
_float = _rule("float", _is_real, float)
_scale = _rule("float >= 0", lambda v: _is_real(v) and v >= 0, float)
_bound = _rule("float > 0", lambda v: _is_real(v) and v > 0, float)
_points = _rule("a list of points", lambda v: isinstance(v, list), lambda v: np.asarray(v, dtype=float))


def _field(descr: dict, name: str, convert, default=_REQUIRED):
    """``convert(descr[name])``, or ``default`` when the field is absent and has one.

    A missing required field, or one that ``convert`` rejects, raises ``ValidationError``
    saying ``'<name>' must be <rule>``.
    """
    if name not in descr:
        if default is _REQUIRED:
            raise ValidationError(f"{name!r} must be {convert.rule}; it is required")
        return default
    try:
        return convert(descr[name])
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"{name!r} must be {convert.rule}, got {descr[name]!r}") from None


def _fields(descr: dict, keys, what: str) -> dict:
    """Each of ``keys`` read from ``descr`` by ``_field``; a name in ``descr`` that no key has raises ValidationError."""
    unknown = sorted(set(descr) - {k.name for k in keys})
    if unknown:
        raise ValidationError(f"unknown {what}: {unknown}")
    return {k.name: _field(descr, k.name, k.convert, k.default) for k in keys}


_GRID_KEYS = (Key("min", _bound, _REQUIRED), Key("max", _bound, _REQUIRED), Key("count", _count, _REQUIRED))


def _grid_values(grid):
    if isinstance(grid, dict):
        g = _fields(grid, _GRID_KEYS, "grid keys")
        return np.geomspace(g["min"], g["max"], g["count"])
    return [_float(h) for h in grid]


_grid = _rule("a {min, max, count} dict or a list of numbers", lambda v: isinstance(v, (dict, list)), _grid_values)


def _validate_config(spec: TaskSpec, config: dict) -> dict:
    if not isinstance(config, dict):
        raise ValidationError("config must be a JSON object")
    out = _fields(config, spec.keys, f"config keys for {spec.name}")
    if spec.stochastic and out.get("seed") is None:
        raise ValidationError(f"task {spec.name} is stochastic: config key 'seed' is required")
    return out


def _task_seed(task: str, seed) -> int:
    digest = hashlib.blake2b(task.encode("utf-8"), digest_size=8).digest()
    return ((seed or 0) ^ int.from_bytes(digest, "big")) & (2**63 - 1)


# ---------------------------------------------------------------------------
# input resolution
# ---------------------------------------------------------------------------

_BUNDLED = {
    "two-blobs": "two_blobs.csv",
    "noisy-sine": "noisy_sine.csv",
    "qkv-toy": "qkv_toy.csv",
}


def _bundled_path(name: str) -> str:
    if name not in _BUNDLED:
        raise ValidationError(f"unknown bundled dataset {name!r}; have {sorted(_BUNDLED)}")
    here = os.path.dirname(os.path.abspath(__file__))
    return os.path.join(here, "data", _BUNDLED[name])


# synthetic kind -> its keys besides "kind" and "seed"
_SYNTHETIC_KEYS = {
    "blobs": (
        Key("n_per_blob", _count, 100),
        Key("centers", _points, [[0.0, 0.0], [5.0, 0.0], [2.5, 4.5]]),
        Key("spread", _scale, 0.4),
    ),
    "noisy-sine": (Key("n", _count, 100), Key("noise", _scale, 0.1)),
    "swiss-roll": (Key("n", _count, 400),),
    "two-mode": (Key("n", _count, 200), Key("var", _scale, 0.1)),
    "step": (Key("n", _count, 200), Key("noise", _scale, 0.1)),
}


def _synthetic(descr: dict):
    kind = _field(descr, "kind", _choice(*_SYNTHETIC_KEYS))
    keys = (Key("kind", _any), Key("seed", _integer(0), 0)) + _SYNTHETIC_KEYS[kind]
    args = _fields(descr, keys, f"synthetic {kind!r} keys")
    if kind == "blobs":
        X, labels = synth.make_blobs(args["n_per_blob"], args["centers"], args["spread"], args["seed"])
        return Dataset(X, labels)
    if kind == "noisy-sine":
        x, y = synth.noisy_sine(args["n"], args["noise"], args["seed"])
        return Dataset(x, y)
    if kind == "swiss-roll":
        X, _ = synth.swiss_roll(args["n"], args["seed"])
        return Dataset(X)
    if kind == "two-mode":
        v = synth.two_mode_mixture(args["n"], args["seed"], var=args["var"])
        return Dataset(v[:, None])
    clean, noisy = synth.step_signal(args["n"], args["noise"], args["seed"])
    return Sequence(tokens=noisy[:, None])


def _resolve_input(source, schema: str):
    """Accept a path, "bundled:<name>", or a {"synthetic": {...}} dict."""
    if isinstance(source, dict):
        return _synthetic(_fields(source, (Key("synthetic", _dict, _REQUIRED),), "input keys")["synthetic"])
    if not isinstance(source, str):
        raise ValidationError("input must be a path, bundled:<name>, or a synthetic dict")
    path = _bundled_path(source.split(":", 1)[1]) if source.startswith("bundled:") else source
    if not os.path.exists(path):
        raise ValidationError(f"input file does not exist: {path}")
    return ingest_csv(path, schema)


def _feature_header(p: int, prefix="x"):
    return [f"{prefix}{i}" for i in range(p)]


# ---------------------------------------------------------------------------
# task runners: runner(cfg, seed) -> (metrics, files, plot).  ``files`` maps an
# output file name to ``(header, rows)`` for a CSV (``rows`` as write_csv takes
# them, a ``Columns`` or a 2-D array) or a 2-D array for a PGM; ``plot`` is
# emit_svg's ``(kind, payload)``, or None for no figure.
# ---------------------------------------------------------------------------

def _label_scatter(X, labels):
    """The first two features coloured by label; no figure for a single feature."""
    return ("scatter", {"points": X[:, :2], "labels": labels}) if X.shape[1] >= 2 else None


def _run_regress(cfg, seed, linear: bool):
    data = _resolve_input(cfg["input"], "features+target")
    kernel = make_kernel(cfg["kernel"])
    if linear:  # the leave-one-out error comes from the same grams as the fit
        preds, jittered, loo = _local_linear_with_loo(kernel, cfg["lambda"], data)
        counters = {"jittered": int(jittered.sum())}
    else:
        means, empty = local_reduce(kernel, data.X, data.X, data.y)
        preds = means[:, 0]
        if empty.any() and cfg["fallback"] == "error":
            raise EmptyNeighborhood(f"no positive kernel weights at {data.X[empty.argmax()]!r}")
        if empty.any():  # each empty row takes its nearest sample's target, the lowest index among ties
            preds[empty] = data.y[_nearest(pairwise_sq_dists(data.X[empty], data.X), 1)[:, 0]]
        counters = {"empty_rows": int(empty.sum())}
        try:  # leave-one-out squared error of the model fitted above
            loo = loo_error(kernel, data)
        except LocusKitError:
            loo = None
    metrics = {"r2_train": r2_score(data.y, preds), "n": data.n, "diagnostics": {"counters": counters}, "loo_error": loo}
    files = {"results.csv": (_feature_header(data.p) + ["target", "prediction"], Columns((data.X, data.y, preds)))}
    plot = None
    if data.p == 1:
        order = np.argsort(data.X[:, 0])
        plot = ("line", {"series": [(data.X[order, 0], data.y[order]), (data.X[order, 0], preds[order])]})
    return metrics, files, plot


def _run_classify(cfg, seed):
    data = _resolve_input(cfg["input"], "features+label")
    kernel = make_kernel(cfg["kernel"])
    onehot = np.eye(int(data.y.max()) + 1)[data.y]
    shares, empty = local_reduce(kernel, data.X, data.X, onehot)
    if empty.any():
        raise EmptyNeighborhood(f"no positive kernel weights at {data.X[empty.argmax()]!r}")
    preds = shares.argmax(axis=1)  # ties -> lowest class index
    metrics = {
        "accuracy": accuracy(data.y, preds),
        "n": data.n,
        "diagnostics": {"counters": {"empty_rows": int(empty.sum())}},
    }
    files = {"results.csv": (_feature_header(data.p) + ["label", "predicted"], Columns((data.X, data.y, preds)))}
    return metrics, files, _label_scatter(data.X, preds)


def _run_meanshift(cfg, seed):
    data = _resolve_input(cfg["input"], "features+label" if cfg["labeled"] else "features-only")
    kernel = make_kernel(cfg["kernel"])
    res = mean_shift(
        kernel,
        data.X,
        alpha=cfg["alpha"],
        tol=cfg["tol"],
        max_iter=cfg["max_iter"],
        merge_radius=cfg["merge_radius"],
    )
    metrics = {
        "n_clusters": int(res.labels.max()) + 1,
        "diagnostics": {
            "counters": {
                "sweeps": len(res.trajectories) - 1,
                "unconverged_rows": int((~res.converged_flags & ~res.empty_flags).sum()),
                "empty_rows": int(res.empty_flags.sum()),
            }
        },
    }
    if cfg["labeled"]:
        metrics["ari"] = adjusted_rand_index(data.y, res.labels)
    header = _feature_header(data.p)
    paths = np.stack(res.trajectories, axis=1)  # (n, steps, p): each query's path
    n, steps = paths.shape[:2]
    files = {
        "results.csv": (header + ["cluster"], Columns((data.X, res.labels))),
        "trajectories.csv": (
            ["query", "iteration"] + header,
            Columns((np.repeat(np.arange(n), steps), np.tile(np.arange(steps), n), paths.reshape(n * steps, -1))),
        ),
    }
    return metrics, files, ("trajectories", {"trajectories": paths})


def _run_medoidshift(cfg, seed):
    data = _resolve_input(cfg["input"], "features+label" if cfg["labeled"] else "features-only")
    kernel = make_kernel(cfg["kernel"])
    mapping, labels, reps = medoid_shift(kernel, pairwise_sq_dists, data.X, merge_radius=cfg["merge_radius"])
    metrics = {"n_clusters": int(labels.max()) + 1}
    if cfg["labeled"]:
        metrics["ari"] = adjusted_rand_index(data.y, labels)
    metrics["diagnostics"] = {"counters": {"terminal_medoids": int(np.unique(reps).size)}}
    files = {"results.csv": (_feature_header(data.p) + ["cluster", "medoid"], Columns((data.X, labels, mapping)))}
    return metrics, files, _label_scatter(data.X, labels)


def _run_relax(cfg, seed):
    data = _resolve_input(cfg["input"], "features+label" if cfg["labeled"] else "features-only")
    kernel = make_kernel(cfg["kernel"])
    init = synth.kmeans_labels(data.X, cfg["n_classes"], rng_seed=seed)
    if cfg["mode"] == "soft":
        R0 = np.eye(cfg["n_classes"])[init]
        R = relaxation_label(kernel, data.X, R0, mode="soft", max_iter=cfg["max_iter"])
        labels = R.argmax(axis=1)
    else:
        labels = relaxation_label(kernel, data.X, init, mode="hard", max_iter=cfg["max_iter"])
    metrics = {"n_classes_found": int(len(np.unique(labels)))}
    if cfg["labeled"]:
        metrics["ari"] = adjusted_rand_index(data.y, labels)
    files = {"results.csv": (_feature_header(data.p) + ["cluster"], Columns((data.X, labels)))}
    return metrics, files, _label_scatter(data.X, labels)


def _run_lle(cfg, seed):
    data = _resolve_input(cfg["input"], "features-only")
    res = lle_embed(_lle_knn_weights(data.X, cfg["n_neighbors"]), cfg["dim"])
    files = {"results.csv": ([f"z{i}" for i in range(res.Z.shape[1])], res.Z)}
    metrics = {"objective": res.objective, "n": data.n, "diagnostics": {"counters": {"eigen_solves": res.iterations}}}
    return metrics, files, ("scatter", {"points": res.Z[:, :2]})


def _run_amds(cfg, seed):
    data = _resolve_input(cfg["input"], "features-only")
    kernel = make_kernel(cfg["kernel"])
    K = gram(kernel, data.X, data.X)
    Phi, Psi, strain, history = amds_factorize(K, cfg["q"], method=cfg["method"], iters=cfg["iters"], rng_seed=seed)
    header = [f"phi{i}" for i in range(Phi.shape[1])] + [f"psi{i}" for i in range(Psi.shape[1])]
    files = {"results.csv": (header, np.hstack([Phi, Psi]))}
    return {"strain": strain, "sweeps": len(history)}, files, ("scatter", {"points": Phi[:, :2]})


def _run_trimap(cfg, seed):
    data = _resolve_input(cfg["input"], "features-only")
    res = trimap_embed(
        data.X,
        gaussian(cfg["similarity_h"]).gram_values,
        q=cfg["q"],
        h=cfg["transform"],
        steps=cfg["steps"],
        lr=cfg["lr"],
        rng_seed=seed,
    )
    metrics = {"objective": res.objective, "initial_objective": float(res.history[0])}
    files = {"results.csv": ([f"z{i}" for i in range(res.Z.shape[1])], res.Z)}
    return metrics, files, ("scatter", {"points": res.Z[:, :2]})


def _run_words(cfg, seed):
    if not os.path.exists(cfg["input"]):
        raise ValidationError(f"input text file does not exist: {cfg['input']!r}")
    windows = read_corpus(cfg["input"], cfg["window"])
    wv = cooccurrence_embed(windows, cfg["dim"])
    metrics = {"vocabulary": len(wv.vocabulary), "windows": len(windows)}
    header = ["symbol"] + [f"v{i}" for i in range(wv.input_vectors.shape[1])]
    files = {"results.csv": (header, Columns((wv.vocabulary, wv.input_vectors)))}
    return metrics, files, ("scatter", {"points": wv.input_vectors[:, :2]})


def _run_kde(cfg, seed):
    data = _resolve_input(cfg["input"], "features-only")
    kernel = make_kernel(cfg["kernel"])
    if data.p != 1:
        raise ValidationError("density-kde grids are 1-D; provide single-feature input")
    h = getattr(kernel, "h", getattr(kernel, "eps", 1.0))
    lo = float(data.X.min()) - 3.0 * h
    hi = float(data.X.max()) + 3.0 * h
    grid = np.linspace(lo, hi, cfg["grid_count"])
    dens = kde_values(kernel, data.X, grid)
    in_sample = kde_values(kernel, data.X, data.X)
    metrics = {
        "total_log_likelihood": float(np.log(np.maximum(in_sample, 1e-300)).sum()),
        "grid_count": cfg["grid_count"],
    }
    files = {"results.csv": (["x", "density"], np.stack([grid, dens], 1))}
    return metrics, files, ("line", {"series": [(grid, dens)]})


def _run_diffusion(cfg, seed):
    data = _resolve_input(cfg["input"], "features-only")
    sched = DiffusionSchedule.linear_variance_preserving(cfg["steps"], cfg["s2_min"], cfg["s2_max"])
    gen, _ = diffusion_generate(
        data.X,
        sched,
        n=cfg["n_samples"],
        rng_seed=seed,
        alpha=cfg["alpha"],
        inject_noise=cfg["inject_noise"],
    )
    metrics = {"n_samples": cfg["n_samples"]}
    files = {"results.csv": (_feature_header(data.p, prefix="g"), gen)}
    if data.p >= 2:
        return metrics, files, ("scatter", {"points": gen[:, :2]})
    idx = np.random.default_rng(seed).choice(data.n, size=min(data.n, len(gen)), replace=False)
    metrics["w1_to_training_subset"] = w1_distance(gen[: len(idx), 0], data.X[idx, 0])
    metrics["left_mass"] = float((gen[:, 0] < np.median(data.X[:, 0])).mean())
    sorted_gen = np.sort(gen[:, 0])
    return metrics, files, ("line", {"series": [(np.linspace(0, 1, len(sorted_gen)), sorted_gen)]})


def _run_nlm(cfg, seed):
    if cfg["image"] is not None:
        img = read_pgm(cfg["image"]).astype(float) / 255.0
        den = nlm_denoise_image(img, cfg["patch_radius"], cfg["bandwidth"], cfg["search_radius"])
        files = {"denoised.pgm": den * 255.0, "results.csv": (["mse_change"], [[float(((den - img) ** 2).mean())]])}
        return {"pixels": int(img.size)}, files, None
    seq = _resolve_input(cfg["input"], "sequence")
    den = nlm_denoise(seq, cfg["patch_radius"], cfg["bandwidth"], cfg["search_radius"])
    metrics = {"length": seq.length}
    if cfg["clean"] is not None:
        clean = _resolve_input(cfg["clean"], "sequence")
        metrics["mse_vs_clean"] = float(((den.tokens - clean.tokens) ** 2).mean())
        base = gaussian_moving_average(seq, cfg["search_radius"])
        metrics["mse_moving_average"] = float(((base.tokens - clean.tokens) ** 2).mean())
    files = {"results.csv": (["t"] + _feature_header(seq.width), Columns((den.times, den.tokens)))}
    return metrics, files, ("line", {"series": [(seq.times, seq.tokens[:, 0]), (den.times, den.tokens[:, 0])]})


def _run_tune(cfg, seed):
    data = _resolve_input(cfg["input"], "features+target")
    res = tune_bandwidth(cfg["predictor"], data, grid=cfg["grid"])
    metrics = {
        "h_star": res.h_star,
        "loss_star": res.loss_star,
        "diagnostics": {"counters": {"jittered": res.jittered}},
    }
    finite = [(h, l) for h, l in res.curve if np.isfinite(l)]
    hs = np.array([h for h, _ in finite])
    ls = np.array([l for _, l in finite])
    return metrics, {"results.csv": (["h", "loss"], Columns((hs, ls)))}, ("curve+argmin", {"x": np.log10(hs), "y": ls})


def _run_qkv(cfg, seed):
    data = _resolve_input(cfg["input"], "features-only")
    params, trace = fit_qkv(
        data.X,
        d=cfg["d"],
        form=cfg["form"],
        lr=cfg["lr"],
        steps=cfg["steps"],
        rng_seed=seed,
    )
    metrics = {
        "initial_loss": float(trace[0]),
        "final_loss": float(trace[-1]),
        "loss_ratio": float(trace[-1] / trace[0]) if trace[0] else 0.0,
    }
    files = {"results.csv": (["step", "loss"], Columns((np.arange(len(trace)), trace)))}
    return metrics, files, ("line", {"series": [(np.arange(len(trace)), trace)]})


def _run_transformer(cfg, seed):
    if cfg["input"] is not None:
        seq = _resolve_input(cfg["input"], "sequence")
    else:
        t = np.arange(cfg["length"], dtype=float)
        tokens = np.stack([np.sin(0.3 * t), np.cos(0.2 * t), 0.05 * t], axis=1)
        seq = Sequence(tokens=tokens, times=t)
    rng = np.random.default_rng(seed)
    p = seq.width
    layers = [
        TransformerLayer(
            wq=0.4 * rng.standard_normal((p, cfg["d"])),
            wk=0.4 * rng.standard_normal((p, cfg["d"])),
            mlp=MlpParams.random(p, cfg["hidden"], rng, scale=0.4),
        )
        for _ in range(cfg["depth"])
    ]
    out_seq = transformer_encode(seq, layers, causal=cfg["causal"])
    metrics = {"depth": cfg["depth"], "length": seq.length}
    if cfg["causal"] and seq.length > 2:
        s = seq.length // 2
        pert = seq.tokens.copy()
        pert[s] += 1.0
        out2 = transformer_encode(Sequence(pert, seq.times), layers, causal=True)
        metrics["causality_ok"] = bool(
            np.array_equal(out2.tokens[:s], out_seq.tokens[:s])
        )
    files = {"results.csv": (["t"] + _feature_header(seq.width, prefix="y"), Columns((out_seq.times, out_seq.tokens)))}
    return metrics, files, ("line", {"series": [(seq.times, seq.tokens[:, 0]), (out_seq.times, out_seq.tokens[:, 0])]})


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

_KERNEL_KEY = Key("kernel", _dict, default={"kind": "gaussian", "h": 1.0}, help="kernel descriptor")
_INPUT_KEY = Key("input", _any, default=_REQUIRED, help="path, bundled:<name>, or {synthetic: {...}}")
_SEED_KEY = Key("seed", _int, default=None, help="base 64-bit seed")

TASKS = {}


def _register(name, description, keys, runner, stochastic=False):
    TASKS[name] = TaskSpec(name, description, tuple(keys), runner, stochastic)


_register(
    "regress-local-mean",
    "kernel-weighted average regression over a features+target CSV",
    [
        _INPUT_KEY,
        _KERNEL_KEY,
        _SEED_KEY,
        Key("fallback", _choice("error", "nearest-neighbor"), default="error", help="empty-window policy"),
    ],
    lambda cfg, seed: _run_regress(cfg, seed, linear=False),
)
_register(
    "regress-local-linear",
    "locally weighted linear/ridge regression",
    [_INPUT_KEY, _KERNEL_KEY, _SEED_KEY, Key("lambda", _float, default=0.0, help="ridge penalty")],
    lambda cfg, seed: _run_regress(cfg, seed, linear=True),
)
_register(
    "classify-local",
    "local mode classification over a features+label CSV",
    [_INPUT_KEY, _KERNEL_KEY, _SEED_KEY],
    _run_classify,
)
_register(
    "cluster-meanshift",
    "MeanShift iteration plus single-linkage cluster extraction",
    [
        _INPUT_KEY,
        _KERNEL_KEY,
        _SEED_KEY,
        Key("alpha", _float, default=1.0, help="damped step size in (0, 1]"),
        Key("tol", _scale, default=None, help="convergence tolerance (default scale-relative)"),
        Key("max_iter", _integer(0), default=500),
        Key("merge_radius", _float, default=None, help="cluster merge radius (default scale-relative)"),
        Key("labeled", _bool, default=True, help="input carries a label column for ARI"),
    ],
    _run_meanshift,
)
_register(
    "cluster-medoidshift",
    "local-medoid mapping clustering",
    [
        _INPUT_KEY,
        _KERNEL_KEY,
        _SEED_KEY,
        Key("labeled", _bool, default=True),
        Key("merge_radius", _float, default=None, help="optional root-merging radius"),
    ],
    _run_medoidshift,
)
_register(
    "cluster-relax",
    "relaxation labeling from a k-means initialization",
    [
        _INPUT_KEY,
        _KERNEL_KEY,
        _SEED_KEY,
        Key("n_classes", _count, default=_REQUIRED),
        Key("mode", _choice("hard", "soft"), default="hard"),
        Key("max_iter", _integer(0), default=200),
        Key("labeled", _bool, default=True),
    ],
    _run_relax,
    stochastic=True,
)
_register(
    "embed-lle",
    "locally linear embedding",
    [
        _INPUT_KEY,
        _SEED_KEY,
        Key("n_neighbors", _count, default=10),
        Key("dim", _count, default=2),
    ],
    _run_lle,
)
_register(
    "embed-amds",
    "asymmetric MDS factorization of a kernel matrix",
    [
        _INPUT_KEY,
        _KERNEL_KEY,
        _SEED_KEY,
        Key("q", _count, default=2),
        Key("method", _choice("svd", "nmf"), default="svd"),
        Key("iters", _integer(0), default=200),
    ],
    _run_amds,
    stochastic=True,
)
_register(
    "embed-trimap",
    "ternary contrast-kernel embedding",
    [
        _INPUT_KEY,
        _SEED_KEY,
        Key("q", _count, default=2),
        Key("transform", _choice("identity", "log1p"), default="log1p"),
        Key("steps", _count, default=200),
        Key("lr", _bound, default=0.05),
        Key("similarity_h", _bound, default=1.0),
    ],
    _run_trimap,
    stochastic=True,
)
_register(
    "embed-words",
    "co-occurrence SVD word vectors from a text file",
    [
        Key("input", _str, default=_REQUIRED, help="plain-text corpus path"),
        _SEED_KEY,
        Key("window", _integer(2), default=5),
        Key("dim", _count, default=2),
    ],
    _run_words,
)
_register(
    "density-kde",
    "kernel density estimate on a 1-D grid",
    [_INPUT_KEY, _KERNEL_KEY, _SEED_KEY, Key("grid_count", _count, default=201)],
    _run_kde,
)
_register(
    "generate-diffusion",
    "local-mean diffusion sampling",
    [
        _INPUT_KEY,
        _SEED_KEY,
        Key("steps", _count, default=20),
        Key("s2_min", _float, default=1e-4),
        Key("s2_max", _float, default=0.2),
        Key("alpha", _float, default=0.8),
        Key("n_samples", _count, default=500),
        Key("inject_noise", _bool, default=True),
    ],
    _run_diffusion,
    stochastic=True,
)
_register(
    "denoise-nlm",
    "non-local means denoising of a sequence CSV or PGM image",
    [
        Key("input", _any, default=None, help="sequence CSV (t, features...)"),
        Key("image", _str, default=None, help="binary PGM path (overrides input)"),
        _SEED_KEY,
        Key("patch_radius", _integer(0), default=2),
        Key("bandwidth", _float, default=0.2),
        Key("search_radius", _integer(0), default=10),
        Key("clean", _any, default=None, help="clean reference sequence for MSE"),
    ],
    _run_nlm,
)
_register(
    "tune-bandwidth",
    "leave-one-out bandwidth selection over a grid",
    [
        _INPUT_KEY,
        _SEED_KEY,
        Key("predictor", _choice("local-mean", "local-linear", "kde-loo"), default="local-mean"),
        Key("grid", _grid, default=_REQUIRED),
    ],
    _run_tune,
)
_register(
    "fit-qkv",
    "discrete query-key-value training on a value matrix",
    [
        _INPUT_KEY,
        _SEED_KEY,
        Key("d", _count, default=2),
        Key("form", _choice("softmax", "linear"), default="softmax"),
        Key("steps", _integer(0), default=500),
        Key("lr", _bound, default=0.1),
    ],
    _run_qkv,
    stochastic=True,
)
_register(
    "transformer-demo",
    "seeded random encoder forward pass with causality check",
    [
        Key("input", _any, default=None, help="sequence CSV; omit for the synthetic demo"),
        _SEED_KEY,
        Key("length", _count, default=24),
        Key("depth", _count, default=6, help="encoder layers (classic default 6)"),
        Key("d", _count, default=4),
        Key("hidden", _count, default=8),
        Key("causal", _bool, default=True),
    ],
    _run_transformer,
    stochastic=True,
)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def run_task(task: str, config: dict, out_dir: str, seed_override=None) -> dict:
    """Validate and execute one task, then write its files into out_dir; returns the metrics it wrote."""
    if task not in TASKS:
        raise ValidationError(f"unknown task {task!r}; have {sorted(TASKS)}")
    spec = TASKS[task]
    if seed_override is not None and isinstance(config, dict):
        config = {**config, "seed": seed_override}
    cfg = _validate_config(spec, config)
    os.makedirs(out_dir, exist_ok=True)
    seed = _task_seed(task, cfg.get("seed"))
    start = time.perf_counter()
    metrics, files, plot = spec.runner(cfg, seed)
    # every file goes to a staging directory in out_dir first and is moved out only once all are written,
    # so a task that fails writes no file
    staging = tempfile.mkdtemp(prefix=".staging-", dir=out_dir)
    try:
        for name, content in files.items():  # paths go positionally: perfbench/tracer.py reads them from args
            path = os.path.join(staging, name)
            if name.endswith(".pgm"):
                write_pgm(path, content)
            else:
                write_csv(path, *content)
        if plot is not None:
            emit_svg(*plot, os.path.join(staging, "plot.svg"))
        metrics["runtime_s"] = time.perf_counter() - start  # the runner and its output files
        metrics["task"] = task
        write_json(os.path.join(staging, "metrics.json"), metrics)
        for name in sorted(os.listdir(staging)):
            os.replace(os.path.join(staging, name), os.path.join(out_dir, name))
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return metrics


def _emit_error(kind: str, message: str):
    print(json.dumps({"error": kind, "message": message}), file=sys.stderr)


def main(argv=None) -> int:
    from .runtime import max_threads

    parser = argparse.ArgumentParser(
        prog="locuskit",
        description="Batch drivers for the localization-kernel toolkit.",
    )
    sub = parser.add_subparsers(dest="task", metavar="task")
    for name, spec in sorted(TASKS.items()):
        p = sub.add_parser(
            name,
            help=spec.description,
            description=spec.description,
            epilog=spec.key_help(),
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
    args = parser.parse_args(argv)
    if args.task is None:
        parser.print_help()
        return 2
    try:
        max_threads()  # fail fast on a malformed env var
        with open(args.config, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except json.JSONDecodeError as exc:
        _emit_error("validation", f"config is not valid JSON: {exc}")
        return 2
    except (FileNotFoundError, ValidationError) as exc:
        _emit_error("validation", str(exc))
        return 2
    try:
        metrics = run_task(args.task, config, args.out, seed_override=args.seed)
    except (NumericError, np.linalg.LinAlgError) as exc:
        _emit_error("numeric", str(exc))
        return 3
    except (LocusKitError, FileNotFoundError) as exc:
        _emit_error("validation", str(exc))
        return 2
    print(json.dumps(metrics, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
