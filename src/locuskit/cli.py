"""Batch command-line surface: ``locuskit <task> --config cfg.json``.

Every task reads one self-describing JSON config, writes ``results.csv``
and ``metrics.json`` (plus ``plot.svg`` where a figure makes sense) into
the output directory, and exits 0 on success, 2 on validation failure, 3
on numeric failure.  Errors also go to stderr as single-line JSON.

All randomness flows from the config's 64-bit ``seed`` through one
splitting rule: the effective seed is ``seed XOR blake2b(task_name)``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import synth
from .adaptive import fit_qkv, tune_bandwidth
from .dataio import ingest_csv, read_pgm, write_csv, write_json, write_pgm
from .density import (  # kde is unused here, but perfbench/tracer.py wraps it by name
    DiffusionSchedule, diffusion_generate, kde, kde_values,
)
from .embedding import amds_factorize, cooccurrence_embed, lle_embed, lle_weights, read_corpus, trimap_embed
from .errors import LocusKitError, NumericError, ValidationError
from .estimators import (  # local_linear_predict is unused here, but perfbench/tracer.py wraps it by name
    Dataset, local_linear_predict, local_linear_transform, local_mean_predict, local_mode_predict, loo_error,
)
from .kernels import gaussian, gram, local_reduce, make_kernel
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

@dataclass(frozen=True)
class Key:
    name: str
    type: object
    required: bool = False
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
            req = "required" if k.required else f"default {k.default!r}"
            lines.append(f"  {k.name} ({getattr(k.type, '__name__', k.type)}; {req}) {k.help}")
        return "\n".join(lines)


def _validate_config(spec: TaskSpec, config: dict) -> dict:
    if not isinstance(config, dict):
        raise ValidationError("config must be a JSON object")
    known = {k.name for k in spec.keys}
    unknown = sorted(set(config) - known)
    if unknown:
        raise ValidationError(f"unknown config keys for {spec.name}: {unknown}")
    out = {}
    for k in spec.keys:
        if k.name in config:
            value = config[k.name]
            if k.type in (int, float) and isinstance(value, (int, float)) and not isinstance(value, bool):
                value = k.type(value)
            elif k.type is bool and isinstance(value, bool):
                pass
            elif k.type in (dict, list, str) and isinstance(value, k.type):
                pass
            elif k.type is object:
                pass
            else:
                raise ValidationError(
                    f"config key {k.name!r} must be {getattr(k.type, '__name__', k.type)}"
                )
            out[k.name] = value
        elif k.required:
            raise ValidationError(f"config key {k.name!r} is required for {spec.name}")
        else:
            out[k.name] = k.default
    if spec.stochastic and out.get("seed") is None:
        raise ValidationError(f"task {spec.name} is stochastic: config key 'seed' is required")
    return out


def _task_seed(task: str, seed) -> int:
    digest = hashlib.blake2b(task.encode("utf-8"), digest_size=8).digest()
    return (int(seed or 0) ^ int.from_bytes(digest, "big")) & (2**63 - 1)


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


def _synthetic(descr: dict):
    kind = descr.get("kind")
    rng_seed = descr.get("seed", 0)
    if kind == "blobs":
        X, labels = synth.make_blobs(
            int(descr.get("n_per_blob", 100)),
            descr.get("centers", [[0.0, 0.0], [5.0, 0.0], [2.5, 4.5]]),
            float(descr.get("spread", 0.4)),
            rng_seed,
        )
        return Dataset(X, labels)
    if kind == "noisy-sine":
        x, y = synth.noisy_sine(int(descr.get("n", 100)), float(descr.get("noise", 0.1)), rng_seed)
        return Dataset(x, y)
    if kind == "swiss-roll":
        X, _ = synth.swiss_roll(int(descr.get("n", 400)), rng_seed)
        return Dataset(X)
    if kind == "two-mode":
        v = synth.two_mode_mixture(int(descr.get("n", 200)), rng_seed, var=float(descr.get("var", 0.1)))
        return Dataset(v[:, None])
    if kind == "step":
        clean, noisy = synth.step_signal(int(descr.get("n", 200)), float(descr.get("noise", 0.1)), rng_seed)
        return Sequence(tokens=noisy[:, None])
    raise ValidationError(f"unknown synthetic kind {kind!r}")


def _resolve_input(source, schema: str):
    """Accept a path, "bundled:<name>", or a {"synthetic": {...}} dict."""
    if isinstance(source, dict):
        if "synthetic" not in source:
            raise ValidationError("input dict must carry a 'synthetic' descriptor")
        return _synthetic(source["synthetic"])
    if not isinstance(source, str):
        raise ValidationError("input must be a path, bundled:<name>, or a synthetic dict")
    path = _bundled_path(source.split(":", 1)[1]) if source.startswith("bundled:") else source
    if not os.path.exists(path):
        raise ValidationError(f"input file does not exist: {path}")
    return ingest_csv(path, schema)


def _feature_header(p: int, prefix="x"):
    return [f"{prefix}{i}" for i in range(p)]


# ---------------------------------------------------------------------------
# task runners (each returns the metrics dict)
# ---------------------------------------------------------------------------

def _run_regress(cfg, out, seed, linear: bool):
    data = _resolve_input(cfg["input"], "features+target")
    kernel = make_kernel(cfg["kernel"])
    if linear:
        preds, jittered = local_linear_transform(kernel, data, data.X, lam=cfg["lambda"])
        counters = {"jittered": int(jittered.sum())}
    else:
        means, empty = local_reduce(kernel, data.X, data.X, data.y)
        preds = means[:, 0]
        for i in np.flatnonzero(empty):
            preds[i] = local_mean_predict(kernel, data, data.X[i], fallback=cfg["fallback"])
        counters = {"empty_rows": int(empty.sum())}
    metrics = {"r2_train": r2_score(data.y, preds), "n": data.n, "diagnostics": {"counters": counters}}
    try:
        metrics["loo_error"] = loo_error(kernel, data)
    except LocusKitError:
        metrics["loo_error"] = None
    header = _feature_header(data.p) + ["target", "prediction"]
    rows = [list(x) + [y, p] for x, y, p in zip(data.X, data.y, preds)]
    write_csv(os.path.join(out, "results.csv"), header, rows)
    if data.p == 1:
        order = np.argsort(data.X[:, 0])
        emit_svg(
            "line",
            {"series": [(data.X[order, 0], data.y[order]), (data.X[order, 0], preds[order])]},
            os.path.join(out, "plot.svg"),
        )
    return metrics


def _run_classify(cfg, out, seed):
    data = _resolve_input(cfg["input"], "features+label")
    kernel = make_kernel(cfg["kernel"])
    onehot = np.eye(int(data.y.max()) + 1)[data.y]
    shares, empty = local_reduce(kernel, data.X, data.X, onehot)
    preds = shares.argmax(axis=1)  # ties -> lowest class index
    for i in np.flatnonzero(empty):
        preds[i] = local_mode_predict(kernel, data, data.X[i])[0]
    metrics = {
        "accuracy": accuracy(data.y, preds),
        "n": data.n,
        "diagnostics": {"counters": {"empty_rows": int(empty.sum())}},
    }
    header = _feature_header(data.p) + ["label", "predicted"]
    rows = [list(x) + [int(y), int(p)] for x, y, p in zip(data.X, data.y, preds)]
    write_csv(os.path.join(out, "results.csv"), header, rows)
    if data.p >= 2:
        emit_svg("scatter", {"points": data.X[:, :2], "labels": preds}, os.path.join(out, "plot.svg"))
    return metrics


def _run_meanshift(cfg, out, seed):
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
    header = _feature_header(data.p) + ["cluster"]
    write_csv(
        os.path.join(out, "results.csv"),
        header,
        [list(x) + [int(c)] for x, c in zip(data.X, res.labels)],
    )
    write_csv(
        os.path.join(out, "trajectories.csv"),
        ["query", "iteration"] + _feature_header(data.p),
        [
            [int(i), int(t)] + list(snap[i])
            for i in range(data.n)
            for t, snap in enumerate(res.trajectories)
        ],
    )
    emit_svg(
        "trajectories",
        {"trajectories": [res.trajectory_of(i) for i in range(data.n)]},
        os.path.join(out, "plot.svg"),
    )
    return metrics


def _run_medoidshift(cfg, out, seed):
    data = _resolve_input(cfg["input"], "features+label" if cfg["labeled"] else "features-only")
    kernel = make_kernel(cfg["kernel"])

    def sq(a, b):
        return float(((a - b) ** 2).sum())

    mapping, labels, reps = medoid_shift(kernel, sq, data.X, merge_radius=cfg["merge_radius"])
    metrics = {"n_clusters": int(labels.max()) + 1}
    if cfg["labeled"]:
        metrics["ari"] = adjusted_rand_index(data.y, labels)
    header = _feature_header(data.p) + ["cluster", "medoid"]
    write_csv(
        os.path.join(out, "results.csv"),
        header,
        [list(x) + [int(c), int(m)] for x, c, m in zip(data.X, labels, mapping)],
    )
    if data.p >= 2:
        emit_svg("scatter", {"points": data.X[:, :2], "labels": labels}, os.path.join(out, "plot.svg"))
    return metrics


def _run_relax(cfg, out, seed):
    data = _resolve_input(cfg["input"], "features+label" if cfg["labeled"] else "features-only")
    kernel = make_kernel(cfg["kernel"])
    init = synth.kmeans_labels(data.X, int(cfg["n_classes"]), rng_seed=seed)
    if cfg["mode"] == "soft":
        R0 = np.eye(int(cfg["n_classes"]))[init]
        R = relaxation_label(kernel, data.X, R0, mode="soft", max_iter=cfg["max_iter"])
        labels = R.argmax(axis=1)
    else:
        labels = relaxation_label(kernel, data.X, init, mode="hard", max_iter=cfg["max_iter"])
    metrics = {"n_classes_found": int(len(np.unique(labels)))}
    if cfg["labeled"]:
        metrics["ari"] = adjusted_rand_index(data.y, labels)
    write_csv(
        os.path.join(out, "results.csv"),
        _feature_header(data.p) + ["cluster"],
        [list(x) + [int(c)] for x, c in zip(data.X, labels)],
    )
    if data.p >= 2:
        emit_svg("scatter", {"points": data.X[:, :2], "labels": labels}, os.path.join(out, "plot.svg"))
    return metrics


def _run_lle(cfg, out, seed):
    data = _resolve_input(cfg["input"], "features-only")
    S = lle_weights(data.X, int(cfg["n_neighbors"]))
    res = lle_embed(S, int(cfg["dim"]))
    metrics = {"objective": res.objective, "n": data.n}
    write_csv(
        os.path.join(out, "results.csv"),
        [f"z{i}" for i in range(res.Z.shape[1])],
        [list(z) for z in res.Z],
    )
    emit_svg("scatter", {"points": res.Z[:, :2] if res.Z.shape[1] >= 2 else res.Z}, os.path.join(out, "plot.svg"))
    return metrics


def _run_amds(cfg, out, seed):
    data = _resolve_input(cfg["input"], "features-only")
    kernel = make_kernel(cfg["kernel"])
    K = gram(kernel, data.X, data.X)
    Phi, Psi, strain, history = amds_factorize(
        K, int(cfg["q"]), method=cfg["method"], iters=int(cfg["iters"]), rng_seed=seed
    )
    metrics = {"strain": strain, "sweeps": len(history)}
    header = [f"phi{i}" for i in range(Phi.shape[1])] + [f"psi{i}" for i in range(Psi.shape[1])]
    write_csv(
        os.path.join(out, "results.csv"),
        header,
        [list(a) + list(b) for a, b in zip(Phi, Psi)],
    )
    emit_svg("scatter", {"points": Phi[:, :2] if Phi.shape[1] >= 2 else Phi}, os.path.join(out, "plot.svg"))
    return metrics


def _run_trimap(cfg, out, seed):
    data = _resolve_input(cfg["input"], "features-only")
    res = trimap_embed(
        data.X,
        gaussian(float(cfg["similarity_h"])),
        q=int(cfg["q"]),
        h=cfg["transform"],
        steps=int(cfg["steps"]),
        lr=float(cfg["lr"]),
        rng_seed=seed,
    )
    metrics = {"objective": res.objective, "initial_objective": float(res.history[0])}
    write_csv(
        os.path.join(out, "results.csv"),
        [f"z{i}" for i in range(res.Z.shape[1])],
        [list(z) for z in res.Z],
    )
    emit_svg("scatter", {"points": res.Z[:, :2] if res.Z.shape[1] >= 2 else res.Z}, os.path.join(out, "plot.svg"))
    return metrics


def _run_words(cfg, out, seed):
    path = cfg["input"]
    if not isinstance(path, str) or not os.path.exists(path):
        raise ValidationError(f"input text file does not exist: {path!r}")
    windows = read_corpus(path, int(cfg["window"]))
    wv = cooccurrence_embed(windows, int(cfg["dim"]))
    metrics = {"vocabulary": len(wv.vocabulary), "windows": len(windows)}
    header = ["symbol"] + [f"v{i}" for i in range(wv.input_vectors.shape[1])]
    write_csv(
        os.path.join(out, "results.csv"),
        header,
        [[tok] + list(vec) for tok, vec in zip(wv.vocabulary, wv.input_vectors)],
    )
    pts = wv.input_vectors[:, :2] if wv.input_vectors.shape[1] >= 2 else wv.input_vectors
    emit_svg("scatter", {"points": pts}, os.path.join(out, "plot.svg"))
    return metrics


def _run_kde(cfg, out, seed):
    data = _resolve_input(cfg["input"], "features-only")
    kernel = make_kernel(cfg["kernel"])
    if data.p != 1:
        raise ValidationError("density-kde grids are 1-D; provide single-feature input")
    h = getattr(kernel, "h", getattr(kernel, "eps", 1.0))
    lo = float(data.X.min()) - 3.0 * h
    hi = float(data.X.max()) + 3.0 * h
    grid = np.linspace(lo, hi, int(cfg["grid_count"]))
    dens = kde_values(kernel, data.X, grid)
    in_sample = kde_values(kernel, data.X, data.X)
    metrics = {
        "total_log_likelihood": float(np.log(np.maximum(in_sample, 1e-300)).sum()),
        "grid_count": int(cfg["grid_count"]),
    }
    write_csv(os.path.join(out, "results.csv"), ["x", "density"], np.stack([grid, dens], 1))
    emit_svg("line", {"series": [(grid, dens)]}, os.path.join(out, "plot.svg"))
    return metrics


def _run_diffusion(cfg, out, seed):
    data = _resolve_input(cfg["input"], "features-only")
    sched = DiffusionSchedule.linear_variance_preserving(
        int(cfg["steps"]), float(cfg["s2_min"]), float(cfg["s2_max"])
    )
    gen, _ = diffusion_generate(
        data.X,
        sched,
        n=int(cfg["n_samples"]),
        rng_seed=seed,
        alpha=float(cfg["alpha"]),
        inject_noise=bool(cfg["inject_noise"]),
    )
    metrics = {"n_samples": int(cfg["n_samples"])}
    if data.p == 1:
        idx = np.random.default_rng(seed).choice(data.n, size=min(data.n, len(gen)), replace=False)
        metrics["w1_to_training_subset"] = w1_distance(gen[: len(idx), 0], data.X[idx, 0])
        metrics["left_mass"] = float((gen[:, 0] < np.median(data.X[:, 0])).mean())
    write_csv(
        os.path.join(out, "results.csv"),
        _feature_header(data.p, prefix="g"),
        [list(g) for g in gen],
    )
    if data.p >= 2:
        emit_svg("scatter", {"points": gen[:, :2]}, os.path.join(out, "plot.svg"))
    else:
        sorted_gen = np.sort(gen[:, 0])
        emit_svg(
            "line",
            {"series": [(np.linspace(0, 1, len(sorted_gen)), sorted_gen)]},
            os.path.join(out, "plot.svg"),
        )
    return metrics


def _run_nlm(cfg, out, seed):
    if cfg["image"] is not None:
        img = read_pgm(cfg["image"]).astype(float) / 255.0
        den = nlm_denoise_image(
            img, int(cfg["patch_radius"]), float(cfg["bandwidth"]), int(cfg["search_radius"])
        )
        write_pgm(os.path.join(out, "denoised.pgm"), den * 255.0)
        metrics = {"pixels": int(img.size)}
        write_csv(os.path.join(out, "results.csv"), ["mse_change"], [[float(((den - img) ** 2).mean())]])
        return metrics
    seq = _resolve_input(cfg["input"], "sequence")
    den = nlm_denoise(seq, int(cfg["patch_radius"]), float(cfg["bandwidth"]), int(cfg["search_radius"]))
    metrics = {"length": seq.length}
    if cfg["clean"] is not None:
        clean = _resolve_input(cfg["clean"], "sequence")
        metrics["mse_vs_clean"] = float(((den.tokens - clean.tokens) ** 2).mean())
        base = gaussian_moving_average(seq, int(cfg["search_radius"]))
        metrics["mse_moving_average"] = float(((base.tokens - clean.tokens) ** 2).mean())
    write_csv(
        os.path.join(out, "results.csv"),
        ["t"] + _feature_header(seq.width),
        [[t] + list(row) for t, row in zip(den.times, den.tokens)],
    )
    emit_svg(
        "line",
        {"series": [(seq.times, seq.tokens[:, 0]), (den.times, den.tokens[:, 0])]},
        os.path.join(out, "plot.svg"),
    )
    return metrics


def _run_tune(cfg, out, seed):
    data = _resolve_input(cfg["input"], "features+target")
    grid_cfg = cfg["grid"]
    if isinstance(grid_cfg, dict):
        grid = np.geomspace(float(grid_cfg["min"]), float(grid_cfg["max"]), int(grid_cfg["count"]))
    elif isinstance(grid_cfg, list):
        grid = [float(g) for g in grid_cfg]
    else:
        raise ValidationError("grid must be a {min,max,count} dict or a list of bandwidths")
    res = tune_bandwidth(cfg["predictor"], data, grid=grid)
    metrics = {
        "h_star": res.h_star,
        "loss_star": res.loss_star,
        "diagnostics": {"counters": {"loo_refits": res.loo_refits}},
    }
    finite = [(h, l) for h, l in res.curve if np.isfinite(l)]
    write_csv(os.path.join(out, "results.csv"), ["h", "loss"], finite)
    hs = np.array([h for h, _ in finite])
    ls = np.array([l for _, l in finite])
    emit_svg("curve+argmin", {"x": np.log10(hs), "y": ls}, os.path.join(out, "plot.svg"))
    return metrics


def _run_qkv(cfg, out, seed):
    data = _resolve_input(cfg["input"], "features-only")
    params, trace = fit_qkv(
        data.X,
        d=int(cfg["d"]),
        form=cfg["form"],
        lr=float(cfg["lr"]),
        steps=int(cfg["steps"]),
        rng_seed=seed,
    )
    metrics = {
        "initial_loss": float(trace[0]),
        "final_loss": float(trace[-1]),
        "loss_ratio": float(trace[-1] / trace[0]) if trace[0] else 0.0,
    }
    write_csv(
        os.path.join(out, "results.csv"),
        ["step", "loss"],
        [[i, v] for i, v in enumerate(trace)],
    )
    emit_svg("line", {"series": [(np.arange(len(trace)), trace)]}, os.path.join(out, "plot.svg"))
    return metrics


def _run_transformer(cfg, out, seed):
    if cfg["input"] is not None:
        seq = _resolve_input(cfg["input"], "sequence")
    else:
        t = np.arange(int(cfg["length"]), dtype=float)
        tokens = np.stack([np.sin(0.3 * t), np.cos(0.2 * t), 0.05 * t], axis=1)
        seq = Sequence(tokens=tokens, times=t)
    rng = np.random.default_rng(seed)
    p = seq.width
    layers = [
        TransformerLayer(
            wq=0.4 * rng.standard_normal((p, int(cfg["d"]))),
            wk=0.4 * rng.standard_normal((p, int(cfg["d"]))),
            mlp=MlpParams.random(p, int(cfg["hidden"]), rng, scale=0.4),
        )
        for _ in range(int(cfg["depth"]))
    ]
    out_seq = transformer_encode(seq, layers, causal=bool(cfg["causal"]))
    metrics = {"depth": int(cfg["depth"]), "length": seq.length}
    if cfg["causal"] and seq.length > 2:
        s = seq.length // 2
        pert = seq.tokens.copy()
        pert[s] += 1.0
        out2 = transformer_encode(Sequence(pert, seq.times), layers, causal=True)
        metrics["causality_ok"] = bool(
            np.array_equal(out2.tokens[:s], out_seq.tokens[:s])
        )
    write_csv(
        os.path.join(out, "results.csv"),
        ["t"] + _feature_header(seq.width, prefix="y"),
        [[t] + list(row) for t, row in zip(out_seq.times, out_seq.tokens)],
    )
    emit_svg(
        "line",
        {"series": [(seq.times, seq.tokens[:, 0]), (out_seq.times, out_seq.tokens[:, 0])]},
        os.path.join(out, "plot.svg"),
    )
    return metrics


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

_KERNEL_KEY = Key("kernel", dict, default={"kind": "gaussian", "h": 1.0}, help="kernel descriptor")
_INPUT_KEY = Key("input", object, required=True, help="path, bundled:<name>, or {synthetic: {...}}")
_SEED_KEY = Key("seed", int, default=None, help="base 64-bit seed")

TASKS = {}


def _register(name, description, keys, runner, stochastic=False):
    TASKS[name] = TaskSpec(name, description, tuple(keys), runner, stochastic)


_register(
    "regress-local-mean",
    "kernel-weighted average regression over a features+target CSV",
    [_INPUT_KEY, _KERNEL_KEY, _SEED_KEY, Key("fallback", str, default="error", help="empty-window policy")],
    lambda cfg, out, seed: _run_regress(cfg, out, seed, linear=False),
)
_register(
    "regress-local-linear",
    "locally weighted linear/ridge regression",
    [_INPUT_KEY, _KERNEL_KEY, _SEED_KEY, Key("lambda", float, default=0.0, help="ridge penalty")],
    lambda cfg, out, seed: _run_regress(cfg, out, seed, linear=True),
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
        Key("alpha", float, default=1.0, help="damped step size in (0, 1]"),
        Key("tol", float, default=None, help="convergence tolerance (default scale-relative)"),
        Key("max_iter", int, default=500),
        Key("merge_radius", float, default=None, help="cluster merge radius (default scale-relative)"),
        Key("labeled", bool, default=True, help="input carries a label column for ARI"),
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
        Key("labeled", bool, default=True),
        Key("merge_radius", float, default=None, help="optional root-merging radius"),
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
        Key("n_classes", int, required=True),
        Key("mode", str, default="hard", help="hard or soft"),
        Key("max_iter", int, default=200),
        Key("labeled", bool, default=True),
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
        Key("n_neighbors", int, default=10),
        Key("dim", int, default=2),
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
        Key("q", int, default=2),
        Key("method", str, default="svd", help="svd or nmf"),
        Key("iters", int, default=200),
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
        Key("q", int, default=2),
        Key("transform", str, default="log1p", help="identity or log1p"),
        Key("steps", int, default=200),
        Key("lr", float, default=0.05),
        Key("similarity_h", float, default=1.0),
    ],
    _run_trimap,
    stochastic=True,
)
_register(
    "embed-words",
    "co-occurrence SVD word vectors from a text file",
    [
        Key("input", str, required=True, help="plain-text corpus path"),
        _SEED_KEY,
        Key("window", int, default=5),
        Key("dim", int, default=2),
    ],
    _run_words,
)
_register(
    "density-kde",
    "kernel density estimate on a 1-D grid",
    [_INPUT_KEY, _KERNEL_KEY, _SEED_KEY, Key("grid_count", int, default=201)],
    _run_kde,
)
_register(
    "generate-diffusion",
    "local-mean diffusion sampling",
    [
        _INPUT_KEY,
        _SEED_KEY,
        Key("steps", int, default=20),
        Key("s2_min", float, default=1e-4),
        Key("s2_max", float, default=0.2),
        Key("alpha", float, default=0.8),
        Key("n_samples", int, default=500),
        Key("inject_noise", bool, default=True),
    ],
    _run_diffusion,
    stochastic=True,
)
_register(
    "denoise-nlm",
    "non-local means denoising of a sequence CSV or PGM image",
    [
        Key("input", object, default=None, help="sequence CSV (t, features...)"),
        Key("image", str, default=None, help="binary PGM path (overrides input)"),
        _SEED_KEY,
        Key("patch_radius", int, default=2),
        Key("bandwidth", float, default=0.2),
        Key("search_radius", int, default=10),
        Key("clean", object, default=None, help="clean reference sequence for MSE"),
    ],
    _run_nlm,
)
_register(
    "tune-bandwidth",
    "leave-one-out bandwidth selection over a grid",
    [
        _INPUT_KEY,
        _SEED_KEY,
        Key("predictor", str, default="local-mean", help="local-mean, local-linear, kde-loo"),
        Key("grid", object, required=True, help="{min,max,count} or [h, ...]"),
    ],
    _run_tune,
)
_register(
    "fit-qkv",
    "discrete query-key-value training on a value matrix",
    [
        _INPUT_KEY,
        _SEED_KEY,
        Key("d", int, default=2),
        Key("form", str, default="softmax", help="softmax or linear"),
        Key("steps", int, default=500),
        Key("lr", float, default=0.1),
    ],
    _run_qkv,
    stochastic=True,
)
_register(
    "transformer-demo",
    "seeded random encoder forward pass with causality check",
    [
        Key("input", object, default=None, help="sequence CSV; omit for the synthetic demo"),
        _SEED_KEY,
        Key("length", int, default=24),
        Key("depth", int, default=6, help="encoder layers (classic default 6)"),
        Key("d", int, default=4),
        Key("hidden", int, default=8),
        Key("causal", bool, default=True),
    ],
    _run_transformer,
    stochastic=True,
)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def run_task(task: str, config: dict, out_dir: str, seed_override=None) -> dict:
    """Validate and execute one task; returns the metrics it wrote."""
    if task not in TASKS:
        raise ValidationError(f"unknown task {task!r}; have {sorted(TASKS)}")
    spec = TASKS[task]
    if seed_override is not None:
        config = dict(config)
        config["seed"] = int(seed_override)
    cfg = _validate_config(spec, config)
    os.makedirs(out_dir, exist_ok=True)
    seed = _task_seed(task, cfg.get("seed"))
    start = time.perf_counter()
    metrics = spec.runner(cfg, out_dir, seed)
    metrics["runtime_s"] = time.perf_counter() - start  # the whole runner: ingest, compute, output files
    metrics["task"] = task
    write_json(os.path.join(out_dir, "metrics.json"), metrics)
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
    except FileNotFoundError as exc:
        _emit_error("validation", str(exc))
        return 2
    except json.JSONDecodeError as exc:
        _emit_error("validation", f"config is not valid JSON: {exc}")
        return 2
    except ValidationError as exc:
        _emit_error("validation", str(exc))
        return 2
    try:
        metrics = run_task(args.task, config, args.out, seed_override=args.seed)
    except (ValidationError, FileNotFoundError) as exc:
        _emit_error("validation", str(exc))
        return 2
    except (NumericError, np.linalg.LinAlgError) as exc:
        _emit_error("numeric", str(exc))
        return 3
    except LocusKitError as exc:
        _emit_error("validation", str(exc))
        return 2
    print(json.dumps(metrics, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
