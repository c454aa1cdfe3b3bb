"""Workload definitions: seeded inputs, task configs and output checks.

Each workload writes its inputs as CSV or PGM files, so the program sees
only files and ``dataio`` ingest is part of the measured path.  A workload
is a list of ``Task`` entries run in order, one at a time, through
``locuskit.cli.run_task``.

``SIZES`` holds the measured sizes; ``TINY`` holds the sizes the
self-tests use.  The checks hold at both.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, field

import numpy as np

BLOB_CENTERS = np.array([[0.0, 0.0], [5.0, 0.0], [2.5, 4.5]])

SIZES = {
    "cluster_points": 3000,
    "medoid_points": 450,
    "diffusion_points": 2000,
    "diffusion_samples": 2000,
    "sequence_length": 2048,
    "qkv_rows": 128,
    "qkv_steps": 300,
    "regress_points": 3000,
    "classify_points": 3000,
    "kde_points": 3000,
    "kde_grid": 1001,
    "tune_points": 400,
    "tune_grid": 12,
    "image_side": 128,
    "lle_points": 1000,
}

TINY = {
    "cluster_points": 300,
    "medoid_points": 90,
    "diffusion_points": 200,
    "diffusion_samples": 200,
    "sequence_length": 64,
    "qkv_rows": 24,
    "qkv_steps": 40,
    "regress_points": 300,
    "classify_points": 300,
    "kde_points": 300,
    "kde_grid": 101,
    "tune_points": 60,
    "tune_grid": 4,
    "image_side": 16,
    "lle_points": 200,
}

# Files whose bytes must repeat exactly across the passes of one run.
DETERMINISTIC_FILES = ("results.csv", "denoised.pgm")


@dataclass
class Task:
    """One CLI invocation: the task name, its config and its output check."""

    name: str
    config: dict
    check: object  # check(metrics, out_dir) -> list of failure strings
    threads: int = 1  # LOCUSKIT_THREADS while this task runs


@dataclass
class Workload:
    name: str
    why: str
    tasks: list
    input_sizes: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# input files
# ---------------------------------------------------------------------------

def _write_table(path, header, columns, int_last=False):
    """Headered CSV with %.17g floats, so ingest reads back exact values."""
    table = np.column_stack(columns)
    lines = [",".join(header)]
    for row in table:
        cells = ["%.17g" % v for v in row]
        if int_last:
            cells[-1] = str(int(row[-1]))
        lines.append(",".join(cells))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def _blobs(rng, n):
    labels = np.arange(n) % 3
    X = BLOB_CENTERS[labels] + rng.normal(0.0, 0.4, size=(n, 2))
    return X, labels


def _two_mode(rng, n):
    v = np.concatenate([rng.normal(-2.0, math.sqrt(0.1), n // 2), rng.normal(2.0, math.sqrt(0.1), n - n // 2)])
    rng.shuffle(v)
    return v


def _noisy_sine(rng, n):
    x = np.sort(rng.uniform(0.0, 2.0 * math.pi, n))
    return x, np.sin(x) + rng.normal(0.0, 0.1, n)


def _write_blobs(path, rng, n):
    X, labels = _blobs(rng, n)
    return _write_table(path, ["x0", "x1", "label"], [X, labels], int_last=True)


def _write_sine(path, rng, n):
    x, y = _noisy_sine(rng, n)
    return _write_table(path, ["x0", "y"], [x, y])


def _write_pgm(path, rng, side):
    """Piecewise-constant shapes plus Gaussian noise, as binary 8-bit PGM."""
    yy, xx = np.mgrid[0:side, 0:side] / side
    img = np.full((side, side), 60.0)
    img[(xx > 0.2) & (xx < 0.5) & (yy > 0.2) & (yy < 0.8)] = 190.0
    img[(xx - 0.72) ** 2 + (yy - 0.5) ** 2 < 0.04] = 130.0
    img = np.clip(np.round(img + rng.normal(0.0, 20.0, img.shape)), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{side} {side}\n255\n".encode("ascii") + img.tobytes())
    return path


# ---------------------------------------------------------------------------
# output checks (each returns a list of failure strings; empty means pass)
# ---------------------------------------------------------------------------

def _need(cond, message):
    return [] if cond else [message]


def check_clusters(metrics, out_dir):
    ari = metrics.get("ari")
    return _need(metrics.get("n_clusters") == 3, f"n_clusters={metrics.get('n_clusters')} != 3") + _need(
        ari is not None and ari >= 0.99, f"ari={ari} < 0.99"
    )


def check_meanshift(metrics, out_dir):
    return check_clusters(metrics, out_dir) + [
        f"{key}={metrics.get(key)} != 0" for key in ("unconverged_rows", "empty_rows") if metrics.get(key) != 0
    ]


def check_diffusion(metrics, out_dir):
    left, w1 = metrics.get("left_mass"), metrics.get("w1_to_training_subset")
    return _need(left is not None and 0.4 <= left <= 0.6, f"left_mass={left} outside [0.4, 0.6]") + _need(
        w1 is not None and w1 <= 0.3, f"w1_to_training_subset={w1} > 0.3"
    )


def check_causal(metrics, out_dir):
    return _need(metrics.get("causality_ok") is True, f"causality_ok={metrics.get('causality_ok')}")


def check_qkv(metrics, out_dir):
    ratio = metrics.get("loss_ratio")
    return _need(ratio is not None and ratio < 1.0, f"loss_ratio={ratio} not < 1")


def check_regress(metrics, out_dir):
    r2 = metrics.get("r2_train")
    return _need(r2 is not None and r2 >= 0.95, f"r2_train={r2} < 0.95")


def check_classify(metrics, out_dir):
    acc = metrics.get("accuracy")
    return _need(acc is not None and acc >= 0.99, f"accuracy={acc} < 0.99")


def check_kde(metrics, out_dir):
    grid = np.loadtxt(os.path.join(out_dir, "results.csv"), delimiter=",", skiprows=1, ndmin=2)
    x, dens = grid[:, 0], grid[:, 1]
    mass = float(np.sum(0.5 * (dens[1:] + dens[:-1]) * np.diff(x)))
    return _need(abs(mass - 1.0) <= 0.01, f"KDE grid integrates to {mass}, not 1 +- 0.01")


def check_tune(grid):
    def check(metrics, out_dir):
        h, loss = metrics.get("h_star"), metrics.get("loss_star")
        return _need(h is not None and any(math.isclose(h, g, rel_tol=1e-12) for g in grid), f"h_star={h} not a grid member") + _need(
            loss is not None and math.isfinite(loss), f"loss_star={loss} not finite"
        )

    return check


def check_nlm(side):
    header = f"P5\n{side} {side}\n255\n".encode("ascii")

    def check(metrics, out_dir):
        # 8-bit pixels with maxval 255 are within [0, 255] by construction
        with open(os.path.join(out_dir, "denoised.pgm"), "rb") as fh:
            data = fh.read()
        ok = data.startswith(header) and len(data) == len(header) + side * side
        return _need(ok and len(set(data[len(header):])) > 1, "denoised.pgm is not a non-constant 8-bit image of the input size")

    return check


def check_lle(metrics, out_dir):
    obj = metrics.get("objective")
    return _need(obj is not None and math.isfinite(obj), f"LLE objective={obj} not finite")


def output_digests(out_dir):
    """SHA-256 of each deterministic output file present in ``out_dir``."""
    digests = {}
    for name in DETERMINISTIC_FILES:
        path = os.path.join(out_dir, name)
        if os.path.exists(path):
            with open(path, "rb") as fh:
                digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

WHY = {
    "cluster-3k": "mean-shift sweeps over 3000x3000 grams, union-find cluster extraction and medoid-shift distance calls; "
    "large CSV/SVG output",
    "dense-softmax": "batched exp/softmax reductions in density, sequence and adaptive with no per-query loop; "
    "bypasses gram_values and shifts",
    "per-query-3k": "thousands of 1xN kernel calls from per-item Python loops plus N x N leave-one-out grams, "
    "NLM on two threads and LLE",
}

NAMES = tuple(WHY)


def build(name, seed, in_dir, sizes=SIZES):
    """Write the inputs of workload ``name`` for ``seed`` into ``in_dir``."""
    if name not in WHY:
        raise ValueError(f"unknown workload {name!r}; have {list(WHY)}")
    os.makedirs(in_dir, exist_ok=True)
    rng = np.random.default_rng([seed, NAMES.index(name)])
    s = sizes
    path = lambda f: os.path.join(in_dir, f)  # noqa: E731
    gauss = lambda h: {"kind": "gaussian", "h": h}  # noqa: E731

    if name == "cluster-3k":
        tasks = [
            Task("cluster-meanshift",
                 {"input": _write_blobs(path("blobs.csv"), rng, s["cluster_points"]), "kernel": gauss(1.0), "labeled": True},
                 check_meanshift),
            Task("cluster-medoidshift",
                 {"input": _write_blobs(path("blobs_small.csv"), rng, s["medoid_points"]), "kernel": gauss(1.0),
                  "labeled": True, "merge_radius": 1.0},
                 check_clusters),
        ]
        sizes_used = {k: s[k] for k in ("cluster_points", "medoid_points")}
    elif name == "dense-softmax":
        t = np.arange(s["sequence_length"], dtype=float)
        seq = [np.sin(0.05 * t) + rng.normal(0.0, 0.1, t.size), np.cos(0.011 * t), rng.normal(0.0, 1.0, t.size)]
        proto = rng.normal(0.0, 1.0, size=(4, 3))
        values = proto[np.arange(s["qkv_rows"]) % 4] + rng.normal(0.0, 0.1, size=(s["qkv_rows"], 3))
        tasks = [
            Task("generate-diffusion",
                 {"input": _write_table(path("two_mode.csv"), ["x0"], [_two_mode(rng, s["diffusion_points"])]),
                  "steps": 20, "n_samples": s["diffusion_samples"], "seed": seed},
                 check_diffusion),
            Task("transformer-demo",
                 {"input": _write_table(path("sequence.csv"), ["t", "c0", "c1", "c2"], [t] + seq),
                  "depth": 6, "causal": True, "seed": seed},
                 check_causal),
            Task("fit-qkv",
                 {"input": _write_table(path("values.csv"), ["v0", "v1", "v2"], [values]), "steps": s["qkv_steps"], "seed": seed},
                 check_qkv),
        ]
        sizes_used = {k: s[k] for k in ("diffusion_points", "diffusion_samples", "sequence_length", "qkv_rows", "qkv_steps")}
    else:
        grid = list(np.geomspace(0.05, 1.0, s["tune_grid"]))
        sine = _write_sine(path("sine.csv"), rng, s["regress_points"])
        u = rng.random((2, s["lle_points"]))
        roll_t = 1.5 * math.pi * (1.0 + 2.0 * u[0])
        roll = np.stack([roll_t * np.cos(roll_t), 10.0 * u[1], roll_t * np.sin(roll_t)], axis=1)
        tasks = [
            Task("regress-local-linear", {"input": sine, "kernel": gauss(0.2)}, check_regress),
            Task("regress-local-mean", {"input": sine, "kernel": gauss(0.2)}, check_regress),
            Task("classify-local",
                 {"input": _write_blobs(path("blobs.csv"), rng, s["classify_points"]), "kernel": gauss(1.0)},
                 check_classify),
            Task("density-kde",
                 {"input": _write_table(path("two_mode.csv"), ["x0"], [_two_mode(rng, s["kde_points"])]),
                  "kernel": gauss(0.25), "grid_count": s["kde_grid"]},
                 check_kde),
            Task("tune-bandwidth",
                 {"input": _write_sine(path("sine_small.csv"), rng, s["tune_points"]), "predictor": "local-linear",
                  "grid": grid},
                 check_tune(grid)),
            Task("denoise-nlm", {"image": _write_pgm(path("image.pgm"), rng, s["image_side"])},
                 check_nlm(s["image_side"]), threads=2),
            Task("embed-lle",
                 {"input": _write_table(path("swiss_roll.csv"), ["x0", "x1", "x2"], [roll])},
                 check_lle),
        ]
        sizes_used = {k: s[k] for k in ("regress_points", "classify_points", "kde_points", "kde_grid", "tune_points",
                                        "tune_grid", "image_side", "lle_points")}
    return Workload(name, WHY[name], tasks, sizes_used)
