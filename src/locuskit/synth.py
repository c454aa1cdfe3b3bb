"""Seeded synthetic data generators for the experiment drivers and tests.

Desk-scale stand-ins for the figures' datasets: Gaussian blobs, noisy sine
curves, a swiss-roll surface, a two-mode mixture, step signals, binary
pattern banks, and the bundled QKV token toy.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParameter
from .kernels import as_point_set, pairwise_sq_dists

__all__ = [
    "make_blobs",
    "noisy_sine",
    "swiss_roll",
    "two_mode_mixture",
    "step_signal",
    "toy_token_values",
    "orthogonal_patterns",
    "kmeans_labels",
]


def make_blobs(n_per_blob: int, centers, spread: float, rng_seed: int):
    """Isotropic Gaussian blobs; returns (X, labels)."""
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    rng = np.random.default_rng(rng_seed)
    n_blobs = centers.shape[0]
    labels = np.repeat(np.arange(n_blobs), n_per_blob)
    X = centers[labels] + rng.normal(0.0, spread, size=(n_per_blob * n_blobs, centers.shape[1]))
    return X, labels


def noisy_sine(n: int, noise_std: float, rng_seed: int, lo: float = 0.0, hi: float = 2 * np.pi):
    """Sorted x ~ U(lo, hi) with y = sin(x) + noise; returns (x, y)."""
    rng = np.random.default_rng(rng_seed)
    x = np.sort(rng.uniform(lo, hi, size=n))
    y = np.sin(x) + rng.normal(0.0, noise_std, size=n)
    return x, y


def swiss_roll(n: int, rng_seed: int, height: float = 10.0, noise_std: float = 0.0):
    """Classic rolled sheet in 3-D; returns (X, (t, h)) with the intrinsic coords."""
    rng = np.random.default_rng(rng_seed)
    t = 1.5 * np.pi * (1.0 + 2.0 * rng.random(n))
    h = height * rng.random(n)
    X = np.stack([t * np.cos(t), h, t * np.sin(t)], axis=1)
    if noise_std > 0:
        X = X + rng.normal(0.0, noise_std, size=X.shape)
    return X, np.stack([t, h], axis=1)


def two_mode_mixture(n: int, rng_seed: int, centers=(-2.0, 2.0), var: float = 0.1):
    """Stratified draw from 0.5 N(c1, var) + 0.5 N(c2, var).

    Component counts are exact (n//2 and n - n//2) so the sample's mode
    masses carry no binomial noise; the draw is then shuffled.
    """
    rng = np.random.default_rng(rng_seed)
    half = n // 2
    sd = float(np.sqrt(var))
    v = np.concatenate(
        [rng.normal(centers[0], sd, half), rng.normal(centers[1], sd, n - half)]
    )
    rng.shuffle(v)
    return v


def step_signal(n: int, noise_std: float, rng_seed: int):
    """Unit step at the midpoint plus Gaussian noise; returns (clean, noisy)."""
    clean = np.concatenate([np.zeros(n // 2), np.ones(n - n // 2)])
    rng = np.random.default_rng(rng_seed)
    return clean, clean + rng.normal(0.0, noise_std, size=n)


def toy_token_values():
    """The bundled 6-token value matrix (q=2) with two 3-token blocks."""
    return np.array(
        [
            [1.0, 0.0],
            [1.0, 0.0],
            [1.0, 0.0],
            [0.0, 1.0],
            [0.0, 1.0],
            [0.0, 1.0],
        ]
    )


def orthogonal_patterns(n_patterns: int, n_bits: int):
    """Mutually orthogonal +/-1 patterns from the Sylvester Hadamard rows."""
    if n_bits & (n_bits - 1):
        raise InvalidParameter("pattern length must be a power of two")
    H = np.array([[1.0]])
    while H.shape[0] < n_bits:
        H = np.block([[H, H], [H, -H]])
    if n_patterns > n_bits:
        raise InvalidParameter("at most n_bits mutually orthogonal patterns exist")
    # skip the all-ones row: flipped-bit queries near it are degenerate
    return H[1 : n_patterns + 1].copy()


def kmeans_labels(X, n_clusters: int, rng_seed: int, n_iter: int = 50):
    """Plain Lloyd iterations, used only to seed relaxation labeling demos."""
    X = as_point_set(X)
    if not 1 <= n_clusters <= X.shape[0]:
        raise InvalidParameter(f"n_clusters must be in [1, {X.shape[0]}], got {n_clusters}")
    rng = np.random.default_rng(rng_seed)
    centers = X[rng.choice(X.shape[0], size=n_clusters, replace=False)]
    labels = np.zeros(X.shape[0], dtype=int)
    for _ in range(n_iter):
        new = pairwise_sq_dists(X, centers).argmin(axis=1)
        if (new == labels).all():
            break
        labels = new
        for c in range(n_clusters):
            members = X[labels == c]
            if len(members):
                centers[c] = members.mean(axis=0)
    return labels
