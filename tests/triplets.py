"""Loop references for ``trimap_embed``: the triplets built one tuple at a
time, as ``(T, 3)`` arrays of ``(i, j, k)`` rows, and the descent with its
gradient scattered by ``np.add.at``."""

import numpy as np

from locuskit.embedding import _contrast_h


def all_triplets(n):
    """Every (i, j, k) of distinct indices, i then j then k ascending."""
    trips = []
    for i in range(n):
        for j in range(n):
            if j == i:
                continue
            for k in range(n):
                if k != i and k != j:
                    trips.append((i, j, k))
    return np.asarray(trips, dtype=int)


def sampled_triplets(S, n_neighbors, n_contrast, rng):
    """Per anchor i, its most similar other points j by a stable sort (ties by index); per (i, j), contrasts k
    drawn without replacement from the sorted pool of the points other than i and j."""
    n = S.shape[0]
    trips = []
    for i in range(n):
        sims = S[i].copy()
        sims[i] = -np.inf
        nbrs = np.argsort(-sims, kind="stable")[: min(n_neighbors, n - 1)]
        for j in nbrs:
            pool = np.setdiff1d(np.arange(n), [i, j])
            ks = rng.choice(pool, size=min(n_contrast, pool.size), replace=False)
            for k in ks:
                trips.append((i, int(j), int(k)))
    return np.asarray(trips, dtype=int)


def add_at_descent(Z, i1, i2, i3, K, h, steps, lr):
    """``trimap_embed``'s descent from Z over the triplets (i1, i2, i3) with contrast kernel values K, its gradient
    scattered by three ``np.add.at``, one per triplet role; returns the final Z and the loss before each step and
    after the last."""
    hf, hpf = _contrast_h(h)

    def loss_and_grad(Z):
        d12 = Z[i1] - Z[i2]
        d13 = Z[i1] - Z[i3]
        u = (d12**2).sum(1) - (d13**2).sum(1)
        coef = (K * hpf(u))[:, None]
        g = np.zeros_like(Z)
        np.add.at(g, i1, coef * 2.0 * (d12 - d13))
        np.add.at(g, i2, -coef * 2.0 * d12)
        np.add.at(g, i3, coef * 2.0 * d13)
        return float((K * hf(u)).sum()), g

    history = [None] * (steps + 1)
    history[0], g = loss_and_grad(Z)
    for t in range(1, steps + 1):
        Z = Z - lr * g
        history[t], g = loss_and_grad(Z)
    return Z, np.asarray(history)
