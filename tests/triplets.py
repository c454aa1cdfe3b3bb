"""Loop references for the triplet builders of ``trimap_embed``: the triplets
built one tuple at a time, as ``(T, 3)`` arrays of ``(i, j, k)`` rows."""

import numpy as np


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
