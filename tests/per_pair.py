"""Per-pair reference for the pairwise functions the library takes, the
dissimilarity ``d(A, B)`` of ``medoid_shift`` and the similarity ``s(A, B)``
of ``trimap_embed``: the matrix built one scalar call at a time."""

import numpy as np


def sq_euclid(a, b):
    return float(((np.asarray(a) - np.asarray(b)) ** 2).sum())


def pairwise(f):
    """The pairwise form of the scalar ``f(a, b)``: the len(A) x len(B) array of its values over the rows."""

    def d(A, B):
        return np.array([[f(a, b) for b in B] for a in A], dtype=float)

    return d
