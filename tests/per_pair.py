"""Per-pair reference for the pairwise dissimilarity ``d(A, B)`` that
``medoid_shift`` takes: the matrix built one scalar call at a time."""

import numpy as np


def sq_euclid(a, b):
    return float(((np.asarray(a) - np.asarray(b)) ** 2).sum())


def pairwise(f):
    """``d(A, B)``: the len(A) x len(B) array of the scalar ``f(a, b)`` over the rows."""

    def d(A, B):
        return np.array([[f(a, b) for b in B] for a in A], dtype=float)

    return d
