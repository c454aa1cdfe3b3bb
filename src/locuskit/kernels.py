"""Localization kernels, the kernel operator algebra, and matrix machinery.

A kernel here is a weakly constrained similarity weight on ordered point
pairs: non-negative for every base kind, typically decaying with distance,
and with no positive-definiteness requirement.  Kernels are immutable
evaluators; all matrix-level work (normalization, Laplacians, smoothing
norms, filtering) operates on the dense gram of a kernel over finite point
sets.

Conventions
-----------
* A point is a 1-D float array of length p; a point set is an (N, p) array.
  1-D data may be passed as an (N,) array and is treated as (N, 1).
* The Gaussian kernel is ``exp(-||x-y||^2 / (2 h^2))`` without a density
  constant: row normalization absorbs constants, so the local-mean side of
  the library never needs them.  (Density-normalized forms live in
  :mod:`locuskit.density`.)
* Difference kernels can go negative; their grams carry a ``desmoothing``
  flag and are rejected by :func:`normalize_rows`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DesmoothingInput,
    DimensionMismatch,
    DomainError,
    InvalidParameter,
    NotSquare,
    ShapeMismatch,
    UnsupportedComposition,
)

__all__ = [
    "Kernel",
    "GaussianKernel",
    "EpanechnikovKernel",
    "NeighborhoodKernel",
    "UniformKernel",
    "DiracKernel",
    "KnnKernel",
    "FeatureKernel",
    "ConcreteKernel",
    "DualKernel",
    "ProductKernel",
    "PowerKernel",
    "RegularizedKernel",
    "HollowKernel",
    "MultiKernel",
    "DifferenceKernel",
    "SelfKernel",
    "gaussian",
    "epanechnikov",
    "neighborhood",
    "uniform",
    "dirac",
    "knn_kernel",
    "feature_kernel",
    "concrete",
    "make_kernel",
    "derive_kernel",
    "eval_kernel",
    "gram",
    "KernelMatrix",
    "StochasticMatrix",
    "LaplacianView",
    "normalize_rows",
    "laplacian_of",
    "smoothing_norm",
    "filter_solve",
    "as_point",
    "as_point_set",
    "pairwise_sq_dists",
    "softmax_rows",
    "local_reduce",
]


# ---------------------------------------------------------------------------
# point helpers
# ---------------------------------------------------------------------------

def as_point(x) -> np.ndarray:
    """Coerce a scalar or 1-D array-like to a 1-D float point."""
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if arr.ndim != 1:
        raise DimensionMismatch(f"a point must be 1-D, got shape {arr.shape}")
    return arr


def as_point_set(X) -> np.ndarray:
    """Coerce array-like data to an (N, p) float array; (N,) becomes (N, 1)."""
    arr = np.asarray(X, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise DimensionMismatch(f"a point set must be 2-D, got shape {arr.shape}")
    return arr


def pairwise_sq_dists(A: np.ndarray, B: np.ndarray, out=None) -> np.ndarray:
    """Squared Euclidean distances between the rows of A (N, p) and B (M, p).

    Each entry sums the exact per-coordinate squared differences from the first coordinate
    to the last, so no row depends on the rows passed with it; up to 7 coordinates, where
    numpy's ``.sum()`` also adds left to right, this is ``((a - b) ** 2).sum()`` bit for bit.
    The result is written into ``out`` (an (N, M) float array) when it is given.
    """
    A = as_point_set(A)
    B = as_point_set(B)
    if A.shape[1] != B.shape[1]:
        raise DimensionMismatch(
            f"point dimensions differ: {A.shape[1]} vs {B.shape[1]}"
        )
    d2 = np.empty((A.shape[0], B.shape[0])) if out is None else out
    if A.shape[1] == 0:
        d2.fill(0.0)
        return d2
    a_rows, b_rows = A.T.copy(), B.T.copy()  # contiguous coordinate rows
    np.subtract.outer(a_rows[0], b_rows[0], out=d2)
    d2 *= d2
    t = np.empty_like(d2) if A.shape[1] > 1 else None
    for a, b in zip(a_rows[1:], b_rows[1:]):
        np.subtract.outer(a, b, out=t)
        t *= t
        d2 += t
    return d2


def _dissimilarities(d, A, B) -> np.ndarray:
    """``d(A, B)``, which must be the finite ``len(A) x len(B)`` dissimilarity array."""
    D = np.asarray(d(A, B), dtype=float)
    if D.shape != (len(A), len(B)):
        raise ShapeMismatch(
            f"d(A, B) must return the pairwise ({len(A)}, {len(B)}) dissimilarity matrix, got shape {D.shape}; "
            "d(A, B) takes two point sets and returns the len(A) x len(B) array"
        )
    if not np.isfinite(D).all():
        raise DomainError("d(A, B) has non-finite entries")
    return D


def _softmax_in_place(S: np.ndarray) -> np.ndarray:
    S -= S.max(axis=1, keepdims=True)
    np.exp(S, out=S)
    S /= S.sum(axis=1, keepdims=True)
    return S


def softmax_rows(S) -> np.ndarray:
    """Row-wise softmax ``exp(S_ij) / sum_j exp(S_ij)`` of a 2-D score matrix.

    Subtracting the row max first keeps large scores from overflowing and
    gives ``-inf`` (masked) scores weight exactly 0.  S is left untouched.
    """
    return _softmax_in_place(np.array(S, dtype=float))


# ---------------------------------------------------------------------------
# kernel classes
# ---------------------------------------------------------------------------

class Kernel:
    """Immutable kernel evaluator.

    Subclasses implement :meth:`eval` on a pair of points and
    :meth:`gram_values` on whole point sets.

    ``sign_class`` records how entries may behave: ``"nonnegative"`` for the
    usual localization kinds, ``"signed"`` for kinds that may dip negative
    without being desmoothing operators (dot-relation feature kernels,
    concrete matrices with negative cells), and ``"desmoothing"`` for
    difference kernels, which are always quarantined from normalization.
    """

    sign_class: str = "nonnegative"

    def eval(self, x, y) -> float:
        raise NotImplementedError

    def gram_values(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, x, y) -> float:
        return self.eval(x, y)


def _check_bandwidth(h) -> float:
    h = float(h)
    if not (h > 0) or not math.isfinite(h):
        raise InvalidParameter(f"bandwidth must be a positive real, got {h!r}")
    if 2.0 * h * h < np.finfo(float).tiny:
        raise InvalidParameter(f"bandwidth {h!r} is too small: 2 h^2 underflows")
    return h


@dataclass(frozen=True)
class GaussianKernel(Kernel):
    """``exp(-||x-y||^2 / (2 h^2))`` (unnormalized)."""

    h: float

    def __post_init__(self):
        object.__setattr__(self, "h", _check_bandwidth(self.h))

    def eval(self, x, y):
        d2 = float(((as_point(x) - as_point(y)) ** 2).sum())
        return math.exp(-d2 / (2.0 * self.h * self.h))

    def gram_values(self, rows, cols):
        W = pairwise_sq_dists(rows, cols)
        W /= -(2.0 * self.h * self.h)
        return np.exp(W, out=W)


@dataclass(frozen=True)
class EpanechnikovKernel(Kernel):
    """``(3/4) (1 - (||x-y||/h)^2)_+``, compactly supported on radius h."""

    h: float

    def __post_init__(self):
        object.__setattr__(self, "h", _check_bandwidth(self.h))

    def eval(self, x, y):
        d2 = float(((as_point(x) - as_point(y)) ** 2).sum())
        t2 = d2 / (self.h * self.h)
        return 0.75 * max(1.0 - t2, 0.0)

    def gram_values(self, rows, cols):
        t2 = pairwise_sq_dists(rows, cols) / (self.h * self.h)
        return 0.75 * np.maximum(1.0 - t2, 0.0)


@dataclass(frozen=True)
class NeighborhoodKernel(Kernel):
    """Indicator of the open ball ``||x-y|| < eps``."""

    eps: float

    def __post_init__(self):
        object.__setattr__(self, "eps", _check_bandwidth(self.eps))

    def eval(self, x, y):
        d2 = float(((as_point(x) - as_point(y)) ** 2).sum())
        return 1.0 if d2 < self.eps * self.eps else 0.0

    def gram_values(self, rows, cols):
        return (pairwise_sq_dists(rows, cols) < self.eps * self.eps).astype(float)


@dataclass(frozen=True)
class UniformKernel(Kernel):
    """Constant weight 1: every local statistic degenerates to the global one."""

    def eval(self, x, y):
        as_point(x), as_point(y)
        return 1.0

    def gram_values(self, rows, cols):
        return np.ones((as_point_set(rows).shape[0], as_point_set(cols).shape[0]))


@dataclass(frozen=True)
class DiracKernel(Kernel):
    """1 on exactly equal points, else 0 (the convolution identity)."""

    def eval(self, x, y):
        return 1.0 if np.array_equal(as_point(x), as_point(y)) else 0.0

    def gram_values(self, rows, cols):
        rows = as_point_set(rows)
        cols = as_point_set(cols)
        if rows.shape[1] != cols.shape[1]:
            raise DimensionMismatch("point dimensions differ")
        return (rows[:, None, :] == cols[None, :, :]).all(-1).astype(float)


class KnnKernel(Kernel):
    """Empirical nearest-neighbor kernel over a captured reference set.

    ``eval(x, y)`` is 1 when y lies within the distance of the k-th nearest
    reference point to x.  Distance ties at the k-th neighbor are broken by
    ascending reference index, which only matters when y is itself a
    reference point.
    """

    def __init__(self, k: int, reference):
        reference = as_point_set(reference)
        k = int(k)
        if not 1 <= k <= reference.shape[0]:
            raise InvalidParameter(
                f"k must be in [1, {reference.shape[0]}], got {k}"
            )
        self.k = k
        self.reference = reference.copy()
        self.reference.setflags(write=False)

    def _selected(self, x):
        """Indices of the k nearest reference points to x (index tie-break)."""
        d2 = pairwise_sq_dists(as_point(x)[None, :], self.reference)[0]
        return np.argsort(d2, kind="stable")[: self.k], d2

    def eval(self, x, y):
        sel, d2 = self._selected(x)
        y = as_point(y)
        dy = pairwise_sq_dists(as_point(x)[None, :], y[None, :])[0, 0]
        kth = d2[sel[-1]]
        if dy < kth:
            return 1.0
        if dy > kth:
            return 0.0
        # boundary tie: member reference points defer to the index rule
        matches = np.where((self.reference == y).all(1))[0]
        if matches.size:
            return 1.0 if np.isin(matches, sel).any() else 0.0
        return 1.0

    def gram_values(self, rows, cols):
        """``eval`` at every pair. A column exactly at a row's k-th distance counts when it equals no
        reference point, or when its lowest-indexed copy's index is at most the k-th neighbor's."""
        rows, cols = as_point_set(rows), as_point_set(cols)
        d2 = pairwise_sq_dists(rows, self.reference)
        last = np.argsort(d2, axis=1, kind="stable")[:, self.k - 1]
        kth = d2[np.arange(rows.shape[0]), last][:, None]
        dy = pairwise_sq_dists(rows, cols)
        out = (dy < kth).astype(float)
        ti, tj = np.nonzero(dy == kth)
        if ti.size:
            tied = np.unique(tj)
            same = (cols[tied, None, :] == self.reference[None, :, :]).all(axis=2)
            first = np.where(same.any(axis=1), same.argmax(axis=1), -1)
            out[ti, tj] = first[np.searchsorted(tied, tj)] <= last[ti]
        return out

    def __repr__(self):
        return f"KnnKernel(k={self.k}, reference=<{self.reference.shape[0]} pts>)"


@dataclass(frozen=True)
class FeatureKernel(Kernel):
    """``K(x, y) = F(phi(x), psi(y))`` with relation F in {dot, exp-dot}.

    The dot relation may produce negative weights when the feature maps are
    signed (the Hopfield kernel ``x . y`` is the canonical case), so it is
    classified ``signed``; exp-dot is always positive.
    """

    phi: object
    psi: object
    relation: str = "dot"

    def __post_init__(self):
        for name in ("phi", "psi"):
            if not callable(getattr(self, name)):
                raise InvalidParameter(f"feature map {name!r} must be callable, got {getattr(self, name)!r}")
        if self.relation not in ("dot", "exp-dot"):
            raise InvalidParameter(f"unknown relation {self.relation!r}")

    @property
    def sign_class(self):
        return "nonnegative" if self.relation == "exp-dot" else "signed"

    def eval(self, x, y):
        v = float(np.dot(np.asarray(self.phi(x), float).ravel(),
                         np.asarray(self.psi(y), float).ravel()))
        return math.exp(v) if self.relation == "exp-dot" else v

    def gram_values(self, rows, cols):
        rows = as_point_set(rows)
        cols = as_point_set(cols)
        P = np.stack([np.asarray(self.phi(r), float).ravel() for r in rows])
        Q = np.stack([np.asarray(self.psi(c), float).ravel() for c in cols])
        S = P @ Q.T
        return np.exp(S) if self.relation == "exp-dot" else S


class ConcreteKernel(Kernel):
    """Kernel given by an explicit matrix over an indexed finite domain.

    Points are integer indices into the domain; anything off the index set
    raises ``DomainError``.
    """

    def __init__(self, matrix):
        self.matrix = np.array(matrix, dtype=float)
        if self.matrix.ndim != 2:
            raise InvalidParameter("concrete kernel needs a 2-D matrix")
        self.matrix.setflags(write=False)

    @property
    def sign_class(self):
        return "nonnegative" if (self.matrix >= 0).all() else "signed"

    @property
    def square(self):
        return self.matrix.shape[0] == self.matrix.shape[1]

    def _index(self, x, bound):
        arr = np.asarray(x)
        if arr.size != 1 or not float(arr).is_integer():
            raise DomainError(f"concrete kernel points are indices, got {x!r}")
        i = int(arr)
        if not 0 <= i < bound:
            raise DomainError(f"index {i} outside domain of size {bound}")
        return i

    def eval(self, x, y):
        i = self._index(x, self.matrix.shape[0])
        j = self._index(y, self.matrix.shape[1])
        return float(self.matrix[i, j])

    def gram_values(self, rows, cols):
        ri = [self._index(r, self.matrix.shape[0]) for r in np.asarray(rows).ravel()]
        ci = [self._index(c, self.matrix.shape[1]) for c in np.asarray(cols).ravel()]
        return self.matrix[np.ix_(ri, ci)].copy()

    def __repr__(self):
        return f"ConcreteKernel({self.matrix.shape[0]}x{self.matrix.shape[1]})"


# -- composite kernels ------------------------------------------------------

_SIGN_ORDER = {"nonnegative": 0, "signed": 1, "desmoothing": 2}


def _combined_sign(*kernels: Kernel) -> str:
    return max((k.sign_class for k in kernels), key=_SIGN_ORDER.__getitem__)


@dataclass(frozen=True)
class DualKernel(Kernel):
    """``K*(x, y) = K(y, x)``."""

    base: Kernel

    def eval(self, x, y):
        return self.base.eval(y, x)

    def gram_values(self, rows, cols):
        return self.base.gram_values(cols, rows).T

    @property
    def sign_class(self):
        return self.base.sign_class


class ProductKernel(Kernel):
    """Operator product ``(K' K)(x, y) = sum_z K'(x, z) K(z, y)``.

    The integral form has no closed form in general, so the sum runs over a
    caller-supplied anchor set; for two concrete kernels pass no anchors and
    the matrix product is used.
    """

    def __init__(self, first: Kernel, second: Kernel, anchors=None):
        if anchors is None:
            if not (isinstance(first, ConcreteKernel) and isinstance(second, ConcreteKernel)):
                raise InvalidParameter(
                    "product of non-concrete kernels needs an anchor point set"
                )
            if first.matrix.shape[1] != second.matrix.shape[0]:
                raise UnsupportedComposition("concrete domains do not chain")
            self.concrete = ConcreteKernel(first.matrix @ second.matrix)
            self.anchors = None
        else:
            self.anchors = as_point_set(anchors)
        self.first = first
        self.second = second

    @property
    def sign_class(self):
        return _combined_sign(self.first, self.second)

    def eval(self, x, y):
        if self.anchors is None:
            return self.concrete.eval(x, y)
        lx = self.first.gram_values(as_point(x)[None, :], self.anchors)[0]
        ry = self.second.gram_values(self.anchors, as_point(y)[None, :])[:, 0]
        return float(lx @ ry)

    def gram_values(self, rows, cols):
        if self.anchors is None:
            return self.concrete.gram_values(rows, cols)
        L = self.first.gram_values(rows, self.anchors)
        R = self.second.gram_values(self.anchors, cols)
        return L @ R


class PowerKernel(Kernel):
    """n-fold operator power of a kernel via an anchor set (or matrix power)."""

    def __init__(self, base: Kernel, n: int = 2, anchors=None):
        n = int(n)
        if n < 1:
            raise InvalidParameter(f"power must satisfy n >= 1, got {n}")
        if anchors is None:
            if not isinstance(base, ConcreteKernel):
                raise InvalidParameter(
                    "power of a non-concrete kernel needs an anchor point set"
                )
            if not base.square:
                raise UnsupportedComposition(
                    "power of a non-square concrete kernel is undefined"
                )
            self.concrete = ConcreteKernel(np.linalg.matrix_power(base.matrix, n))
            self.anchors = None
        else:
            self.anchors = as_point_set(anchors)
        self.base = base
        self.n = n

    @property
    def sign_class(self):
        return self.base.sign_class

    def gram_values(self, rows, cols):
        if self.anchors is None:
            return self.concrete.gram_values(rows, cols)
        if self.n == 1:
            return self.base.gram_values(rows, cols)
        L = self.base.gram_values(rows, self.anchors)
        G = self.base.gram_values(self.anchors, self.anchors)
        R = self.base.gram_values(self.anchors, cols)
        return L @ np.linalg.matrix_power(G, self.n - 2) @ R

    def eval(self, x, y):
        if self.anchors is None:
            return self.concrete.eval(x, y)
        return float(
            self.gram_values(as_point(x)[None, :], as_point(y)[None, :])[0, 0]
        )


@dataclass(frozen=True)
class RegularizedKernel(Kernel):
    """``alpha K + (1 - alpha) delta_xy``; alpha=0 is the Dirac kernel."""

    base: Kernel
    alpha: float = 1.0

    def __post_init__(self):
        a = float(self.alpha)
        if not 0.0 <= a <= 1.0:
            raise InvalidParameter(f"alpha must lie in [0, 1], got {a}")
        object.__setattr__(self, "alpha", a)

    def eval(self, x, y):
        delta = 1.0 if np.array_equal(as_point(x), as_point(y)) else 0.0
        return self.alpha * self.base.eval(x, y) + (1.0 - self.alpha) * delta

    def gram_values(self, rows, cols):
        base = self.base.gram_values(rows, cols)
        delta = DiracKernel().gram_values(rows, cols)
        return self.alpha * base + (1.0 - self.alpha) * delta

    @property
    def sign_class(self):
        return self.base.sign_class


@dataclass(frozen=True)
class HollowKernel(Kernel):
    """Base kernel with self-weight removed: 0 when x == y or d(x, y) < eps0.

    eps0 defaults to 0, i.e. only exact equality is hollowed, which is the
    form leave-one-out normalization relies on.
    """

    base: Kernel
    eps0: float = 0.0

    def __post_init__(self):
        if float(self.eps0) < 0:
            raise InvalidParameter("eps0 must be >= 0")

    def eval(self, x, y):
        x = as_point(x)
        y = as_point(y)
        d2 = float(((x - y) ** 2).sum())
        if np.array_equal(x, y) or d2 < self.eps0 * self.eps0:
            return 0.0
        return self.base.eval(x, y)

    def gram_values(self, rows, cols):
        vals = self.base.gram_values(rows, cols)
        same = DiracKernel().gram_values(rows, cols).astype(bool)
        if self.eps0 > 0:
            same |= pairwise_sq_dists(rows, cols) < self.eps0 * self.eps0
        out = vals.copy()
        out[same] = 0.0
        return out

    @property
    def sign_class(self):
        return self.base.sign_class


class MultiKernel(Kernel):
    """Non-negative combination ``sum_m w_m K_m``."""

    def __init__(self, weights, parts):
        weights = np.asarray(weights, dtype=float)
        parts = tuple(parts)
        if weights.ndim != 1 or len(parts) != weights.size or not parts:
            raise InvalidParameter("need one weight per part kernel, and at least one part")
        if (weights < 0).any():
            raise InvalidParameter("multi-kernel weights must be >= 0")
        self.weights = weights
        self.parts = parts

    def eval(self, x, y):
        return float(sum(w * k.eval(x, y) for w, k in zip(self.weights, self.parts)))

    def gram_values(self, rows, cols):
        acc = None
        for w, k in zip(self.weights, self.parts):
            term = w * k.gram_values(rows, cols)
            acc = term if acc is None else acc + term
        return acc

    @property
    def sign_class(self):
        return _combined_sign(*self.parts)

    def __repr__(self):
        return f"MultiKernel(weights={self.weights.tolist()}, parts={self.parts})"


@dataclass(frozen=True)
class DifferenceKernel(Kernel):
    """``K1 - K2``: a desmoothing kernel, quarantined from normalization."""

    first: Kernel
    second: Kernel
    sign_class = "desmoothing"

    def eval(self, x, y):
        return self.first.eval(x, y) - self.second.eval(x, y)

    def gram_values(self, rows, cols):
        return self.first.gram_values(rows, cols) - self.second.gram_values(rows, cols)


@dataclass(frozen=True)
class SelfKernel(Kernel):
    """Separable self-localization kernel ``K1(x, x') K2(y, y')``.

    Weighs sample pairs by both input and output similarity; evaluation
    therefore takes (x, y) tuples.
    """

    k_x: Kernel
    k_y: Kernel

    def eval_pair(self, x_star, y_star, x_i, y_i):
        return self.k_x.eval(x_star, x_i) * self.k_y.eval(y_star, y_i)

    def eval(self, x, y):
        (xs, ys), (xi, yi) = x, y
        return self.eval_pair(xs, ys, xi, yi)

    def gram_values(self, rows, cols):
        """``eval`` at every pair of two-column (x, y) points: ``K1`` on column 0 times ``K2`` on column 1."""
        rows, cols = as_point_set(rows), as_point_set(cols)
        if rows.shape[1] != 2 or cols.shape[1] != 2:
            raise DimensionMismatch("a self kernel's gram needs (x, y) points of two columns")
        return self.k_x.gram_values(rows[:, :1], cols[:, :1]) * self.k_y.gram_values(rows[:, 1:], cols[:, 1:])


# ---------------------------------------------------------------------------
# factories
# ---------------------------------------------------------------------------

def gaussian(h) -> GaussianKernel:
    return GaussianKernel(h)


def epanechnikov(h) -> EpanechnikovKernel:
    return EpanechnikovKernel(h)


def neighborhood(eps) -> NeighborhoodKernel:
    return NeighborhoodKernel(eps)


def uniform() -> UniformKernel:
    return UniformKernel()


def dirac() -> DiracKernel:
    return DiracKernel()


def knn_kernel(k, reference) -> KnnKernel:
    return KnnKernel(k, reference)


def feature_kernel(phi, psi, relation="dot") -> FeatureKernel:
    return FeatureKernel(phi, psi, relation)


def concrete(matrix) -> ConcreteKernel:
    return ConcreteKernel(matrix)


# kind -> (kernel class, its fields that hold nested descriptors); the other fields are the class's parameters
_KINDS = {
    "gaussian": (GaussianKernel, ()),
    "epanechnikov": (EpanechnikovKernel, ()),
    "neighborhood": (NeighborhoodKernel, ()),
    "uniform": (UniformKernel, ()),
    "dirac": (DiracKernel, ()),
    "knn": (KnnKernel, ()),
    "concrete": (ConcreteKernel, ()),
    "feature": (FeatureKernel, ()),
    "dual": (DualKernel, ("base",)),
    "product": (ProductKernel, ("first", "second")),
    "power": (PowerKernel, ("base",)),
    "regularized": (RegularizedKernel, ("base",)),
    "hollow": (HollowKernel, ("base",)),
    "multi": (MultiKernel, ("parts",)),
    "difference": (DifferenceKernel, ("first", "second")),
    "self": (SelfKernel, ("k_x", "k_y")),
}
_OPERATIONS = ("dual", "product", "power", "regularized", "hollow", "multi", "difference")


def _construct(kind: str, fields: dict) -> Kernel:
    """The kind's class called on ``fields``; a field it does not take or a malformed value raises InvalidParameter."""
    try:
        return _KINDS[kind][0](**fields)
    except (TypeError, ValueError) as exc:
        raise InvalidParameter(f"kernel kind {kind!r}: {exc}") from exc


def derive_kernel(op: str, *kernels: Kernel, **params) -> Kernel:
    """Apply an algebra operation (dual/product/power/regularized/hollow/multi/difference) to kernels, which
    fill its nested fields in order (``multi``'s are its ``parts``); ``params`` are the class's other parameters."""
    if op not in _OPERATIONS:
        raise InvalidParameter(f"unknown kernel operation {op!r}")
    nested = _KINDS[op][1]
    kernels = (kernels,) if op == "multi" else kernels
    if len(kernels) != len(nested) or not params.keys().isdisjoint(nested):  # nested fields come only from kernels
        raise InvalidParameter(f"kernel operation {op!r} takes {' and '.join(nested)} as kernels, got {len(kernels)}")
    return _construct(op, {**params, **dict(zip(nested, kernels))})


def make_kernel(spec) -> Kernel:
    """Build a kernel from a descriptor.

    Accepts an existing :class:`Kernel` (returned as-is) or a dict such as ``{"kind": "gaussian", "h": 0.5}``,
    whose other keys are the parameters of the kind's class; omitted ones take the class's defaults.  Composite
    kinds nest descriptors, e.g. ``{"kind": "multi", "weights": [...], "parts": [...]}``.
    """
    if isinstance(spec, Kernel):
        return spec
    if not isinstance(spec, dict) or "kind" not in spec:
        raise InvalidParameter(f"kernel descriptor must be a dict with 'kind', got {spec!r}")
    kind = spec["kind"]
    if not isinstance(kind, str) or kind not in _KINDS:
        raise InvalidParameter(f"unknown kernel kind {kind!r}")
    fields = {name: value for name, value in spec.items() if name != "kind"}
    for name in (name for name in _KINDS[kind][1] if name in fields):
        if name == "parts" and not isinstance(fields[name], (list, tuple)):
            raise InvalidParameter(f"kernel kind {kind!r}: 'parts' must be a list of descriptors, got {fields[name]!r}")
        fields[name] = [make_kernel(p) for p in fields[name]] if name == "parts" else make_kernel(fields[name])
    return _construct(kind, fields)


def eval_kernel(k: Kernel, x, y) -> float:
    """Evaluate ``K(x, y)`` on a single ordered pair."""
    v = float(k.eval(x, y))
    if not math.isfinite(v):
        raise InvalidParameter(f"kernel produced a non-finite value at ({x!r}, {y!r})")
    return v


# ---------------------------------------------------------------------------
# kernel matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelMatrix:
    """Dense N x M kernel weights with provenance."""

    values: np.ndarray
    kernel_id: str = "anonymous"
    rows_id: str = "rows"
    cols_id: str = "cols"
    desmoothing: bool = False

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if not self.desmoothing and (vals < 0).any():
            raise InvalidParameter(
                "negative entries require the desmoothing flag"
            )

    @property
    def shape(self):
        return self.values.shape


@dataclass(frozen=True)
class StochasticMatrix:
    """Row-normalized kernel matrix with degrees and empty-row bookkeeping."""

    values: np.ndarray
    degrees: np.ndarray
    empty_rows: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))

    @property
    def shape(self):
        return self.values.shape


@dataclass(frozen=True)
class LaplacianView:
    """Raw Laplacian D - K and its normalized companion I - K_tilde."""

    raw: np.ndarray
    normalized: np.ndarray


def gram(k: Kernel, rows, cols, rows_id="rows", cols_id="cols") -> KernelMatrix:
    """Kernel matrix ``K(rows, cols)`` with entry [i, j] = K(rows[i], cols[j])."""
    values = k.gram_values(rows, cols)
    sign = k.sign_class
    desmooth = sign == "desmoothing" or (sign == "signed" and bool((values < 0).any()))
    return KernelMatrix(
        values=values,
        kernel_id=repr(k),
        rows_id=rows_id,
        cols_id=cols_id,
        desmoothing=desmooth,
    )


def _matrix_values(K) -> np.ndarray:
    if isinstance(K, KernelMatrix):
        return K.values
    if isinstance(K, StochasticMatrix):
        return K.values
    return np.asarray(K, dtype=float)


def normalize_rows(K) -> StochasticMatrix:
    """Row-normalize a non-negative matrix; zero rows are recorded, not errors.

    Rejects desmoothing-flagged matrices and anything with negative entries:
    a stochastic matrix is a transition table and difference kernels have no
    such reading.
    """
    if isinstance(K, KernelMatrix) and K.desmoothing:
        raise DesmoothingInput("cannot row-normalize a desmoothing matrix")
    vals = _matrix_values(K)
    if vals.ndim != 2:
        raise DimensionMismatch("normalize_rows needs a 2-D matrix")
    if (vals < 0).any():
        raise DesmoothingInput("cannot row-normalize a matrix with negative entries")
    degrees = vals.sum(axis=1)
    empty = np.flatnonzero(degrees == 0)
    denom = np.where(degrees == 0, 1.0, degrees)
    return StochasticMatrix(vals / denom[:, None], degrees, empty)


_BLOCK_ENTRIES = 2**16  # weights per row block of a reduction: 21 rows at N=3000


def _block_height(n_cols: int) -> int:
    return max(1, _BLOCK_ENTRIES // max(n_cols, 1))


def _row_blocks(n_rows: int, n_cols: int):
    step = _block_height(n_cols)
    return (slice(i, i + step) for i in range(0, n_rows, step))


def _local_weights(k: Kernel, Q, X, skip_from=None, out=None) -> np.ndarray:
    """Weights of Q's rows over X for a local mean; Gaussian rows are max-shifted in the log domain.

    ``skip_from=s`` drops sample ``s + i`` from row i; negative weights raise ``DesmoothingInput``.
    Gaussian weights are computed in ``out`` (a (len(Q), len(X)) float array) when it is given.
    """
    if not isinstance(k, GaussianKernel):
        W = k.gram_values(Q, X)
        if skip_from is not None:
            np.fill_diagonal(W[:, skip_from:], 0.0)
        if k.sign_class == "desmoothing" or (W < 0).any():
            raise DesmoothingInput("cannot average desmoothing or negative kernel weights")
        return W
    W = pairwise_sq_dists(Q, X, out=out)
    W /= -(2.0 * k.h * k.h)
    if skip_from is not None:
        np.fill_diagonal(W[:, skip_from:], -np.inf)
    top = W.max(axis=1, keepdims=True)
    top[~np.isfinite(top)] = 0.0
    W -= top
    return np.exp(W, out=W)


def local_reduce(k: Kernel, Q, X, Y, skip_self: bool = False):
    """Local means ``sum_i K(q, x_i) Y_i / sum_i K(q, x_i)`` of Q's rows, in row blocks.

    Returns ``(means, empty)``, NaN where empty.  Gaussian weights are max-shifted
    in the log domain, so only other kernels' exact zeros empty a row.
    ``skip_self`` drops sample i from row i; negative weights raise ``DesmoothingInput``.
    """
    Q, X, Y = as_point_set(Q), as_point_set(X), as_point_set(Y)
    means = np.empty((Q.shape[0], Y.shape[1]))
    deg = np.empty(Q.shape[0])
    buf = None  # one Gaussian weight block, reused by every row block
    if isinstance(k, GaussianKernel):
        buf = np.empty((min(_block_height(X.shape[0]), Q.shape[0]), X.shape[0]))
    for rows in _row_blocks(Q.shape[0], X.shape[0]):
        Qb = Q[rows]
        out = None if buf is None else buf[: Qb.shape[0]]
        W = _local_weights(k, Qb, X, rows.start if skip_self else None, out)
        deg[rows] = W.sum(axis=1)
        means[rows] = W @ Y
    empty = ~(deg > 0)
    means /= np.where(empty, np.nan, deg)[:, None]
    return means, empty


def laplacian_of(K) -> LaplacianView:
    """Raw Laplacian ``D - K`` and normalized ``I - K_tilde`` of a square gram."""
    vals = _matrix_values(K)
    if vals.ndim != 2 or vals.shape[0] != vals.shape[1]:
        raise NotSquare(f"Laplacian needs a square matrix, got {vals.shape}")
    if (vals < 0).any():
        raise InvalidParameter("Laplacian input must be non-negative")
    degrees = vals.sum(axis=1)
    raw = np.diag(degrees) - vals
    normalized = np.eye(vals.shape[0]) - normalize_rows(vals).values
    return LaplacianView(raw=raw, normalized=normalized)


def smoothing_norm(Kt: StochasticMatrix, f, order: int = 1) -> float:
    """Smoothing-space seminorm ``||(I - K_tilde)^m f||_2``.

    Zero exactly when f is fixed by m applications of the transition matrix;
    in particular constants always score 0.
    """
    order = int(order)
    if order < 1:
        raise InvalidParameter("order must be >= 1")
    vals = _matrix_values(Kt)
    f = np.asarray(f, dtype=float)
    if f.shape[0] != vals.shape[1]:
        raise DimensionMismatch(
            f"vector length {f.shape[0]} does not match matrix {vals.shape}"
        )
    g = f
    for _ in range(order):
        g = g - vals @ g
    return float(np.linalg.norm(g))


def filter_solve(Kt: StochasticMatrix, g, lam: float) -> np.ndarray:
    """Minimize ``||f - g||^2 + lam ||(I - K_tilde) f||^2``.

    Solves the normal equations ``(I + lam L^T L) f = g`` with L = I - K_tilde;
    the system is symmetric positive definite for lam > 0.
    """
    lam = float(lam)
    if not lam > 0:
        raise InvalidParameter("lam must be positive")
    vals = _matrix_values(Kt)
    g = np.asarray(g, dtype=float)
    if g.shape[0] != vals.shape[0]:
        raise DimensionMismatch("vector length does not match matrix")
    L = np.eye(vals.shape[0]) - vals
    A = np.eye(vals.shape[0]) + lam * (L.T @ L)
    return np.linalg.solve(A, g)
