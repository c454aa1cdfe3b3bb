"""Shift iterations: MeanShift, ModeShift/Hopfield, MedoidShift,
nearest-neighbor label propagation, PC-Shift, and relaxation labeling.

All of these iterate a lazy transformation of a point set toward its fixed
points; clustering falls out by merging converged points.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyNeighborhood, InvalidParameter
from .estimators import Dataset, LocalPcaBasis, local_pca
from .kernels import Kernel, _row_blocks, as_point_set, gram, local_reduce, normalize_rows, pairwise_sq_dists

__all__ = [
    "ShiftResult",
    "ModeShiftResult",
    "mean_shift",
    "extract_clusters",
    "mode_shift",
    "medoid_shift",
    "nn_shift",
    "pc_shift",
    "relaxation_label",
    "bounding_box_diagonal",
]


def bounding_box_diagonal(X) -> float:
    X = as_point_set(X)
    return float(np.linalg.norm(X.max(axis=0) - X.min(axis=0)))


@dataclass
class ShiftResult:
    """Trajectories, converged points, and the clustering they induce."""

    trajectories: list  # one (n_queries, p) snapshot per sweep, first = start
    converged: np.ndarray
    labels: np.ndarray
    centers: np.ndarray
    iterations: np.ndarray
    converged_flags: np.ndarray
    empty_flags: np.ndarray = field(default=None)

    def trajectory_of(self, i) -> np.ndarray:
        return np.stack([snap[i] for snap in self.trajectories])


def _first_seen_labels(keys) -> np.ndarray:
    """Dense labels 0, 1, ... numbering the distinct keys by first appearance."""
    order = {}
    return np.array([order.setdefault(key, len(order)) for key in keys])


def _default_tol(X, tol):
    if tol is not None:
        return float(tol)
    diag = bounding_box_diagonal(X)
    return 1e-8 * diag if diag > 0 else 1e-8


def _default_radius(X, merge_radius):
    if merge_radius is not None:
        return float(merge_radius)
    diag = bounding_box_diagonal(X)
    return 1e-3 * diag if diag > 0 else 1e-3


def mean_shift(
    k: Kernel,
    X,
    queries=None,
    alpha: float = 1.0,
    tol: float | None = None,
    max_iter: int = 500,
    overwrite: bool = False,
    merge_radius: float | None = None,
) -> ShiftResult:
    """Iterate the damped self-local mean to its fixed points.

    Each sweep moves every live query by ``q <- alpha m_K(q; ref) + (1-alpha) q``.
    With ``overwrite=False`` (the default) the reference set stays the
    original sample; ``overwrite=True`` replaces the reference with the
    updated points each sweep, in which case the queries are the sample
    itself.  Convergence of a query means the undamped mean-shift vector
    ``||m_K(q) - q||`` has dropped below ``tol`` (default: 1e-8 times the
    bounding-box diagonal of X).  Queries with no weight (exact zeros of a
    compact-support kernel; Gaussian weights never underflow) are flagged
    empty and frozen.  Each sweep reduces the live queries only.
    """
    X = as_point_set(X)
    if not 0.0 < alpha <= 1.0:
        raise InvalidParameter("step alpha must lie in (0, 1]")
    if overwrite and queries is not None:
        raise InvalidParameter("overwrite=True iterates the sample itself; pass queries=None")
    Q = X.copy() if queries is None else as_point_set(queries).copy()
    tol = _default_tol(X, tol)

    n = Q.shape[0]
    live = np.ones(n, dtype=bool)
    empty = np.zeros(n, dtype=bool)
    iterations = np.zeros(n, dtype=int)
    trajectories = [Q.copy()]
    ref = X.copy()

    for sweep in range(1, max_iter + 1):
        rows = np.flatnonzero(live)
        if not rows.size:
            break
        m, dead = local_reduce(k, Q[rows], ref, ref)
        empty[rows[dead]] = True
        live[rows[dead]] = False
        rows, m = rows[~dead], m[~dead]
        shift = np.linalg.norm(m - Q[rows], axis=1)
        Q[rows] = alpha * m + (1 - alpha) * Q[rows]
        iterations[live] = sweep
        live[rows[shift < tol]] = False
        trajectories.append(Q.copy())
        if overwrite:
            ref = Q.copy()

    converged_flags = ~live & ~empty
    labels, centers = extract_clusters(Q, _default_radius(X, merge_radius))
    return ShiftResult(
        trajectories=trajectories,
        converged=Q,
        labels=labels,
        centers=centers,
        iterations=iterations,
        converged_flags=converged_flags,
        empty_flags=empty,
    )


def extract_clusters(converged, merge_radius: float):
    """Single-linkage merge of converged points within ``merge_radius``.

    The clusters are the connected components of the N x N boolean matrix
    ``d2 < merge_radius**2`` (built in row blocks), labelled breadth-first
    from the lowest unlabelled index, so labels are dense in first-seen
    order; centers are the per-cluster means.
    """
    P = as_point_set(converged)
    if not merge_radius > 0:
        raise InvalidParameter("merge_radius must be positive")
    near = np.empty((P.shape[0], P.shape[0]), dtype=bool)
    for rows in _row_blocks(P.shape[0], P.shape[0]):
        near[rows] = pairwise_sq_dists(P[rows], P) < merge_radius * merge_radius
    labels = np.full(P.shape[0], -1)
    count = 0
    for i in range(P.shape[0]):
        if labels[i] < 0:
            labels[i] = count
            frontier = np.flatnonzero(near[i] & (labels < 0))
            while frontier.size:
                labels[frontier] = count
                frontier = np.flatnonzero(near[frontier].any(axis=0) & (labels < 0))
            count += 1
    sums = np.zeros((count, P.shape[1]))
    np.add.at(sums, labels, P)
    return labels, sums / np.bincount(labels, minlength=count)[:, None]


@dataclass
class ModeShiftResult:
    patterns: np.ndarray
    iterations: np.ndarray
    converged_flags: np.ndarray
    cycle_flags: np.ndarray
    last_two: list


def mode_shift(k: Kernel, X, queries=None, max_iter: int = 100) -> ModeShiftResult:
    """Iterate the self-local mode ``q <- sign(sum_i K(q, x_i) x_i)``.

    Entries live in {+1, -1} with sign(0) mapped to +1.  The unnormalized
    weighted sum is used: with the linear kernel K(x, y) = x . y this is the
    Hopfield update sign(q^T G), G = X^T X.  Synchronous sign updates can
    enter period-2 cycles; those are detected against the previous two
    states and flagged, with both states of the cycle returned.
    """
    X = as_point_set(X)
    if not np.isin(X, (-1.0, 1.0)).all():
        raise InvalidParameter("mode_shift expects +/-1 entries")
    Q = X.copy() if queries is None else as_point_set(queries).copy()
    if not np.isin(Q, (-1.0, 1.0)).all():
        raise InvalidParameter("mode_shift queries must have +/-1 entries")
    n = Q.shape[0]
    iterations = np.zeros(n, dtype=int)
    converged = np.zeros(n, dtype=bool)
    cycles = np.zeros(n, dtype=bool)
    last_two = [None] * n

    def signp(v):
        return np.where(v >= 0, 1.0, -1.0)

    for i in range(n):
        cur = Q[i]
        prev = None
        for it in range(1, max_iter + 1):
            w = k.gram_values(cur[None, :], X)[0]
            nxt = signp(w @ X)
            iterations[i] = it
            if np.array_equal(nxt, cur):
                converged[i] = True
                break
            if prev is not None and np.array_equal(nxt, prev):
                cycles[i] = True
                last_two[i] = (cur.copy(), nxt.copy())
                cur = nxt
                break
            prev = cur
            cur = nxt
        Q[i] = cur
    return ModeShiftResult(
        patterns=Q,
        iterations=iterations,
        converged_flags=converged,
        cycle_flags=cycles,
        last_two=last_two,
    )


def medoid_shift(k: Kernel, d, X, merge_radius: float | None = None):
    """Map every point to its local medoid and follow the mapping.

    ``j*_i = argmin_j (K_tilde D)_{ij}`` with D the pairwise distance matrix
    of ``d``; argmin ties resolve to the lowest index.  The mapping is
    followed to termination; mapping cycles collapse to the minimum index in
    the cycle.  Returns ``(mapping, labels, representatives)`` with labels
    densified in first-seen order.

    A dense region often leaves several nearby self-fixed medoids (each is
    its own nearest point to its local mean), splitting one cluster; the
    optional ``merge_radius`` post-processes by single-linkage merging of
    the terminal medoids.
    """
    X = as_point_set(X)
    n = X.shape[0]
    D = np.array([[d(a, b) for b in X] for a in X], dtype=float)
    cost, empty = local_reduce(k, X, X, D)
    if empty.any():
        raise EmptyNeighborhood(f"rows {np.flatnonzero(empty).tolist()} have zero degree")
    mapping = cost.argmin(axis=1)

    reps = np.empty(n, dtype=int)
    for i in range(n):
        seen = {}
        path = []
        cur = i
        while cur not in seen:
            seen[cur] = len(path)
            path.append(cur)
            cur = mapping[cur]
        cycle = path[seen[cur]:]
        reps[i] = min(cycle)
    if merge_radius is not None:
        roots = np.unique(reps)
        root_labels, _ = extract_clusters(X[roots], merge_radius)
        root_of = dict(zip(roots.tolist(), root_labels.tolist()))
        return mapping, _first_seen_labels(root_of[r] for r in reps), reps
    return mapping, _first_seen_labels(reps), reps


def nn_shift(X, seed_indices, delta: float):
    """Label propagation from a seed subset, one layer per sweep.

    Seeds keep their own labels (0..len(seeds)-1).  Each sweep, every
    unlabeled point within ``delta`` of some labeled point adopts the label
    of the nearest such point (distance ties break by index), and the edge
    (parent, child) joins the forest.  Unreached points keep label -1.
    """
    X = as_point_set(X)
    if not delta > 0:
        raise InvalidParameter("link radius delta must be positive")
    seed_indices = np.asarray(seed_indices, dtype=int)
    if seed_indices.size == 0:
        raise InvalidParameter("seed subset must be non-empty")
    n = X.shape[0]
    labels = np.full(n, -1, dtype=int)
    labels[seed_indices] = np.arange(seed_indices.size)
    edges = []
    d = np.sqrt(pairwise_sq_dists(X, X))
    while True:
        labeled = np.flatnonzero(labels >= 0)
        unlabeled = np.flatnonzero(labels < 0)
        if unlabeled.size == 0:
            break
        adopted = []
        for i in unlabeled:
            cand = labeled[d[i, labeled] < delta]
            if cand.size == 0:
                continue
            dists = d[i, cand]
            best = cand[np.lexsort((cand, dists))[0]]
            adopted.append((i, best))
        if not adopted:
            break
        for child, parent in adopted:
            labels[child] = labels[parent]
            edges.append((int(parent), int(child)))
    return labels, edges


def pc_shift(
    k: Kernel,
    X,
    r: int,
    alpha: float = 1.0,
    tol: float | None = None,
    max_iter: int = 500,
    merge_radius: float | None = None,
) -> ShiftResult:
    """Iterate the local-PCA reconstruction toward the fitted subspaces.

    Each point moves (with damping alpha) to
    ``(I - V V^T) mu_x + V V^T x`` computed from the local PCA at its
    current position against the fixed original sample; on exactly
    r-dimensional local data every point is already a fixed point.  With
    r = p the projector is the identity, so the shift is zero by definition
    and no PCA is fitted.
    """
    X = as_point_set(X)
    if not 0.0 < alpha <= 1.0:
        raise InvalidParameter("step alpha must lie in (0, 1]")
    if int(r) == X.shape[1]:
        labels, centers = extract_clusters(X, _default_radius(X, merge_radius))
        return ShiftResult(
            trajectories=[X.copy()],
            converged=X.copy(),
            labels=labels,
            centers=centers,
            iterations=np.zeros(X.shape[0], dtype=int),
            converged_flags=np.ones(X.shape[0], dtype=bool),
            empty_flags=np.zeros(X.shape[0], dtype=bool),
        )
    data = Dataset(X)
    tol = _default_tol(X, tol)
    Q = X.copy()
    n = Q.shape[0]
    live = np.ones(n, dtype=bool)
    iterations = np.zeros(n, dtype=int)
    trajectories = [Q.copy()]
    for sweep in range(1, max_iter + 1):
        if not live.any():
            break
        moved = Q.copy()
        for i in np.flatnonzero(live):
            basis: LocalPcaBasis = local_pca(k, data, Q[i], r)
            proj = basis.V @ (basis.V.T @ (Q[i] - basis.mu))
            target = basis.mu + proj
            if np.linalg.norm(target - Q[i]) < tol:
                live[i] = False
            moved[i] = alpha * target + (1 - alpha) * Q[i]
            iterations[i] = sweep
        Q = moved
        trajectories.append(Q.copy())
    labels, centers = extract_clusters(Q, _default_radius(X, merge_radius))
    return ShiftResult(
        trajectories=trajectories,
        converged=Q,
        labels=labels,
        centers=centers,
        iterations=iterations,
        converged_flags=~live,
        empty_flags=np.zeros(n, dtype=bool),
    )


def relaxation_label(
    k: Kernel,
    X,
    init,
    mode: str = "soft",
    max_iter: int = 200,
    tol: float = 1e-8,
):
    """Relaxation labeling: propagate label evidence through the kernel.

    soft: ``R <- row-normalize(K_tilde R)`` until the sup change drops below
    ``tol``; rows of the initial R must be non-negative and sum to 1.
    hard: synchronous ``y_i <- argmax_c sum_{y_j = c} K(x_i, x_j)`` until the
    labeling stops changing.  Rows with zero kernel degree are frozen.
    """
    X = as_point_set(X)
    S = normalize_rows(gram(k, X, X))
    frozen = S.empty_rows
    if mode == "soft":
        R = np.asarray(init, dtype=float).copy()
        if R.ndim != 2 or R.shape[0] != X.shape[0]:
            raise InvalidParameter("soft init must be an (N, C) probability matrix")
        if (R < 0).any() or not np.allclose(R.sum(1), 1.0, atol=1e-8):
            raise InvalidParameter("soft init rows must be non-negative and sum to 1")
        for _ in range(max_iter):
            new = S.values @ R
            new[frozen] = R[frozen]
            sums = new.sum(axis=1, keepdims=True)
            sums[sums == 0] = 1.0
            new = new / sums
            delta = np.abs(new - R).max()
            R = new
            if delta < tol:
                break
        return R
    if mode == "hard":
        labels = np.asarray(init, dtype=int).copy()
        if labels.shape != (X.shape[0],):
            raise InvalidParameter("hard init must be a length-N label vector")
        K = gram(k, X, X).values
        classes = int(labels.max()) + 1
        for _ in range(max_iter):
            onehot = np.zeros((X.shape[0], classes))
            onehot[np.arange(X.shape[0]), labels] = 1.0
            scores = K @ onehot
            new = scores.argmax(axis=1)
            new[frozen] = labels[frozen]
            if np.array_equal(new, labels):
                break
            labels = new
        return labels
    raise InvalidParameter(f"unknown mode {mode!r}")
