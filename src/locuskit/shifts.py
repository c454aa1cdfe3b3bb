"""Shift iterations: MeanShift, ModeShift/Hopfield, MedoidShift,
nearest-neighbor label propagation, PC-Shift, and relaxation labeling.

All of these iterate a lazy transformation of a point set toward its fixed
points, each sweep advancing every live row at once; clustering falls out
by merging converged points.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyNeighborhood, InvalidParameter
from .estimators import Dataset, LocalPcaBasis, local_pca
from .kernels import (  # normalize_rows is unused here, but perfbench/tracer.py wraps it by name
    Kernel, _block_height, _check_count, _check_sign, _is_integer, _pairwise, _row_blocks, as_point_set,
    local_reduce, normalize_rows, pairwise_sq_dists,
)

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
    X = as_point_set(X).copy()  # C order: BLAS can round a strided reference set differently
    if not 0.0 < alpha <= 1.0:
        raise InvalidParameter("step alpha must lie in (0, 1]")
    if overwrite and queries is not None:
        raise InvalidParameter("overwrite=True iterates the sample itself; pass queries=None")
    Q = X.copy() if queries is None else as_point_set(queries).copy()

    def targets(Q, rows):
        ref = Q if overwrite else X
        return local_reduce(k, Q[rows], ref, ref)

    return _shift(targets, X, Q, alpha, _default_tol(X, tol), max_iter, merge_radius)


def _shift(targets, X, Q, alpha, tol, max_iter, merge_radius) -> ShiftResult:
    """Sweep ``q <- alpha t(q) + (1-alpha) q`` over the live rows of Q, in place.

    ``targets(Q, rows)`` returns the targets t of ``Q[rows]`` and a mask of
    the rows that have none; those are flagged empty and frozen.  A row
    stops once its undamped shift ``||t(q) - q||`` drops below ``tol``.
    """
    n = Q.shape[0]
    live = np.ones(n, dtype=bool)
    empty = np.zeros(n, dtype=bool)
    iterations = np.zeros(n, dtype=int)
    trajectories = [Q.copy()]

    for sweep in range(1, max_iter + 1):
        rows = np.flatnonzero(live)
        if not rows.size:
            break
        m, dead = targets(Q, rows)
        empty[rows[dead]] = True
        live[rows[dead]] = False
        rows, m = rows[~dead], m[~dead]
        shift = np.linalg.norm(m - Q[rows], axis=1)
        Q[rows] = alpha * m + (1 - alpha) * Q[rows]
        iterations[live] = sweep
        live[rows[shift < tol]] = False
        trajectories.append(Q.copy())

    return _shift_result(X, Q, trajectories, iterations, ~live & ~empty, empty, merge_radius)


def _shift_result(X, Q, trajectories, iterations, converged_flags, empty_flags, merge_radius) -> ShiftResult:
    labels, centers = extract_clusters(Q, _default_radius(X, merge_radius))
    return ShiftResult(trajectories, Q, labels, centers, iterations, converged_flags, empty_flags)


def extract_clusters(converged, merge_radius: float):
    """Single-linkage merge of converged points within ``merge_radius``.

    The clusters are the connected components of the graph joining points
    with ``d2 < merge_radius**2``, labelled breadth-first from the lowest
    unlabelled index, so labels are dense in first-seen order; centers are
    the per-cluster means.  Each BFS level ORs its frontier's distance rows,
    computed in row blocks, into one length-N mask, so every point's row is
    computed once and memory is O(N * block), never N x N.
    """
    P = as_point_set(converged)
    if not merge_radius > 0:
        raise InvalidParameter("merge_radius must be positive")
    n = P.shape[0]
    height = min(_block_height(n), n)
    # buffers once per call, not _sq_dist_blocks per BFS level: its fresh blocks took cluster-3k's RSS 45.90 -> 46.55 MB
    d2, work = np.empty((height, n)), np.empty((height, n))
    reached = np.empty(n, dtype=bool)
    r2 = merge_radius * merge_radius
    labels = np.full(n, -1)
    count = 0
    for i in range(n):
        if labels[i] >= 0:
            continue
        labels[i] = count
        frontier = np.array([i])
        while frontier.size:
            reached.fill(False)
            for rows in _row_blocks(frontier.size, n):
                block = frontier[rows]
                D = pairwise_sq_dists(P[block], P, out=d2[: block.size], work=work[: block.size])
                reached |= np.fmin.reduce(D, axis=0) < r2  # fmin skips NaN, as "any entry < r2" does
            frontier = np.flatnonzero(reached & (labels < 0))
            labels[frontier] = count
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
    states and flagged, with both states of the cycle returned.  Each sweep
    takes one gram over all queries still live.
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
    prev = Q.copy()  # a first step back onto the start is convergence, not a cycle

    for it in range(1, max_iter + 1):
        rows = np.flatnonzero(~converged & ~cycles)
        if not rows.size:
            break
        cur = Q[rows]
        nxt = np.where(k.gram_values(cur, X) @ X >= 0, 1.0, -1.0)
        iterations[rows] = it
        same = (nxt == cur).all(axis=1)
        back = ~same & (nxt == prev[rows]).all(axis=1)
        converged[rows[same]] = True
        cycles[rows[back]] = True
        for i, a, b in zip(rows[back], cur[back], nxt[back]):
            last_two[i] = (a, b)
        prev[rows] = cur
        Q[rows] = nxt
    return ModeShiftResult(
        patterns=Q,
        iterations=iterations,
        converged_flags=converged,
        cycle_flags=cycles,
        last_two=last_two,
    )


def medoid_shift(k: Kernel, d, X, merge_radius: float | None = None):
    """Map every point to its local medoid and follow the mapping.

    ``j*_i = argmin_j (K_tilde D)_{ij}`` with D = ``d(X, X)``: ``d(A, B)`` is a
    pairwise dissimilarity returning the ``len(A) x len(B)`` array, for example
    ``kernels.pairwise_sq_dists``, and is called once; D must be finite.
    Argmin ties resolve to the lowest index.  The mapping is
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
    D = _pairwise(d, X, X)
    mapping = np.empty(n, dtype=int)
    empty = []
    for rows in _row_blocks(n, n):  # local_reduce's own row blocks, so no n x n cost is held and no bit moves
        cost, dead = local_reduce(k, X[rows], X, D)
        empty += (rows.start + np.flatnonzero(dead)).tolist()
        mapping[rows] = cost.argmin(axis=1)
    if empty:
        raise EmptyNeighborhood(f"rows {empty} have zero degree")

    # pointer doubling: after k rounds step = mapping^(2^k) and low[i] is the least of
    # i's first 2^k iterates; 2^k > n puts step[i] on i's cycle and low spans it
    low, step = np.arange(n), mapping
    for _ in range(n.bit_length()):
        low = np.minimum(low, low[step])
        step = step[step]
    reps = low[step]
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
        dist = d[np.ix_(unlabeled, labeled)]
        reached = dist < delta
        hit = reached.any(axis=1)
        if not hit.any():
            break
        # columns ascend, so argmin's first minimum is the lowest-index nearest point
        parents = labeled[np.where(reached, dist, np.inf)[hit].argmin(axis=1)]
        children = unlabeled[hit]
        labels[children] = labels[parents]
        edges.extend(zip(parents.tolist(), children.tolist()))
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
    if _check_count(r, "target dimension r") == X.shape[1]:
        n = X.shape[0]
        none = np.zeros(n, dtype=bool)
        return _shift_result(X, X.copy(), [X.copy()], np.zeros(n, dtype=int), ~none, none, merge_radius)
    data = Dataset(X)

    def targets(Q, rows):
        out = np.empty((rows.size, Q.shape[1]))
        for j, q in enumerate(Q[rows]):
            basis: LocalPcaBasis = local_pca(k, data, q, r)
            out[j] = basis.mu + basis.V @ (basis.V.T @ (q - basis.mu))
        return out, np.zeros(rows.size, dtype=bool)

    return _shift(targets, X, X.copy(), alpha, _default_tol(X, tol), max_iter, merge_radius)


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
    return _relax(k, X, init, mode, max_iter, tol)[0]


def _relax(k: Kernel, X, init, mode, max_iter, tol):
    """``relaxation_label``'s result, sweeps, convergence flag and frozen rows; inputs checked before the gram."""
    X = as_point_set(X)
    if mode not in ("soft", "hard"):
        raise InvalidParameter(f"unknown mode {mode!r}")
    R = np.asarray(init, dtype=float if mode == "soft" else None).copy()
    if mode == "soft":
        if R.ndim != 2 or R.shape[0] != X.shape[0]:
            raise InvalidParameter("soft init must be an (N, C) probability matrix")
        if (R < 0).any() or not np.allclose(R.sum(1), 1.0, atol=1e-8):
            raise InvalidParameter("soft init rows must be non-negative and sum to 1")
    else:
        if R.shape != (X.shape[0],) or not all(map(_is_integer, R.tolist())) or R.min() < 0:
            raise InvalidParameter("hard init must be a length-N vector of integer labels >= 0")
        R = np.equal.outer(R.astype(int), np.arange(int(R.max()) + 1)) * 1.0  # one-hot rows: both modes sweep K @ R
    max_iter = _check_count(max_iter, "max_iter", low=0)
    _check_sign(k)  # a difference kernel fails before the N x N gram
    G = k.gram_values(X, X)
    _check_sign(k, G)
    frozen = G.sum(axis=1) == 0
    sweeps, converged = 0, False
    while sweeps < max_iter and not converged:
        sweeps += 1
        new = G @ R
        new[frozen] = R[frozen]
        if mode == "soft":
            sums = new.sum(axis=1, keepdims=True)
            new /= np.where(sums == 0, 1.0, sums)  # K R normalizes to K_tilde R: degrees cancel
        else:
            new = np.equal.outer(new.argmax(axis=1), np.arange(R.shape[1])) * 1.0
        delta = np.abs(new - R).max()
        R = new
        converged = delta == 0 or mode == "soft" and delta < tol
    return (R if mode == "soft" else R.argmax(axis=1)), sweeps, converged, int(frozen.sum())
