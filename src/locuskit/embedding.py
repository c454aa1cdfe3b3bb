"""Low-dimensional embeddings: LLE, asymmetric MDS (SVD/NMF), co-occurrence
SVD word vectors, and ternary contrast-kernel (TriMap-style) MDS."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    EigenFailure,
    EmptyCorpus,
    InvalidParameter,
    NegativeInputForNMF,
)
from .estimators import _fix_signs
from .kernels import (  # normalize_rows is unused here, but perfbench/tracer.py wraps it by name
    StochasticMatrix, _check_count, _matrix_values, _nearest, _pairwise, _row_blocks, _sq_dist_blocks, as_point_set,
    normalize_rows,
)

__all__ = [
    "EmbeddingResult",
    "WordVectors",
    "lle_weights",
    "lle_embed",
    "lle_objective",
    "amds_factorize",
    "cooccurrence_embed",
    "read_corpus",
    "trimap_embed",
]


@dataclass(frozen=True)
class EmbeddingResult:
    Z: np.ndarray
    objective: float
    method: str
    iterations: int = 0
    history: np.ndarray | None = None


@dataclass(frozen=True)
class WordVectors:
    vocabulary: list
    input_vectors: np.ndarray
    output_vectors: np.ndarray


# ---------------------------------------------------------------------------
# LLE
# ---------------------------------------------------------------------------

def _lle_knn_weights(X, n_neighbors: int):
    """Reconstruction weights as ``(neighbors, weights)``, two N x k arrays:
    row i of W holds ``weights[i]`` at the columns ``neighbors[i]`` and is 0
    elsewhere.

    Every row solves ``(C + r I) w = 1`` for its local Gram C with the one
    ridge ``r = 1e-9 * trace(C)`` (``1e-9`` when the trace is not positive),
    so C + r I is positive definite even when C has rank below the neighbor
    count.  The neighbor search and the solves run per row block, so no
    N x N distance matrix is built, and each row's weights do not depend on
    the block height.  Negative solution weights are clipped to zero and the
    row renormalized, honoring the stochastic-matrix reading.
    """
    X = as_point_set(X)
    n = X.shape[0]
    n_neighbors = _check_count(n_neighbors, "neighbor count", 1, n - 1)
    neighbors = np.empty((n, n_neighbors), dtype=np.intp)
    weights = np.empty((n, n_neighbors))
    diag = np.arange(n_neighbors)
    for rows, D2 in _sq_dist_blocks(X, X):
        np.fill_diagonal(D2[:, rows], np.inf)
        nbrs = neighbors[rows] = _nearest(D2, n_neighbors)
        Z = X[nbrs] - X[rows, None, :]
        C = Z @ Z.transpose(0, 2, 1)
        ridge = 1e-9 * np.trace(C, axis1=1, axis2=2)
        C[:, diag, diag] += np.where(ridge > 0, ridge, 1e-9)[:, None]
        w = np.linalg.solve(C, np.ones((n_neighbors, 1)))[..., 0]
        w /= w.sum(axis=1, keepdims=True)
        np.clip(w, 0.0, None, out=w)
        w /= w.sum(axis=1, keepdims=True)
        weights[rows] = w
    return neighbors, weights


def lle_weights(X, n_neighbors: int) -> StochasticMatrix:
    """Reconstruction weights as a dense N x N stochastic matrix: each row
    solves a sum-to-one least squares over its nearest neighbors.

    The weights are ``_lle_knn_weights``' (see there for the ridged solve
    and the clipping), scattered into W; off-neighborhood entries and the
    diagonal are exactly zero.
    """
    neighbors, weights = _lle_knn_weights(X, n_neighbors)
    W = np.zeros((len(weights), len(weights)))
    np.put_along_axis(W, neighbors, weights, axis=1)
    return StochasticMatrix(W, weights.sum(axis=1))


def lle_objective(Kt, Z) -> float:
    """Reconstruction objective ``||Z - K_tilde Z||_F^2``."""
    vals = _matrix_values(Kt)
    Z = np.asarray(Z, dtype=float)
    return float(((Z - vals @ Z) ** 2).sum())


def _dense_lle_matrix(Kt) -> np.ndarray:
    """``M = (I - W)^T (I - W)`` for a square stochastic matrix W, by one GEMM."""
    vals = _matrix_values(Kt)
    if vals.ndim != 2 or vals.shape[0] != vals.shape[1]:
        raise InvalidParameter("lle_embed needs a square stochastic matrix")
    n = vals.shape[0]
    M = vals.T @ vals
    M -= vals
    M -= vals.T
    M.flat[:: n + 1] += 1.0
    return M


def _knn_lle_matrix(neighbors: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``M = I - W - W^T + W^T W`` from W's nonzeros, ``weights[i]`` at the
    columns ``neighbors[i]``, with O(N k) temporaries beside the one N x N M.

    ``W^T W`` is the sum over rows i of the outer product of row i's weights,
    scattered to (neighbors[i], neighbors[i]); ``np.add.at`` sums the entries
    that several rows share.  A row's neighbors are distinct, so the -W and
    -W^T entries are scattered without collisions.
    """
    n = len(weights)
    M = np.zeros((n, n))
    for j in range(weights.shape[1]):
        np.add.at(M, (neighbors[:, j, None], neighbors), weights[:, j, None] * weights)
    rows = np.arange(n)[:, None]
    M[rows, neighbors] -= weights
    M[neighbors, rows] -= weights
    M.flat[:: n + 1] += 1.0
    return M


_MAX_SHIFTED_SOLVES = 10  # lle_embed's inverse iteration steps before it falls back to the full eigh
_BLOCK = 64  # the panel width of _cholesky_in_place and the row block of _cholesky_solve and _symmetric_product


def _lle_matrix(Kt) -> np.ndarray:
    """M for ``lle_embed``'s ``Kt``: from the ``(neighbors, weights)`` pair, or from a square stochastic matrix."""
    return _knn_lle_matrix(*Kt) if isinstance(Kt, tuple) else _dense_lle_matrix(Kt)


def _cholesky_in_place(M: np.ndarray) -> None:
    """Overwrite the lower triangle of a symmetric positive definite M with its Cholesky factor L, ``M = L L^T``.

    Left-looking and blocked: each panel of ``_BLOCK`` columns takes its GEMM update from the columns already
    factored, then ``np.linalg.cholesky`` of its diagonal block and ``np.linalg.solve`` for the rows below it,
    which are updated in place.  So the temporaries are at most N x ``_BLOCK``, only the lower triangle is read,
    and the strict upper triangle is left as it was.  Raises ``LinAlgError`` when M is not numerically positive definite, with
    the lower triangle then partly overwritten."""
    n = M.shape[0]
    for a in range(0, n, _BLOCK):
        b = min(a + _BLOCK, n)
        L = np.linalg.cholesky(M[a:b, a:b] - M[a:b, :a] @ M[a:b, :a].T)
        np.copyto(M[a:b, a:b], L, where=np.tri(b - a, dtype=bool))
        M[b:, a:b] -= M[b:, :a] @ M[a:b, :a].T
        M[b:, a:b] = np.linalg.solve(L, M[b:, a:b].T).T


def _cholesky_solve(M: np.ndarray, B: np.ndarray) -> np.ndarray:
    """X with ``L L^T X = B``, for the factor L that ``_cholesky_in_place`` left in M's lower triangle.

    A forward and then a backward substitution over row blocks of ``_BLOCK``: each block subtracts, by one
    GEMM, the rows already solved, then takes ``np.linalg.solve`` against its triangular diagonal block."""
    n = M.shape[0]
    starts = range(0, n, _BLOCK)
    X = np.empty_like(B)
    for a in starts:
        b = min(a + _BLOCK, n)
        X[a:b] = np.linalg.solve(np.tril(M[a:b, a:b]), B[a:b] - M[a:b, :a] @ X[:a])
    for a in reversed(starts):
        b = min(a + _BLOCK, n)
        X[a:b] = np.linalg.solve(np.tril(M[a:b, a:b]).T, X[a:b] - M[b:, a:b].T @ X[b:])
    return X


def _symmetric_product(M: np.ndarray, diagonal: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """S Q for the symmetric S with M's strict upper triangle and the given diagonal; M's lower triangle is
    not read.  Per row block of ``_BLOCK``, the strict upper triangle right of the diagonal acts on Q once as
    it stands and once transposed."""
    n = M.shape[0]
    SQ = diagonal[:, None] * Q
    for a in range(0, n, _BLOCK):
        b = min(a + _BLOCK, n)
        U = np.triu(M[a:b, a:b], 1)
        SQ[a:b] += (U + U.T) @ Q[a:b] + M[a:b, b:] @ Q[b:]
        SQ[b:] += M[a:b, b:].T @ Q[a:b]
    return SQ


def _bottom_eigenpairs(M: np.ndarray, k: int):
    """The k smallest eigenpairs of a symmetric M by shifted block inverse iteration, as ``(values, vectors,
    solves)``, or None when the iteration cannot be trusted.

    ``M + sigma I`` is factored once, in place, by ``_cholesky_in_place``, so M's lower triangle and diagonal
    are consumed: a caller that needs M again, after a None too, rebuilds it.  Each step solves against the
    factor by ``_cholesky_solve``, and forms ``M Q`` for Rayleigh-Ritz and the residual test from M's kept
    strict upper triangle and a copy of its diagonal, so the test measures M itself."""
    n = M.shape[0]
    sigma = 1e-9 * np.trace(M) / n
    if not sigma > 0:
        return None
    tol = 1e-14 * max(np.abs(M[rows]).sum(axis=1).max() for rows in _row_blocks(n, n))
    diagonal = M.diagonal().copy()
    M.flat[:: n + 1] += sigma
    try:
        _cholesky_in_place(M)
        Q = np.linalg.qr(np.random.default_rng(0).standard_normal((n, k + 8)))[0]
        for solves in range(1, _MAX_SHIFTED_SOLVES + 1):
            Y = _cholesky_solve(M, Q)
            if not np.isfinite(Y).all():
                return None
            Q = np.linalg.qr(Y)[0]
            MQ = _symmetric_product(M, diagonal, Q)
            theta, V = np.linalg.eigh(Q.T @ MQ)
            Q = Q @ V
            if np.linalg.norm(MQ @ V[:, :k] - Q[:, :k] * theta[:k], axis=0).max() <= tol:
                return theta[:k], Q[:, :k], solves
    except np.linalg.LinAlgError:
        return None
    return None


def lle_embed(Kt, r: int) -> EmbeddingResult:
    """Embed by the small eigenvectors of ``M = (I - K_tilde)^T (I - K_tilde)``.

    ``Kt`` is a square stochastic matrix, or the pair ``(neighbors, weights)``
    of N x k arrays that ``_lle_knn_weights`` returns.  From the pair, M is
    assembled from the N k nonzeros and no dense K_tilde is formed, so M is
    the only N x N array.

    The smallest eigenvector (the constant direction of a stochastic matrix)
    is discarded; the next r are scaled to column norm sqrt(N), so
    Z^T Z / N = I.  The stored objective is the sum of the kept eigenvalues.

    The r + 1 smallest eigenpairs come from block inverse iteration on
    ``M + sigma I`` with ``sigma = 1e-9 trace(M) / N``, factored once by a
    blocked Cholesky written over M's lower triangle (no LU solve of M runs):
    r + 9 columns from a fixed seed, two blocked triangular substitutions per
    step, each step followed by Rayleigh-Ritz on ``M Q`` taken from M's
    strict upper triangle and diagonal.  It stops once every kept pair has
    ``||M q - lambda q|| <= 1e-14 ||M||_inf``; ``iterations`` counts the steps.
    When sigma is not positive, the factor fails, a step is not finite, or the
    test is not met within ``_MAX_SHIFTED_SOLVES`` steps, the consumed M is
    dropped and built again, and its full ``eigh`` gives the result with
    ``iterations`` 0.
    """
    M = _lle_matrix(Kt)
    n = M.shape[0]
    r = _check_count(r, "embedding dimension r", 1, n - 2)
    found = _bottom_eigenpairs(M, r + 1)
    if found is None:
        del M  # the factor overwrote its lower triangle; free it before the rebuild so one N x N is held
        M = _lle_matrix(Kt)
        try:
            eigvals, eigvecs = np.linalg.eigh(M)
        except np.linalg.LinAlgError as exc:
            raise EigenFailure("eigendecomposition failed") from exc
        found = eigvals[: r + 1], eigvecs[:, : r + 1], 0
    eigvals, eigvecs, solves = found
    Z = _fix_signs(eigvecs[:, 1:]) * np.sqrt(n)
    return EmbeddingResult(Z=Z, objective=float(eigvals[1:].sum()), method="lle", iterations=solves)


# ---------------------------------------------------------------------------
# asymmetric MDS
# ---------------------------------------------------------------------------

def amds_factorize(K, q: int, method: str = "svd", iters: int = 200, rng_seed: int = 0):
    """Factor a kernel matrix as Phi Psi^T in q dimensions.

    svd: the best rank-q Frobenius approximation, Phi = U_q S_q^(1/2),
    Psi = V_q S_q^(1/2).  nmf: multiplicative updates from a seeded positive
    start; the strain ||K - Phi Psi^T||_F^2 is non-increasing sweep to
    sweep.  Returns ``(Phi, Psi, strain, history)``.
    """
    K = _matrix_values(K)
    if K.ndim != 2:
        raise InvalidParameter("kernel matrix must be 2-D")
    q = _check_count(q, "q", 1, min(K.shape))
    iters = _check_count(iters, "iters", 0)
    if method == "svd":
        U, S, Vt = np.linalg.svd(K, full_matrices=False)
        root = np.sqrt(S[:q])
        U_q = _fix_signs(U[:, :q])
        # mirror the sign fixes onto V so the product is unchanged
        signs = np.sign((U_q * U[:, :q]).sum(0))
        Phi = U_q * root
        Psi = (Vt[:q].T * signs) * root
        strain = float(((K - Phi @ Psi.T) ** 2).sum())
        return Phi, Psi, strain, np.array([strain])
    if method == "nmf":
        if (K < 0).any():
            raise NegativeInputForNMF("nmf needs a non-negative matrix")
        rng = np.random.default_rng(rng_seed)
        n, m = K.shape
        scale = np.sqrt(K.mean() / q) if K.mean() > 0 else 1.0
        Phi = rng.uniform(0.5, 1.5, size=(n, q)) * scale
        Psi = rng.uniform(0.5, 1.5, size=(m, q)) * scale
        eps = 1e-12
        history = []
        for _ in range(iters):
            Phi *= (K @ Psi) / np.maximum(Phi @ (Psi.T @ Psi), eps)
            Psi *= (K.T @ Phi) / np.maximum(Psi @ (Phi.T @ Phi), eps)
            history.append(float(((K - Phi @ Psi.T) ** 2).sum()))
        strain = history[-1] if history else float(((K - Phi @ Psi.T) ** 2).sum())
        return Phi, Psi, strain, np.asarray(history)
    raise InvalidParameter(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# co-occurrence word vectors
# ---------------------------------------------------------------------------

def _cooccurrence_counts(windows):
    """``(vocabulary, C)``: the tokens in first-seen order, and the V x V counts of every ordered pair of distinct
    positions inside each window, ``C[id(w[a]), id(w[b])]`` summed over windows w and positions a != b.

    Windows of one length are counted together, by one ``np.bincount`` over the flat pair codes
    ``ids[:, a] * V + ids[:, b]``; the counts are integers, so the order of the sums does not matter."""
    index = {}
    for w in windows:
        for tok in w:
            index.setdefault(tok, len(index))
    V = len(index)
    C = np.zeros(V * V)
    for length in {len(w) for w in windows}:
        ids = np.array([[index[t] for t in w] for w in windows if len(w) == length], dtype=np.intp)
        a, b = np.nonzero(~np.eye(length, dtype=bool))
        C += np.bincount((ids[:, a] * V + ids[:, b]).ravel(), minlength=V * V)
    return list(index), C.reshape(V, V)


def cooccurrence_embed(windows, d: int) -> WordVectors:
    """SVD word vectors from log-damped window co-occurrence counts.

    Counts every ordered pair of distinct positions inside each window
    (``_cooccurrence_counts``), applies log(1 + count), and takes the rank-d
    SVD; input vectors are U_d S_d^(1/2), output vectors V_d S_d^(1/2).
    """
    vocab, C = _cooccurrence_counts([list(w) for w in windows])
    if not vocab:
        raise EmptyCorpus("no tokens in any window")
    d = _check_count(d, "dimension d", 1, len(vocab) - 1)
    damped = np.log1p(C)
    # the counting is symmetric, so take the SVD through the symmetric
    # eigendecomposition: deterministic on the degenerate +/-lambda pairs a
    # tiny corpus produces, where a generic SVD routine may return factors
    # with zero rows
    eigvals, eigvecs = np.linalg.eigh(damped)
    order = _nearest(-np.abs(eigvals)[None], d)[0]
    lam = eigvals[order]
    U = _fix_signs(eigvecs[:, order])
    root = np.sqrt(np.abs(lam))
    return WordVectors(
        vocabulary=vocab,
        input_vectors=U * root,
        output_vectors=U * (np.sign(lam) * root),
    )


def read_corpus(path, window: int):
    """Whitespace-tokenized, lowercased sliding windows from a text file."""
    window = _check_count(window, "window length", 2)
    with open(path, "r", encoding="utf-8") as fh:
        tokens = fh.read().lower().split()
    if not tokens:
        raise EmptyCorpus(f"no tokens in {path}")
    if len(tokens) <= window:
        return [tokens]
    return [tokens[i : i + window] for i in range(len(tokens) - window + 1)]


# ---------------------------------------------------------------------------
# ternary contrast-kernel MDS
# ---------------------------------------------------------------------------

def _contrast_h(kind: str):
    if kind == "identity":
        return lambda u: u, lambda u: np.ones_like(u)
    if kind == "log1p":
        # increasing extension of log1p to the whole line; the raw form is
        # undefined below -1 and the argument d12^2 - d13^2 is signed
        def h(u):
            return np.sign(u) * np.log1p(np.abs(u))

        def hp(u):
            return 1.0 / (1.0 + np.abs(u))

        return h, hp
    raise InvalidParameter(f"unknown contrast transform {kind!r}")


def _all_triplets(n):
    """Every (i, j, k) of distinct indices in lexicographic order, as the three index arrays."""
    i, j, k = np.indices((n, n, n)).reshape(3, -1)
    keep = (i != j) & (i != k) & (j != k)
    return i[keep], j[keep], k[keep]


def _sampled_triplets(S, n_neighbors, n_contrast, rng):
    """Triplets (i, j, k) as three index arrays: per anchor i its ``min(n_neighbors, n - 1)`` most similar j (ties by
    index), and per (i, j) ``min(n_contrast, n - 2)`` draws without replacement from range(n - 2), shifted past i, j."""
    n = S.shape[0]
    D = -S
    np.fill_diagonal(D, np.inf)
    j = _nearest(D, min(n_neighbors, n - 1)).ravel()
    i = np.repeat(np.arange(n), len(j) // n)
    m = min(n_contrast, n - 2)
    k = np.array([rng.choice(n - 2, m, replace=False) for _ in j])
    k += k >= np.minimum(i, j)[:, None]
    k += k >= np.maximum(i, j)[:, None]
    return np.repeat(i, m), np.repeat(j, m), k.ravel()


def trimap_embed(
    X,
    similarity,
    q: int,
    h: str = "identity",
    steps: int = 200,
    lr: float = 0.1,
    rng_seed: int = 0,
    n_neighbors: int = 10,
    n_contrast: int = 10,
    full_triplets: bool = False,
    init=None,
) -> EmbeddingResult:
    """Gradient descent on the contrast-kernel ternary MDS objective.

    ``similarity(A, B)`` is a pairwise similarity: it takes two point sets and
    returns the ``len(A) x len(B)`` array, for example a kernel's
    ``gram_values``, and is called once, as ``similarity(X, X)``.  The
    contrast kernel ``s12 / (s12 + s13)`` scores how much closer x2 is to x1
    than x3 is; the loss sums K * h(d12^2 - d13^2) over triplets.  Triplets
    are either fully enumerated or sampled per anchor (nearest
    ``n_neighbors`` by similarity, ``n_contrast`` uniform contrasts).  Each
    step scatters the triplets' gradient terms into Z's rows by one
    ``np.bincount`` per column over the anchors, then the near and the far
    points, so every row sums its terms in that order.
    """
    X = as_point_set(X)
    n = X.shape[0]
    if n < 3:
        raise InvalidParameter("need at least three points")
    q, steps = _check_count(q, "q"), _check_count(steps, "steps")
    n_neighbors, n_contrast = _check_count(n_neighbors, "n_neighbors"), _check_count(n_contrast, "n_contrast")
    hf, hpf = _contrast_h(h)
    rng = np.random.default_rng(rng_seed)

    S = _pairwise(similarity, X, X, "similarity")
    if (S < 0).any():
        raise InvalidParameter("similarities must be non-negative")
    i1, i2, i3 = _all_triplets(n) if full_triplets else _sampled_triplets(S, n_neighbors, n_contrast, rng)
    denom = S[i1, i2] + S[i1, i3]
    keep = denom > 0
    i1, i2, i3, denom = i1[keep], i2[keep], i3[keep], denom[keep]
    K = S[i1, i2] / denom

    if init is None:
        Z = 0.1 * rng.standard_normal((n, q))
    else:
        Z = np.asarray(init, dtype=float).copy()
        if Z.shape != (n, q):
            raise InvalidParameter(f"init must have shape ({n}, {q})")
    history = np.empty(steps + 1)
    rows = np.concatenate([i1, i2, i3])

    def loss_and_grad(Z):
        d12 = Z[i1] - Z[i2]
        d13 = Z[i1] - Z[i3]
        u = (d12**2).sum(1) - (d13**2).sum(1)
        loss = float((K * hf(u)).sum())
        coef = (K * hpf(u))[:, None]
        terms = np.concatenate([coef * 2.0 * (d12 - d13), -coef * 2.0 * d12, coef * 2.0 * d13])
        g = np.column_stack([np.bincount(rows, weights=terms[:, c], minlength=n) for c in range(q)])
        return loss, g

    history[0], g = loss_and_grad(Z)
    for t in range(1, steps + 1):
        Z = Z - lr * g
        history[t], g = loss_and_grad(Z)
    return EmbeddingResult(Z=Z, objective=float(history[-1]), method="trimap", iterations=steps, history=history)
