"""Pointwise local predictors: fits, means, modes, KNN, local linear/ridge,
self-kernel fixed points, inference rules, centerless classification, local
PCA, and Monte Carlo variants.

Everything here is a pure function of a kernel, a dataset, and a query.
Weighted estimates follow the localization recipe: weigh every sample's loss
by K(query, x_i), minimize pointwise.  The squared-loss instance is the
kernel-weighted (Nadaraya-Watson) average and the workhorse of the library.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyNeighborhood,
    InvalidParameter,
    RankDeficient,
    SingularSystem,
    ZeroDenominator,
)
from .kernels import (
    Kernel, SelfKernel, as_point, as_point_set, gram, normalize_rows, pairwise_sq_dists, softmax_rows,
)

__all__ = [
    "Dataset",
    "LocalFitResult",
    "InferenceRules",
    "LocalPcaBasis",
    "LocalPcaEncoder",
    "SelfMeanResult",
    "local_fit",
    "local_mean_predict",
    "lazy_transform",
    "loo_error",
    "local_mode_predict",
    "knn_predict",
    "local_linear_predict",
    "self_kernel_local_mean",
    "inference_precompute",
    "inference_predict",
    "local_centerless_classify",
    "centerless_lazy_responsibilities",
    "local_pca",
    "monte_carlo_local_mean",
    "weights_at",
]


@dataclass(frozen=True)
class Dataset:
    """Design matrix with optional targets.

    ``y`` may be a real vector (N,), a real matrix (N, r), or an integer
    label vector.  ``kind`` is inferred: "none", "real", "labels".
    """

    X: np.ndarray
    y: np.ndarray | None = None
    kind: str = field(init=False, default="none")

    def __post_init__(self):
        X = as_point_set(self.X)
        object.__setattr__(self, "X", X)
        if X.shape[0] < 1:
            raise InvalidParameter("dataset needs at least one row")
        y = self.y
        if y is not None:
            y = np.asarray(y)
            if y.shape[0] != X.shape[0]:
                raise DimensionMismatch(
                    f"targets ({y.shape[0]}) do not match rows ({X.shape[0]})"
                )
            if np.issubdtype(y.dtype, np.integer) and y.ndim == 1:
                kind = "labels"
            else:
                y = y.astype(float)
                kind = "real"
            object.__setattr__(self, "y", y)
            object.__setattr__(self, "kind", kind)

    @property
    def n(self):
        return self.X.shape[0]

    @property
    def p(self):
        return self.X.shape[1]

    def require(self, kind):
        if self.kind != kind:
            raise InvalidParameter(f"this operation needs {kind} targets, dataset has {self.kind}")


@dataclass(frozen=True)
class LocalFitResult:
    theta: np.ndarray | int | float
    loss_value: float
    equivalent_weights: np.ndarray | None = None
    normalized: bool = False
    converged: bool = True
    iterations: int = 0


@dataclass(frozen=True)
class InferenceRules:
    """Precomputed rule system: Psi^T y and Psi^T 1."""

    weighted_value_sum: np.ndarray
    weight_sum: np.ndarray


@dataclass(frozen=True)
class SelfMeanResult:
    value: np.ndarray
    converged: bool
    iterations: int


def weights_at(k: Kernel, X: np.ndarray, x_star) -> np.ndarray:
    """Kernel weights K(x*, x_i) as a length-N vector."""
    x_star = as_point(x_star)
    return k.gram_values(x_star[None, :], X)[0]


def _nearest_order(X, x_star) -> np.ndarray:
    """Sample indices by distance to x*, distance ties broken by ascending index."""
    d2 = pairwise_sq_dists(as_point(x_star)[None, :], X)[0]
    return np.lexsort((np.arange(len(d2)), d2))


# ---------------------------------------------------------------------------
# local decision fitting
# ---------------------------------------------------------------------------

def local_fit(loss, k: Kernel, data: Dataset, x_star, **opts) -> LocalFitResult:
    """Minimize the kernel-weighted empirical risk at one query point.

    loss:
      * ``"squared"``     -- theta is the weighted mean of y (closed form).
      * ``"zero-one"``    -- theta is the weighted majority class.
      * ``"distance"``    -- theta is the weighted geometric median of y,
        found by Weiszfeld iteration (``max_iter=200``, ``tol=1e-9``;
        iterates colliding with a sample are nudged by 1e-12).
      * ``"nll"``         -- theta maximizes sum_i K(x*, x_i) log p(x_i|theta)
        by gradient ascent; pass ``model`` with ``logpdf(x, theta)`` and
        ``grad_theta(x, theta)``, plus optional ``theta0``, ``step``,
        ``max_iter``, ``tol``.
    """
    w = weights_at(k, data.X, x_star)
    total = w.sum()

    if loss == "squared":
        data.require("real")
        if total <= 0:
            raise EmptyNeighborhood("no positive weights at the query")
        y = np.atleast_2d(data.y.T).T  # (N, r)
        theta = (w @ y) / total
        resid = y - theta
        value = float((w * (resid**2).sum(1)).sum())
        theta = theta if data.y.ndim > 1 else float(theta[0])
        return LocalFitResult(theta, value, w / total, normalized=True)

    if loss == "zero-one":
        data.require("labels")
        if total <= 0:
            raise EmptyNeighborhood("no positive weights at the query")
        classes = int(data.y.max()) + 1
        delta = np.zeros(classes)
        np.add.at(delta, data.y, w)
        theta = int(np.argmax(delta))  # argmax ties -> lowest class index
        value = float(total - delta[theta])
        return LocalFitResult(theta, value)

    if loss == "distance":
        data.require("real")
        if total <= 0:
            raise EmptyNeighborhood("no positive weights at the query")
        Y = np.atleast_2d(data.y.T).T
        max_iter = opts.get("max_iter", 200)
        tol = opts.get("tol", 1e-9)
        mu = (w @ Y) / total
        converged = False
        it = 0
        for it in range(1, max_iter + 1):
            d = np.linalg.norm(Y - mu, axis=1)
            hit = d < 1e-12
            if hit.any():
                mu = mu + 1e-12  # nudge off the sample point
                d = np.linalg.norm(Y - mu, axis=1)
            coef = w / d
            new = (coef @ Y) / coef.sum()
            step = np.linalg.norm(new - mu)
            mu = new
            if step < tol:
                converged = True
                break
        value = float((w * np.linalg.norm(Y - mu, axis=1)).sum())
        theta = mu if data.y.ndim > 1 else float(mu[0])
        return LocalFitResult(theta, value, converged=converged, iterations=it)

    if loss == "nll":
        model = opts["model"]
        theta = np.asarray(opts.get("theta0", np.zeros(1)), dtype=float).copy()
        step = opts.get("step", 0.1)
        max_iter = opts.get("max_iter", 500)
        tol = opts.get("tol", 1e-8)
        converged = False
        it = 0
        for it in range(1, max_iter + 1):
            g = np.zeros_like(theta)
            for wi, xi in zip(w, data.X):
                if wi:
                    g += wi * np.asarray(model.grad_theta(xi, theta), dtype=float)
            theta = theta + step * g
            if np.linalg.norm(g) < tol:
                converged = True
                break
        value = float(-sum(wi * model.logpdf(xi, theta) for wi, xi in zip(w, data.X) if wi))
        return LocalFitResult(theta, value, converged=converged, iterations=it)

    raise InvalidParameter(f"unknown loss {loss!r}")


# ---------------------------------------------------------------------------
# local mean / mode / KNN
# ---------------------------------------------------------------------------

def local_mean_predict(k: Kernel, data: Dataset, x_star, fallback="error"):
    """Kernel-weighted average sum_i K(x*, x_i) y_i / sum_i K(x*, x_i).

    The prediction is a convex combination, so it lies in
    [min y, max y] componentwise for any kernel and query.  When every
    weight vanishes, ``fallback`` picks the policy: ``"error"`` raises,
    ``"nearest-neighbor"`` returns the closest sample's target.
    """
    data.require("real")
    w = weights_at(k, data.X, x_star)
    total = w.sum()
    if total <= 0:
        if fallback == "nearest-neighbor":
            return data.y[_nearest_order(data.X, x_star)[0]]
        raise EmptyNeighborhood(f"no positive kernel weights at {x_star!r}")
    pred = (w @ np.atleast_2d(data.y.T).T) / total
    return pred if data.y.ndim > 1 else float(pred[0])


def lazy_transform(k: Kernel, data: Dataset, queries) -> np.ndarray:
    """Batch local mean ``K_tilde(queries, X) y``.

    Matrix form of :func:`local_mean_predict` applied row-wise; empty query
    rows raise since no fallback is expressible at the matrix level.
    """
    data.require("real")
    S = normalize_rows(gram(k, queries, data.X))
    if S.empty_rows.size:
        raise EmptyNeighborhood(f"queries {S.empty_rows.tolist()} have zero degree")
    return S.values @ np.atleast_2d(data.y.T).T


def loo_error(k: Kernel, data: Dataset) -> float:
    """Leave-one-out squared error of the local mean.

    Hollowing removes only the diagonal: prediction i uses the normalized
    weights over j != i.
    """
    data.require("real")
    if data.n < 2:
        raise InvalidParameter("leave-one-out needs at least two rows")
    K = gram(k, data.X, data.X).values.copy()
    np.fill_diagonal(K, 0.0)
    deg = K.sum(1)
    if (deg == 0).any():
        raise EmptyNeighborhood(
            f"rows {np.flatnonzero(deg == 0).tolist()} have zero off-diagonal degree"
        )
    Y = np.atleast_2d(data.y.T).T
    pred = (K @ Y) / deg[:, None]
    return float(((Y - pred) ** 2).sum())


def local_mode_predict(k: Kernel, data: Dataset, x_star):
    """Class-weight sums delta_k = sum_{y_i = k} K(x*, x_i); argmax wins.

    Returns ``(class, delta)``; ties break to the lowest class index.  For
    +/-1-coded binary problems the margin form is sign(sum K y), which is
    the same argmax.
    """
    data.require("labels")
    w = weights_at(k, data.X, x_star)
    if w.sum() <= 0:
        raise EmptyNeighborhood(f"no positive kernel weights at {x_star!r}")
    classes = int(data.y.max()) + 1
    delta = np.zeros(classes)
    np.add.at(delta, data.y, w)
    return int(np.argmax(delta)), delta


def knn_predict(n_neighbors: int, data: Dataset, x_star, weight_kernel: Kernel | None = None):
    """Nearest-neighbor mean or majority, optionally kernel-weighted in-set.

    Neighbors are the ``n_neighbors`` closest samples by Euclidean distance
    (distance ties break by ascending index).  With a weight kernel, label
    votes become weighted class sums and real targets a weighted mean over
    the neighbor set, which keeps predictions invariant under kernel
    rescaling.
    """
    n_neighbors = int(n_neighbors)
    if not 1 <= n_neighbors <= data.n:
        raise InvalidParameter(f"neighbor count must be in [1, {data.n}]")
    if data.kind == "none":
        raise InvalidParameter("knn prediction needs targets")
    idx = _nearest_order(data.X, x_star)[:n_neighbors]
    if weight_kernel is None:
        w = np.ones(n_neighbors)
    else:
        w = weights_at(weight_kernel, data.X[idx], x_star)
        if w.sum() <= 0:
            raise EmptyNeighborhood("weight kernel vanished on the whole neighbor set")
    if data.kind == "labels":
        classes = int(data.y.max()) + 1
        delta = np.zeros(classes)
        np.add.at(delta, data.y[idx], w)
        return int(np.argmax(delta))
    Y = np.atleast_2d(data.y.T).T[idx]
    pred = (w @ Y) / w.sum()
    return pred if data.y.ndim > 1 else float(pred[0])


# ---------------------------------------------------------------------------
# local linear / ridge regression
# ---------------------------------------------------------------------------

def local_linear_predict(k: Kernel, data: Dataset, x_star, lam: float = 0.0):
    """Locally weighted linear (ridge) regression with an internal intercept.

    Solves ``theta = (Xt^T D Xt + lam I)^(-1) Xt^T D y`` with
    ``D = diag K(x*, x_i)`` and Xt the intercept-augmented design, then
    predicts ``xt*^T theta``.  Returns ``(prediction, equivalent_weights,
    jittered)``: the weights row L satisfies prediction = L @ y, and with
    lam = 0 it sums to 1, so local linear regression is itself a local mean
    under the empirical kernel L.

    A singular system at lam = 0 gets one automatic jitter of
    ``1e-10 * trace(Xt^T D Xt)`` (reported via the flag); if that still
    fails, ``SingularSystem`` is raised.
    """
    data.require("real")
    if float(lam) < 0:
        raise InvalidParameter("ridge penalty must be >= 0")
    w = weights_at(k, data.X, x_star)
    if w.sum() <= 0:
        raise EmptyNeighborhood(f"no positive kernel weights at {x_star!r}")
    Xt = np.hstack([np.ones((data.n, 1)), data.X])
    xs = np.concatenate([[1.0], as_point(x_star)])
    XtDW = Xt.T * w
    A = XtDW @ Xt
    jittered = False

    def solve(Areg):
        coef = np.linalg.solve(Areg, xs)  # (A^-1 x*) once; L = coef^T Xt^T D
        return coef @ XtDW

    try:
        L = solve(A + float(lam) * np.eye(A.shape[0]))
        if not np.isfinite(L).all():
            raise np.linalg.LinAlgError("non-finite solve")
    except np.linalg.LinAlgError:
        if float(lam) > 0:
            raise SingularSystem("ridge system singular despite lam > 0")
        jitter = 1e-10 * np.trace(A)
        if jitter <= 0:
            jitter = 1e-10
        try:
            L = solve(A + jitter * np.eye(A.shape[0]))
            jittered = True
        except np.linalg.LinAlgError as exc:
            raise SingularSystem("weighted design is rank deficient") from exc
        if not np.isfinite(L).all():
            raise SingularSystem("weighted design is rank deficient")
    Y = np.atleast_2d(data.y.T).T
    pred = L @ Y
    pred = pred if data.y.ndim > 1 else float(pred[0])
    return pred, L, jittered


# ---------------------------------------------------------------------------
# self-localization kernel fixed point
# ---------------------------------------------------------------------------

def self_kernel_local_mean(
    k_self: SelfKernel,
    data: Dataset,
    x_star,
    init="plain-local-mean",
    max_iter: int = 100,
    tol: float = 1e-10,
) -> SelfMeanResult:
    """Fixed-point prediction under a separable self-localization kernel.

    Iterates ``y* <- sum K1(x*, x_i) K2(y*, y_i) y_i / sum K1 K2`` until the
    update moves less than ``tol``.  Non-convergence is flagged on the
    result, not raised.
    """
    data.require("real")
    if not isinstance(k_self, SelfKernel):
        raise InvalidParameter("self_kernel_local_mean needs a SelfKernel")
    wx = weights_at(k_self.k_x, data.X, x_star)
    if wx.sum() <= 0:
        raise EmptyNeighborhood(f"no positive input-space weights at {x_star!r}")
    Y = np.atleast_2d(data.y.T).T
    if init == "plain-local-mean":
        y = (wx @ Y) / wx.sum()
    else:
        y = np.atleast_1d(np.asarray(init, dtype=float))
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        wy = k_self.k_y.gram_values(y[None, :], Y)[0]
        w = wx * wy
        total = w.sum()
        if total <= 0:
            raise EmptyNeighborhood("the joint kernel vanished during iteration")
        new = (w @ Y) / total
        delta = float(np.linalg.norm(new - y))
        y = new
        if delta < tol:
            converged = True
            break
    value = float(y[0]) if data.y.ndim == 1 else y
    return SelfMeanResult(value=value, converged=converged, iterations=it)


# ---------------------------------------------------------------------------
# inference rules (factorized kernels)
# ---------------------------------------------------------------------------

def inference_precompute(psi, data: Dataset) -> InferenceRules:
    """Compress the sample into Psi^T y and Psi^T 1 for feature-map kernels."""
    data.require("real")
    Psi = np.stack([np.asarray(psi(x), dtype=float).ravel() for x in data.X])
    Y = np.atleast_2d(data.y.T).T
    return InferenceRules(weighted_value_sum=Psi.T @ Y, weight_sum=Psi.T @ np.ones(data.n))


def inference_predict(phi, rules: InferenceRules, x_star):
    """Predict ``(phi(x*) . Psi^T y) / (phi(x*) . Psi^T 1)``.

    Equals the local mean under K = phi . psi whenever the denominator is
    positive.
    """
    f = np.asarray(phi(as_point(x_star)), dtype=float).ravel()
    denom = float(f @ rules.weight_sum)
    if denom == 0:
        raise ZeroDenominator("feature weights sum to zero at the query")
    num = f @ rules.weighted_value_sum
    out = num / denom
    return float(out[0]) if out.shape == (1,) else out


# ---------------------------------------------------------------------------
# centerless classification
# ---------------------------------------------------------------------------

def local_centerless_classify(k: Kernel, d, data: Dataset, x_star, with_dispersion=False):
    """Centerless class scores: nearer-in-weighted-distance class wins.

    delta_k = -sum_{i:k} K(x*, x_i) d(x*, x_i) / sum_{i:k} K(x*, x_i), plus
    (when flagged) the within-class dispersion correction
    ``+ sum_{i,j:k} K_i K_j d(x_i, x_j) / (sum_{i:k} K_i)^2``.  Classes whose
    weights all vanish score -inf.
    """
    data.require("labels")
    w = weights_at(k, data.X, x_star)
    classes = int(data.y.max()) + 1
    x_star = as_point(x_star)
    dist_to_query = np.array([d(x_star, xi) for xi in data.X])
    delta = np.full(classes, -np.inf)
    any_class = False
    for c in range(classes):
        mask = data.y == c
        wc = w[mask]
        total = wc.sum()
        if total <= 0:
            continue
        any_class = True
        score = -(wc @ dist_to_query[mask]) / total
        if with_dispersion:
            Xc = data.X[mask]
            pair = np.array([[d(a, b) for b in Xc] for a in Xc])
            score += (wc @ pair @ wc) / (total * total)
        delta[c] = score
    if not any_class:
        raise EmptyNeighborhood("every class has zero weight at the query")
    return int(np.argmax(delta)), delta


def centerless_lazy_responsibilities(K: np.ndarray, D: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Batch soft form: ``softmax(-((K o D) R) / (K R))`` row-wise."""
    K = np.asarray(K, float)
    D = np.asarray(D, float)
    R = np.asarray(R, float)
    num = (K * D) @ R
    den = K @ R
    if (den <= 0).any():
        raise ZeroDenominator("a class received zero total weight")
    return softmax_rows(-num / den)


# ---------------------------------------------------------------------------
# local PCA
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LocalPcaBasis:
    mu: np.ndarray
    V: np.ndarray  # (p, r), orthonormal columns


def _fix_signs(V: np.ndarray) -> np.ndarray:
    V = V.copy()
    for j in range(V.shape[1]):
        i = int(np.argmax(np.abs(V[:, j])))
        if V[i, j] < 0:
            V[:, j] = -V[:, j]
    return V


def local_pca(k: Kernel, data: Dataset, x_star, r: int) -> LocalPcaBasis:
    """Weighted PCA around one query point.

    Rows are centered at the local mean and scaled by sqrt(K(x*, x_i));
    V holds the top-r right singular vectors (orthonormal, sign fixed so
    each column's largest-magnitude entry is positive).
    """
    r = int(r)
    if not 1 <= r < data.p:
        raise InvalidParameter(f"target dimension must be in [1, {data.p - 1}]")
    w = weights_at(k, data.X, x_star)
    total = w.sum()
    if total <= 0:
        raise EmptyNeighborhood(f"no positive kernel weights at {x_star!r}")
    mu = (w @ data.X) / total
    scaled = np.sqrt(w)[:, None] * (data.X - mu)
    U, S, Vt = np.linalg.svd(scaled, full_matrices=False)
    if (S[:r] <= S[0] * 1e-12).any() or np.count_nonzero(w > 0) < r:
        raise RankDeficient(f"fewer than r={r} independent weighted points")
    return LocalPcaBasis(mu=mu, V=_fix_signs(Vt[:r].T))


class LocalPcaEncoder:
    """Nonlinear encoder/reconstructor built on local PCA bases.

    ``encode`` composes the local projection with a global-PCA positioning
    term so codes keep their location in the sample; ``reconstruct`` is the
    local reconstruction ``(I - V V^T) mu_x + V V^T x`` whose displacement is
    the principal-component shift.
    """

    def __init__(self, k: Kernel, data: Dataset, r: int):
        self.k = k
        self.data = data
        self.r = int(r)
        Xc = data.X - data.X.mean(0)
        _, S, Vt = np.linalg.svd(Xc, full_matrices=False)
        self.global_mu = data.X.mean(0)
        self.global_V = _fix_signs(Vt[: self.r].T)

    def basis_at(self, x) -> LocalPcaBasis:
        return local_pca(self.k, self.data, x, self.r)

    def encode(self, x) -> np.ndarray:
        x = as_point(x)
        b = self.basis_at(x)
        return b.V.T @ (x - b.mu) + self.global_V.T @ (b.mu - self.global_mu)

    def reconstruct(self, x) -> np.ndarray:
        x = as_point(x)
        b = self.basis_at(x)
        proj = b.V @ (b.V.T @ (x - b.mu))
        return b.mu + proj


# ---------------------------------------------------------------------------
# Monte Carlo localization
# ---------------------------------------------------------------------------

def monte_carlo_local_mean(k: Kernel, data: Dataset, x_star, n: int, rng_seed: int):
    """Resampling estimate of the local mean.

    Draws ``n`` indices with probability proportional to K(x*, x_i) and
    averages their targets; converges to :func:`local_mean_predict` as n
    grows.
    """
    data.require("real")
    n = int(n)
    if n < 1:
        raise InvalidParameter("need at least one draw")
    w = weights_at(k, data.X, x_star)
    total = w.sum()
    if total <= 0:
        raise EmptyNeighborhood(f"no positive kernel weights at {x_star!r}")
    rng = np.random.default_rng(rng_seed)
    idx = rng.choice(data.n, size=n, p=w / total)
    Y = np.atleast_2d(data.y.T).T[idx]
    pred = Y.mean(0)
    return pred if data.y.ndim > 1 else float(pred[0])
