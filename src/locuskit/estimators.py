"""Pointwise local predictors: fits, means, modes, KNN, local linear/ridge,
self-kernel fixed points, inference rules, centerless classification, local
PCA, and Monte Carlo variants.

Everything here is a pure function of a kernel, a dataset, and a query.
Weighted estimates follow the localization recipe: weigh every sample's loss
by K(query, x_i), minimize pointwise.  The squared-loss instance is the
kernel-weighted (Nadaraya-Watson) average and the workhorse of the library.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DesmoothingInput,
    DimensionMismatch,
    EmptyNeighborhood,
    InvalidParameter,
    RankDeficient,
    SingularSystem,
    ZeroDenominator,
)
from .kernels import (  # normalize_rows is unused here, but perfbench/tracer.py wraps it by name
    GaussianKernel, Kernel, SelfKernel, _check_count, _divide, _local_weights, _nearest, _pairwise, _row_blocks,
    as_point, as_point_set, local_reduce, normalize_rows, pairwise_sq_dists, softmax_rows, uniform,
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
    "local_linear_transform",
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
                if (y < 0).any():
                    raise InvalidParameter("class labels must be >= 0")
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
    if loss == "zero-one":
        theta, delta = local_mode_predict(k, data, x_star)
        return LocalFitResult(theta, float(delta.sum() - delta[theta]))

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
    means, empty = local_reduce(k, as_point(x_star)[None, :], data.X, data.y)
    if empty[0]:
        if fallback == "nearest-neighbor":
            return data.y[_nearest(pairwise_sq_dists(as_point(x_star)[None, :], data.X), 1)[0, 0]]
        raise EmptyNeighborhood(f"no positive kernel weights at {x_star!r}")
    return means[0] if data.y.ndim > 1 else float(means[0, 0])


def lazy_transform(k: Kernel, data: Dataset, queries) -> np.ndarray:
    """Batch local mean ``K_tilde(queries, X) y``.

    Matrix form of :func:`local_mean_predict` applied row-wise; rows with no
    weight (compact support) raise, as no fallback fits the matrix level.
    """
    data.require("real")
    means, empty = local_reduce(k, queries, data.X, data.y)
    if empty.any():
        raise EmptyNeighborhood(f"queries {np.flatnonzero(empty).tolist()} have zero degree")
    return means


def loo_error(k: Kernel, data: Dataset) -> float:
    """Leave-one-out squared error of the local mean.

    Hollowing removes only the diagonal: prediction i uses the normalized
    weights over j != i, and raises if those are all 0 (compact support).
    """
    data.require("real")
    if data.n < 2:
        raise InvalidParameter("leave-one-out needs at least two rows")
    pred, empty = local_reduce(k, data.X, data.X, data.y, skip_self=True)
    if empty.any():
        raise EmptyNeighborhood(
            f"rows {np.flatnonzero(empty).tolist()} have zero off-diagonal degree"
        )
    return float(((as_point_set(data.y) - pred) ** 2).sum())


def local_mode_predict(k: Kernel, data: Dataset, x_star):
    """Class-weight sums delta_k = sum_{y_i = k} K(x*, x_i); argmax wins.

    Returns ``(class, delta)``; ties break to the lowest class index.
    Labels are class indices 0..C-1 (``Dataset`` rejects negative ones), so
    a binary problem is coded 0/1, not +/-1; its argmax is the margin form
    sign(delta_1 - delta_0).
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
    (distance ties break by ascending index).  The prediction is
    :func:`local_mode_predict` or :func:`local_mean_predict` over the
    neighbor set, under the weight kernel or, by default, uniform weights.
    """
    n_neighbors = _check_count(n_neighbors, "neighbor count", 1, data.n)
    if data.kind == "none":
        raise InvalidParameter("knn prediction needs targets")
    idx = _nearest(pairwise_sq_dists(as_point(x_star)[None, :], data.X), n_neighbors)[0]
    k = uniform() if weight_kernel is None else weight_kernel
    neighbors = Dataset(data.X[idx], data.y[idx])
    if data.kind == "labels":
        return local_mode_predict(k, neighbors, x_star)[0]
    return local_mean_predict(k, neighbors, x_star)


# ---------------------------------------------------------------------------
# local linear / ridge regression
# ---------------------------------------------------------------------------

# A fit whose system (weighted design plus slope ridge), centred on the query and scaled to
# unit diagonal, is worse conditioned than this is numerically singular: a backward-stable
# solve loses about log10(cond) of float64's ~16 digits, so the limit keeps about four.
_COND_LIMIT = 1e12


def _ill_posed(A: np.ndarray, Q: np.ndarray, n: int) -> np.ndarray:
    """Rows whose system ``A_q`` (weighted design of n samples plus ridge) is numerically singular.

    The test runs on ``C_q = T_q A_q T_q^T`` (``T_q [1, x] = [1, x - q]``),
    the design centred on the query, scaled to unit diagonal S, so it ignores
    the origin and units of x.  A row fails when S is non-finite or its least
    eigenvalue is below the larger of its greatest over ``_COND_LIMIT`` and
    the rounding that forming C from A leaves in S.  With weights >= 0,
    ``|A_kl| <= a_k a_l`` for ``a = sqrt(diag A)``, so by Weyl that rounding
    is to first order at most ``(n + 2d) eps |u|^2``, ``u = s * (|T_q| a)``.
    """
    b, d = A.shape[:2]
    T = np.tile(np.eye(d), (b, 1, 1))
    T[:, 1:, 0] = -Q
    C = T @ A @ T.transpose(0, 2, 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = 1 / np.sqrt(np.diagonal(C, axis1=1, axis2=2))
        S = C * s[:, :, None] * s[:, None, :]
        u = s * (np.abs(T) @ np.sqrt(np.diagonal(A, axis1=1, axis2=2))[..., None])[..., 0]
        rounding = (n + 2 * d) * np.finfo(float).eps * (u**2).sum(axis=1)
    finite = np.isfinite(S).all(axis=(1, 2))
    ev = np.zeros((b, d))
    ev[finite] = np.linalg.eigvalsh(S[finite])
    return ~(ev[:, 0] > np.maximum(ev[:, -1] / _COND_LIMIT, rounding))


def _local_linear_blocks(k: Kernel, X: np.ndarray, Q: np.ndarray, lam: float):
    """Local linear fits of Q's rows over X, in row blocks.

    Yields ``(rows, fit)`` per block, one gram evaluation each; ``fit(skip_self=False)``
    returns ``(L, jittered)``: the equivalent-kernel rows
    ``L_q = xt_q^T (A_q + lam P)^(-1) Xt^T diag(w_q)`` of the weighted designs
    ``A_q = Xt^T diag(w_q) Xt``, and the flags of the rows that fell back.
    Xt and xt_q are ``[1, x - m]`` with m the mean of X's rows, so the fits do
    not depend on where x sits, and ``P = diag(0, 1, ..., 1)`` leaves the
    intercept unpenalised, so every L_q sums to 1.  A row whose system
    :func:`_ill_posed` flags gets the local mean ``L_q = w_q / sum(w_q)``.
    One solve covers the block.  With ``skip_self`` (Q is X), row i gives
    sample ``rows.start + i`` weight 0: the fit without it.  That zeroes the
    block's gram in place, so a block's in-sample fit, if wanted, comes first.
    Negative weights raise ``DesmoothingInput``: a desmoothing kernel's before
    any gram, a signed kernel's per block; nonnegative kernels take no check.
    """
    n, d = X.shape[0], X.shape[1] + 1
    m = X.mean(axis=0)
    Xt = np.hstack([np.ones((n, 1)), X - m])
    Qm = Q - m
    outer = (Xt[:, :, None] * Xt[:, None, :]).reshape(n, d * d)
    ridge = lam * np.diag([0.0] + [1.0] * (d - 1))

    def fit(rows, W, skip_self=False):
        if skip_self:
            np.fill_diagonal(W[:, rows.start:], 0.0)
        empty = W.sum(axis=1) <= 0  # NaN weights are not empty: they raise SingularSystem below
        if empty.any():
            raise EmptyNeighborhood(f"no positive kernel weights at {Q[rows][np.argmax(empty)]!r}")
        A = (W @ outer).reshape(-1, d, d) + ridge
        jittered = _ill_posed(A, Qm[rows], n)
        A[jittered] = np.eye(d)  # solved as the local mean below; keeps the block's solve well posed
        qt = np.hstack([np.ones((len(A), 1)), Qm[rows]])
        try:
            coef = np.linalg.solve(A, qt[..., None])[..., 0]
        except np.linalg.LinAlgError:
            coef = np.full(qt.shape, np.nan)
        L = coef @ Xt.T
        L *= W
        L[jittered] = W[jittered] / W[jittered].sum(axis=1, keepdims=True)
        if not np.isfinite(L).all():
            raise SingularSystem("local linear weights are not finite: check the kernel weights")
        return L, jittered

    sign = k.sign_class
    if sign == "desmoothing":
        raise DesmoothingInput("cannot average desmoothing or negative kernel weights")
    for rows in _row_blocks(Q.shape[0], n):
        W = k.gram_values(Q[rows], X)
        if sign == "signed" and (W < 0).any():
            raise DesmoothingInput("cannot average desmoothing or negative kernel weights")
        yield rows, functools.partial(fit, rows, W)


def _check_ridge(data: Dataset, lam) -> float:
    data.require("real")
    if not 0 <= float(lam) < np.inf:  # NaN or inf would make every system non-finite: all local means
        raise InvalidParameter("ridge penalty must be finite and >= 0")
    return float(lam)


def local_linear_transform(k: Kernel, data: Dataset, queries, lam: float = 0.0):
    """Local linear (ridge) predictions at every row of ``queries``.

    Batch form of :func:`local_linear_predict`, solved block by block.
    Returns ``(predictions, jittered)``: predictions shaped like the targets
    with one row per query, and the local-mean fallback flag of each query.
    """
    lam = _check_ridge(data, lam)
    Q = as_point_set(queries)
    Y = np.atleast_2d(data.y.T).T
    preds = np.empty((Q.shape[0], Y.shape[1]))
    jittered = np.zeros(Q.shape[0], dtype=bool)
    for rows, fit in _local_linear_blocks(k, data.X, Q, lam):
        L, jit = fit()
        preds[rows] = L @ Y
        jittered[rows] = jit
    return (preds if data.y.ndim > 1 else preds[:, 0]), jittered


def local_linear_predict(k: Kernel, data: Dataset, x_star, lam: float = 0.0):
    """Locally weighted linear (ridge) regression with an internal intercept.

    Solves ``theta = (Xt^T D Xt + lam P)^(-1) Xt^T D y`` with
    ``D = diag K(x*, x_i)``, Xt the intercept-augmented design ``[1, x - m]``
    measured from the samples' mean m, and ``P = diag(0, 1, ..., 1)``, which
    penalises only the slopes; then predicts ``xt*^T theta``.  Returns
    ``(prediction, equivalent_weights, jittered)``: the weights row L
    satisfies prediction = L @ y and sums to 1, so local linear regression is
    itself a local mean under the empirical kernel L.

    A numerically singular system (see :func:`_ill_posed`) gets the local
    mean ``L = w / sum(w)`` instead, flagged ``jittered``.  Non-finite
    weights raise ``SingularSystem``.  This is the one-query case
    of :func:`local_linear_transform`.
    """
    lam = _check_ridge(data, lam)
    (_, fit), = _local_linear_blocks(k, data.X, as_point(x_star)[None, :], lam)
    L, jittered = fit()
    pred = L[0] @ np.atleast_2d(data.y.T).T
    pred = pred if data.y.ndim > 1 else float(pred[0])
    return pred, L[0], bool(jittered[0])


# ---------------------------------------------------------------------------
# self-localization kernel fixed point
# ---------------------------------------------------------------------------

def _factor_weights(k: Kernel, q, X):
    """One product-kernel factor at point q as ``(log weights, linear weights)``: a Gaussian is all log."""
    if isinstance(k, GaussianKernel):
        return _divide(pairwise_sq_dists(q[None, :], X)[0], -(2.0 * k.h * k.h)), 1.0
    return 0.0, _local_weights(k, q[None, :], X)[0]


def _product_weights(log_w, lin_w, n: int) -> np.ndarray:
    """``lin_w * exp(log_w)`` over n samples, the log part max-shifted once over the samples lin_w keeps."""
    log_w, lin_w = np.broadcast_to(log_w, n), np.broadcast_to(lin_w, n)
    keep = lin_w != 0
    top = log_w[keep].max(initial=-np.inf)
    w = np.zeros(n)
    w[keep] = lin_w[keep] * np.exp(log_w[keep] - (top if np.isfinite(top) else 0.0))
    return w


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
    result, not raised.  The Gaussian factors' log weights are summed and
    max-shifted once, over the samples the other factors keep, so the joint
    weights all vanish only when the non-Gaussian factors zero every sample.
    """
    data.require("real")
    if not isinstance(k_self, SelfKernel):
        raise InvalidParameter("self_kernel_local_mean needs a SelfKernel")
    log_x, lin_x = _factor_weights(k_self.k_x, as_point(x_star), data.X)
    wx = _product_weights(log_x, lin_x, data.n)
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
        log_y, lin_y = _factor_weights(k_self.k_y, y, Y)
        w = _product_weights(log_x + log_y, lin_x * lin_y, data.n)
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
    ``+ sum_{i,j:k} K_i K_j d(x_i, x_j) / (sum_{i:k} K_i)^2``, with d(A, B)
    the pairwise dissimilarity that ``medoid_shift`` takes.  Classes whose
    weights all vanish score -inf.
    """
    data.require("labels")
    x_star = as_point(x_star)
    w = _local_weights(k, x_star[None, :], data.X)[0]
    classes = int(data.y.max()) + 1
    dist_to_query = _pairwise(d, x_star[None, :], data.X)[0]
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
            score += (wc @ _pairwise(d, Xc, Xc) @ wc) / (total * total)
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
    r = _check_count(r, "target dimension r", 1, data.p - 1)
    w = _local_weights(k, as_point(x_star)[None, :], data.X)[0]
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
        self.r = _check_count(r, "target dimension r")
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
    n = _check_count(n, "draw count n")
    w = _local_weights(k, as_point(x_star)[None, :], data.X)[0]
    total = w.sum()
    if not total > 0:
        raise EmptyNeighborhood(f"no positive kernel weights at {x_star!r}")
    rng = np.random.default_rng(rng_seed)
    idx = rng.choice(data.n, size=n, p=w / total)
    Y = np.atleast_2d(data.y.T).T[idx]
    pred = Y.mean(0)
    return pred if data.y.ndim > 1 else float(pred[0])
