"""Kernel learning: bandwidth tuning by leave-one-out, multi-kernel weight
fitting on the simplex, discrete query-key-value training (linear and
softmax forms), multi-head reconstruction, and finite-difference gradient
checking.

The QKV optimizers are plain batch gradient descent with hand-derived
gradients: no autograd, fixed learning rate, seed-fixed uniform(-0.1, 0.1)
initialization, fully reproducible runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AllEmptyNeighborhoods,
    EmptyNeighborhood,
    InvalidParameter,
    NonFiniteLoss,
    ShapeMismatch,
)
from .estimators import (  # local_linear_predict is unused here, but perfbench/tracer.py wraps it by name
    Dataset, _local_linear_blocks, local_linear_predict, loo_error,
)
from .kernels import (  # normalize_rows is unused here, but perfbench/tracer.py wraps it by name
    MultiKernel, _row_blocks, _softmax_in_place, gaussian, local_reduce, normalize_rows,
)

__all__ = [
    "TuneResult",
    "MultiKernelFit",
    "QkvHead",
    "QkvParams",
    "tune_bandwidth",
    "fit_multikernel",
    "fit_qkv",
    "qkv_objective",
    "multihead_reconstruct",
    "finite_diff_gradcheck",
    "softplus",
]


# ---------------------------------------------------------------------------
# bandwidth tuning
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TuneResult:
    h_star: float
    loss_star: float
    curve: list  # (h, loss) pairs in evaluation order
    jittered: int = 0  # leave-one-out local linear rows that fell back to the local mean, over finite-loss h


def _loo_local_linear(k, lam, data: Dataset):
    """Leave-one-out squared error of local linear (ridge) regression.

    Row i is fit with sample i's weight set to zero, which is the fit
    without sample i, so the loss is ``sum_i (y_i - L_i @ y)^2`` from one
    blocked pass, its squared errors added row by row as n refits would add
    them.  Returns ``(loss, rows that fell back to the local mean)``.
    """
    data.require("real")
    Y = np.atleast_2d(data.y.T).T
    total, jittered = 0.0, 0
    for rows, L, jit in _local_linear_blocks(k, data.X, data.X, lam, skip_self=True):
        total = sum(((Y[rows] - L @ Y) ** 2).sum(axis=1).tolist(), total)
        jittered += int(jit.sum())
    return total, jittered


def _loo_kde_nll(h, data: Dataset) -> float:
    # negative leave-one-out log likelihood of the Gaussian KDE
    X = data.X
    n, p = X.shape
    k = gaussian(h)
    sums = np.empty(n)
    for rows in _row_blocks(n, n):
        W = k.gram_values(X[rows], X)
        np.fill_diagonal(W[:, rows.start:], 0.0)
        sums[rows] = W.sum(1)
    c = (2.0 * math.pi * h * h) ** (-p / 2.0)
    dens = c * sums / (n - 1)
    if (dens <= 0).any():
        raise EmptyNeighborhood("leave-one-out density underflowed to zero")
    return float(-np.log(dens).sum())


# each loss returns (value, rows that fell back to the local mean)
_PREDICTOR_LOSSES = {
    "local-mean": lambda h, data: (loo_error(gaussian(h), data), 0),
    "local-linear": lambda h, data: _loo_local_linear(gaussian(h), 0.0, data),
    "kde-loo": lambda h, data: (_loo_kde_nll(h, data), 0),
}


def tune_bandwidth(predictor: str, data: Dataset, grid=None, bracket=None) -> TuneResult:
    """Pick the Gaussian bandwidth minimizing the leave-one-out loss.

    Scores every ``grid`` member (ties to the smaller h; bandwidths whose
    neighborhoods all empty score +inf and are skipped), or runs
    golden-section search on ``bracket=(lo, hi)`` to relative tolerance
    1e-3.  The full loss curve is returned for plotting.
    """
    if predictor not in _PREDICTOR_LOSSES:
        raise InvalidParameter(f"unknown predictor {predictor!r}")
    loss_of = _PREDICTOR_LOSSES[predictor]
    jittered = 0

    def safe_loss(h):
        nonlocal jittered
        try:
            v, n = loss_of(float(h), data)
        except EmptyNeighborhood:
            return math.inf
        if not math.isfinite(v):
            return math.inf
        jittered += n
        return v

    curve = []
    if grid is not None:
        hs = [float(h) for h in grid]
        if not hs or any(h <= 0 for h in hs):
            raise InvalidParameter("grid must contain positive bandwidths")
        for h in hs:
            curve.append((h, safe_loss(h)))
        finite = [(loss, h) for h, loss in curve if math.isfinite(loss)]
        if not finite:
            raise AllEmptyNeighborhoods("every grid bandwidth produced empty neighborhoods")
        best = min(loss for loss, _ in finite)
        # losses within rounding noise of the minimum count as ties,
        # resolved to the smallest bandwidth
        atol = 1e-12 * max(1.0, abs(best))
        h_star = min(h for loss, h in finite if loss <= best + atol)
        loss_star = next(loss for loss, h in finite if h == h_star)
        return TuneResult(h_star=h_star, loss_star=loss_star, curve=curve, jittered=jittered)

    if bracket is None:
        raise InvalidParameter("pass a grid or a bracket")
    lo, hi = float(bracket[0]), float(bracket[1])
    if not 0 < lo < hi:
        raise InvalidParameter("bracket must satisfy 0 < lo < hi")
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = safe_loss(c), safe_loss(d)
    curve.extend([(c, fc), (d, fd)])
    while (b - a) > 1e-3 * max(abs(a), abs(b)):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = safe_loss(c)
            curve.append((c, fc))
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = safe_loss(d)
            curve.append((d, fd))
    h_star, loss_star = min(curve, key=lambda t: (t[1], t[0]))
    if not math.isfinite(loss_star):
        raise AllEmptyNeighborhoods("bracket search found no usable bandwidth")
    return TuneResult(h_star=h_star, loss_star=loss_star, curve=curve, jittered=jittered)


# ---------------------------------------------------------------------------
# multi-kernel weights
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MultiKernelFit:
    weights: np.ndarray
    objective: float
    kkt_residual: float
    loo_value: float


def _project_simplex(v: np.ndarray) -> np.ndarray:
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    rho = np.flatnonzero(u + (1.0 - css) / (np.arange(len(v)) + 1) > 0)[-1]
    theta = (1.0 - css[rho]) / (rho + 1.0)
    return np.maximum(v + theta, 0.0)


def fit_multikernel(kernels, data: Dataset, n_iter: int = 500) -> MultiKernelFit:
    """Fit simplex weights minimizing ``||sum_m w_m L_m y||^2``.

    ``L_m`` is the normalized Laplacian residual of kernel m, so each
    column of the residual matrix is (I - K_tilde_m) y; the quadratic
    program runs projected gradient descent with a Lipschitz step from the
    residual Gram's largest eigenvalue.  The result reports the KKT
    residual at the solution and the exact leave-one-out objective of the
    combined kernel.
    """
    kernels = list(kernels)
    if len(kernels) < 2:
        raise InvalidParameter("need at least two kernels")
    data.require("real")
    Y = np.atleast_2d(data.y.T).T
    cols = []
    for k in kernels:
        KY, empty = local_reduce(k, data.X, data.X, Y)
        KY[empty] = 0.0  # an empty row of K_tilde is zero, so its residual is y itself
        cols.append((Y - KY).ravel())
    R = np.stack(cols, axis=1)  # (N*r, M)
    G = R.T @ R
    lip = 2.0 * float(np.linalg.eigvalsh(G)[-1])
    step = 1.0 / lip if lip > 0 else 1.0
    w = np.full(len(kernels), 1.0 / len(kernels))
    for _ in range(int(n_iter)):
        grad = 2.0 * G @ w
        w = _project_simplex(w - step * grad)
    grad = 2.0 * G @ w
    support = w > 1e-12
    mu = float(grad[support].min()) if support.any() else float(grad.min())
    kkt = max(
        float(np.abs(grad[support] - mu).max()) if support.any() else 0.0,
        float(np.maximum(mu - grad[~support], 0.0).max()) if (~support).any() else 0.0,
    )
    objective = float(w @ G @ w)
    combined = MultiKernel(w, kernels)
    try:
        loo = loo_error(combined, data)
    except EmptyNeighborhood:
        loo = math.inf
    return MultiKernelFit(weights=w, objective=objective, kkt_residual=kkt, loo_value=loo)


# ---------------------------------------------------------------------------
# QKV representations
# ---------------------------------------------------------------------------

def softplus(x):
    x = np.asarray(x, dtype=float)
    return np.logaddexp(0.0, x)


@dataclass(frozen=True)
class QkvHead:
    phi: np.ndarray
    psi: np.ndarray
    v: np.ndarray
    w: np.ndarray | None = None


@dataclass(frozen=True)
class QkvParams:
    """Query/key/value parameter blocks, one per head."""

    heads: tuple
    form: str = "softmax"

    def __post_init__(self):
        if not self.heads:
            raise InvalidParameter("need at least one head")
        if self.form not in ("softmax", "linear"):
            raise InvalidParameter(f"unknown form {self.form!r}")

    @property
    def n_heads(self):
        return len(self.heads)

    @property
    def phi(self):
        return self.heads[0].phi

    @property
    def psi(self):
        return self.heads[0].psi

    @property
    def v(self):
        return self.heads[0].v

    @property
    def w(self):
        return self.heads[0].w


def _attention(form, phi, psi, mask_diagonal):
    """Row-stochastic attention ``A`` and, for the linear form, the factors its gradient reuses.

    softmax: ``A = softmax(phi psi^T / sqrt(d))`` and None.  linear:
    ``A = B / deg`` with ``B = softplus(phi) softplus(psi)^T`` and ``deg = B 1``,
    and ``(deg, softplus(phi), softplus(psi))``.  A masked diagonal gets weight 0.
    """
    if form == "softmax":
        S = phi @ psi.T
        S /= math.sqrt(phi.shape[1])
        if mask_diagonal:
            np.fill_diagonal(S, -np.inf)
        return _softmax_in_place(S), None
    if form != "linear":
        raise InvalidParameter(f"unknown form {form!r}")
    sp_phi, sp_psi = softplus(phi), softplus(psi)
    B = sp_phi @ sp_psi.T
    if mask_diagonal:
        np.fill_diagonal(B, 0.0)
    deg = B.sum(axis=1, keepdims=True)
    return B / deg, (deg, sp_phi, sp_psi)


def _attention_matrix(form, phi, psi, mask_diagonal):
    """Row-stochastic attention (softmax) or normalized positive weights (linear)."""
    return _attention(form, phi, psi, mask_diagonal)[0]


def qkv_reconstruct(params: QkvParams, mask_diagonal: bool = False) -> np.ndarray:
    """Forward reconstruction V_hat (single head) at inference (no masking
    unless asked)."""
    h = params.heads[0]
    A = _attention_matrix(params.form, h.phi, h.psi, mask_diagonal)
    return A @ h.v


def qkv_objective(
    form: str,
    V: np.ndarray = None,
    mask_diagonal: bool = True,
    learn_v: bool = False,
    decode_target=None,
):
    """Value-and-gradient closure for the (auto-encoding) reconstruction loss.

    Without a decoder the loss is ``||V - A V||_F^2`` over ``(phi, psi)``
    (plus ``v`` when ``learn_v``); with ``decode_target=X`` the parameters
    gain a decoder matrix and the loss becomes ``||X - A V W^T||_F^2``.  A
    is the (masked) attention of the given form.  The gradients are
    analytic; :func:`finite_diff_gradcheck` verifies every combination.

    Parameter order of the closure: ``phi, psi[, v][, w]``.
    """
    fixed_v = None if learn_v else np.asarray(V, dtype=float)
    target_x = None if decode_target is None else np.asarray(decode_target, dtype=float)

    def value_and_grad(phi, psi, *extra):
        extra = iter(extra)
        v = np.asarray(next(extra), dtype=float) if learn_v else fixed_v
        w = np.asarray(next(extra), dtype=float) if target_x is not None else None
        target = v if target_x is None else target_x
        M = v if w is None else v @ w.T  # decoded values
        A, linear = _attention(form, phi, psi, mask_diagonal)
        Mh = A @ M
        R = Mh - target
        loss = float((R * R).sum())
        G = 2.0 * R
        GA = G @ M.T  # dL/dA
        GM = A.T @ G
        # only the score gradient depends on the form
        if form == "softmax":
            GS = A * (GA - (GA * A).sum(axis=1, keepdims=True))
            gphi = GS @ psi / math.sqrt(phi.shape[1])
            gpsi = GS.T @ phi / math.sqrt(phi.shape[1])
        else:
            deg, sp_phi, sp_psi = linear
            # dL/dB_ij = G_i . (M_j - Mh_i) / deg_i
            GB = (GA - (G * Mh).sum(axis=1, keepdims=True)) / deg
            if mask_diagonal:
                np.fill_diagonal(GB, 0.0)
            gphi = (GB @ sp_psi) * (1.0 / (1.0 + np.exp(-phi)))
            gpsi = (GB.T @ sp_phi) * (1.0 / (1.0 + np.exp(-psi)))

        grads = [gphi, gpsi]
        if learn_v:
            gv = GM if w is None else GM @ w
            if target_x is None:
                gv = gv - G  # the target side also carries v
            grads.append(gv)
        if w is not None:
            grads.append(GM.T @ v)
        return (loss, *grads)

    return value_and_grad


def fit_qkv(
    V,
    d: int,
    form: str = "softmax",
    lr: float = 0.1,
    steps: int = 500,
    rng_seed: int = 0,
    mask_diagonal: bool = True,
    temporal=None,
    learn_v: bool = False,
    decode_target=None,
):
    """Train query/key features to (auto-encode) reconstruct the values.

    Gradient descent on ``||V - A V||_F^2`` where A is the softmax (or
    positive linear) attention built from learnable N x d features; with
    ``decode_target=X`` the objective becomes the autoencoder form
    ``||X - A V W^T||_F^2`` with a jointly learned decoder W.  The value
    matrix is fixed by default and learned when ``learn_v`` is set.  The
    diagonal is masked during training so the identity kernel is not a
    trivial optimum; inference lifts the mask.  ``temporal`` optionally
    appends fixed position-feature columns to both phi and psi (learned
    content features stay d wide).

    Returns ``(QkvParams, loss_trace)``; the trace records the loss before
    each step plus the final value.  Diverging (non-finite) losses abort
    with the partial trace attached.
    """
    V = np.asarray(V, dtype=float)
    if V.ndim != 2:
        raise InvalidParameter("V must be an (N, q) matrix")
    d, steps = int(d), int(steps)
    if d < 1:
        raise InvalidParameter("feature dimension must be >= 1")
    if steps < 0:
        raise InvalidParameter("steps must be >= 0")
    n, q = V.shape
    rng = np.random.default_rng(rng_seed)
    learned = [rng.uniform(-0.1, 0.1, size=(n, d)), rng.uniform(-0.1, 0.1, size=(n, d))]
    if learn_v:
        learned.append(V.copy())
    if decode_target is not None:
        decode_target = np.asarray(decode_target, dtype=float)
        if decode_target.shape[0] != n:
            raise ShapeMismatch("decode target must have one row per value row")
        learned.append(rng.uniform(-0.1, 0.1, size=(decode_target.shape[1], q)))
    pos = None
    if temporal is not None:
        pos = np.asarray(temporal, dtype=float)
        if pos.ndim != 2 or pos.shape[0] != n:
            raise ShapeMismatch("temporal features must be (N, k)")

    def with_pos(blocks):
        # the closure's parameters: phi and psi gain the frozen position columns
        if pos is None:
            return blocks
        return [np.hstack([blocks[0], pos]), np.hstack([blocks[1], pos]), *blocks[2:]]

    vg = qkv_objective(
        form, V, mask_diagonal=mask_diagonal, learn_v=learn_v, decode_target=decode_target
    )
    trace = np.empty(steps + 1)
    for t in range(steps + 1):  # the last pass only records the final loss
        loss, *grads = vg(*with_pos(learned))
        if not math.isfinite(loss):
            raise NonFiniteLoss("training diverged", trace=trace[:t])
        trace[t] = loss
        if t < steps:
            # a gradient's columns past its block's width belong to the frozen positions
            learned = [p - lr * g[:, :p.shape[1]] for p, g in zip(learned, grads)]
    phi, psi, *rest = with_pos(learned)
    v = rest.pop(0) if learn_v else V.copy()
    w = rest[0] if rest else None
    return QkvParams(heads=(QkvHead(phi=phi, psi=psi, v=v, w=w),), form=form), trace


def multihead_reconstruct(params: QkvParams, X=None) -> np.ndarray:
    """Mean of the per-head decoded reconstructions ``(1/M) sum V_hat_m W_m^T``.

    Heads without a decoder use the identity (their value width must then
    match).  With M = 1 this is the single-head reconstruction.
    """
    outs = []
    for head in params.heads:
        Vh = _attention_matrix(params.form, head.phi, head.psi, mask_diagonal=False) @ head.v
        outs.append(Vh if head.w is None else Vh @ head.w.T)
        if outs[-1].shape != outs[0].shape:
            raise ShapeMismatch(f"head output {outs[-1].shape} != {outs[0].shape}")
    result = sum(outs) / len(outs)
    if X is not None and np.asarray(X).shape != result.shape:
        raise ShapeMismatch(f"reconstruction {result.shape} does not match data {np.asarray(X).shape}")
    return result


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------

def finite_diff_gradcheck(value_and_grad, params, eps: float = 1e-5) -> float:
    """Max relative error of analytic gradients vs central differences.

    ``value_and_grad(*params)`` must return ``(value, grad_1, ..., grad_k)``
    for k parameter arrays.  The relative error denominator is guarded at
    1e-12.
    """
    eps = float(eps)
    if not 1e-8 <= eps <= 1e-3:
        raise InvalidParameter("eps must lie in [1e-8, 1e-3]")
    params = [np.asarray(p, dtype=float).copy() for p in params]
    out = value_and_grad(*params)
    grads = [np.asarray(g, dtype=float) for g in out[1:]]
    worst = 0.0
    for pi, grad in enumerate(grads):
        it = np.nditer(params[pi], flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = params[pi][idx]
            params[pi][idx] = orig + eps
            up = value_and_grad(*params)[0]
            params[pi][idx] = orig - eps
            dn = value_and_grad(*params)[0]
            params[pi][idx] = orig
            fd = (up - dn) / (2.0 * eps)
            g = grad[idx]
            rel = abs(fd - g) / max(1e-12, abs(g))
            worst = max(worst, rel)
    return worst
