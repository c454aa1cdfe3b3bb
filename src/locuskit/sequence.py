"""Temporal kernels and local means, attention layers, the stacked
attention+MLP encoder, hierarchical local means, non-local means denoising,
and autoregressive completion.

A sequence is a (T, p) token matrix with strictly increasing times.  The
temporal kernel composes a static token kernel with a position encoding;
attention is exactly the row-normalized gram of an exp-dot feature kernel.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidParameter, ShapeMismatch
from .estimators import Dataset, lazy_transform
from .kernels import (
    Kernel, KernelMatrix, _block_height, _check_bandwidth, _check_count, _gaussian_in_place, _local_weights,
    _matrix_values, _row_blocks, _softmax_in_place, as_point_set, gram, normalize_rows,
)

__all__ = [
    "Sequence",
    "PositionEncoding",
    "sinusoidal_encoding",
    "temporal_gram",
    "temporal_local_mean",
    "attention_layer",
    "MlpParams",
    "TransformerLayer",
    "transformer_encode",
    "local_local_mean",
    "nlm_denoise",
    "nlm_denoise_image",
    "gaussian_moving_average",
    "TemporalMeanModel",
    "TransformerModel",
    "autoregressive_complete",
]


@dataclass(frozen=True)
class Sequence:
    tokens: np.ndarray
    times: np.ndarray = None

    def __post_init__(self):
        tokens = as_point_set(self.tokens)
        object.__setattr__(self, "tokens", tokens)
        times = self.times
        if times is None:
            times = np.arange(tokens.shape[0], dtype=float)
        else:
            times = np.asarray(times, dtype=float)
            if times.shape != (tokens.shape[0],):
                raise DimensionMismatch("times must be one per token")
            if (np.diff(times) <= 0).any():
                raise InvalidParameter("times must be strictly increasing")
        object.__setattr__(self, "times", times)

    @property
    def length(self):
        return self.tokens.shape[0]

    @property
    def width(self):
        return self.tokens.shape[1]


@dataclass(frozen=True)
class PositionEncoding:
    """kind in {none, window, sinusoidal-additive, relative-factor}.

    window needs ``delta > 0`` (zeroes |t-s| >= delta); relative-factor
    carries a callable ``factor(t - s) -> weight``; sinusoidal-additive adds
    the classic 10000-base wave to tokens before the static kernel sees
    them.
    """

    kind: str = "none"
    delta: float = None
    factor: object = None

    def __post_init__(self):
        if self.kind not in ("none", "window", "sinusoidal-additive", "relative-factor"):
            raise InvalidParameter(f"unknown position encoding {self.kind!r}")
        if self.kind == "window" and not (self.delta is not None and self.delta > 0):
            raise InvalidParameter("window encoding needs delta > 0")
        if self.kind == "relative-factor" and not callable(self.factor):
            raise InvalidParameter("relative-factor encoding needs a callable")

    def factors(self, tdiff) -> np.ndarray:
        """Float weight of each time difference t - s: 1 for none and
        sinusoidal-additive, ``|t - s| < delta`` for window, ``factor(t - s)``
        for relative-factor."""
        tdiff = np.asarray(tdiff, dtype=float)
        if self.kind == "window":
            return (np.abs(tdiff) < self.delta).astype(float)
        if self.kind == "relative-factor":
            return np.vectorize(self.factor, otypes=[float])(tdiff)
        return np.broadcast_to(1.0, tdiff.shape)


def sinusoidal_encoding(times, width: int) -> np.ndarray:
    """Classic additive position wave: pairs of sin/cos at geometric
    wavelengths with base 10000."""
    times = np.asarray(times, dtype=float)
    enc = np.zeros((times.shape[0], width))
    for j in range(width):
        rate = 10000.0 ** (-(2 * (j // 2)) / width)
        angle = times * rate
        enc[:, j] = np.sin(angle) if j % 2 == 0 else np.cos(angle)
    return enc


def temporal_gram(
    static_kernel: Kernel,
    pe: PositionEncoding,
    seq: Sequence,
    causal: bool = False,
) -> KernelMatrix:
    """T x T kernel matrix combining token similarity and position encoding.

    causal=True zeroes every entry with s > t.
    """
    tokens = seq.tokens
    if pe.kind == "sinusoidal-additive":
        tokens = tokens + sinusoidal_encoding(seq.times, seq.width)
    base = gram(static_kernel, tokens, tokens, rows_id="seq", cols_id="seq")
    tdiff = seq.times[:, None] - seq.times[None, :]
    values = base.values * pe.factors(tdiff)
    if causal:
        values[tdiff < 0] = 0.0  # s > t means t - s < 0
    return KernelMatrix(
        values=values,
        kernel_id=f"temporal({base.kernel_id}, pe={pe.kind}, causal={causal})",
        rows_id="seq",
        cols_id="seq",
        desmoothing=base.desmoothing,
    )


def temporal_local_mean(seq: Sequence, gram_matrix) -> Sequence:
    """Sequence smoothed by the normalized temporal gram, ``X_hat = K_tilde X``.

    Rows with zero degree (a causal+hollow first row, say) pass through
    unchanged.
    """
    if _matrix_values(gram_matrix).shape != (seq.length, seq.length):
        raise DimensionMismatch("gram must be T x T for the sequence")
    S = normalize_rows(gram_matrix)  # the matrix itself, so a desmoothing flag is refused
    out = S.values @ seq.tokens
    if S.empty_rows.size:
        out[S.empty_rows] = seq.tokens[S.empty_rows]
    return Sequence(tokens=out, times=seq.times.copy())


def attention_layer(V, phi, psi, causal: bool = False) -> np.ndarray:
    """Scaled-dot softmax attention ``softmax(phi psi^T / sqrt(d) + mask) V``, in row blocks.

    Each block of query rows scores only the keys it can see: a causal block
    reads keys up to its last row and masks the entries of its own rows that
    lie above the diagonal, so no T x T score matrix is built.
    """
    V = np.asarray(V, dtype=float)
    phi = np.asarray(phi, dtype=float)
    psi = np.asarray(psi, dtype=float)
    if phi.shape != psi.shape or phi.shape[0] != V.shape[0]:
        raise ShapeMismatch("phi, psi must be (T, d) and V (T, q)")
    T = phi.shape[0]
    scale = math.sqrt(phi.shape[1])
    out = np.empty(V.shape)
    if causal:  # sized by T too: at small T the block step is far larger than T
        height = min(_block_height(T), T)
        above = np.triu(np.ones((height, height), dtype=bool), 1)
    for rows in _row_blocks(T, T):
        stop = min(rows.stop, T) if causal else T
        S = phi[rows] @ psi[:stop].T
        S /= scale
        if causal:  # only the trailing square of a causal block reaches past the diagonal
            m = stop - rows.start
            np.copyto(S[:, rows.start:], -np.inf, where=above[:m, :m])
        out[rows] = _softmax_in_place(S) @ V[:stop]
    return out


@dataclass(frozen=True)
class MlpParams:
    """Two-layer pointwise map ``relu(x W1 + b1) W2 + b2``."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    def apply(self, X):
        hidden = np.maximum(np.asarray(X) @ self.w1 + self.b1, 0.0)
        return hidden @ self.w2 + self.b2

    @classmethod
    def random(cls, p, hidden, rng, scale=0.5):
        return cls(
            w1=scale * rng.standard_normal((p, hidden)),
            b1=scale * rng.standard_normal(hidden),
            w2=scale * rng.standard_normal((hidden, p)),
            b2=scale * rng.standard_normal(p),
        )


@dataclass(frozen=True)
class TransformerLayer:
    """One attention + pointwise-MLP block.

    The attention slot is either query/key projection matrices ``(wq, wk)``
    applied to the current tokens (softmax attention over the tokens
    themselves) or a static :class:`Kernel` whose normalized gram plays the
    same role.  ``mlp=None`` is the identity map.
    """

    wq: np.ndarray = None
    wk: np.ndarray = None
    kernel: Kernel = None
    mlp: MlpParams = None

    def __post_init__(self):
        has_proj = self.wq is not None and self.wk is not None
        if has_proj == (self.kernel is not None):
            raise InvalidParameter("give either (wq, wk) projections or a kernel")

    def mix(self, X, causal: bool) -> np.ndarray:
        if self.kernel is not None:
            seq = Sequence(X)
            gram_matrix = temporal_gram(self.kernel, PositionEncoding(), seq, causal)
            return temporal_local_mean(seq, gram_matrix).tokens
        return attention_layer(X, X @ self.wq, X @ self.wk, causal=causal)


def transformer_encode(
    seq: Sequence,
    layers,
    causal: bool = False,
    residual: bool = False,
) -> Sequence:
    """Stacked encoder: alternate the attention local mean and the pointwise
    MLP, layer by layer.

    Plain composition, no normalization; ``residual=True`` opts into
    ``x + block(x)`` around each sublayer for experimentation and is
    excluded from the fidelity tests.
    """
    X = seq.tokens.copy()
    for layer in layers:
        mixed = layer.mix(X, causal)
        X = X + mixed if residual else mixed
        if layer.mlp is not None:
            fed = layer.mlp.apply(X)
            X = X + fed if residual else fed
    return Sequence(tokens=X, times=seq.times.copy())


def local_local_mean(X, k1: Kernel, k2: Kernel, nonlinearity: str = "identity") -> np.ndarray:
    """Two-stage hierarchical local mean ``K2_tilde(f(K1_tilde X)) f(K1_tilde X)``.

    The second kernel is evaluated on the transformed points, so with a
    nonlinearity the composition is not a single kernel; with f = identity
    it collapses to the product-kernel local mean K2_tilde K1_tilde X.
    """
    funcs = {
        "identity": lambda v: v,
        "relu": lambda v: np.maximum(v, 0.0),
        "tanh": np.tanh,
    }
    if nonlinearity not in funcs:
        raise InvalidParameter(f"unknown nonlinearity {nonlinearity!r}")
    X = as_point_set(X)
    Xp = funcs[nonlinearity](lazy_transform(k1, Dataset(X, X), X))
    return lazy_transform(k2, Dataset(Xp, Xp), Xp)


# ---------------------------------------------------------------------------
# non-local means
# ---------------------------------------------------------------------------

def _window_mean(values: np.ndarray, radius: int, weights) -> np.ndarray:
    """Weighted mean of ``values`` (*grid, c) over the square window of
    ``radius`` grid steps around each point, clipped at the edges.

    The sum runs offset by offset, in lexicographic order up to and including
    offset 0: for each offset, ``weights(here, there)`` gives the weight that
    each point in the slices ``here`` puts on the point that offset away, in
    ``there``.  The weights must be symmetric, ``weights(here, there)`` equal
    to ``weights(there, here)``, since the same array also serves as the
    weight each point in ``there`` puts on its mirror in ``here``, at the
    negated offset.  Offset 0 must weigh 1, so no denominator is 0.
    """
    grid = values.shape[:-1]
    num = np.zeros(values.shape)
    den = np.zeros(grid)
    spans = [range(-min(radius, n - 1), min(radius, n - 1) + 1) for n in grid]
    for offset in itertools.product(*spans):
        here = tuple(slice(max(0, -o), n - max(0, o)) for o, n in zip(offset, grid))
        there = tuple(slice(max(0, o), n + min(0, o)) for o, n in zip(offset, grid))
        w = weights(here, there)
        num[here] += w[..., None] * values[there]
        den[here] += w
        if not any(offset):
            break
        num[there] += w[..., None] * values[here]
        den[there] += w
    num /= den[..., None]
    return num


def _nlm(values: np.ndarray, patch_radius: int, h: float, search_radius: int) -> np.ndarray:
    """Non-local means of ``values`` (*grid, c) with zero-padded square patches,
    shared by the sequence and image variants; patch distances are box sums of
    squared differences, never prefix sums, whose rounding would cross windows.
    A distance image at offset o, shifted by o, is the one at -o bit for bit,
    so the weights are symmetric as :func:`_window_mean` needs."""
    r = _check_count(patch_radius, "patch_radius", 0)
    s = _check_count(search_radius, "search_radius", r)
    h = _check_bandwidth(h)
    ndim = values.ndim - 1
    padded = np.pad(values, [(r, r)] * ndim + [(0, 0)])
    psize = (2 * r + 1) ** ndim * values.shape[-1]

    def weights(here, there):
        wide_here, wide_there = (tuple(slice(a.start, a.stop + 2 * r) for a in sl) for sl in (here, there))
        e = padded[wide_there] - padded[wide_here]  # slices widened to whole patches
        e *= e
        e = e.sum(axis=-1)
        for axis in range(ndim):  # box sums of width 2r+1, added left to right into one copy
            box = [e[(slice(None),) * axis + (slice(j, e.shape[axis] - 2 * r + j),)] for j in range(2 * r + 1)]
            e = box[0].copy()
            for part in box[1:]:
                e += part
        e /= psize
        return _gaussian_in_place(e, h)

    return _window_mean(values, s, weights)


def nlm_denoise(seq: Sequence, patch_radius: int, h: float, search_radius: int) -> Sequence:
    """Non-local means: average over the search window, weighted by patch
    similarity.

    ``w_ts = exp(-||patch(t) - patch(s)||^2 / (2 h^2 P))`` with P the patch
    entry count (so h is scale-comparable across radii); patches are
    zero-padded at the boundaries.  patch_radius = 0 degenerates to a plain
    Gaussian-on-values local mean over the window.
    """
    out = _nlm(seq.tokens, patch_radius, h, search_radius)
    return Sequence(tokens=out, times=seq.times.copy())


def nlm_denoise_image(image: np.ndarray, patch_radius: int, h: float, search_radius: int):
    """2-D non-local means with square patches and search windows, the same
    weights as :func:`nlm_denoise` with the pixel grid in place of time."""
    img = np.asarray(image, dtype=float)
    if img.ndim != 2:
        raise InvalidParameter("image must be 2-D")
    return _nlm(img[..., None], patch_radius, h, search_radius)[..., 0]


def gaussian_moving_average(seq: Sequence, search_radius: int, bandwidth: float = None) -> Sequence:
    """Position-weighted moving average over the same window NLM uses.

    The comparison baseline: weights depend only on |t - s| (Gaussian with
    ``bandwidth``, default max(search_radius, 1) / 2), never on values.
    """
    search_radius = _check_count(search_radius, "search_radius", 0)
    bw = _check_bandwidth(max(search_radius, 1) / 2.0 if bandwidth is None else bandwidth)
    t = np.arange(seq.length)

    def weights(here, there):
        return _gaussian_in_place(((t[there] - t[here]) ** 2).astype(float), bw)

    out = _window_mean(seq.tokens, search_radius, weights)
    return Sequence(tokens=out, times=seq.times.copy())


# ---------------------------------------------------------------------------
# autoregressive completion
# ---------------------------------------------------------------------------

class TemporalMeanModel:
    """Causal temporal-local-mean predictor for completion.

    The next token is the temporal local mean evaluated at the new position
    with the existing tokens as keys; content-dependent static kernels use
    the last observed token as the query's content.
    """

    def __init__(self, static_kernel: Kernel, pe: PositionEncoding = PositionEncoding("none")):
        self.static_kernel = static_kernel
        self.pe = pe

    def next_token(self, seq: Sequence) -> np.ndarray:
        t_new = seq.times[-1] + (seq.times[-1] - seq.times[-2] if seq.length > 1 else 1.0)
        query_content = seq.tokens[-1]
        tokens = seq.tokens
        if self.pe.kind == "sinusoidal-additive":
            enc = sinusoidal_encoding(np.concatenate([seq.times, [t_new]]), seq.width)
            tokens = tokens + enc[:-1]
            query_content = query_content + enc[-1]
        factor = self.pe.factors(t_new - seq.times)
        keep = factor != 0  # the static weights are max-shifted over the kept tokens only
        w = factor[keep]
        if keep.any():
            w = w * _local_weights(self.static_kernel, query_content[None, :], tokens[keep])[0]
        total = w.sum()
        if total <= 0:
            return seq.tokens[-1].copy()
        return (w @ seq.tokens[keep]) / total


class TransformerModel:
    """Causal encoder whose last output row is the next-token prediction."""

    def __init__(self, layers):
        self.layers = list(layers)

    def next_token(self, seq: Sequence) -> np.ndarray:
        out = transformer_encode(seq, self.layers, causal=True)
        return out.tokens[-1].copy()


def autoregressive_complete(seq: Sequence, model, steps: int) -> Sequence:
    """Extend a sequence one predicted token at a time.

    Each step evaluates the causal model at the next position and appends
    the result, feeding it back for the following step.
    """
    steps = _check_count(steps, "completion steps")
    tokens = seq.tokens
    times = seq.times
    dt = times[-1] - times[-2] if len(times) > 1 else 1.0
    cur = Sequence(tokens=tokens.copy(), times=times.copy())
    for _ in range(steps):
        nxt = np.asarray(model.next_token(cur), dtype=float)
        tokens = np.vstack([cur.tokens, nxt[None, :]])
        times = np.concatenate([cur.times, [cur.times[-1] + dt]])
        cur = Sequence(tokens=tokens, times=times)
    return cur
