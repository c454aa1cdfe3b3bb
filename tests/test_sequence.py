"""Sequence-model tests: temporal grams, attention stochasticity, causality
and row blocks, the encoder against a straight-line oracle, hierarchical
local means, NLM, and autoregressive completion."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from locuskit import errors, kernels, sequence
from locuskit.kernels import dirac, gaussian, softmax_rows, uniform
from locuskit.sequence import (
    MlpParams,
    PositionEncoding,
    Sequence,
    TemporalMeanModel,
    TransformerLayer,
    TransformerModel,
    attention_layer,
    autoregressive_complete,
    gaussian_moving_average,
    local_local_mean,
    nlm_denoise,
    nlm_denoise_image,
    sinusoidal_encoding,
    temporal_gram,
    temporal_local_mean,
    transformer_encode,
)
from locuskit.synth import step_signal


def random_layers(rng, L, p, d=3, hidden=4, scale=0.4):
    layers = []
    for _ in range(L):
        layers.append(
            TransformerLayer(
                wq=scale * rng.standard_normal((p, d)),
                wk=scale * rng.standard_normal((p, d)),
                mlp=MlpParams.random(p, hidden, rng, scale=scale),
            )
        )
    return layers


class TestTemporalGram:
    def test_no_encoding_equals_static_gram(self):
        rng = np.random.default_rng(0)
        seq = Sequence(rng.normal(size=(5, 2)))
        G = temporal_gram(gaussian(1.0), PositionEncoding("none"), seq)
        from locuskit.kernels import gram

        np.testing.assert_array_equal(G.values, gram(gaussian(1.0), seq.tokens, seq.tokens).values)

    def test_causal_upper_triangle_zero(self):
        rng = np.random.default_rng(1)
        seq = Sequence(rng.normal(size=(6, 2)))
        G = temporal_gram(gaussian(1.0), PositionEncoding("none"), seq, causal=True)
        assert (np.triu(G.values, k=1) == 0).all()
        assert (G.values[np.tril_indices(6)] > 0).all()

    def test_window_one_on_integer_times_is_identity(self):
        rng = np.random.default_rng(2)
        seq = Sequence(rng.normal(size=(5, 2)))
        G = temporal_gram(uniform(), PositionEncoding("window", delta=1.0), seq)
        np.testing.assert_array_equal(G.values, np.eye(5))

    def test_relative_factor_multiplies(self):
        seq = Sequence(np.zeros((4, 1)))
        fac = lambda dt: 1.0 / (1.0 + abs(dt))
        G = temporal_gram(uniform(), PositionEncoding("relative-factor", factor=fac), seq)
        want = np.array([[fac(t - s) for s in range(4)] for t in range(4)])
        np.testing.assert_allclose(G.values, want)

    def test_relative_factor_weights_stay_float_after_an_int_first_value(self):
        # the factor's first value (dt = 0) is the int 1; the later 0.5s must survive
        seq = Sequence(np.zeros((4, 1)))
        pe = PositionEncoding("relative-factor", factor=lambda dt: 1 if dt == 0 else 0.5)
        G = temporal_gram(uniform(), pe, seq)
        np.testing.assert_array_equal(G.values, np.where(np.eye(4) > 0, 1.0, 0.5))
        model = TemporalMeanModel(uniform(), pe)
        assert model.next_token(Sequence([[0.0], [2.0]])) == pytest.approx([1.0])

    def test_sinusoidal_shifts_tokens_before_kernel(self):
        seq = Sequence(np.zeros((4, 4)))
        G = temporal_gram(gaussian(1.0), PositionEncoding("sinusoidal-additive"), seq)
        enc = sinusoidal_encoding(seq.times, 4)
        want = np.exp(-((enc[:, None, :] - enc[None, :, :]) ** 2).sum(-1) / 2.0)
        np.testing.assert_allclose(G.values, want, atol=1e-12)


class TestTemporalLocalMean:
    def test_dirac_gram_identity(self):
        rng = np.random.default_rng(3)
        seq = Sequence(rng.normal(size=(5, 3)))
        G = temporal_gram(dirac(), PositionEncoding("none"), seq)
        out = temporal_local_mean(seq, G)
        np.testing.assert_array_equal(out.tokens, seq.tokens)

    def test_constant_sequence_unchanged(self):
        seq = Sequence(np.full((6, 2), 3.5))
        G = temporal_gram(gaussian(0.5), PositionEncoding("window", delta=2.0), seq)
        out = temporal_local_mean(seq, G)
        np.testing.assert_allclose(out.tokens, seq.tokens, atol=1e-12)

    def test_uniform_gram_ramp_to_mean(self):
        seq = Sequence(np.array([[0.0], [1.0], [2.0]]))
        G = temporal_gram(uniform(), PositionEncoding("none"), seq)
        out = temporal_local_mean(seq, G)
        np.testing.assert_allclose(out.tokens, np.ones((3, 1)))

    def test_zero_degree_row_passes_through(self):
        seq = Sequence(np.array([[5.0], [1.0], [2.0]]))
        vals = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
        out = temporal_local_mean(seq, vals)
        assert out.tokens[0, 0] == 5.0

    def test_window_uniform_is_moving_average(self):
        seq = Sequence(np.arange(7.0)[:, None])
        G = temporal_gram(uniform(), PositionEncoding("window", delta=1.5), seq)
        out = temporal_local_mean(seq, G)
        want = np.array([0.5, 1, 2, 3, 4, 5, 5.5])[:, None]
        np.testing.assert_allclose(out.tokens, want)


class TestAttention:
    def test_zero_logits_uniform_rows(self):
        rng = np.random.default_rng(4)
        V = rng.normal(size=(5, 2))
        out = attention_layer(V, np.zeros((5, 3)), np.zeros((5, 3)))
        np.testing.assert_allclose(out, np.tile(V.mean(0), (5, 1)), atol=1e-12)

    def test_zero_logits_causal_running_means(self):
        V = np.arange(4.0)[:, None]
        out = attention_layer(V, np.zeros((4, 2)), np.zeros((4, 2)), causal=True)
        want = np.array([0.0, 0.5, 1.0, 1.5])[:, None]
        np.testing.assert_allclose(out, want, atol=1e-12)

    def test_causal_first_row_exact(self):
        rng = np.random.default_rng(5)
        V = rng.normal(size=(4, 3))
        out = attention_layer(V, rng.normal(size=(4, 2)), rng.normal(size=(4, 2)), causal=True)
        np.testing.assert_array_equal(out[0], V[0])

    def test_three_line_softmax_oracle(self):
        V = np.array([[1.0], [2.0], [3.0]])
        phi = np.array([[1.0], [0.0], [0.0]])
        psi = np.array([[2.0], [0.0], [-1.0]])
        out = attention_layer(V, phi, psi)
        logits = phi @ psi.T / 1.0
        row = np.exp(logits[0] - logits[0].max())
        row = row / row.sum()
        assert out[0, 0] == pytest.approx(float(row @ V[:, 0]), rel=1e-12)

    def test_rows_sum_to_one_property(self):
        rng = np.random.default_rng(6)
        phi, psi = rng.normal(size=(6, 3)), rng.normal(size=(6, 3))
        S = phi @ psi.T / math.sqrt(3)
        E = np.exp(S - S.max(1, keepdims=True))
        A = E / E.sum(1, keepdims=True)
        np.testing.assert_allclose(A.sum(1), 1.0, atol=1e-12)
        shifted = attention_layer(np.eye(6), phi, psi)
        np.testing.assert_allclose(shifted.sum(1), 1.0, atol=1e-12)

    def test_one_dimensional_values_give_a_one_dimensional_result(self):
        rng = np.random.default_rng(14)
        V, phi, psi = rng.normal(size=6), rng.normal(size=(6, 2)), rng.normal(size=(6, 2))
        for causal in (False, True):
            out = attention_layer(V, phi, psi, causal=causal)
            assert out.shape == (6,)
            np.testing.assert_allclose(out, full_attention(V[:, None], phi, psi, causal)[:, 0], rtol=1e-13)

    def test_empty_sequence_gives_an_empty_result(self):
        for V in (np.zeros(0), np.zeros((0, 2))):
            for causal in (False, True):
                out = attention_layer(V, np.zeros((0, 3)), np.zeros((0, 3)), causal=causal)
                assert out.shape == V.shape


# Attention runs in row blocks of ``kernels._BLOCK_ENTRIES // T`` rows; the
# properties below hold at every block height.  Queries and keys lie on a grid
# of quarter-integers, where every score is exact whichever rows share a block.
EPS = np.finfo(float).eps
BLOCK_ENTRIES = (1, 5, 13, 2**16)
QUARTERS = st.integers(-8, 8).map(lambda v: v / 4.0)
ATTENTION_PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)


@st.composite
def attention_problems(draw, lengths=st.integers(1, 70)):
    """``(V, phi, psi)`` with T tokens of d <= 3 features and q <= 2 values."""
    T, d, q = draw(lengths), draw(st.integers(1, 3)), draw(st.integers(1, 2))
    phi = draw(arrays(float, (T, d), elements=QUARTERS))
    psi = draw(arrays(float, (T, d), elements=QUARTERS))
    V = draw(arrays(float, (T, q), elements=st.floats(-1e3, 1e3)))
    return V, phi, psi


def full_attention(V, phi, psi, causal):
    """Reference: softmax over the whole masked T x T score matrix."""
    S = phi @ psi.T / math.sqrt(phi.shape[1])
    if causal:
        T = S.shape[0]
        S = np.where(np.arange(T)[None, :] > np.arange(T)[:, None], -np.inf, S)
    return softmax_rows(S) @ V


def blocked_attention(entries, V, phi, psi, causal):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_BLOCK_ENTRIES", entries)
        return attention_layer(V, phi, psi, causal=causal)


def allocating_attention(V, phi, psi, causal):
    """Reference: each row block's scores, mask and softmax as separate allocating expressions."""
    T = phi.shape[0]
    out = np.empty(V.shape)
    for rows in kernels._row_blocks(T, T):
        stop = min(rows.stop, T) if causal else T
        S = phi[rows] @ psi[:stop].T / math.sqrt(phi.shape[1])
        if causal:
            S[:, rows.start:][np.triu_indices(stop - rows.start, 1)] = -np.inf
        E = np.exp(S - S.max(axis=1, keepdims=True))
        out[rows] = (E / E.sum(axis=1, keepdims=True)) @ V[:stop]
    return out


# block heights at T=33: 1, 1, 1, 31 (a short last block of 2) and 1985 (above T)
@pytest.mark.parametrize("entries", [1, 5, 13, 2**10, 2**16])
@pytest.mark.parametrize("T", [1, 2, 5, 33, 100])
@pytest.mark.parametrize("causal", [False, True], ids=["full", "causal"])
def test_in_place_softmax_matches_allocating_expressions(monkeypatch, entries, T, causal):
    monkeypatch.setattr(kernels, "_BLOCK_ENTRIES", entries)
    rng = np.random.default_rng(T)
    V, phi, psi = rng.normal(size=(T, 2)), 3.0 * rng.normal(size=(T, 3)), rng.normal(size=(T, 3))
    out = attention_layer(V, phi, psi, causal=causal)
    assert np.array_equal(out, allocating_attention(V, phi, psi, causal))
    assert np.abs(out - full_attention(V, phi, psi, causal)).max() <= 16 * EPS * np.abs(V).max()


@ATTENTION_PROPERTY
@given(attention_problems(), st.booleans())
def test_attention_blocks_match_the_full_matrix(problem, causal):
    V, phi, psi = problem
    ref = full_attention(V, phi, psi, causal)
    for entries in BLOCK_ENTRIES:
        out = blocked_attention(entries, V, phi, psi, causal)
        assert np.abs(out - ref).max() <= 16 * EPS * np.abs(V).max()


@ATTENTION_PROPERTY
@given(attention_problems())
def test_causal_first_row_is_the_first_value(problem):
    V, phi, psi = problem
    for entries in BLOCK_ENTRIES:
        np.testing.assert_array_equal(blocked_attention(entries, V, phi, psi, True)[0], V[0])


@ATTENTION_PROPERTY
@given(attention_problems(lengths=st.integers(2, 70)), st.data())
def test_causal_rows_before_a_perturbed_token_are_unchanged(problem, data):
    V, phi, psi = problem
    T = V.shape[0]
    for entries in BLOCK_ENTRIES:
        height = max(1, entries // T)
        # a token past the first row of its block, where the block itself must mask it
        inside = [s for s in range(1, T) if s % height] or list(range(1, T))
        s = data.draw(st.sampled_from(inside))
        moved = [a.copy() for a in (V, phi, psi)]
        for a in moved:
            a[s] += 0.75
        out = blocked_attention(entries, V, phi, psi, True)
        np.testing.assert_array_equal(blocked_attention(entries, *moved, True)[:s], out[:s])


class TestTransformer:
    def test_identity_layers_identity(self):
        rng = np.random.default_rng(7)
        seq = Sequence(rng.normal(size=(5, 3)))
        layers = [TransformerLayer(kernel=dirac()) for _ in range(4)]
        out = transformer_encode(seq, layers)
        np.testing.assert_allclose(out.tokens, seq.tokens, atol=1e-14)

    def test_uniform_attention_identity_mlp_mean(self):
        seq = Sequence(np.array([[0.0, 2.0], [2.0, 0.0], [4.0, 4.0]]))
        out = transformer_encode(seq, [TransformerLayer(kernel=uniform())])
        np.testing.assert_allclose(out.tokens, np.tile([2.0, 2.0], (3, 1)), atol=1e-12)

    def test_causal_uniform_attention_gives_running_means(self):
        X = np.random.default_rng(13).normal(size=(5, 2))
        out = transformer_encode(Sequence(X), [TransformerLayer(kernel=uniform())], causal=True)
        running = np.cumsum(X, axis=0) / np.arange(1, 6)[:, None]
        np.testing.assert_allclose(out.tokens, running, atol=1e-12)

    def test_two_layer_straight_line_oracle(self):
        rng = np.random.default_rng(8)
        T, p = 4, 3
        seq = Sequence(rng.normal(size=(T, p)))
        layers = random_layers(np.random.default_rng(9), 2, p)
        out = transformer_encode(seq, layers)
        # independent reimplementation, step by step with explicit loops
        X = seq.tokens.copy()
        for layer in layers:
            phi = X @ layer.wq
            psi = X @ layer.wk
            mixed = np.empty_like(X)
            for t in range(T):
                logits = np.array([phi[t] @ psi[s] for s in range(T)]) / math.sqrt(3)
                e = np.exp(logits - logits.max())
                a = e / e.sum()
                mixed[t] = sum(a[s] * X[s] for s in range(T))
            X = np.maximum(mixed @ layer.mlp.w1 + layer.mlp.b1, 0.0) @ layer.mlp.w2 + layer.mlp.b2
        np.testing.assert_allclose(out.tokens, X, atol=1e-12)

    def test_causality_perturbation(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            T = int(rng.integers(3, 7))
            p = int(rng.integers(2, 5))
            L = int(rng.integers(1, 3))
            seq = Sequence(rng.normal(size=(T, p)))
            layers = random_layers(rng, L, p)
            base = transformer_encode(seq, layers, causal=True).tokens
            s = int(rng.integers(1, T))
            pert = seq.tokens.copy()
            pert[s] += rng.normal(size=p)
            out = transformer_encode(Sequence(pert, seq.times), layers, causal=True).tokens
            np.testing.assert_array_equal(out[:s], base[:s])

    def test_permutation_consistency_without_positions(self):
        rng = np.random.default_rng(11)
        seq = Sequence(rng.normal(size=(6, 3)))
        layers = random_layers(rng, 2, 3)
        out = transformer_encode(seq, layers).tokens
        perm = rng.permutation(6)
        seq_p = Sequence(seq.tokens[perm])
        out_p = transformer_encode(seq_p, layers).tokens
        np.testing.assert_allclose(out_p, out[perm], atol=1e-10)

    def test_residual_flag_changes_output(self):
        rng = np.random.default_rng(12)
        seq = Sequence(rng.normal(size=(4, 3)))
        layers = random_layers(rng, 1, 3)
        plain = transformer_encode(seq, layers).tokens
        res = transformer_encode(seq, layers, residual=True).tokens
        assert not np.allclose(plain, res)


class TestLocalLocalMean:
    def test_identity_f_dirac_second_stage(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(6, 2))
        out = local_local_mean(X, gaussian(1.0), dirac(), "identity")
        from locuskit.estimators import Dataset, lazy_transform

        want = lazy_transform(gaussian(1.0), Dataset(X, X), X)
        np.testing.assert_allclose(out, want, atol=1e-12)

    def test_identity_f_uniform_both_stages(self):
        X = np.array([[0.0], [2.0], [4.0]])
        out = local_local_mean(X, uniform(), uniform(), "identity")
        np.testing.assert_allclose(out, np.full((3, 1), 2.0))

    def test_identity_equals_composed_kernel_matrix(self):
        from locuskit.kernels import gram, normalize_rows

        rng = np.random.default_rng(14)
        X = rng.normal(size=(7, 2))
        out = local_local_mean(X, gaussian(0.8), gaussian(1.4), "identity")
        S1 = normalize_rows(gram(gaussian(0.8), X, X)).values
        X1 = S1 @ X
        S2 = normalize_rows(gram(gaussian(1.4), X1, X1)).values
        composed = S2 @ S1
        np.testing.assert_allclose(out, composed @ X, atol=1e-10)

    def test_relu_matches_elementwise_oracle(self):
        from locuskit.kernels import gram, normalize_rows

        rng = np.random.default_rng(15)
        X = rng.normal(size=(5, 2)) - 0.5
        out = local_local_mean(X, gaussian(1.0), dirac(), "relu")
        S1 = normalize_rows(gram(gaussian(1.0), X, X)).values
        want = np.maximum(S1 @ X, 0.0)
        np.testing.assert_allclose(out, want, atol=1e-12)


    def test_an_empty_row_raises_as_every_local_mean_does(self):
        X = np.array([[0.0], [0.05], [3.0]])
        lonely = kernels.HollowKernel(kernels.neighborhood(0.5))
        with pytest.raises(errors.EmptyNeighborhood, match=r"queries \[2\] have zero degree"):
            local_local_mean(X, lonely, uniform())
        with pytest.raises(errors.EmptyNeighborhood, match=r"queries \[2\] have zero degree"):
            local_local_mean(X, dirac(), lonely)


class TestNlm:
    def test_constant_signal_unchanged(self):
        seq = Sequence(np.full((20, 1), 2.0))
        out = nlm_denoise(seq, 2, 0.5, 5)
        np.testing.assert_allclose(out.tokens, seq.tokens, atol=1e-12)

    def test_rho_zero_large_h_uniform_window_average(self):
        rng = np.random.default_rng(16)
        seq = Sequence(rng.normal(size=(15, 1)))
        out = nlm_denoise(seq, 0, 1e8, 4)
        for t in range(15):
            lo, hi = max(0, t - 4), min(15, t + 4 + 1)
            assert out.tokens[t, 0] == pytest.approx(seq.tokens[lo:hi, 0].mean(), rel=1e-9)

    def test_rho_zero_equals_value_kernel_local_mean(self):
        rng = np.random.default_rng(17)
        seq = Sequence(rng.normal(size=(12, 1)))
        h = 0.7
        out = nlm_denoise(seq, 0, h, 11)
        y = seq.tokens[:, 0]
        for t in range(12):
            w = np.exp(-((y - y[t]) ** 2) / (2 * h * h))
            assert out.tokens[t, 0] == pytest.approx(float(w @ y / w.sum()), rel=1e-10)

    def test_step_signal_beats_gaussian_moving_average(self):
        clean, noisy = step_signal(200, 0.1, rng_seed=11)
        seq = Sequence(noisy[:, None])
        nlm = nlm_denoise(seq, 2, 0.2, 10)
        base = gaussian_moving_average(seq, 10)
        mse_nlm = float(((nlm.tokens[:, 0] - clean) ** 2).mean())
        mse_base = float(((base.tokens[:, 0] - clean) ** 2).mean())
        assert mse_nlm < mse_base

    def test_image_variant_smooths(self):
        rng = np.random.default_rng(18)
        img = np.zeros((12, 12))
        img[:, 6:] = 1.0
        noisy = img + rng.normal(0, 0.1, img.shape)
        out = nlm_denoise_image(noisy, 1, 0.2, 4)
        assert ((out - img) ** 2).mean() < ((noisy - img) ** 2).mean()

    def test_invalid_parameters(self):
        seq = Sequence(np.zeros((5, 1)))
        with pytest.raises(errors.InvalidParameter):
            nlm_denoise(seq, 3, 0.5, 2)
        with pytest.raises(errors.InvalidParameter):
            nlm_denoise(seq, 1, -0.5, 2)


    @pytest.mark.parametrize("h", [0.0, -0.2, float("nan")])
    def test_non_positive_bandwidth_rejected(self, h):
        with pytest.raises(errors.InvalidParameter):
            nlm_denoise_image(np.zeros((6, 6)), 1, h, 2)
        with pytest.raises(errors.InvalidParameter):
            nlm_denoise(Sequence(np.zeros((6, 1))), 1, h, 2)

    @pytest.mark.parametrize("h", [1e-200, math.inf], ids=["square-underflows", "infinite"])
    @pytest.mark.parametrize(
        "call",
        [
            lambda h: nlm_denoise(Sequence(np.zeros((6, 1))), 1, h, 2),
            lambda h: nlm_denoise_image(np.zeros((6, 6)), 1, h, 2),
            lambda h: gaussian_moving_average(Sequence(np.zeros((6, 1))), 2, bandwidth=h),
        ],
        ids=["nlm_denoise", "nlm_denoise_image", "gaussian_moving_average"],
    )
    def test_a_bandwidth_the_gaussian_rejects_is_rejected(self, call, h):
        with pytest.raises(errors.InvalidParameter, match="bandwidth"):
            call(h)


# Per-position loops: the reference the offset-major window mean must match.
# The weights are the same; only the order of the final sums differs.

def ref_nlm(tokens, r, h, s):
    T, p = tokens.shape
    padded = np.concatenate([np.zeros((r, p)), tokens, np.zeros((r, p))], axis=0)
    P = np.stack([padded[i : i + 2 * r + 1].ravel() for i in range(T)])
    out = np.empty_like(tokens)
    for t in range(T):
        lo, hi = max(0, t - s), min(T, t + s + 1)
        d2 = ((P[lo:hi] - P[t]) ** 2).sum(axis=1) / P.shape[1]
        w = np.exp(-d2 / (2.0 * h * h))
        out[t] = (w @ tokens[lo:hi]) / w.sum()
    return out


def ref_nlm_image(img, r, h, s):
    H, W = img.shape
    padded = np.pad(img, r)
    psize = (2 * r + 1) ** 2
    out = np.empty_like(img)
    for i in range(H):
        for j in range(W):
            ilo, ihi, jlo, jhi = max(0, i - s), min(H, i + s + 1), max(0, j - s), min(W, j + s + 1)
            me = padded[i : i + 2 * r + 1, j : j + 2 * r + 1].ravel()
            d2 = np.array([
                ((padded[a : a + 2 * r + 1, b : b + 2 * r + 1].ravel() - me) ** 2).sum() / psize
                for a in range(ilo, ihi)
                for b in range(jlo, jhi)
            ])
            w = np.exp(-d2 / (2.0 * h * h))
            out[i, j] = w @ img[ilo:ihi, jlo:jhi].ravel() / w.sum()
    return out


def ref_moving_average(tokens, s, bw):
    T = tokens.shape[0]
    out = np.empty_like(tokens)
    for t in range(T):
        lo, hi = max(0, t - s), min(T, t + s + 1)
        w = np.exp(-((np.arange(lo, hi) - t) ** 2) / (2.0 * bw * bw))
        out[t] = (w @ tokens[lo:hi]) / w.sum()
    return out


def assert_close_to_scale(got, want, data):
    tol = 16 * np.finfo(float).eps * np.abs(data).max()
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= tol


class TestWindowMeanAgainstLoops:
    @pytest.mark.parametrize(
        "r, s, h",
        [(1, 3, 0.3), (0, 2, 0.3), (2, 2, 0.5), (1, 20, 0.4)],
        ids=["clipped-every-side", "patch-0", "patch-eq-search", "search-beyond-image"],
    )
    def test_image(self, r, s, h):
        rng = np.random.default_rng(23)
        img = 3.0 * rng.random((7, 11))
        assert_close_to_scale(nlm_denoise_image(img, r, h, s), ref_nlm_image(img, r, h, s), img)

    @pytest.mark.parametrize("r, s", [(1, 4), (0, 3), (2, 2), (2, 40)])
    def test_three_channel_sequence(self, r, s):
        rng = np.random.default_rng(24)
        tokens = 5.0 * rng.normal(size=(25, 3))
        out = nlm_denoise(Sequence(tokens), r, 4.0, s)
        assert_close_to_scale(out.tokens, ref_nlm(tokens, r, 4.0, s), tokens)

    @pytest.mark.parametrize("s, bw", [(4, 1.3), (0, 0.7), (30, 2.0)])
    def test_moving_average_explicit_bandwidth(self, s, bw):
        rng = np.random.default_rng(25)
        tokens = rng.normal(size=(20, 2)) + 10.0
        out = gaussian_moving_average(Sequence(tokens), s, bandwidth=bw)
        assert_close_to_scale(out.tokens, ref_moving_average(tokens, s, bw), tokens)

    def test_moving_average_default_bandwidth(self):
        rng = np.random.default_rng(26)
        tokens = rng.normal(size=(15, 1))
        out = gaussian_moving_average(Sequence(tokens), 6)
        assert_close_to_scale(out.tokens, ref_moving_average(tokens, 6, 3.0), tokens)
        np.testing.assert_array_equal(gaussian_moving_average(Sequence(tokens), 0).tokens, tokens)


# The patch-array non-local means that the box-summed patch distances replaced:
# whole (2r+1)^ndim*c patch vectors compared at every offset.

def patch_weights(values, r, h):
    ndim = values.ndim - 1
    padded = np.pad(values, [(r, r)] * ndim + [(0, 0)])
    windows = np.lib.stride_tricks.sliding_window_view(padded, (2 * r + 1,) * ndim, axis=tuple(range(ndim)))
    P = np.moveaxis(windows, ndim, -1).reshape(*values.shape[:-1], -1)
    return lambda here, there: np.exp(-(((P[there] - P[here]) ** 2).sum(axis=-1) / P.shape[-1]) / (2.0 * h * h))


def patch_array_nlm(values, r, h, s):
    return sequence._window_mean(values, s, patch_weights(values, r, h))


class TestBoxSummedPatchDistances:
    def test_image_with_full_interior_windows(self):
        rng = np.random.default_rng(27)
        img = 3.0 * rng.random((17, 13))
        assert_close_to_scale(nlm_denoise_image(img, 2, 0.4, 3), ref_nlm_image(img, 2, 0.4, 3), img)

    def test_three_channel_sequence_wide_patches(self):
        rng = np.random.default_rng(28)
        tokens = 5.0 * rng.normal(size=(30, 3))
        out = nlm_denoise(Sequence(tokens), 3, 4.0, 5)
        assert_close_to_scale(out.tokens, ref_nlm(tokens, 3, 4.0, 5), tokens)

    def test_integer_image_equals_patch_array_bit_for_bit(self):
        # squared differences of integers sum exactly in any order
        rng = np.random.default_rng(29)
        img = rng.integers(0, 256, (21, 18)).astype(float)
        want = patch_array_nlm(img[..., None], 2, 40.0, 4)[..., 0]
        np.testing.assert_array_equal(nlm_denoise_image(img, 2, 40.0, 4), want)


# The window mean before mirror sharing: every offset in lexicographic order, each with weights of its own.
# Mirror sharing adds the same weights to each point in another order, so the two agree to rounding.

def window_offsets(grid, s):
    for offset in itertools.product(*(range(-min(s, n - 1), min(s, n - 1) + 1) for n in grid)):
        here = tuple(slice(max(0, -o), n - max(0, o)) for o, n in zip(offset, grid))
        there = tuple(slice(max(0, o), n + min(0, o)) for o, n in zip(offset, grid))
        yield here, there


def per_offset_window_mean(values, s, weights):
    num, den = np.zeros(values.shape), np.zeros(values.shape[:-1])
    for here, there in window_offsets(values.shape[:-1], s):
        w = weights(here, there)
        num[here] += w[..., None] * values[there]
        den[here] += w
    return num / den[..., None]


def position_weights(T, bw):
    t = np.arange(T)
    return lambda here, there: np.exp(-((t[there] - t[here]) ** 2) / (2.0 * bw * bw))


class TestMirrorSharedWindowMean:
    @pytest.mark.parametrize("r, s, h", [(2, 10, 0.2), (1, 3, 0.3), (0, 4, 0.5)])
    def test_image(self, r, s, h):
        rng = np.random.default_rng(31)
        img = rng.random((19, 23)) + 0.5
        want = per_offset_window_mean(img[..., None], s, patch_weights(img[..., None], r, h))[..., 0]
        np.testing.assert_allclose(nlm_denoise_image(img, r, h, s), want, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("r, s", [(2, 10), (1, 40)])
    def test_two_channel_sequence(self, r, s):
        rng = np.random.default_rng(32)
        tokens = rng.random((60, 2)) + 0.5
        want = per_offset_window_mean(tokens, s, patch_weights(tokens, r, 0.3))
        np.testing.assert_allclose(nlm_denoise(Sequence(tokens), r, 0.3, s).tokens, want, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("s, bw", [(7, None), (12, 2.0)])
    def test_moving_average(self, s, bw):
        rng = np.random.default_rng(33)
        tokens = rng.random((50, 2)) + 0.5
        want = per_offset_window_mean(tokens, s, position_weights(50, s / 2.0 if bw is None else bw))
        got = gaussian_moving_average(Sequence(tokens), s, bandwidth=bw).tokens
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)

    def test_search_radius_zero_is_exact(self):
        rng = np.random.default_rng(34)
        img, tokens = rng.random((9, 7)), rng.random((20, 2))
        want = per_offset_window_mean(img[..., None], 0, patch_weights(img[..., None], 0, 0.3))[..., 0]
        np.testing.assert_array_equal(nlm_denoise_image(img, 0, 0.3, 0), want)
        want = per_offset_window_mean(tokens, 0, patch_weights(tokens, 0, 0.3))
        np.testing.assert_array_equal(nlm_denoise(Sequence(tokens), 0, 0.3, 0).tokens, want)
        want = per_offset_window_mean(tokens, 0, position_weights(20, 0.5))
        np.testing.assert_array_equal(gaussian_moving_average(Sequence(tokens), 0).tokens, want)

    @pytest.mark.parametrize(
        "values, r, s",
        [(np.random.default_rng(35).random((11, 9, 1)), 2, 4), (np.random.default_rng(36).random((30, 3)), 1, 6)],
        ids=["image", "three-channel-sequence"],
    )
    def test_nlm_weights_are_symmetric_bit_for_bit(self, monkeypatch, values, r, s):
        # the contract _window_mean states: a weight array serves its offset and the mirror offset
        checked = []

        def check(values, radius, weights):
            for here, there in window_offsets(values.shape[:-1], radius):
                np.testing.assert_array_equal(weights(here, there), weights(there, here))
                checked.append(here)
            return values

        monkeypatch.setattr(sequence, "_window_mean", check)
        sequence._nlm(values, r, 0.3, s)
        assert len(checked) == np.prod([2 * s + 1 for _ in values.shape[:-1]])


def box_summed_weights(values, r, h):
    """Non-local means weights as written inline before the shared Gaussian rule: the same box-summed patch
    distances, then ``exp`` of their negation over ``2 h^2``."""
    ndim = values.ndim - 1
    padded = np.pad(values, [(r, r)] * ndim + [(0, 0)])
    psize = (2 * r + 1) ** ndim * values.shape[-1]

    def weights(here, there):
        wide_here, wide_there = (tuple(slice(a.start, a.stop + 2 * r) for a in sl) for sl in (here, there))
        e = padded[wide_there] - padded[wide_here]
        e *= e
        e = e.sum(axis=-1)
        for axis in range(ndim):
            box = [e[(slice(None),) * axis + (slice(j, e.shape[axis] - 2 * r + j),)] for j in range(2 * r + 1)]
            e = box[0].copy()
            for part in box[1:]:
                e += part
        return np.exp(-(e / psize) / (2.0 * h * h))

    return weights


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestWindowWeightsFromTheGaussianRule:
    # Each offset's weights are checked as they are made, since a weight far below the window's self weight of 1
    # cannot move the mean; wide values and long lags put many of them in exp's slow band below -707 and at 0.

    @staticmethod
    def check_weights(monkeypatch, reference):
        window_mean = sequence._window_mean

        def checked(values, radius, weights):
            def compared(here, there):
                w = weights(here, there)
                assert_same_bits(w, reference(here, there))
                return w

            return window_mean(values, radius, compared)

        monkeypatch.setattr(sequence, "_window_mean", checked)

    @pytest.mark.parametrize("h", [0.125, 0.1], ids=["2h2-power-of-two", "2h2-not"])
    @pytest.mark.parametrize(
        "values, r, s",
        [(5.0 * np.random.default_rng(37).normal(size=(40, 2)), 1, 9),
         (5.0 * np.random.default_rng(38).normal(size=(12, 10, 1)), 1, 4)],
        ids=["sequence", "image"],
    )
    def test_nlm(self, monkeypatch, values, r, s, h):
        want = sequence._window_mean(values, s, box_summed_weights(values, r, h))
        self.check_weights(monkeypatch, box_summed_weights(values, r, h))
        assert_same_bits(sequence._nlm(values, r, h, s), want)

    @pytest.mark.parametrize("bw", [0.5, 0.7], ids=["2h2-power-of-two", "2h2-not"])
    def test_moving_average(self, monkeypatch, bw):
        tokens = np.random.default_rng(39).random((50, 2)) + 0.5
        want = sequence._window_mean(tokens, 30, position_weights(50, bw))
        self.check_weights(monkeypatch, position_weights(50, bw))
        assert_same_bits(gaussian_moving_average(Sequence(tokens), 30, bandwidth=bw).tokens, want)


class TestAutoregressive:
    def test_constant_prefix_uniform_attention_constant_continuation(self):
        seq = Sequence(np.full((4, 2), 1.5))
        model = TransformerModel([TransformerLayer(kernel=uniform())])
        out = autoregressive_complete(seq, model, 3)
        assert out.length == 7
        np.testing.assert_allclose(out.tokens, np.full((7, 2), 1.5), atol=1e-12)

    def test_dirac_at_previous_repeats_last_token(self):
        seq = Sequence(np.array([[1.0], [2.0], [5.0]]))
        model = TemporalMeanModel(
            uniform(), PositionEncoding("relative-factor", factor=lambda dt: float(dt == 1.0))
        )
        out = autoregressive_complete(seq, model, 4)
        np.testing.assert_allclose(out.tokens[3:], np.full((4, 1), 5.0))

    def test_window_mean_of_last_two(self):
        seq = Sequence(np.array([[0.0], [1.0], [2.0], [3.0]]))
        model = TemporalMeanModel(uniform(), PositionEncoding("window", delta=2.5))
        out = autoregressive_complete(seq, model, 1)
        assert out.tokens[-1, 0] == pytest.approx((2.0 + 3.0) / 2.0)


def test_sequence_validation():
    with pytest.raises(errors.InvalidParameter):
        Sequence(np.zeros((3, 1)), times=[0.0, 0.0, 1.0])
    with pytest.raises(errors.DimensionMismatch):
        Sequence(np.zeros((3, 1)), times=[0.0, 1.0])


def test_threads_cap_does_not_change_image_nlm(monkeypatch):
    rng = np.random.default_rng(19)
    img = rng.normal(size=(8, 8))
    monkeypatch.delenv("LOCUSKIT_THREADS", raising=False)
    single = nlm_denoise_image(img, 1, 0.3, 3)
    monkeypatch.setenv("LOCUSKIT_THREADS", "4")
    multi = nlm_denoise_image(img, 1, 0.3, 3)
    np.testing.assert_array_equal(single, multi)


def test_threads_env_validation(monkeypatch):
    from locuskit.runtime import max_threads

    monkeypatch.setenv("LOCUSKIT_THREADS", "0")
    with pytest.raises(errors.InvalidParameter):
        max_threads()
    monkeypatch.setenv("LOCUSKIT_THREADS", "three")
    with pytest.raises(errors.InvalidParameter):
        max_threads()
    monkeypatch.setenv("LOCUSKIT_THREADS", "2")
    assert max_threads() == 2


def test_causal_hollow_first_row_passes_through():
    # no visible keys for the first position when the diagonal is hollowed:
    # the row passes through unchanged instead of erroring
    from locuskit.kernels import derive_kernel

    rng = np.random.default_rng(22)
    seq = Sequence(rng.normal(size=(4, 2)))
    hollow = derive_kernel("hollow", gaussian(1.0))
    G = temporal_gram(hollow, PositionEncoding("none"), seq, causal=True)
    out = temporal_local_mean(seq, G)
    np.testing.assert_array_equal(out.tokens[0], seq.tokens[0])
    assert not np.allclose(out.tokens[1], seq.tokens[1])


def test_temporal_mean_adds_the_sinusoidal_wave_to_keys_and_query_but_averages_raw_tokens():
    seq = Sequence([[0.0, 1.0], [0.5, -0.5], [1.0, 0.2]])
    model = TemporalMeanModel(gaussian(1.0), PositionEncoding("sinusoidal-additive"))
    enc = sinusoidal_encoding(np.arange(4.0), 2)
    keys, query = seq.tokens + enc[:3], seq.tokens[-1] + enc[3]
    w = np.exp(-((keys - query) ** 2).sum(axis=1) / 2.0)
    np.testing.assert_allclose(model.next_token(seq), w @ seq.tokens / w.sum(), rtol=1e-12)


def test_temporal_mean_without_a_visible_token_repeats_the_last_one():
    seq = Sequence([[1.0], [2.0], [5.0]])
    model = TemporalMeanModel(uniform(), PositionEncoding("window", delta=0.5))
    out = model.next_token(seq)
    np.testing.assert_array_equal(out, [5.0])
    assert not np.shares_memory(out, seq.tokens)


def test_temporal_mean_shifts_weights_over_kept_tokens_only():
    # the factor drops the last token, which sits on the query content; the
    # kept tokens' linear weights at h=0.01 all underflow
    model = TemporalMeanModel(
        gaussian(0.01), PositionEncoding("relative-factor", factor=lambda dt: float(dt >= 2))
    )
    out = model.next_token(Sequence([[0.0], [1.0], [0.4]]))
    np.testing.assert_array_equal(out, [0.0])
