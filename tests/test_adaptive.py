"""Adaptive-kernel tests: LOO bandwidth curves, simplex multi-kernel QP,
QKV training dynamics, multi-head reconstruction, and the gradcheck gate."""

import math

import numpy as np
import pytest

from locuskit import errors
from locuskit.adaptive import (
    QkvHead,
    QkvParams,
    finite_diff_gradcheck,
    fit_multikernel,
    fit_qkv,
    multihead_reconstruct,
    qkv_objective,
    qkv_reconstruct,
    tune_bandwidth,
)
from locuskit.estimators import Dataset
from locuskit.kernels import dirac, gaussian
from locuskit.synth import noisy_sine, toy_token_values


class TestTuneBandwidth:
    def test_constant_targets_smallest_h(self):
        data = Dataset(np.linspace(0, 1, 10), np.full(10, 3.0))
        res = tune_bandwidth("local-mean", data, grid=[0.5, 0.1, 1.0])
        assert res.h_star == 0.1
        assert res.loss_star == pytest.approx(0.0, abs=1e-20)

    def test_two_point_dataset_h_independent(self):
        data = Dataset([0.0, 1.0], [0.0, 1.0])
        res = tune_bandwidth("local-mean", data, grid=[0.1, 0.5, 2.0])
        losses = [l for _, l in res.curve]
        np.testing.assert_allclose(losses, losses[0])
        assert res.h_star == 0.1  # tie -> smaller h

    def test_noisy_sine_interior_minimum(self):
        x, y = noisy_sine(100, 0.1, rng_seed=42)
        data = Dataset(x, y)
        grid = np.geomspace(0.01, 2.0, 20)
        res = tune_bandwidth("local-mean", data, grid=grid)
        losses = np.array([l for _, l in res.curve])
        k = int(np.argmin(losses))
        assert 0 < k < len(grid) - 1
        assert losses[k] <= losses[0] and losses[k] <= losses[-1]
        assert res.h_star == pytest.approx(grid[k])

    def test_returned_loss_is_minimum_of_curve(self):
        x, y = noisy_sine(40, 0.2, rng_seed=1)
        data = Dataset(x, y)
        res = tune_bandwidth("local-mean", data, grid=np.geomspace(0.05, 1.0, 8))
        assert res.loss_star <= min(l for _, l in res.curve) + 1e-15

    def test_golden_section_bracket(self):
        x, y = noisy_sine(60, 0.1, rng_seed=2)
        data = Dataset(x, y)
        res = tune_bandwidth("local-mean", data, bracket=(0.01, 2.0))
        grid_res = tune_bandwidth("local-mean", data, grid=np.geomspace(0.01, 2.0, 40))
        assert res.loss_star <= grid_res.loss_star * 1.05

    def test_local_linear_and_kde_predictors_run(self):
        x, y = noisy_sine(25, 0.1, rng_seed=3)
        data = Dataset(x, y)
        r1 = tune_bandwidth("local-linear", data, grid=[0.2, 0.5])
        assert math.isfinite(r1.loss_star)
        r2 = tune_bandwidth("kde-loo", data, grid=[0.2, 0.5])
        assert math.isfinite(r2.loss_star)

    def test_all_empty(self):
        from locuskit.errors import AllEmptyNeighborhoods

        data = Dataset([[0.0], [100.0]], [0.0, 1.0])
        # the Gaussian leave-one-out density of each sample underflows to 0 at
        # h = 1e-3 -> EmptyNeighborhood -> every grid h scores inf -> error
        with pytest.raises(AllEmptyNeighborhoods):
            tune_bandwidth("kde-loo", data, grid=[1e-3])


class TestMultiKernel:
    def test_identical_kernels_uniform_tie(self):
        rng = np.random.default_rng(0)
        data = Dataset(rng.normal(size=(15, 1)), rng.normal(size=15))
        fit = fit_multikernel([gaussian(0.5), gaussian(0.5)], data)
        np.testing.assert_allclose(fit.weights, [0.5, 0.5], atol=1e-12)

    def test_perfect_kernel_takes_all_weight(self):
        # constant targets: every K_tilde y = y, residual 0 for any kernel;
        # instead build y fixed by one kernel but not the other
        rng = np.random.default_rng(1)
        X = rng.normal(size=(12, 1))
        y = np.full(12, 2.0)
        y_bad = X[:, 0] ** 2
        data = Dataset(X, X[:, 0] ** 2)
        good = dirac()  # K_tilde = I, residual exactly 0
        bad = gaussian(5.0)  # heavy smoothing, large residual
        fit = fit_multikernel([good, bad], data)
        assert fit.weights[0] >= 0.99

    def test_simplex_constraints_and_vertex_dominance(self):
        rng = np.random.default_rng(2)
        data = Dataset(rng.normal(size=(20, 1)), rng.normal(size=20))
        kernels = [gaussian(0.2), gaussian(1.0), gaussian(5.0)]
        fit = fit_multikernel(kernels, data)
        assert (fit.weights >= -1e-12).all()
        assert fit.weights.sum() == pytest.approx(1.0, abs=1e-10)
        # objective at solution <= objective at every vertex
        from locuskit.kernels import gram, normalize_rows

        Y = data.y
        for m, k in enumerate(kernels):
            S = normalize_rows(gram(k, data.X, data.X))
            vertex = float(((Y - S.values @ Y) ** 2).sum())
            assert fit.objective <= vertex + 1e-9

    def test_bikernel_interior_beats_vertices_on_noisy_data(self):
        x, y = noisy_sine(40, 0.3, rng_seed=3)
        data = Dataset(x, y)
        fit = fit_multikernel([gaussian(0.3), dirac()], data)
        # oracle: scan the 1-D objective over the simplex edge
        from locuskit.kernels import gram, normalize_rows

        S1 = normalize_rows(gram(gaussian(0.3), data.X, data.X)).values
        S2 = np.eye(40)
        r1 = y - S1 @ y
        r2 = y - S2 @ y
        ws = np.linspace(0, 1, 201)
        vals = [((w * r1 + (1 - w) * r2) ** 2).sum() for w in ws]
        assert fit.objective <= min(vals) + 1e-6
        assert fit.kkt_residual < 1e-6

    def test_needs_two_kernels(self):
        data = Dataset([[0.0], [1.0]], [0.0, 1.0])
        with pytest.raises(errors.InvalidParameter):
            fit_multikernel([gaussian(1.0)], data)


class TestQkv:
    def test_zero_features_uniform_attention_column_mean(self):
        V = toy_token_values()
        vg = qkv_objective("softmax", V, mask_diagonal=False)
        phi = np.zeros((6, 2))
        psi = np.zeros((6, 2))
        loss, _, _ = vg(phi, psi)
        # uniform attention: every reconstruction row is the column mean
        col_mean = V.mean(0)
        want = float(((V - col_mean) ** 2).sum())
        assert loss == pytest.approx(want, rel=1e-12)

    def test_identical_rows_zero_loss_everywhere(self):
        V = np.tile([1.5, -0.5], (5, 1))
        params, trace = fit_qkv(V, d=2, steps=20, lr=0.1, rng_seed=0)
        assert (trace <= 1e-12).all()

    def test_toy_training_halves_loss(self):
        V = toy_token_values()
        params, trace = fit_qkv(V, d=2, form="softmax", lr=0.1, steps=500, rng_seed=7)
        assert trace[-1] < 0.5 * trace[0]

    def test_linear_form_trains(self):
        V = toy_token_values()
        params, trace = fit_qkv(V, d=2, form="linear", lr=0.05, steps=300, rng_seed=7)
        assert trace[-1] < trace[0]
        assert np.isfinite(trace).all()

    def test_softmax_rows_sum_to_one_and_shift_invariant(self):
        rng = np.random.default_rng(4)
        V = rng.normal(size=(5, 3))
        params, _ = fit_qkv(V, d=2, steps=5, rng_seed=1)
        from locuskit.adaptive import _attention_matrix

        A = _attention_matrix("softmax", params.phi, params.psi, mask_diagonal=False)
        np.testing.assert_allclose(A.sum(1), 1.0, atol=1e-12)
        # adding a constant to all logits of a row leaves softmax unchanged:
        # realized by appending a constant feature to phi and matching 1s to psi
        phi_shift = np.hstack([params.phi, np.full((5, 1), 3.7)])
        psi_shift = np.hstack([params.psi, np.ones((5, 1))])
        scale = math.sqrt(params.phi.shape[1]) / math.sqrt(phi_shift.shape[1])
        A2 = _attention_matrix("softmax", phi_shift * 1 / scale, psi_shift * 1.0, False)
        # rescale so logits match: (phi/scale) psi^T / sqrt(d') = phi psi^T / sqrt(d) + const/row
        np.testing.assert_allclose(A2, A, atol=1e-10)

    def test_temporal_features_change_attention(self):
        V = toy_token_values()
        pos = np.linspace(0, 1, 6)[:, None]
        p1, t1 = fit_qkv(V, d=2, steps=50, rng_seed=2, temporal=pos)
        assert p1.phi.shape == (6, 3)
        assert np.isfinite(t1).all()

    def test_autoencoder_training_with_decoder(self):
        rng = np.random.default_rng(12)
        X = np.vstack([np.tile([1.0, 0.0, 1.0], (3, 1)), np.tile([0.0, 1.0, 0.0], (3, 1))])
        X = X + rng.normal(0, 0.01, X.shape)
        V = toy_token_values()
        params, trace = fit_qkv(
            V, d=2, form="softmax", lr=0.1, steps=400, rng_seed=3, decode_target=X
        )
        assert params.w is not None and params.w.shape == (3, 2)
        assert trace[-1] < trace[0]

    def test_learn_v_reaches_lower_loss(self):
        rng = np.random.default_rng(13)
        V = rng.normal(size=(6, 2))
        _, fixed = fit_qkv(V, d=2, steps=300, lr=0.1, rng_seed=4)
        params, learned = fit_qkv(V, d=2, steps=300, lr=0.1, rng_seed=4, learn_v=True)
        assert learned[-1] <= fixed[-1] + 1e-9
        assert not np.array_equal(params.v, V)

    def test_divergence_raises_nonfinite(self):
        # softmax losses are bounded, so divergence needs parameter overflow
        V = toy_token_values() * 10
        with np.errstate(all="ignore"):
            with pytest.raises(errors.NonFiniteLoss):
                fit_qkv(V, d=2, form="softmax", lr=1e200, steps=20, rng_seed=0)


class TestMultihead:
    @staticmethod
    def _head(rng, n=4, d=2, q=3, p=3):
        return QkvHead(
            phi=rng.normal(size=(n, d)),
            psi=rng.normal(size=(n, d)),
            v=rng.normal(size=(n, q)),
            w=rng.normal(size=(p, q)),
        )

    def test_identical_heads_equal_single(self):
        rng = np.random.default_rng(5)
        h = self._head(rng)
        one = multihead_reconstruct(QkvParams(heads=(h,), form="softmax"))
        three = multihead_reconstruct(QkvParams(heads=(h, h, h), form="softmax"))
        np.testing.assert_allclose(one, three, atol=1e-14)

    def test_cancelling_decoders_zero_output(self):
        rng = np.random.default_rng(6)
        h1 = self._head(rng)
        h2 = QkvHead(phi=h1.phi, psi=h1.psi, v=h1.v, w=-h1.w)
        out = multihead_reconstruct(QkvParams(heads=(h1, h2), form="softmax"))
        np.testing.assert_allclose(out, 0.0, atol=1e-14)

    def test_two_heads_match_hand_average(self):
        rng = np.random.default_rng(7)
        h1, h2 = self._head(rng), self._head(rng)
        from locuskit.adaptive import _attention_matrix

        want = 0.5 * (
            _attention_matrix("softmax", h1.phi, h1.psi, False) @ h1.v @ h1.w.T
            + _attention_matrix("softmax", h2.phi, h2.psi, False) @ h2.v @ h2.w.T
        )
        got = multihead_reconstruct(QkvParams(heads=(h1, h2), form="softmax"))
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_shape_mismatch(self):
        rng = np.random.default_rng(8)
        h1 = self._head(rng, p=3)
        h2 = self._head(rng, p=4)
        with pytest.raises(errors.ShapeMismatch):
            multihead_reconstruct(QkvParams(heads=(h1, h2), form="softmax"))


class TestGradcheck:
    def test_quadratic_exact(self):
        A = np.array([[2.0, 0.3], [0.3, 1.0]])

        def vg(x):
            return float(x @ A @ x), 2.0 * A @ x

        err = finite_diff_gradcheck(vg, [np.array([0.4, -1.2])], eps=1e-5)
        assert err < 1e-9

    def test_constant_objective(self):
        def vg(x):
            return 1.0, np.zeros_like(x)

        err = finite_diff_gradcheck(vg, [np.ones(3)], eps=1e-5)
        assert err == 0.0

    @pytest.mark.parametrize("form", ["softmax", "linear"])
    @pytest.mark.parametrize("masked", [True, False])
    def test_qkv_objectives_gate(self, form, masked):
        # gate: every differentiable objective in the module passes before
        # any training-dependent test is trusted
        rng = np.random.default_rng(9)
        V = rng.normal(size=(5, 2))
        phi = rng.uniform(-0.5, 0.5, size=(5, 2))
        psi = rng.uniform(-0.5, 0.5, size=(5, 2))
        vg = qkv_objective(form, V, mask_diagonal=masked)
        err = finite_diff_gradcheck(vg, [phi, psi], eps=1e-5)
        assert err < 1e-4

    @pytest.mark.parametrize("form", ["softmax", "linear"])
    @pytest.mark.parametrize("learn_v", [True, False])
    def test_qkv_autoencoder_objectives_gate(self, form, learn_v):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(5, 3))
        V = rng.normal(size=(5, 2))
        phi = rng.uniform(-0.5, 0.5, size=(5, 2))
        psi = rng.uniform(-0.5, 0.5, size=(5, 2))
        w = rng.uniform(-0.5, 0.5, size=(3, 2))
        vg = qkv_objective(form, V, learn_v=learn_v, decode_target=X)
        params = [phi, psi] + ([V.copy()] if learn_v else []) + [w]
        err = finite_diff_gradcheck(vg, params, eps=1e-5)
        assert err < 1e-4

    def test_qkv_learn_v_self_objective_gate(self):
        rng = np.random.default_rng(11)
        V = rng.normal(size=(5, 2))
        phi = rng.uniform(-0.5, 0.5, size=(5, 2))
        psi = rng.uniform(-0.5, 0.5, size=(5, 2))
        vg = qkv_objective("softmax", learn_v=True)
        err = finite_diff_gradcheck(vg, [phi, psi, V], eps=1e-5)
        assert err < 1e-4

    def test_eps_bounds(self):
        with pytest.raises(errors.InvalidParameter):
            finite_diff_gradcheck(lambda x: (0.0, x), [np.ones(2)], eps=1e-2)


def test_qkv_reconstruct_inference_path():
    V = toy_token_values()
    params, _ = fit_qkv(V, d=2, steps=200, lr=0.1, rng_seed=7)
    recon = qkv_reconstruct(params)
    assert recon.shape == V.shape
    assert np.isfinite(recon).all()


def test_qkv_linear_learn_v_self_objective_gate():
    rng = np.random.default_rng(14)
    V = rng.normal(size=(5, 2))
    phi = rng.uniform(-0.5, 0.5, size=(5, 2))
    psi = rng.uniform(-0.5, 0.5, size=(5, 2))
    vg = qkv_objective("linear", learn_v=True)
    err = finite_diff_gradcheck(vg, [phi, psi, V], eps=1e-5)
    assert err < 1e-4


def test_multikernel_hollow_kernel_with_empty_rows():
    # the hollow neighbourhood kernel leaves the two isolated rows empty;
    # an empty row of K_tilde is zero, so its residual is y itself
    from locuskit.kernels import HollowKernel, gram, neighborhood, normalize_rows

    data = Dataset([[0.0], [0.2], [0.3], [3.0], [6.0]], [1.0, -1.0, 0.5, 2.0, -2.0])
    kernels = [HollowKernel(neighborhood(0.5)), gaussian(1.0)]
    fit = fit_multikernel(kernels, data)
    R = np.stack(
        [data.y - normalize_rows(gram(k, data.X, data.X)).values @ data.y for k in kernels], axis=1
    )
    assert normalize_rows(gram(kernels[0], data.X, data.X)).empty_rows.tolist() == [3, 4]
    assert fit.objective == pytest.approx(fit.weights @ R.T @ R @ fit.weights, rel=1e-12)
    ws = np.linspace(0, 1, 201)
    assert fit.objective <= min(((w * R[:, 0] + (1 - w) * R[:, 1]) ** 2).sum() for w in ws) + 1e-9
