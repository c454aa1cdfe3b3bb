"""Local predictor tests: frozen hand-oracle values plus the module's
structural invariants (convex hull, scale invariance, equivalence facts)."""

import math

import numpy as np
import pytest

from locuskit import errors
from locuskit.adaptive import _loo_local_linear
from locuskit.estimators import (
    Dataset,
    LocalPcaEncoder,
    centerless_lazy_responsibilities,
    inference_precompute,
    inference_predict,
    knn_predict,
    lazy_transform,
    local_centerless_classify,
    local_fit,
    local_linear_predict,
    local_linear_transform,
    local_mean_predict,
    local_mode_predict,
    local_pca,
    loo_error,
    monte_carlo_local_mean,
    self_kernel_local_mean,
)
from locuskit.kernels import (
    GaussianKernel,
    SelfKernel,
    derive_kernel,
    dirac,
    epanechnikov,
    feature_kernel,
    gaussian,
    pairwise_sq_dists,
    uniform,
)
from per_pair import pairwise, sq_euclid

W2 = math.exp(-2.0)  # gaussian(1) weight at distance 2


class TestLocalFit:
    def test_squared_uniform_is_arithmetic_mean(self):
        data = Dataset([[0.0], [1.0]], [1.0, 3.0])
        res = local_fit("squared", uniform(), data, [0.5])
        assert res.theta == pytest.approx(2.0)
        assert res.normalized and res.equivalent_weights.sum() == pytest.approx(1.0)

    def test_zero_one_dirac_returns_sample_label(self):
        data = Dataset([[0.0], [1.0], [2.0]], np.array([2, 0, 1]))
        res = local_fit("zero-one", dirac(), data, [2.0])
        assert res.theta == 1
        assert res.loss_value == pytest.approx(0.0)

    def test_squared_gaussian_weighted_mean(self):
        data = Dataset([0.0, 2.0], [0.0, 1.0])
        res = local_fit("squared", gaussian(1.0), data, [0.0])
        assert res.theta == pytest.approx(W2 / (1 + W2), rel=1e-12)
        assert res.theta == pytest.approx(0.11920, abs=5e-6)

    def test_squared_matches_local_mean_everywhere(self):
        rng = np.random.default_rng(0)
        data = Dataset(rng.normal(size=(12, 2)), rng.normal(size=12))
        for _ in range(10):
            q = rng.normal(size=2)
            fit = local_fit("squared", gaussian(0.8), data, q)
            assert fit.theta == pytest.approx(
                local_mean_predict(gaussian(0.8), data, q), abs=1e-14
            )

    def test_distance_loss_is_weighted_geometric_median(self):
        # 1-D geometric median under uniform weights = weighted median of y
        data = Dataset([[0.0], [1.0], [2.0]], [0.0, 0.0, 10.0])
        res = local_fit("distance", uniform(), data, [1.0])
        assert res.converged
        assert res.theta == pytest.approx(0.0, abs=1e-6)

    def test_nll_gaussian_model_equals_weighted_mean(self):
        class GaussMean:
            def logpdf(self, x, theta):
                return -0.5 * float((x[0] - theta[0]) ** 2)

            def grad_theta(self, x, theta):
                return np.array([x[0] - theta[0]])

        rng = np.random.default_rng(1)
        X = rng.normal(size=(8, 1))
        data = Dataset(X, X[:, 0])
        res = local_fit(
            "nll", gaussian(1.0), data, [0.3], model=GaussMean(), theta0=[0.0], step=0.05
        )
        want = local_mean_predict(gaussian(1.0), Dataset(X, X[:, 0]), [0.3])
        assert res.converged
        assert res.theta[0] == pytest.approx(want, abs=1e-6)


class TestLocalMean:
    def test_dirac_reproduces_sample(self):
        data = Dataset([[0.0], [1.0], [2.0]], [5.0, 6.0, 7.0])
        assert local_mean_predict(dirac(), data, [1.0]) == 6.0

    def test_uniform_gives_global_mean(self):
        data = Dataset([[0.0], [1.0], [5.0]], [1.0, 2.0, 9.0])
        assert local_mean_predict(uniform(), data, [100.0]) == pytest.approx(4.0)

    def test_gaussian_weighted_value(self):
        data = Dataset([0.0, 2.0], [0.0, 1.0])
        assert local_mean_predict(gaussian(1.0), data, [0.0]) == pytest.approx(
            0.11920, abs=5e-6
        )

    def test_empty_neighborhood_policies(self):
        data = Dataset([[0.0], [1.0]], [3.0, 4.0])
        with pytest.raises(errors.EmptyNeighborhood):
            local_mean_predict(epanechnikov(0.5), data, [50.0])
        assert local_mean_predict(
            epanechnikov(0.5), data, [50.0], fallback="nearest-neighbor"
        ) == 4.0

    @pytest.mark.parametrize("query", [[0.0], [50.0]], ids=["weighted", "empty"])
    def test_unknown_fallback_is_rejected_before_any_weight(self, query, monkeypatch):
        def no_weights(*args, **kwargs):
            raise AssertionError("weights computed")

        monkeypatch.setattr("locuskit.estimators.local_reduce", no_weights)
        data = Dataset([[0.0], [1.0]], [3.0, 4.0])
        with pytest.raises(errors.InvalidParameter, match="unknown fallback 'bogus'"):
            local_mean_predict(epanechnikov(0.5), data, query, fallback="bogus")

    def test_midway_gaussian_query_does_not_underflow(self):
        # every weight underflows to 0 in the linear domain (exp(-1250))
        data = Dataset([[0.0], [1.0]], [0.0, 1.0])
        assert local_mean_predict(gaussian(0.01), data, [0.5]) == 0.5

    def test_convex_hull_bound_property(self):
        rng = np.random.default_rng(2)
        for kernel in (gaussian(0.5), epanechnikov(3.0), uniform()):
            data = Dataset(rng.normal(size=(15, 3)), rng.normal(size=(15, 2)))
            for _ in range(10):
                q = rng.normal(size=3)
                try:
                    pred = local_mean_predict(kernel, data, q)
                except errors.EmptyNeighborhood:
                    continue
                assert (pred >= data.y.min(0) - 1e-12).all()
                assert (pred <= data.y.max(0) + 1e-12).all()

    def test_kernel_scale_invariance(self):
        from locuskit.kernels import MultiKernel

        rng = np.random.default_rng(3)
        data = Dataset(rng.normal(size=(10, 2)), rng.normal(size=10))
        base = gaussian(0.7)
        scaled = MultiKernel([37.5], [base])
        for _ in range(8):
            q = rng.normal(size=2)
            assert local_mean_predict(base, data, q) == pytest.approx(
                local_mean_predict(scaled, data, q), rel=1e-12
            )


class TestLazyTransform:
    def test_dirac_identity(self):
        data = Dataset([[0.0], [1.0], [2.0]], [5.0, 6.0, 7.0])
        out = lazy_transform(dirac(), data, data.X)
        np.testing.assert_allclose(out[:, 0], data.y)

    def test_uniform_rows_all_mean(self):
        data = Dataset([[0.0], [1.0], [2.0]], [3.0, 5.0, 7.0])
        out = lazy_transform(uniform(), data, data.X)
        np.testing.assert_allclose(out[:, 0], [5.0, 5.0, 5.0])

    def test_matches_pointwise_loop(self):
        data = Dataset([0.0, 1.0, 2.5], [1.0, -1.0, 4.0])
        out = lazy_transform(gaussian(1.0), data, data.X)
        loop = [local_mean_predict(gaussian(1.0), data, x) for x in data.X]
        np.testing.assert_allclose(out[:, 0], loop, atol=1e-14)

    def test_midway_gaussian_query_does_not_underflow(self):
        data = Dataset([[0.0], [1.0]], [0.0, 1.0])
        out = lazy_transform(gaussian(0.01), data, [[0.5], [0.0]])
        np.testing.assert_array_equal(out, [[0.5], [0.0]])

    def test_difference_kernel_raises_desmoothing(self):
        # gaussian(1) - gaussian(0.5) is >= 0 everywhere, yet still desmoothing
        data = Dataset([[0.0], [1.0], [3.0]], [0.0, 1.0, 2.0])
        dog = derive_kernel("difference", gaussian(1.0), gaussian(0.5))
        with pytest.raises(errors.DesmoothingInput):
            lazy_transform(dog, data, data.X)


class TestLooError:
    def test_identical_points_zero(self):
        data = Dataset([[1.0], [1.0]], [2.0, 2.0])
        assert loo_error(gaussian(1.0), data) == pytest.approx(0.0, abs=1e-14)

    def test_two_point_uniform_hand_value(self):
        data = Dataset([0.0, 1.0], [0.0, 1.0])
        assert loo_error(uniform(), data) == pytest.approx(2.0)

    def test_matches_bruteforce_hollow_oracle(self):
        X = np.array([0.0, 1.0, 2.0])
        y = np.array([1.0, 4.0, -2.0])
        data = Dataset(X, y)
        total = 0.0
        for i in range(3):
            ws = [math.exp(-((X[i] - X[j]) ** 2) / 2) for j in range(3) if j != i]
            ys = [y[j] for j in range(3) if j != i]
            pred = sum(w * v for w, v in zip(ws, ys)) / sum(ws)
            total += (y[i] - pred) ** 2
        assert loo_error(gaussian(1.0), data) == pytest.approx(total, rel=1e-12)

    def test_empty_offdiagonal_row(self):
        data = Dataset([[0.0], [100.0], [101.0]], [0.0, 1.0, 2.0])
        with pytest.raises(errors.EmptyNeighborhood):
            loo_error(epanechnikov(0.5), data)

    def test_tiny_gaussian_bandwidth_is_finite(self):
        # at h=1e-3 each held-out point takes its nearest neighbour's target:
        # 0 -> 1, 1 -> 0 and 3 -> 1, so the errors are 1 + 1 + 4
        data = Dataset([0.0, 1.0, 3.0], [0.0, 1.0, 3.0])
        assert loo_error(gaussian(1e-3), data) == 6.0

    def test_only_the_diagonal_is_dropped(self):
        # a duplicate point still counts: rows 0 and 1 predict each other's
        # target, and row 2 averages both (equidistant): 4 + 4 + (7 - 2)^2
        data = Dataset([0.0, 0.0, 5.0], [1.0, 3.0, 7.0])
        assert loo_error(gaussian(1e-3), data) == 33.0


class TestLocalMode:
    def test_dirac_returns_label(self):
        data = Dataset([[0.0], [1.0]], np.array([1, 0]))
        cls, _ = local_mode_predict(dirac(), data, [0.0])
        assert cls == 1

    def test_uniform_majority(self):
        data = Dataset([[0.0], [1.0], [2.0]], np.array([1, 1, 0]))
        cls, delta = local_mode_predict(uniform(), data, [9.0])
        assert cls == 1
        np.testing.assert_allclose(delta, [1.0, 2.0])

    def test_three_weight_hand_sum(self):
        data = Dataset([0.0, 1.0, 2.0], np.array([0, 0, 1]))
        cls, delta = local_mode_predict(gaussian(1.0), data, [1.9])
        w = [math.exp(-((1.9 - x) ** 2) / 2) for x in (0.0, 1.0, 2.0)]
        np.testing.assert_allclose(delta, [w[0] + w[1], w[2]], rtol=1e-12)
        assert cls == 1

    def test_tie_breaks_to_lowest_class(self):
        data = Dataset([[0.0], [2.0]], np.array([1, 0]))
        cls, _ = local_mode_predict(uniform(), data, [1.0])
        assert cls == 0


class TestKnn:
    def test_k_equals_n_is_uniform(self):
        rng = np.random.default_rng(4)
        data = Dataset(rng.normal(size=(9, 2)), rng.normal(size=9))
        q = rng.normal(size=2)
        assert knn_predict(9, data, q) == pytest.approx(
            local_mean_predict(uniform(), data, q)
        )
        labels = Dataset(data.X, rng.integers(0, 3, 9))
        assert knn_predict(9, labels, q) == local_mode_predict(uniform(), labels, q)[0]

    def test_k1_nearest_target(self):
        data = Dataset([[0.0], [1.0], [10.0]], [5.0, 6.0, 7.0])
        assert knn_predict(1, data, [0.9]) == 6.0

    def test_two_nearest_mean(self):
        data = Dataset([0.0, 1.0, 10.0], [0.0, 1.0, 100.0])
        assert knn_predict(2, data, [0.4]) == pytest.approx(0.5)

    def test_weighted_inside_neighbor_set(self):
        data = Dataset([0.0, 1.0, 10.0], [0.0, 1.0, 100.0])
        pred = knn_predict(2, data, [0.0], weight_kernel=gaussian(1.0))
        w0, w1 = 1.0, math.exp(-0.5)
        assert pred == pytest.approx(w1 / (w0 + w1), rel=1e-12)

    def test_bad_k(self):
        data = Dataset([[0.0]], [1.0])
        with pytest.raises(errors.InvalidParameter):
            knn_predict(0, data, [0.0])
        with pytest.raises(errors.InvalidParameter):
            knn_predict(2, data, [0.0])

    @pytest.mark.parametrize("k", [1.5, "1", True])
    def test_a_non_integral_k_is_rejected_not_truncated(self, k):
        with pytest.raises(errors.InvalidParameter, match="must be an integer"):
            knn_predict(k, Dataset([[0.0], [1.0]], [1.0, 2.0]), [0.0])

    def test_an_integral_float_k_is_read_as_an_int(self):
        assert knn_predict(2.0, Dataset([[0.0], [1.0], [5.0]], [1.0, 2.0, 9.0]), [0.0]) == 1.5


class TestLocalLinear:
    def test_affine_data_exact(self):
        X = np.array([0.0, 1.0, 2.0, 3.5])
        data = Dataset(X, 2.0 * X)
        for q in (0.2, 1.7, 5.0):
            pred, L, jit = local_linear_predict(gaussian(1.0), data, [q], lam=0.0)
            assert not jit
            assert pred == pytest.approx(2.0 * q, abs=1e-9)

    def test_single_support_point_jitter_or_ridge(self):
        data = Dataset([[0.0], [1.0]], [3.0, 8.0])
        pred, _, jit = local_linear_predict(dirac(), data, [1.0], lam=0.0)
        assert jit
        assert pred == pytest.approx(8.0, abs=1e-4)
        pred_r, _, jit_r = local_linear_predict(dirac(), data, [1.0], lam=1e-6)
        assert not jit_r
        assert pred_r == pytest.approx(8.0, abs=1e-3)

    @pytest.mark.parametrize("shift", [0.0, 2000.0])
    def test_numerically_singular_design_is_jittered(self, shift):
        # every sample sits at 1.5 + shift: cond(A) ~ 1e16, which LU alone solves without complaint
        data = Dataset([[1.5 + shift]] * 3, [1.0, 1.0, 1.0])
        pred, L, jit = local_linear_predict(gaussian(0.7), data, [shift])
        assert jit
        # the flagged row falls back to the local mean w / sum(w), so a constant target of 1 predicts 1
        assert pred == pytest.approx(1.0, rel=1e-12)
        assert L.sum() == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("lam", [1e-3, 10.0])
    def test_ridge_leaves_the_intercept_unpenalised(self, lam):
        # only the slopes are shrunk, so a constant target is fit exactly and every L is a local mean
        rng = np.random.default_rng(6)
        data = Dataset(rng.normal(size=(25, 2)), np.full(25, 4.0))
        for q in rng.normal(size=(5, 2)):
            pred, L, jit = local_linear_predict(gaussian(1.0), data, q, lam=lam)
            assert not jit
            assert pred == pytest.approx(4.0, rel=1e-12)
            assert L.sum() == pytest.approx(1.0, rel=1e-12)

    def test_ridge_too_small_to_help_falls_back_to_the_local_mean(self):
        data = Dataset([[1.5]] * 3, [1.0, 2.0, 3.0])
        pred, _, jit = local_linear_predict(gaussian(0.7), data, [0.0], lam=1e-300)
        assert jit
        assert pred == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.parametrize("lam", [-1.0, math.nan, math.inf])
    def test_bad_ridge_penalty_rejected(self, lam):
        data = Dataset([[0.0], [1.0], [2.0]], [0.0, 1.0, 2.0])
        with pytest.raises(errors.InvalidParameter, match="finite and >= 0"):
            local_linear_predict(gaussian(1.0), data, [1.0], lam=lam)

    @pytest.mark.parametrize("lam", [0.0, 0.1])
    def test_non_finite_weights_raise(self, lam):
        class NanAtFirst(GaussianKernel):
            def gram_values(self, rows, cols):
                W = super().gram_values(rows, cols)
                W[0, 0] = np.nan
                return W

        x = np.linspace(0.0, 1.0, 10)
        with pytest.raises(errors.SingularSystem, match="not finite"):
            local_linear_transform(NanAtFirst(1.0), Dataset(x, x), x, lam=lam)

    @pytest.mark.parametrize("lam", [0.0, 0.1])
    @pytest.mark.parametrize("shift", [2000.0, 1e6])
    def test_translating_x_moves_no_fit_to_the_jitter(self, shift, lam):
        # x as years (+2000) or far out (+1e6): uncentred, the design's cond is ~1e13 at +2000; fits use x - mean(x)
        rng = np.random.default_rng(3)
        x = np.sort(rng.uniform(0.0, 10.0, 40))
        preds, jittered = local_linear_transform(gaussian(1.0), Dataset(x, np.sin(x)), x, lam=lam)
        moved, moved_jittered = local_linear_transform(
            gaussian(1.0), Dataset(x + shift, np.sin(x)), x + shift, lam=lam
        )
        assert not jittered.any() and not moved_jittered.any()
        np.testing.assert_allclose(moved, preds, rtol=0, atol=1e-9)

    def test_matches_independent_wls_solve(self):
        X = np.array([0.0, 1.0, 2.0])
        y = np.array([0.0, 1.0, 4.0])
        data = Dataset(X, y)
        q = 1.0
        w = np.exp(-((X - q) ** 2) / 2)
        Xt = np.stack([np.ones(3), X], 1)
        A = Xt.T @ (w[:, None] * Xt)
        b = Xt.T @ (w * y)
        theta = np.linalg.solve(A, b)
        want = theta[0] + theta[1] * q
        pred, L, _ = local_linear_predict(gaussian(1.0), data, [q], lam=0.0)
        assert pred == pytest.approx(want, rel=1e-12)

    def test_equivalent_weights_reproduce_prediction(self):
        rng = np.random.default_rng(5)
        data = Dataset(rng.normal(size=(20, 3)), rng.normal(size=20))
        for _ in range(25):
            q = rng.normal(size=3)
            pred, L, _ = local_linear_predict(gaussian(1.0), data, q, lam=0.0)
            assert pred == pytest.approx(float(L @ data.y), abs=1e-10)
            assert L.sum() == pytest.approx(1.0, abs=1e-8)


class TestLocalLinearSignRule:
    DOG = derive_kernel("difference", gaussian(0.6), gaussian(0.3))
    FITS = {
        "transform": lambda k, data: local_linear_transform(k, data, data.X),
        "predict": lambda k, data: local_linear_predict(k, data, [0.5]),
        "loo": lambda k, data: _loo_local_linear(k, 0.0, data),
    }

    @staticmethod
    def linear_kernel():
        ident = lambda x: np.asarray(x, dtype=float)
        return feature_kernel(ident, ident, "dot")

    @pytest.mark.parametrize("fit", list(FITS))
    def test_desmoothing_kernel_raises_before_any_gram(self, fit, monkeypatch):
        calls = []
        original = GaussianKernel.gram_values

        def counting(self, rows, cols):
            calls.append(len(rows))
            return original(self, rows, cols)

        monkeypatch.setattr(GaussianKernel, "gram_values", counting)
        x = np.linspace(0.0, 1.0, 10)
        with pytest.raises(errors.DesmoothingInput, match="desmoothing or negative"):
            self.FITS[fit](self.DOG, Dataset(x, np.sin(x)))
        assert calls == []

    @pytest.mark.parametrize("fit", list(FITS))
    def test_signed_kernel_with_negative_weights_raises(self, fit):
        x = np.linspace(-1.0, 1.0, 10)  # x . y < 0 across the origin
        with pytest.raises(errors.DesmoothingInput, match="desmoothing or negative"):
            self.FITS[fit](self.linear_kernel(), Dataset(x, x**2))

    @pytest.mark.parametrize("fit", list(FITS))
    def test_signed_kernel_without_negative_weights_fits(self, fit):
        x = np.linspace(0.5, 1.5, 10)  # every x . y > 0, and the data are linear, so every fit is exact
        data = Dataset(x, 2.0 * x + 1.0)
        out = self.FITS[fit](self.linear_kernel(), data)
        if fit == "loo":
            assert out[0] < 1e-20
        else:
            np.testing.assert_allclose(out[0], (2.0 * x + 1.0) if fit == "transform" else 2.0, rtol=1e-12)


class TestSelfKernelLocalMean:
    def test_constant_y_factor_reduces_to_plain_mean(self):
        rng = np.random.default_rng(6)
        data = Dataset(rng.normal(size=(10, 1)), rng.normal(size=10))
        k = SelfKernel(gaussian(1.0), uniform())
        res = self_kernel_local_mean(k, data, [0.2])
        assert res.converged and res.iterations == 1
        assert res.value == pytest.approx(local_mean_predict(gaussian(1.0), data, [0.2]))

    def test_constant_targets_fixed_immediately(self):
        data = Dataset([[0.0], [1.0], [2.0]], [4.0, 4.0, 4.0])
        k = SelfKernel(gaussian(1.0), gaussian(0.5))
        res = self_kernel_local_mean(k, data, [1.0])
        assert res.converged
        assert res.value == pytest.approx(4.0)

    def test_matches_scripted_fixed_point_loop(self):
        X = np.array([[0.0], [0.1], [0.2]])
        y = np.array([0.0, 0.0, 1.0])
        data = Dataset(X, y)
        hx = hy = 0.3
        k = SelfKernel(gaussian(hx), gaussian(hy))
        q = np.array([0.05])
        res = self_kernel_local_mean(k, data, q, max_iter=200, tol=1e-12)
        wx = np.exp(-((X[:, 0] - q[0]) ** 2) / (2 * hx * hx))
        cur = float(wx @ y / wx.sum())
        for _ in range(res.iterations):
            wy = np.exp(-((y - cur) ** 2) / (2 * hy * hy))
            cur = float((wx * wy) @ y / (wx * wy).sum())
        assert res.value == pytest.approx(cur, abs=1e-12)
        plain = local_mean_predict(gaussian(hx), data, q)
        assert res.value < plain  # sharpened toward the dominant pair at 0


class TestInference:
    def test_one_hot_features_reproduce_sample(self):
        X = np.array([[0.0], [1.0], [2.0]])
        y = np.array([4.0, 5.0, 6.0])
        data = Dataset(X, y)

        def onehot(x):
            return (np.abs(X[:, 0] - np.asarray(x).ravel()[0]) < 1e-9).astype(float)

        rules = inference_precompute(onehot, data)
        for i in range(3):
            assert inference_predict(onehot, rules, X[i]) == pytest.approx(y[i])

    def test_constant_features_global_mean(self):
        data = Dataset([[0.0], [1.0]], [2.0, 4.0])
        one = lambda x: np.array([1.0])
        rules = inference_precompute(one, data)
        assert inference_predict(one, rules, [7.0]) == pytest.approx(3.0)

    def test_factorized_agreement_with_dense_kernel(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(4, 2))
        y = rng.normal(size=4)
        data = Dataset(X, y)
        Wp = rng.uniform(0.1, 1.0, size=(2, 2))
        Wq = rng.uniform(0.1, 1.0, size=(2, 2))
        phi = lambda x: np.exp(Wp @ np.asarray(x, float).ravel())
        psi = lambda x: np.exp(Wq @ np.asarray(x, float).ravel())
        rules = inference_precompute(psi, data)
        from locuskit.kernels import feature_kernel

        k = feature_kernel(phi, psi, "dot")
        for _ in range(10):
            q = rng.normal(size=2)
            assert inference_predict(phi, rules, q) == pytest.approx(
                local_mean_predict(k, data, q), abs=1e-10
            )

    def test_zero_denominator(self):
        data = Dataset([[0.0]], [1.0])
        zero = lambda x: np.array([0.0])
        rules = inference_precompute(zero, data)
        with pytest.raises(errors.ZeroDenominator):
            inference_predict(zero, rules, [0.0])


class TestCenterless:
    def test_query_on_class_sample_dirac(self):
        data = Dataset([[0.0], [1.0]], np.array([0, 1]))
        cls, delta = local_centerless_classify(dirac(), pairwise(sq_euclid), data, [0.0])
        assert cls == 0
        assert delta[0] == pytest.approx(0.0)

    def test_two_singletons_nearer_wins(self):
        data = Dataset([[1.0], [3.0]], np.array([0, 1]))
        cls, _ = local_centerless_classify(uniform(), pairwise(sq_euclid), data, [0.0])
        assert cls == 0

    def test_matches_literal_double_loop_oracle(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(5, 2))
        y = np.array([0, 0, 1, 1, 1])
        data = Dataset(X, y)
        q = rng.normal(size=2)
        k = gaussian(1.0)
        w = np.array([k.eval(q, xi) for xi in X])
        want = []
        for c in (0, 1):
            idx = np.flatnonzero(y == c)
            tot = w[idx].sum()
            first = -sum(w[i] * sq_euclid(q, X[i]) for i in idx) / tot
            disp = sum(
                w[i] * w[j] * sq_euclid(X[i], X[j]) for i in idx for j in idx
            ) / tot**2
            want.append(first + disp)
        cls, delta = local_centerless_classify(k, pairwise(sq_euclid), data, q, with_dispersion=True)
        np.testing.assert_allclose(delta, want, rtol=1e-12)
        assert cls == int(np.argmax(want))

    def test_empty_class_scores_minus_inf(self):
        data = Dataset([[0.0], [50.0]], np.array([0, 1]))
        cls, delta = local_centerless_classify(
            epanechnikov(1.0), pairwise(sq_euclid), data, [0.1]
        )
        assert cls == 0 and delta[1] == -np.inf

    def test_distance_called_once_per_point_set(self):
        rng = np.random.default_rng(12)
        data = Dataset(rng.normal(size=(30, 2)), np.repeat([0, 1, 2], 10))
        q = rng.normal(size=2)
        calls = []

        def d(A, B):
            calls.append((A.shape, B.shape))
            return pairwise_sq_dists(A, B)

        got = local_centerless_classify(gaussian(1.0), d, data, q, with_dispersion=True)
        want = local_centerless_classify(gaussian(1.0), pairwise(sq_euclid), data, q, with_dispersion=True)
        assert calls == [((1, 2), (30, 2))] + [((10, 2), (10, 2))] * 3
        assert got[0] == want[0]
        np.testing.assert_array_equal(got[1], want[1])

    def test_per_pair_distance_rejected_by_shape(self):
        data = Dataset([[0.0], [1.0]], np.array([0, 1]))
        with pytest.raises(errors.ShapeMismatch, match=r"pairwise \(1, 2\).*got shape \(\)"):
            local_centerless_classify(uniform(), sq_euclid, data, [0.0])

    def test_non_finite_distance_rejected(self):
        data = Dataset([[0.0], [1.0]], np.array([0, 1]))
        with pytest.raises(errors.DomainError, match="non-finite"):
            local_centerless_classify(uniform(), lambda A, B: np.full((len(A), len(B)), np.nan), data, [0.0])

    def test_lazy_soft_form_rows_stochastic(self):
        rng = np.random.default_rng(9)
        K = rng.random((6, 6)) + 0.05
        D = rng.random((6, 6))
        R = np.eye(3)[rng.integers(0, 3, 6)]
        out = centerless_lazy_responsibilities(K, D, R)
        np.testing.assert_allclose(out.sum(1), 1.0, atol=1e-12)
        assert (out >= 0).all()


class TestLocalPca:
    def test_line_data_reconstructs_exactly(self):
        t = np.linspace(-1, 1, 12)
        X = np.stack([t, 2.0 * t], 1)
        data = Dataset(X)
        enc = LocalPcaEncoder(gaussian(1.0), data, 1)
        for x in X:
            np.testing.assert_allclose(enc.reconstruct(x), x, atol=1e-10)

    def test_symmetric_pair_axis(self):
        X = np.array([[1.0, 1.0], [-1.0, -1.0]])
        b = local_pca(gaussian(1.0), Dataset(X), [0.0, 0.0], 1)
        axis = np.array([1.0, 1.0]) / math.sqrt(2)
        np.testing.assert_allclose(np.abs(b.V[:, 0]), np.abs(axis), atol=1e-12)
        np.testing.assert_allclose(b.mu, [0.0, 0.0], atol=1e-12)

    def test_uniform_kernel_equals_global_pca(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(30, 4))
        data = Dataset(X)
        b = local_pca(uniform(), data, rng.normal(size=4), 2)
        Xc = X - X.mean(0)
        _, _, Vt = np.linalg.svd(Xc, full_matrices=False)
        got = np.abs(b.V.T @ Vt[:2].T)
        np.testing.assert_allclose(got, np.eye(2), atol=1e-8)

    def test_orthonormal_columns(self):
        rng = np.random.default_rng(11)
        data = Dataset(rng.normal(size=(20, 5)))
        b = local_pca(gaussian(1.0), data, rng.normal(size=5), 3)
        np.testing.assert_allclose(b.V.T @ b.V, np.eye(3), atol=1e-10)

    def test_rank_deficient(self):
        data = Dataset(np.zeros((4, 3)) + np.array([1.0, 2.0, 3.0]))
        with pytest.raises(errors.RankDeficient):
            local_pca(gaussian(1.0), data, [1.0, 2.0, 3.0], 1)


class TestMonteCarlo:
    def test_dirac_exact_for_any_n(self):
        data = Dataset([[0.0], [1.0]], [5.0, 9.0])
        assert monte_carlo_local_mean(dirac(), data, [1.0], 3, rng_seed=0) == 9.0

    def test_two_equal_weights_clt_bound(self):
        data = Dataset([[0.0], [2.0]], [0.0, 1.0])
        n = 100_000
        est = monte_carlo_local_mean(uniform(), data, [1.0], n, rng_seed=12)
        sigma = 0.5 / math.sqrt(n)
        assert abs(est - 0.5) < 3 * sigma

    def test_single_draw_in_support(self):
        data = Dataset([[0.0], [1.0], [2.0]], [3.0, 4.0, 5.0])
        val = monte_carlo_local_mean(gaussian(1.0), data, [1.0], 1, rng_seed=13)
        assert val in {3.0, 4.0, 5.0}

    def test_seed_determinism(self):
        rng = np.random.default_rng(14)
        data = Dataset(rng.normal(size=(6, 1)), rng.normal(size=6))
        a = monte_carlo_local_mean(gaussian(1.0), data, [0.0], 50, rng_seed=99)
        b = monte_carlo_local_mean(gaussian(1.0), data, [0.0], 50, rng_seed=99)
        assert a == b

    def test_midway_gaussian_query_does_not_underflow(self):
        # both linear-domain weights underflow to 0; the log-domain ones are equal
        data = Dataset([[0.0], [1.0]], [0.0, 1.0])
        val = monte_carlo_local_mean(gaussian(0.01), data, [0.5], 10, 0)
        assert 0.0 <= val <= 1.0


def test_knn_weighted_label_votes():
    # weighted class sums inside the neighbor set
    data = Dataset([0.0, 0.3, 10.0], np.array([0, 1, 1]))
    # neighbors of 0.05 at K=2 are {0.0, 0.3}; gaussian weights favor class 0
    assert knn_predict(2, data, [0.05], weight_kernel=gaussian(1.0)) == 0
    # at K=3 the two class-1 votes outweigh only if their weights add up
    pred = knn_predict(3, data, [0.29], weight_kernel=gaussian(5.0))
    assert pred == 1


class TestUnderflowIsNotEmpty:
    """At h=0.01 every linear-domain Gaussian weight of these queries is 0;
    the max-shifted log-domain weights still define the local mean."""

    def test_weighted_knn_midway_mean(self):
        data = Dataset([[0.0], [1.0]], [0.0, 1.0])
        assert knn_predict(2, data, [0.5], weight_kernel=gaussian(0.01)) == 0.5

    def test_self_kernel_midway_mean(self):
        data = Dataset([[0.0], [1.0]], [0.0, 1.0])
        res = self_kernel_local_mean(SelfKernel(gaussian(0.01), gaussian(1.0)), data, [0.5])
        assert res.value == pytest.approx(0.5)

    def test_self_kernel_joint_weights_share_one_shift(self):
        # each factor's maximum sits on the other sample, so the factors max-shifted
        # apart multiply to zero; the joint log weights (-20000, -1800) pick sample 1
        data = Dataset([[0.0], [0.3]], [1.0, 0.0])
        k = SelfKernel(gaussian(0.005), gaussian(0.005))
        assert self_kernel_local_mean(k, data, [0.0], init=0.0).value == 0.0

    def test_centerless_nearer_class_wins(self):
        data = Dataset([[0.0], [1.0]], np.array([0, 1]))
        cls, delta = local_centerless_classify(gaussian(0.01), pairwise(sq_euclid), data, [0.4])
        assert cls == 0
        assert delta[1] == -math.inf

    def test_local_pca_mean_of_two_tied_nearest(self):
        data = Dataset([[0, 0], [1, 0], [0, 1], [1, 1], [0.5, 0.2]])
        basis = local_pca(gaussian(0.01), data, [0.25, 0.6], 1)
        np.testing.assert_allclose(basis.mu, [0.25, 0.6], atol=1e-15)


def test_negative_class_label_rejected():
    # np.add.at would count label -1 as the highest class
    with pytest.raises(errors.InvalidParameter, match="labels must be >= 0"):
        Dataset([[0.0], [0.1], [5.0]], np.array([-1, -1, 1]))
