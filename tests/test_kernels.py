"""Kernel algebra and matrix machinery tests.

Expected values below were either computed by hand oracles (elementwise
kernel evaluation, 2x2 linear solves) or are structural identities.
"""

import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from locuskit import adaptive, density, embedding, errors, estimators, kernels, sequence, shifts
from locuskit.kernels import (
    DiracKernel,
    SelfKernel,
    as_point_set,
    concrete,
    derive_kernel,
    dirac,
    epanechnikov,
    eval_kernel,
    feature_kernel,
    filter_solve,
    gaussian,
    gram,
    knn_kernel,
    laplacian_of,
    local_reduce,
    make_kernel,
    neighborhood,
    normalize_rows,
    pairwise_sq_dists,
    smoothing_norm,
    softmax_rows,
    uniform,
)


class TestMakeKernel:
    def test_gaussian_self_weight_is_one(self):
        k = make_kernel({"kind": "gaussian", "h": 1.0})
        for x in ([0.0], [3.5], [1.0, -2.0, 0.25]):
            assert eval_kernel(k, x, x) == 1.0

    def test_negative_bandwidth_rejected(self):
        with pytest.raises(errors.InvalidParameter):
            epanechnikov(-1.0)
        with pytest.raises(errors.InvalidParameter):
            gaussian(0.0)

    def test_multi_of_identical_parts_is_the_part(self):
        k = make_kernel(
            {
                "kind": "multi",
                "weights": [0.5, 0.5],
                "parts": [{"kind": "gaussian", "h": 1.0}, {"kind": "gaussian", "h": 1.0}],
            }
        )
        g = gaussian(1.0)
        rng = np.random.default_rng(0)
        for _ in range(20):
            x, y = rng.normal(size=2), rng.normal(size=2)
            assert eval_kernel(k, x, y) == pytest.approx(eval_kernel(g, x, y), abs=1e-15)

    def test_invalid_specs(self):
        with pytest.raises(errors.InvalidParameter):
            make_kernel({"kind": "regularized", "base": {"kind": "gaussian", "h": 1}, "alpha": 1.5})
        with pytest.raises(errors.InvalidParameter):
            derive_kernel("multi", gaussian(1), gaussian(2), weights=[-0.5, 1.5])
        with pytest.raises(errors.InvalidParameter):
            make_kernel({"kind": "warp"})


_P = np.random.default_rng(21).normal(size=(6, 2))
_Z = np.random.default_rng(22).normal(size=(4, 2))
_M = np.array([[1.0, 2.0, 0.5], [0.0, 1.5, 1.0], [3.0, 0.25, 2.0]])
_G = {"kind": "gaussian", "h": 0.7}
_E = {"kind": "epanechnikov", "h": 1.5}


def _phi(x):
    return np.asarray(x) * 0.5


def _psi(y):
    return np.asarray(y)[::-1]


# kind -> (descriptor, the same kernel from its class's constructor, the points its gram is compared on)
_EVERY_KIND = {
    "gaussian": (_G, kernels.GaussianKernel(0.7), _P),
    "epanechnikov": (_E, kernels.EpanechnikovKernel(1.5), _P),
    "neighborhood": ({"kind": "neighborhood", "eps": 1.0}, kernels.NeighborhoodKernel(1.0), _P),
    "uniform": ({"kind": "uniform"}, kernels.UniformKernel(), _P),
    "dirac": ({"kind": "dirac"}, kernels.DiracKernel(), np.vstack([_P, _P[:2]])),
    "knn": ({"kind": "knn", "k": 3, "reference": _P.tolist()}, kernels.KnnKernel(3, _P), _P),
    "concrete": ({"kind": "concrete", "matrix": _M.tolist()}, kernels.ConcreteKernel(_M), np.arange(3)),
    "feature": (
        {"kind": "feature", "phi": _phi, "psi": _psi, "relation": "exp-dot"},
        kernels.FeatureKernel(_phi, _psi, "exp-dot"),
        _P,
    ),
    "dual": ({"kind": "dual", "base": _E}, kernels.DualKernel(epanechnikov(1.5)), _P),
    "product": (
        {"kind": "product", "first": _G, "second": _E, "anchors": _Z},
        kernels.ProductKernel(gaussian(0.7), epanechnikov(1.5), _Z),
        _P,
    ),
    "power": (
        {"kind": "power", "base": _G, "n": 3, "anchors": _Z},
        kernels.PowerKernel(gaussian(0.7), 3, _Z),
        _P,
    ),
    "regularized": (
        {"kind": "regularized", "base": _G, "alpha": 0.3},
        kernels.RegularizedKernel(gaussian(0.7), 0.3),
        _P,
    ),
    "hollow": ({"kind": "hollow", "base": _G, "eps0": 0.5}, kernels.HollowKernel(gaussian(0.7), 0.5), _P),
    "multi": (
        {"kind": "multi", "weights": [0.25, 0.75], "parts": [_G, {"kind": "neighborhood", "eps": 1.0}]},
        kernels.MultiKernel([0.25, 0.75], [gaussian(0.7), neighborhood(1.0)]),
        _P,
    ),
    "difference": (
        {"kind": "difference", "first": _G, "second": {"kind": "gaussian", "h": 0.3}},
        kernels.DifferenceKernel(gaussian(0.7), gaussian(0.3)),
        _P,
    ),
    "self": ({"kind": "self", "k_x": _G, "k_y": _E}, SelfKernel(gaussian(0.7), epanechnikov(1.5)), _P),
}


class TestKindTable:
    def test_every_kind_is_covered(self):
        assert set(_EVERY_KIND) == set(kernels._KINDS)

    @pytest.mark.parametrize("kind", sorted(_EVERY_KIND))
    def test_descriptor_builds_the_constructed_kernel(self, kind):
        spec, direct, points = _EVERY_KIND[kind]
        k = make_kernel(spec)
        assert type(k) is type(direct)
        np.testing.assert_array_equal(k.gram_values(points, points), direct.gram_values(points, points))

    def test_power_default_is_the_square(self):
        c = concrete(_M)
        built = [
            make_kernel({"kind": "power", "base": {"kind": "concrete", "matrix": _M.tolist()}}),
            derive_kernel("power", c),
            kernels.PowerKernel(c),
        ]
        for k in built:
            assert k.n == 2
            np.testing.assert_array_equal(k.gram_values(np.arange(3), np.arange(3)), _M @ _M)

    def test_regularized_default_is_the_base(self):
        g = gaussian(0.7)
        want = kernels.RegularizedKernel(g, 1.0)
        assert make_kernel({"kind": "regularized", "base": _G}) == derive_kernel("regularized", g) == want
        assert kernels.RegularizedKernel(g) == want

    def test_product_fields_are_named_as_the_descriptor(self):
        first, second = concrete(_M), concrete(_M.T)
        k = derive_kernel("product", first, second)
        assert (k.first, k.second) == (first, second)

    @pytest.mark.parametrize(
        "spec, named",
        [
            ({"kind": "hollow", "base": _G, "eps": 0.3}, "'eps'"),
            ({"kind": "regularized", "base": _G, "aplha": 0.3}, "'aplha'"),
            ({"kind": "gaussian", "h": 0.3, "H": 9}, "'H'"),
            ({"kind": "multi", "weights": [1.0], "parts": 5}, "'parts'"),
            ({"kind": "multi", "weights": [1.0], "parts": [5]}, "got 5"),
            ({"kind": "dual", "base": 5}, "got 5"),
            ({"kind": "dual"}, "'base'"),
            ({"kind": ["gaussian"], "h": 1.0}, "unknown kernel kind"),
        ],
        ids=[
            "hollow-eps", "regularized-aplha", "gaussian-H", "parts-not-a-list", "part-not-a-descriptor",
            "base-not-a-descriptor", "missing-base", "unhashable-kind",
        ],
    )
    def test_unknown_missing_or_malformed_field_rejected(self, spec, named):
        with pytest.raises(errors.InvalidParameter, match=named):
            make_kernel(spec)

    @pytest.mark.parametrize("value", [2.5, "2", True, float("nan"), float("inf"), [2]])
    @pytest.mark.parametrize(
        "spec, field",
        [({"kind": "knn", "reference": _P.tolist()}, "k"), ({"kind": "power", "base": _G, "anchors": _Z}, "n")],
        ids=["knn-k", "power-n"],
    )
    def test_a_non_integral_count_is_rejected_not_truncated(self, spec, field, value):
        with pytest.raises(errors.InvalidParameter, match="must be an integer"):
            make_kernel({**spec, field: value})

    @pytest.mark.parametrize("value", [2, 2.0, np.int64(2), np.float32(2.0)])
    def test_an_integral_count_is_read_as_an_int(self, value):
        knn = make_kernel({"kind": "knn", "k": value, "reference": _P.tolist()})
        power = kernels.PowerKernel(gaussian(0.7), value, _Z)
        assert knn.k == power.n == 2 and type(knn.k) is type(power.n) is int

    @pytest.mark.parametrize(
        "op, args, params",
        [
            ("dual", (gaussian(1.0), gaussian(2.0)), {}),
            ("dual", (), {}),
            ("product", (gaussian(1.0),), {"anchors": _Z}),
            ("difference", (gaussian(1.0), gaussian(2.0), gaussian(3.0)), {}),
            ("hollow", (gaussian(1.0),), {"base": gaussian(2.0)}),
            ("regularized", (gaussian(1.0),), {"aplha": 0.5}),
            ("multi", (gaussian(1.0), gaussian(2.0)), {}),
            ("multi", (), {"weights": []}),
            ("self", (gaussian(1.0), gaussian(2.0)), {}),
            ("gaussian", (), {"h": 1.0}),
        ],
        ids=[
            "dual-of-two", "dual-of-none", "product-of-one", "difference-of-three", "hollow-base-twice",
            "regularized-aplha", "multi-without-weights", "multi-of-none", "self-is-not-an-operation", "base-kind-is-not-an-operation",
        ],
    )
    def test_derive_kernel_rejects_a_wrong_call(self, op, args, params):
        with pytest.raises(errors.InvalidParameter):
            derive_kernel(op, *args, **params)


_PTS = np.random.default_rng(0).normal(size=(8, 4))
_TOKENS = list("abcdef")

# (library call, given the count under test) for every count parameter that was truncated with int()
_LIBRARY_COUNTS = {
    "amds_factorize-q": lambda v: embedding.amds_factorize(np.eye(5), v),
    "amds_factorize-iters": lambda v: embedding.amds_factorize(np.eye(5), 2, method="nmf", iters=v),
    "lle_embed-r": lambda v: embedding.lle_embed(embedding.lle_weights(_PTS, 3), v),
    "cooccurrence_embed-d": lambda v: embedding.cooccurrence_embed([_TOKENS], v),
    "read_corpus-window": lambda v: embedding.read_corpus(__file__, v),
    "trimap_embed-q": lambda v: embedding.trimap_embed(_PTS, gaussian(1.0).gram_values, q=v),
    "trimap_embed-steps": lambda v: embedding.trimap_embed(_PTS, gaussian(1.0).gram_values, 2, steps=v),
    "trimap_embed-n_neighbors": lambda v: embedding.trimap_embed(_PTS, gaussian(1.0).gram_values, 2, n_neighbors=v),
    "trimap_embed-n_contrast": lambda v: embedding.trimap_embed(_PTS, gaussian(1.0).gram_values, 2, n_contrast=v),
    "fit_qkv-d": lambda v: adaptive.fit_qkv(_PTS, d=v),
    "fit_qkv-steps": lambda v: adaptive.fit_qkv(_PTS, d=2, steps=v),
    "dae_chain-steps": lambda v: density.dae_chain(lambda x: x, density.GaussianNoise(0.1), [0.0], v, rng_seed=0),
    "autoregressive_complete-steps": lambda v: sequence.autoregressive_complete(
        sequence.Sequence(_PTS), sequence.TransformerModel([sequence.TransformerLayer(kernel=uniform())]), v
    ),
    "local_pca-r": lambda v: estimators.local_pca(gaussian(1.0), estimators.Dataset(_PTS), _PTS[0], v),
    "pc_shift-r": lambda v: shifts.pc_shift(gaussian(1.0), _PTS, v),
    "smoothing_norm-order": lambda v: smoothing_norm(normalize_rows(np.ones((3, 3))), np.arange(3.0), v),
    "monte_carlo_local_mean-n": lambda v: estimators.monte_carlo_local_mean(
        gaussian(1.0), estimators.Dataset(_PTS, _PTS[:, 0]), _PTS[0], v, rng_seed=0
    ),
    "linear_variance_preserving-T": lambda v: density.DiffusionSchedule.linear_variance_preserving(v),
    "diffusion_generate-n": lambda v: density.diffusion_generate(
        _PTS, density.DiffusionSchedule.linear_variance_preserving(2), v, rng_seed=0
    ),
    "fit_multikernel-n_iter": lambda v: adaptive.fit_multikernel(
        [gaussian(1.0), gaussian(2.0)], estimators.Dataset(_PTS, _PTS[:, 0]), n_iter=v
    ),
    "nlm_denoise-patch_radius": lambda v: sequence.nlm_denoise(sequence.Sequence(_PTS), v, 0.5, 3),
    "nlm_denoise-search_radius": lambda v: sequence.nlm_denoise(sequence.Sequence(_PTS), 1, 0.5, v),
    "gaussian_moving_average-search_radius": lambda v: sequence.gaussian_moving_average(sequence.Sequence(_PTS), v),
}


@pytest.mark.parametrize("value", [2.5, "2", True])
@pytest.mark.parametrize("call", _LIBRARY_COUNTS.values(), ids=_LIBRARY_COUNTS.keys())
def test_a_fractional_library_count_is_rejected_not_truncated(call, value):
    with pytest.raises(errors.InvalidParameter, match="must be an integer"):
        call(value)


# one kernel of each sign class, to fill the nested fields of the composite kinds
_OF_SIGN = {
    "nonnegative": gaussian(1.0),
    "signed": feature_kernel(_phi, _psi, "dot"),
    "desmoothing": derive_kernel("difference", gaussian(1.0), gaussian(0.5)),
}
# composite kind -> (number of nested kernels, the kind built on them)
_COMPOSITES = {
    "dual": (1, lambda ks: derive_kernel("dual", *ks)),
    "product": (2, lambda ks: derive_kernel("product", *ks, anchors=_Z)),
    "power": (1, lambda ks: derive_kernel("power", *ks, n=3, anchors=_Z)),
    "regularized": (1, lambda ks: derive_kernel("regularized", *ks, alpha=0.5)),
    "hollow": (1, lambda ks: derive_kernel("hollow", *ks, eps0=0.5)),
    "multi": (3, lambda ks: derive_kernel("multi", *ks, weights=[0.2, 0.3, 0.5])),
    "self": (2, lambda ks: SelfKernel(*ks)),
}


@pytest.mark.parametrize("kind", _COMPOSITES)
def test_a_composite_kernel_takes_the_most_permissive_sign_of_its_nested_kernels(kind):
    arity, build = _COMPOSITES[kind]
    order = list(_OF_SIGN)
    for signs in itertools.product(order, repeat=arity):
        assert build([_OF_SIGN[s] for s in signs]).sign_class == max(signs, key=order.index), signs


def test_the_sign_table_covers_every_composite_kind_but_difference():
    assert set(_COMPOSITES) == {kind for kind, (_, nested) in kernels._KINDS.items() if nested} - {"difference"}


_X = np.linspace(0.0, 1.0, 10)
_XY = np.column_stack([_X, _X**2])
_CLASSES = (_X > 0.5).astype(int)
# every entry point that averages kernel weights -> (whether it refuses a difference kernel before any gram, call)
_AVERAGING = {
    "normalize_rows-gram": (False, lambda k: normalize_rows(gram(k, _X, _X))),
    "local_reduce": (True, lambda k: local_reduce(k, _X, _X, _X)),
    "local_reduce-no-query": (True, lambda k: local_reduce(k, np.empty((0, 1)), _X, _X)),
    "lazy_transform": (True, lambda k: estimators.lazy_transform(k, estimators.Dataset(_X, _X), _X)),
    "local_linear_transform": (True, lambda k: estimators.local_linear_transform(k, estimators.Dataset(_X, _X), _X)),
    "relaxation_label-hard": (True, lambda k: shifts.relaxation_label(k, _X, _CLASSES, mode="hard")),
    "relaxation_label-soft": (True, lambda k: shifts.relaxation_label(k, _X, np.eye(2)[_CLASSES], mode="soft")),
    "temporal_local_mean": (False, lambda k: sequence.temporal_local_mean(
        sequence.Sequence(_XY), sequence.temporal_gram(k, sequence.PositionEncoding(), sequence.Sequence(_XY)))),
    "transformer_layer": (False, lambda k: sequence.transformer_encode(
        sequence.Sequence(_XY), [sequence.TransformerLayer(kernel=k)])),
    "temporal_mean_model": (True, lambda k: sequence.TemporalMeanModel(k).next_token(sequence.Sequence(_XY))),
    "laplacian_of-gram": (False, lambda k: laplacian_of(gram(k, _X, _X))),
    "local_pca": (True, lambda k: estimators.local_pca(k, estimators.Dataset(_XY), _XY[4], 1)),
    "monte_carlo_local_mean": (True, lambda k: estimators.monte_carlo_local_mean(
        k, estimators.Dataset(_X, _X), [0.5], 5, rng_seed=0)),
    "local_centerless_classify": (True, lambda k: estimators.local_centerless_classify(
        k, pairwise_sq_dists, estimators.Dataset(_X, _CLASSES), [0.5])),
}


@pytest.mark.parametrize("entry", _AVERAGING)
def test_every_averaging_entry_point_refuses_a_difference_kernel(entry, monkeypatch):
    before_any_gram, call = _AVERAGING[entry]
    calls = []
    original = kernels.GaussianKernel.gram_values

    def counting(self, rows, cols):
        calls.append(len(rows))
        return original(self, rows, cols)

    monkeypatch.setattr(kernels.GaussianKernel, "gram_values", counting)
    # G(0.6) - G(0.3) is >= 0 everywhere, yet desmoothing
    with pytest.raises(errors.DesmoothingInput):
        call(derive_kernel("difference", gaussian(0.6), gaussian(0.3)))
    if before_any_gram:
        assert calls == []
    call(gaussian(0.6))  # the same call averages a smoothing kernel


_HOLLOW_POINTS = np.array([[0.0, 0.0], [0.3, 0.0], [2.0, 0.0], [0.0, 0.0], [2.0, 2.5], [2.1, 2.4]])
_A = np.array([[1.0, -2.0, 0.5, 0.0], [0.25, 1.5, 1.0, -1.0], [3.0, 0.5, 2.0, 1.0]])
_B = np.array([[0.5, 1.0], [-1.0, 2.0], [0.0, 0.75], [1.5, -0.5]])

# case -> (kernel, rows, cols): composite paths whose gram and eval would otherwise never meet
_GRAM_VS_EVAL = {
    "hollow-eps0": (derive_kernel("hollow", gaussian(1.0), eps0=0.5), _HOLLOW_POINTS, _HOLLOW_POINTS),
    "power-anchored-n1": (derive_kernel("power", gaussian(0.7), n=1, anchors=_Z), _P, _P[:4]),
    "power-anchored-n3": (derive_kernel("power", gaussian(0.7), n=3, anchors=_Z), _P, _P[:4]),
    "product-concrete": (derive_kernel("product", concrete(_A), concrete(_B)), np.arange(3), np.arange(2)),
}


@pytest.mark.parametrize("case", _GRAM_VS_EVAL)
def test_a_composite_gram_equals_its_eval_at_every_pair(case):
    k, rows, cols = _GRAM_VS_EVAL[case]
    want = np.array([[k.eval(r, c) for c in cols] for r in rows])
    np.testing.assert_allclose(k.gram_values(rows, cols), want, rtol=1e-13, atol=0)


class TestEvalKernel:
    def test_epanechnikov_values(self):
        k = epanechnikov(1.0)
        assert eval_kernel(k, [0.0], [0.0]) == pytest.approx(0.75)
        assert eval_kernel(k, [0.0], [1.5]) == 0.0
        # hand oracle: 0.75 * (1 - 0.25)
        assert eval_kernel(k, [0.0], [0.5]) == pytest.approx(0.5625)

    def test_gaussian_value(self):
        # exp(-|0-2|^2 / 2) evaluated directly
        assert eval_kernel(gaussian(1.0), [0.0], [2.0]) == pytest.approx(
            math.exp(-2.0), rel=1e-12
        )
        assert eval_kernel(gaussian(1.0), [0.0], [2.0]) == pytest.approx(0.13534, abs=5e-6)

    def test_dual_swaps_arguments(self):
        mat = np.array([[1.0, 2.0], [3.0, 4.0]])
        k = concrete(mat)
        kd = derive_kernel("dual", k)
        assert eval_kernel(kd, 0, 1) == 3.0
        assert eval_kernel(kd, 1, 0) == 2.0

    def test_concrete_off_domain(self):
        k = concrete(np.eye(3))
        with pytest.raises(errors.DomainError):
            eval_kernel(k, 0, 5)
        with pytest.raises(errors.DomainError):
            eval_kernel(k, 0.5, 1)

    def test_dimension_mismatch(self):
        with pytest.raises(errors.DimensionMismatch):
            gram(gaussian(1.0), np.zeros((3, 2)), np.zeros((3, 3)))


class TestGram:
    def test_gaussian_two_points(self):
        X = np.array([[0.0], [2.0]])
        G = gram(gaussian(1.0), X, X)
        expected = np.array([[1.0, math.exp(-2)], [math.exp(-2), 1.0]])
        np.testing.assert_allclose(G.values, expected, rtol=1e-12)

    def test_neighborhood_no_cross_neighbors(self):
        X = np.array([[0.0], [10.0]])
        G = gram(neighborhood(0.5), X, X)
        np.testing.assert_array_equal(G.values, np.eye(2))

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(6, 2))
        Y = rng.normal(size=(4, 2))
        perm = rng.permutation(6)
        G = gram(gaussian(0.7), X, Y).values
        Gp = gram(gaussian(0.7), X[perm], Y).values
        np.testing.assert_array_equal(G[perm], Gp)

    def test_distances_survive_a_large_offset(self):
        np.testing.assert_allclose(pairwise_sq_dists([[1e8]], [[1e8 + 1e-3]]), [[1e-6]], rtol=1e-3)
        X = np.random.default_rng(5).normal(size=(6, 2))
        np.testing.assert_allclose(
            pairwise_sq_dists(X + 1e8, X + 1e8), pairwise_sq_dists(X, X), atol=1e-6
        )

    def test_gaussian_gram_is_translation_invariant(self):
        far = gram(gaussian(0.01), [[1e8]], [[1e8 + 0.005]]).values
        near = gram(gaussian(0.01), [[0.0]], [[0.005]]).values
        assert near[0, 0] == pytest.approx(0.8825, abs=1e-4)
        np.testing.assert_allclose(far, near, rtol=1e-6)

    def test_elementwise_agreement_with_eval(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(5, 3))
        for k in (gaussian(0.8), epanechnikov(2.0), neighborhood(1.5), uniform()):
            G = gram(k, X, X).values
            for i in range(5):
                for j in range(5):
                    assert G[i, j] == pytest.approx(eval_kernel(k, X[i], X[j]), abs=1e-14)


def reference_sq_dists(A, B):
    """Per-coordinate squared differences added from the first coordinate to the last.

    Up to 7 coordinates numpy's ``.sum()`` adds in that order, so the plain expression is the
    reference; from 8 it sums pairwise, so the order is spelled out as a loop.
    """
    if A.shape[1] <= 7:
        return ((A[:, None, :] - B[None, :, :]) ** 2).sum(-1)
    d2 = np.zeros((A.shape[0], B.shape[0]))
    for j in range(A.shape[1]):
        d2 = d2 + (A[:, None, j] - B[None, :, j]) ** 2
    return d2


class TestDistanceArithmetic:
    """pairwise_sq_dists and the Gaussian gram work in place on their own
    temporaries; the values must equal ``reference_sq_dists`` bit for bit."""

    CASES = {
        "random": (0, 0.0, 40, 55, 3),
        "far-offset": (1, 1e8, 30, 25, 2),
        "single-query": (2, 0.0, 1, 300, 2),
        "no-rows": (3, 0.0, 0, 7, 2),
        "no-cols": (4, 0.0, 6, 0, 2),
        "nine-coordinates": (5, 1e3, 20, 30, 9),
        "no-coordinates": (7, 0.0, 5, 4, 0),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_bit_identical_to_expression(self, case):
        seed, offset, n, m, p = self.CASES[case]
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(n, p)) + offset
        B = rng.normal(size=(m, p)) + offset
        A0, B0 = A.copy(), B.copy()
        D = pairwise_sq_dists(A, B)
        want = reference_sq_dists(A0, B0)
        assert D.shape == want.shape == (n, m)
        assert np.array_equal(D, want)
        for h in (0.7, 1.0):  # 2 h^2 = 2 is a power of two: the weights multiply by -1/2 instead of dividing
            W = gaussian(h).gram_values(A, B)
            assert np.array_equal(W, np.exp(-want / (2.0 * h * h)))
            assert np.array_equal(A, A0) and np.array_equal(B, B0)
            for out in (D, W):
                assert not np.shares_memory(out, A) and not np.shares_memory(out, B)
            assert not np.shares_memory(D, W)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_out_buffer_is_filled_and_returned(self, case):
        seed, offset, n, m, p = self.CASES[case]
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(n, p)) + offset
        B = rng.normal(size=(m, p)) + offset
        buf = np.full((n + 3, m), np.nan)  # a reused buffer taller than the block
        out = buf[:n]
        D = pairwise_sq_dists(A, B, out=out)
        assert D is out
        assert np.array_equal(D, pairwise_sq_dists(A, B))
        assert np.isnan(buf[n:]).all()

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_work_buffer_takes_the_coordinate_temporary(self, case):
        seed, offset, n, m, p = self.CASES[case]
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(n, p)) + offset
        B = rng.normal(size=(m, p)) + offset
        buf, work = np.full((n + 3, m), np.nan), np.full((n + 3, m), np.nan)
        out = buf[:n]
        D = pairwise_sq_dists(A, B, out=out, work=work[:n])
        assert D is out
        assert np.array_equal(D, pairwise_sq_dists(A, B))
        assert np.isnan(buf[n:]).all() and np.isnan(work[n:]).all()

    def test_out_and_work_leave_no_block_sized_allocation(self):
        rng = np.random.default_rng(8)
        A, B = rng.normal(size=(21, 2)), rng.normal(size=(3000, 2))
        out, work = np.empty((21, 3000)), np.empty((21, 3000))
        tracemalloc.start()
        try:
            pairwise_sq_dists(A, B, out=out, work=work)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < out.nbytes / 4  # the contiguous coordinate rows, 2 x 3021 floats

    def test_self_distances_do_not_alias_input(self):
        X = np.random.default_rng(6).normal(size=(5, 2))
        X0 = X.copy()
        D = pairwise_sq_dists(X, X)
        assert not np.shares_memory(D, X)
        assert np.array_equal(X, X0)
        assert np.array_equal(D, reference_sq_dists(X0, X0))

    @pytest.mark.parametrize("p", [1, 2, 3, 7, 9])
    @pytest.mark.parametrize("offset", [0.0, 5e3, 1e8])
    def test_each_row_is_its_own_one_row_call(self, p, offset):
        rng = np.random.default_rng(p)
        A = rng.normal(size=(23, p)) + offset
        B = rng.normal(size=(31, p)) + offset
        D = pairwise_sq_dists(A, B)
        for i in range(A.shape[0]):
            assert np.array_equal(D[i], pairwise_sq_dists(A[i : i + 1], B)[0])


class TestDivide:
    """``_divide(W, c)`` is ``W /= c`` bit for bit, whether it multiplies by an exact ``1 / c`` or divides."""

    ENTRIES = np.array([0.0, -0.0, 5e-324, 1e-310, 1.0, np.finfo(float).max, np.inf, -np.inf, np.nan])

    def check(self, c):
        W = self.ENTRIES.copy()
        with np.errstate(all="ignore"):
            got = kernels._divide(W, c)
            want = self.ENTRIES / c
        assert got is W
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), c

    def test_powers_of_two_multiply_by_an_exact_reciprocal(self):
        # k = 1023 is -2 h^2 at h = 2^511, whose reciprocal 2^-1023 is subnormal but exact
        for k in range(-1021, 1024):
            self.check(-(2.0**k))

    @pytest.mark.parametrize("c", [-1.28, -0.08, -(2.0**-1024), -5e-324])
    def test_other_divisors_divide(self, c):
        # 2^-1024 and 5e-324 are powers of two whose reciprocals overflow, so they divide as well
        self.check(c)


# integer-valued cells, full of ties, mixed with the values a stable argsort orders specially
_NEAREST_CELLS = st.one_of(st.integers(-3, 3).map(float), st.sampled_from([np.inf, -np.inf, np.nan, -0.0]))


class TestNearest:
    """``_nearest(D, k)``, the one k-nearest rule, pinned to the stable argsort cut to k columns."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(arrays(float, st.tuples(st.integers(1, 4), st.integers(1, 12)), elements=_NEAREST_CELLS))
    def test_matches_the_stable_argsort_at_every_k(self, D):
        want = np.argsort(D, axis=1, kind="stable")
        for k in range(1, D.shape[1] + 1):
            np.testing.assert_array_equal(kernels._nearest(D, k), want[:, :k])

    @pytest.mark.parametrize("k", [1, 2, 9, 150, 299, 300])
    def test_wide_rows_of_few_values(self, k):
        D = np.random.default_rng(k).integers(0, 5, size=(7, 300)).astype(float)
        D[3, ::7] = np.nan
        D[5, :] = np.nan
        np.testing.assert_array_equal(kernels._nearest(D, k), np.argsort(D, axis=1, kind="stable")[:, :k])


class TestBuiltinSymmetry:
    @pytest.mark.parametrize("maker", [lambda: gaussian(0.9), lambda: epanechnikov(1.3), lambda: neighborhood(1.1)])
    def test_symmetric_and_self_dual(self, maker):
        k = maker()
        kd = derive_kernel("dual", k)
        rng = np.random.default_rng(11)
        for _ in range(25):
            x, y = rng.normal(size=3), rng.normal(size=3)
            assert eval_kernel(k, x, y) == pytest.approx(eval_kernel(k, y, x), abs=1e-15)
            assert eval_kernel(kd, x, y) == pytest.approx(eval_kernel(k, x, y), abs=1e-15)


class TestDeriveKernel:
    def test_regularized_alpha_one_unchanged(self):
        k = derive_kernel("regularized", gaussian(1.0), alpha=1.0)
        rng = np.random.default_rng(5)
        for _ in range(10):
            x, y = rng.normal(size=2), rng.normal(size=2)
            assert eval_kernel(k, x, y) == pytest.approx(eval_kernel(gaussian(1.0), x, y))

    def test_regularized_alpha_zero_is_dirac(self):
        k = derive_kernel("regularized", gaussian(1.0), alpha=0.0)
        assert eval_kernel(k, [1.0, 2.0], [1.0, 2.0]) == 1.0
        assert eval_kernel(k, [1.0, 2.0], [1.0, 2.5]) == 0.0

    def test_difference_of_gaussians_at_zero_displacement(self):
        dog = derive_kernel("difference", gaussian(2.0), gaussian(1.0))
        # both amplitudes are 1 at zero displacement under the unnormalized convention
        assert eval_kernel(dog, [0.3, -1.0], [0.3, -1.0]) == 0.0
        assert dog.sign_class == "desmoothing"

    def test_hollow_zero_diagonal(self):
        k = derive_kernel("hollow", gaussian(1.0))
        X = np.random.default_rng(6).normal(size=(7, 2))
        G = gram(k, X, X).values
        np.testing.assert_array_equal(np.diag(G), np.zeros(7))
        off = ~np.eye(7, dtype=bool)
        base = gram(gaussian(1.0), X, X).values
        np.testing.assert_allclose(G[off], base[off])

    def test_product_matches_anchor_sum_oracle(self):
        rng = np.random.default_rng(7)
        Z = rng.normal(size=(6, 2))
        k1, k2 = gaussian(1.0), epanechnikov(2.0)
        prod = derive_kernel("product", k1, k2, anchors=Z)
        x, y = rng.normal(size=2), rng.normal(size=2)
        oracle = sum(eval_kernel(k1, x, z) * eval_kernel(k2, z, y) for z in Z)
        assert eval_kernel(prod, x, y) == pytest.approx(oracle, rel=1e-12)

    def test_power_of_concrete_matches_matrix_power(self):
        M = np.array([[0.5, 0.5], [0.2, 0.8]])
        k3 = derive_kernel("power", concrete(M), n=3)
        np.testing.assert_allclose(
            k3.gram_values([0, 1], [0, 1]), np.linalg.matrix_power(M, 3), rtol=1e-14
        )

    def test_power_of_nonsquare_concrete_rejected(self):
        with pytest.raises(errors.UnsupportedComposition):
            derive_kernel("power", concrete(np.ones((2, 3))), n=2)

    def test_knn_kernel_captures_reference(self):
        ref = np.array([[0.0], [1.0], [10.0]])
        k = knn_kernel(2, ref)
        assert eval_kernel(k, [0.2], [0.0]) == 1.0
        assert eval_kernel(k, [0.2], [1.0]) == 1.0
        assert eval_kernel(k, [0.2], [10.0]) == 0.0

    def test_knn_tie_broken_by_index(self):
        ref = np.array([[-1.0], [1.0], [5.0]])
        k = knn_kernel(1, ref)
        # x = 0 ties between reference points 0 and 1: index 0 wins
        assert eval_kernel(k, [0.0], [-1.0]) == 1.0
        assert eval_kernel(k, [0.0], [1.0]) == 0.0

    @pytest.mark.parametrize("p", [2, 9])
    def test_knn_selection_matches_index_tie_break_reference(self, p):
        rng = np.random.default_rng(p)
        base = rng.integers(-2, 3, size=(6, p)).astype(float)
        ref = np.vstack([base, base[:3], -base[:2], rng.normal(size=(5, p)) + 1e3])
        for x in [np.zeros(p), base[0], rng.normal(size=p), np.full(p, 1e3)]:
            d2 = ((ref - x) ** 2).sum(1)
            want = np.lexsort((np.arange(len(d2)), d2))
            for k in (1, 4, len(ref)):
                sel, got = knn_kernel(k, ref)._selected(x)
                np.testing.assert_array_equal(sel, want[:k])
                np.testing.assert_array_equal(got, reference_sq_dists(x[None, :], ref)[0])

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_knn_gram_equals_eval_ties_included(self, p):
        # integer grid points with duplicated rows put many columns exactly at the k-th distance
        rng = np.random.default_rng(10 + p)
        base = rng.integers(-2, 3, size=(8, p)).astype(float)
        ref = np.vstack([base, base[::2], base[:1]])
        rows = np.vstack([ref[:4], rng.integers(-2, 3, size=(6, p)).astype(float), np.full((1, p), 0.5)])
        cols = np.vstack([ref, rng.integers(-3, 4, size=(10, p)).astype(float)])
        for k in (1, 2, 5, len(ref)):
            kern = knn_kernel(k, ref)
            want = np.array([[kern.eval(r, c) for c in cols] for r in rows])
            np.testing.assert_array_equal(kern.gram_values(rows, cols), want)


class TestNormalizeRows:
    def test_plain_arithmetic(self):
        S = normalize_rows(np.array([[2.0, 2.0], [1.0, 3.0]]))
        np.testing.assert_allclose(S.values, [[0.5, 0.5], [0.25, 0.75]])
        np.testing.assert_allclose(S.degrees, [4.0, 4.0])
        assert S.empty_rows.size == 0

    def test_zero_row_recorded(self):
        S = normalize_rows(np.array([[0.0, 0.0], [1.0, 1.0]]))
        assert list(S.empty_rows) == [0]
        np.testing.assert_allclose(S.values[1], [0.5, 0.5])
        np.testing.assert_array_equal(S.values[0], [0.0, 0.0])

    def test_identity(self):
        S = normalize_rows(np.eye(2))
        np.testing.assert_array_equal(S.values, np.eye(2))
        np.testing.assert_array_equal(S.degrees, [1.0, 1.0])

    def test_idempotent(self):
        rng = np.random.default_rng(8)
        K = rng.random((6, 6))
        once = normalize_rows(K).values
        twice = normalize_rows(once).values
        np.testing.assert_allclose(twice, once, atol=1e-12)

    def test_scale_invariant(self):
        rng = np.random.default_rng(9)
        K = rng.random((5, 7))
        for c in (1e-6, 3.0, 1e8):
            np.testing.assert_allclose(
                normalize_rows(c * K).values, normalize_rows(K).values, atol=1e-12
            )

    def test_rejects_desmoothing(self):
        X = np.random.default_rng(10).normal(size=(4, 2))
        dog = gram(derive_kernel("difference", gaussian(1.0), gaussian(2.0)), X, X)
        with pytest.raises(errors.DesmoothingInput):
            normalize_rows(dog)

    def test_rejects_negative_entries(self):
        with pytest.raises(errors.DesmoothingInput):
            normalize_rows(np.array([[1.0, -0.5], [0.0, 1.0]]))

    def test_rows_sum_to_one_property(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            K = rng.random((rng.integers(2, 9), rng.integers(2, 9)))
            S = normalize_rows(K)
            sums = S.values.sum(axis=1)
            keep = np.setdiff1d(np.arange(K.shape[0]), S.empty_rows)
            np.testing.assert_allclose(sums[keep], 1.0, atol=1e-12)


def allocating_gaussian_reduce(h, Q, X, Y, skip_self):
    """Gaussian ``local_reduce`` as separate allocating expressions, one row block at a time."""
    means = np.empty((Q.shape[0], Y.shape[1]))
    deg = np.empty(Q.shape[0])
    for rows in kernels._row_blocks(Q.shape[0], X.shape[0]):
        W = reference_sq_dists(Q[rows], X) / -(2.0 * h * h)
        if skip_self:
            np.fill_diagonal(W[:, rows.start:], -np.inf)
        top = W.max(axis=1, keepdims=True)
        W = np.exp(W - np.where(np.isfinite(top), top, 0.0))
        deg[rows] = W.sum(axis=1)
        means[rows] = W @ Y
    empty = ~(deg > 0)
    means /= np.where(empty, np.nan, deg)[:, None]
    return means, empty


class TestLocalReduce:
    def test_rows_beyond_compact_support_are_empty_nan(self):
        X, Y = [[0.0], [1.0]], [[3.0, 1.0], [4.0, 2.0]]
        means, empty = local_reduce(epanechnikov(0.5), [[0.0], [50.0], [1.0]], X, Y)
        np.testing.assert_array_equal(empty, [False, True, False])
        assert np.isnan(means[1]).all()
        np.testing.assert_array_equal(means[[0, 2]], [[3.0, 1.0], [4.0, 2.0]])

    def test_negative_weights_raise(self):
        signed = concrete([[1.0, -0.5], [0.5, 1.0]])
        with pytest.raises(errors.DesmoothingInput):
            local_reduce(signed, [0, 1], [0, 1], [1.0, 2.0])

    def test_bandwidth_whose_square_underflows_is_rejected(self):
        # 2 h^2 at h=1e-155 is subnormal; the query midway between the samples
        # used to come out empty although its local mean is 1.5
        with pytest.raises(errors.InvalidParameter, match="underflows"):
            local_reduce(gaussian(1e-155), [[0], [0.5]], [[0], [1]], [1, 2])
        for make in (epanechnikov, neighborhood):
            with pytest.raises(errors.InvalidParameter, match="underflows"):
                make(1e-160)
        means, empty = local_reduce(gaussian(1e-150), [[0], [0.5]], [[0], [1]], [1, 2])
        assert not empty.any() and means[1, 0] == 1.5

    def test_huge_or_nan_query_row_leaves_other_rows_alone(self):
        with np.errstate(over="ignore"):
            means, empty = local_reduce(gaussian(1), [[0.0], [1e200]], [[0.0], [1.0]], [1.0, 2.0])
        np.testing.assert_array_equal(empty, [False, True])
        e = math.exp(-0.5)
        assert means[0, 0] == pytest.approx((1 + 2 * e) / (1 + e), rel=1e-15)
        means, empty = local_reduce(gaussian(1), [[0.0], [np.nan]], [[0.0], [1.0]], [1.0, 2.0])
        assert not empty[0] and np.isfinite(means[0, 0])

    def test_gaussian_weights_do_not_depend_on_block_height(self):
        k = gaussian(0.7)
        rng = np.random.default_rng(12)
        X = rng.normal(size=(40, 2)) + 5e3
        Q = rng.normal(size=(17, 2)) + 5e3
        Y = rng.normal(size=(40, 2))
        results = []
        for entries in (1, 5, 13, 2**16):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(kernels, "_BLOCK_ENTRIES", entries)
                W = np.vstack([kernels._local_weights(k, Q[r], X) for r in kernels._row_blocks(len(Q), len(X))])
                results.append((W, local_reduce(k, Q, X, Y)[0]))
        W0, M0 = results[-1]
        for W, M in results:
            np.testing.assert_array_equal(W, W0)
            assert np.abs(M - M0).max() <= 16 * np.finfo(float).eps * np.abs(Y).max()

    @pytest.mark.parametrize("p", [0, 1, 2, 3, 9])
    @pytest.mark.parametrize("skip_self", [False, True], ids=["all", "skip-self"])
    @pytest.mark.parametrize("n_queries, n_samples", [(11, 5), (40, 3), (6, 1)])
    @pytest.mark.parametrize("entries", [1, 5, 13, 2**16])
    @pytest.mark.parametrize("h", [0.8, 1.0, 0.25])  # 2 h^2 = 2 and 1/8 take the multiply by an exact reciprocal
    def test_in_place_gaussian_weights_match_allocating_expressions(
        self, monkeypatch, p, skip_self, n_queries, n_samples, entries, h
    ):
        monkeypatch.setattr(kernels, "_BLOCK_ENTRIES", entries)
        rng = np.random.default_rng([p, n_queries])
        Q = 2.0 * rng.normal(size=(n_queries, p))
        X = 2.0 * rng.normal(size=(n_samples, p))
        Y = rng.normal(size=(n_samples, 2))
        if p:
            Q[2] = np.inf  # every log weight of this row is -inf
        got = local_reduce(gaussian(h), Q, X, Y, skip_self=skip_self)
        want = allocating_gaussian_reduce(h, Q, X, Y, skip_self)
        assert np.array_equal(got[1], want[1])
        assert np.array_equal(got[0], want[0], equal_nan=True)
        if p or (skip_self and n_samples == 1):
            assert want[1].any()

    def test_row_without_finite_log_weight_is_empty_without_warnings(self):
        # skip_self on one sample leaves the Gaussian row all -inf
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            means, empty = local_reduce(gaussian(1.0), [[0.0]], [[0.0]], [1.0], skip_self=True)
        assert empty[0] and np.isnan(means[0, 0])


class TestSoftmaxRows:
    def test_masked_entries_get_exactly_zero(self):
        A = softmax_rows([[0.0, -np.inf, 1.0], [-np.inf, 2.0, -np.inf]])
        assert A[0, 1] == 0.0
        np.testing.assert_array_equal(A[1], [0.0, 1.0, 0.0])
        assert A[0, 2] / A[0, 0] == pytest.approx(math.e, rel=1e-15)

    def test_rows_sum_to_one_and_input_kept(self):
        S = 10.0 * np.random.default_rng(6).normal(size=(7, 5))
        before = S.copy()
        A = softmax_rows(S)
        np.testing.assert_allclose(A.sum(axis=1), 1.0, rtol=1e-14)
        E = np.exp(S)
        np.testing.assert_allclose(A, E / E.sum(axis=1, keepdims=True), rtol=1e-12)
        np.testing.assert_array_equal(S, before)

    def test_huge_logits_do_not_overflow(self):
        with np.errstate(over="raise", invalid="raise"):
            A = softmax_rows([[1e300, 1e300], [1e300, -1e300]])
        np.testing.assert_array_equal(A, [[0.5, 0.5], [1.0, 0.0]])


class TestLaplacian:
    def test_hand_values(self):
        L = laplacian_of(np.array([[2.0, 2.0], [1.0, 3.0]]))
        np.testing.assert_allclose(L.raw, [[2.0, -2.0], [-1.0, 1.0]])

    def test_identity_kernel_zero_laplacian(self):
        L = laplacian_of(np.eye(4))
        np.testing.assert_array_equal(L.raw, np.zeros((4, 4)))
        np.testing.assert_array_equal(L.normalized, np.zeros((4, 4)))

    def test_single_point(self):
        L = laplacian_of(np.array([[5.0]]))
        np.testing.assert_array_equal(L.raw, [[0.0]])

    def test_annihilates_constants(self):
        rng = np.random.default_rng(13)
        K = rng.random((6, 6))
        L = laplacian_of(K)
        np.testing.assert_allclose(L.raw @ np.ones(6), 0.0, atol=1e-12)
        np.testing.assert_allclose(L.normalized @ np.ones(6), 0.0, atol=1e-12)

    def test_normalized_diagonal_bounded(self):
        rng = np.random.default_rng(14)
        K = rng.random((5, 5))
        L = laplacian_of(K)
        assert (np.diag(L.normalized) <= 1.0 + 1e-15).all()

    def test_not_square(self):
        with pytest.raises(errors.NotSquare):
            laplacian_of(np.ones((2, 3)))


class TestSmoothingNorm:
    def test_identity_matrix_zero(self):
        S = normalize_rows(np.eye(3))
        assert smoothing_norm(S, [1.0, -4.0, 2.0], 1) == 0.0

    def test_uniform_two_by_two(self):
        S = normalize_rows(np.ones((2, 2)))
        assert smoothing_norm(S, [1.0, -1.0], 1) == pytest.approx(math.sqrt(2))

    def test_constants_always_zero(self):
        rng = np.random.default_rng(15)
        S = normalize_rows(rng.random((6, 6)) + 0.01)
        for m in (1, 2, 3):
            assert smoothing_norm(S, np.full(6, 2.5), m) == pytest.approx(0.0, abs=1e-12)


class TestFilterSolve:
    def test_tiny_lambda_returns_data(self):
        rng = np.random.default_rng(16)
        S = normalize_rows(rng.random((5, 5)) + 0.01)
        g = rng.normal(size=5)
        f = filter_solve(S, g, 1e-12)
        np.testing.assert_allclose(f, g, atol=1e-9)

    def test_identity_kernel_exact(self):
        S = normalize_rows(np.eye(4))
        g = np.array([0.0, 1.0, 2.0, 3.0])
        np.testing.assert_array_equal(filter_solve(S, g, 5.0), g)

    def test_uniform_two_point_hand_solve(self):
        # L = [[.5,-.5],[-.5,.5]], (I + L^T L) f = g solved by direct 2x2 inversion
        S = normalize_rows(np.ones((2, 2)))
        g = np.array([0.0, 2.0])
        L = np.eye(2) - S.values
        A = np.eye(2) + L.T @ L
        expected = np.linalg.inv(A) @ g
        np.testing.assert_allclose(filter_solve(S, g, 1.0), expected, atol=1e-12)
        np.testing.assert_allclose(filter_solve(S, g, 1.0), [0.5, 1.5], atol=1e-12)

    def test_residual_small(self):
        rng = np.random.default_rng(17)
        S = normalize_rows(rng.random((8, 8)))
        g = rng.normal(size=8)
        lam = 3.7
        f = filter_solve(S, g, lam)
        L = np.eye(8) - S.values
        A = np.eye(8) + lam * L.T @ L
        assert np.linalg.norm(A @ f - g) <= 1e-10 * np.linalg.norm(g)


class TestIdentityApproximation:
    """Normalized-Gaussian smoothing of sin on a 1001-point grid over [0, 2pi]."""

    @staticmethod
    def _sup_errors():
        x = np.linspace(0.0, 2.0 * np.pi, 1001)
        f = np.sin(x)
        errs = []
        for h in (0.5, 0.25, 0.1, 0.05):
            S = normalize_rows(gram(gaussian(h), x, x))
            errs.append(np.abs(S.values @ f - f).max())
        return errs

    def test_error_decreases_monotonically(self):
        errs = self._sup_errors()
        assert errs[0] > errs[1] > errs[2] > errs[3]

    def test_error_below_threshold_at_smallest_bandwidth(self):
        # Known red: the sup error is boundary-dominated (~h*sqrt(2/pi), about
        # 0.038 at h=0.05) because the one-sided window at x=0 and x=2*pi
        # biases the normalized mean; the interior error is ~1e-3.  Kept as
        # stated rather than loosened.
        errs = self._sup_errors()
        assert errs[3] < 0.01

    def test_interior_error_is_second_order(self):
        x = np.linspace(0.0, 2.0 * np.pi, 1001)
        f = np.sin(x)
        S = normalize_rows(gram(gaussian(0.05), x, x))
        interior = slice(100, 901)
        assert np.abs((S.values @ f - f)[interior]).max() < 0.01


class TestSelfKernel:
    def test_separable_product(self):
        k = SelfKernel(gaussian(1.0), gaussian(2.0))
        v = k.eval_pair([0.0], [1.0], [1.0], [2.0])
        assert v == pytest.approx(math.exp(-0.5) * math.exp(-1.0 / 8.0), rel=1e-12)

    def test_gram_over_two_column_points_matches_eval(self):
        k = SelfKernel(gaussian(1.0), epanechnikov(2.0))
        rng = np.random.default_rng(5)
        rows, cols = rng.normal(size=(4, 2)), rng.normal(size=(6, 2))
        want = np.array([[k.eval(r, c) for c in cols] for r in rows])
        np.testing.assert_allclose(k.gram_values(rows, cols), want, rtol=1e-14, atol=0)
        with pytest.raises(errors.DimensionMismatch):
            k.gram_values(rng.normal(size=(4, 3)), rng.normal(size=(6, 3)))

    def test_a_difference_factor_makes_it_desmoothing(self):
        k = SelfKernel(derive_kernel("difference", gaussian(1.0), gaussian(0.5)), gaussian(1.0))
        XY = np.random.default_rng(6).normal(size=(5, 2))
        assert k.sign_class == "desmoothing"
        assert gram(k, XY, XY).desmoothing
        with pytest.raises(errors.DesmoothingInput):
            local_reduce(k, XY, XY, XY[:, 1])


class TestFeatureKernel:
    def test_dot_and_expdot(self):
        phi = lambda x: np.asarray(x) ** 2
        psi = lambda x: np.asarray(x) + 1.0
        kd = feature_kernel(phi, psi, "dot")
        ke = feature_kernel(phi, psi, "exp-dot")
        assert eval_kernel(kd, [2.0], [3.0]) == pytest.approx(16.0)
        assert eval_kernel(ke, [2.0], [3.0]) == pytest.approx(math.exp(16.0))

    def test_signed_dot_gram_flagged(self):
        k = feature_kernel(lambda x: np.asarray(x), lambda x: np.asarray(x), "dot")
        X = np.array([[1.0], [-1.0]])
        G = gram(k, X, X)
        assert G.desmoothing
        with pytest.raises(errors.DesmoothingInput):
            normalize_rows(G)


def test_kernel_matrix_immutability_and_sharing():
    X = np.random.default_rng(18).normal(size=(4, 2))
    G = gram(gaussian(1.0), X, X)
    S = normalize_rows(G)
    # normalization must not mutate the gram it was built from
    np.testing.assert_allclose(G.values.sum(1), S.degrees)


def test_point_set_coercion():
    np.testing.assert_array_equal(as_point_set([1.0, 2.0]), [[1.0], [2.0]])
    assert DiracKernel().eval(3.0, 3.0) == 1.0
    assert dirac().eval([3.0], [4.0]) == 0.0


def test_gram_records_provenance():
    X = np.zeros((2, 1))
    G = gram(gaussian(0.5), X, X, rows_id="queries", cols_id="sample")
    assert "Gaussian" in G.kernel_id and "0.5" in G.kernel_id
    assert G.rows_id == "queries" and G.cols_id == "sample"
    assert not G.desmoothing
