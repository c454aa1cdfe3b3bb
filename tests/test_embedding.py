"""Embedding tests: LLE weights/eigen-embedding, asymmetric MDS by SVD and
NMF, co-occurrence word vectors, and the ternary contrast-kernel descent."""

import tracemalloc

import numpy as np
import pytest

from locuskit import embedding, errors, kernels
from locuskit.embedding import (
    amds_factorize,
    cooccurrence_embed,
    lle_embed,
    lle_objective,
    lle_weights,
    read_corpus,
    trimap_embed,
)
from locuskit.estimators import _fix_signs
from locuskit.kernels import epanechnikov, gram, normalize_rows, pairwise_sq_dists
from locuskit.synth import swiss_roll
from cooccurrence import cooccurrence_counts
from per_pair import pairwise
from triplets import add_at_descent, all_triplets, sampled_triplets


def gaussian_similarity(h):
    return lambda a, b: float(np.exp(-((np.asarray(a) - np.asarray(b)) ** 2).sum() / (2 * h * h)))


class TestLleWeights:
    def test_single_neighbor_weight_one(self):
        X = np.array([[0.0], [1.0], [5.0]])
        S = lle_weights(X, 1)
        assert S.values[0, 1] == 1.0
        assert S.values[0, 0] == 0.0

    def test_midpoint_even_split(self):
        X = np.array([[0.0], [2.0], [1.0]])
        S = lle_weights(X, 2)
        np.testing.assert_allclose(S.values[2], [0.5, 0.5, 0.0], atol=1e-9)

    def test_exact_affine_reconstruction(self):
        # equally spaced points on a line: interior neighbors bracket each
        # point, so an exact convex (clip-safe) combination exists
        t = np.linspace(0, 1, 10)
        X = np.stack([t, 2 * t + 1], 1)
        S = lle_weights(X, 2)
        interior = range(1, 9)
        for i in interior:
            resid = np.linalg.norm(X[i] - S.values[i] @ X)
            assert resid < 1e-8

    def test_row_structure_invariants(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(15, 3))
        S = lle_weights(X, 4)
        np.testing.assert_allclose(S.values.sum(1), 1.0, atol=1e-12)
        assert (S.values >= 0).all()
        np.testing.assert_array_equal(np.diag(S.values), np.zeros(15))
        assert ((S.values > 0).sum(1) <= 4).all()

    def test_translation_invariance(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(12, 2))
        a = lle_weights(X, 3).values
        b = lle_weights(X + np.array([100.0, -40.0]), 3).values
        np.testing.assert_allclose(a, b, atol=1e-6)

    def test_bad_neighbor_count(self):
        with pytest.raises(errors.InvalidParameter):
            lle_weights(np.zeros((4, 2)), 4)

    @pytest.mark.parametrize("k", [1.9, "2", True])
    def test_a_non_integral_neighbor_count_is_rejected_not_truncated(self, k):
        with pytest.raises(errors.InvalidParameter, match="must be an integer"):
            lle_weights(np.arange(12.0).reshape(6, 2), k)


class TestLleRidge:
    """Every row solves (C + 1e-9 trace(C) I) w = 1, in one batched solve per row block."""

    def test_every_row_is_the_ridged_solve(self):
        # k = 8 > p = 3: each local Gram has rank <= 3, so every row's
        # weights come from the ridge
        X, _ = swiss_roll(60, 1)
        k = 8
        D2 = pairwise_sq_dists(X, X)
        np.fill_diagonal(D2, np.inf)
        nbrs = np.argsort(D2, axis=1, kind="stable")[:, :k]
        S = lle_weights(X, k).values
        for i, nbr in enumerate(nbrs):
            Z = X[nbr] - X[i]
            C = Z @ Z.T
            w = np.linalg.solve(C + 1e-9 * np.trace(C) * np.eye(k), np.ones(k))
            w = np.clip(w / w.sum(), 0.0, None)
            np.testing.assert_allclose(S[i, nbr], w / w.sum(), rtol=0, atol=1e-12)

    def test_coincident_neighbors_get_uniform_weights(self):
        # the first three points coincide, so point 0's Gram is zero (trace 0)
        X = np.array([[1.0, 2.0], [1.0, 2.0], [1.0, 2.0], [5.0, 5.0], [9.0, 0.0]])
        S = lle_weights(X, 2).values
        np.testing.assert_array_equal(S[0], [0.0, 0.5, 0.5, 0.0, 0.0])

    def test_weights_do_not_depend_on_the_block_height(self):
        X, _ = swiss_roll(90, 2)
        S = lle_weights(X, 10).values
        # one row per block, a few rows per block, one block
        for entries in (1, 7 * 90, 2**16):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(kernels, "_BLOCK_ENTRIES", entries)
                np.testing.assert_array_equal(lle_weights(X, 10).values, S)


class TestLleEmbed:
    def test_identity_matrix_zero_objective(self):
        S = normalize_rows(np.eye(6))
        res = lle_embed(S, 2)
        assert res.objective == pytest.approx(0.0, abs=1e-12)
        assert res.Z.shape == (6, 2)

    def test_orthogonality_scaling(self):
        rng = np.random.default_rng(3)
        S = lle_weights(rng.normal(size=(20, 3)), 5)
        res = lle_embed(S, 3)
        np.testing.assert_allclose(res.Z.T @ res.Z / 20, np.eye(3), atol=1e-8)

    def test_line_recovered_monotone_with_fixed_epanechnikov_kernel(self):
        t = np.linspace(0.0, 1.0, 30)
        X = np.stack([t, 2 * t], 1)
        S = normalize_rows(gram(epanechnikov(0.2), X, X))
        res = lle_embed(S, 1)
        z = res.Z[:, 0]
        order = np.argsort(z)
        fwd = np.arange(30)
        assert (order == fwd).all() or (order == fwd[::-1]).all()

    def test_lle_beats_pca_on_its_own_objective(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(25, 4))
        S = lle_weights(X, 6)
        res = lle_embed(S, 2)
        Xc = X - X.mean(0)
        U, _, _ = np.linalg.svd(Xc, full_matrices=False)
        Z_pca = U[:, :2] * np.sqrt(25)
        assert lle_objective(S, res.Z) <= lle_objective(S, Z_pca) + 1e-9

    def test_objective_field_matches_formula(self):
        rng = np.random.default_rng(5)
        S = lle_weights(rng.normal(size=(18, 3)), 5)
        res = lle_embed(S, 2)
        assert lle_objective(S, res.Z) == pytest.approx(18 * res.objective, rel=1e-8)


def lle_matrix(W):
    """M = (I - W)^T (I - W), formed as lle_embed forms it."""
    M = W.T @ W
    M -= W
    M -= W.T
    M.flat[:: len(W) + 1] += 1.0
    return M


class TestLleSolver:
    """Shifted block inverse iteration, and the full eigh it falls back to."""

    def test_iterative_branch_matches_full_eigh(self):
        X, _ = swiss_roll(400, 3)
        S = lle_weights(X, 10)
        res = lle_embed(S, 2)
        assert res.iterations > 0
        eigvals, eigvecs = np.linalg.eigh(lle_matrix(S.values))
        assert res.objective == pytest.approx(eigvals[1:3].sum(), rel=1e-6)
        # cosines of the principal angles between the kept span and eigh's
        cosines = np.linalg.svd(eigvecs[:, 1:3].T @ res.Z / np.sqrt(400), compute_uv=False)
        assert cosines.min() >= 1 - 1e-10
        np.testing.assert_allclose(res.Z, _fix_signs(eigvecs[:, 1:3]) * np.sqrt(400), rtol=0, atol=1e-6)

    def test_zero_shift_falls_back_to_eigh(self):
        # M = 0, so the shift 1e-9 trace(M) / N is 0
        res = lle_embed(normalize_rows(np.eye(6)), 2)
        assert res.iterations == 0
        assert res.objective == 0.0

    def test_solve_cap_falls_back_to_eigh(self, monkeypatch):
        X, _ = swiss_roll(300, 1)
        S = lle_weights(X, 10)
        monkeypatch.setattr(embedding, "_MAX_SHIFTED_SOLVES", 1)
        res = lle_embed(S, 2)
        assert res.iterations == 0
        eigvals, eigvecs = np.linalg.eigh(lle_matrix(S.values))
        np.testing.assert_array_equal(res.Z, _fix_signs(eigvecs[:, 1:3]) * np.sqrt(300))
        assert res.objective == float(eigvals[1:3].sum())

    @pytest.mark.parametrize(
        "X, k",
        [
            (swiss_roll(60, 1)[0], 8),
            (swiss_roll(300, 2)[0], 10),
            (swiss_roll(400, 3)[0], 1),
            (np.array([[1.0, 2.0], [1.0, 2.0], [1.0, 2.0], [5.0, 5.0], [9.0, 0.0]]), 2),
        ],
        ids=["roll-60", "roll-300", "roll-400-one-neighbor", "coincident-points"],
    )
    def test_knn_assembly_matches_the_dense_product(self, X, k):
        neighbors, weights = embedding._lle_knn_weights(X, k)
        W = lle_weights(X, k).values
        np.testing.assert_array_equal(np.take_along_axis(W, neighbors, axis=1), weights)
        dense = lle_matrix(W)
        bound = 1e-15 * np.abs(dense).sum(axis=1).max()
        assert np.abs(embedding._knn_lle_matrix(neighbors, weights) - dense).max() <= bound

    def test_knn_path_allocates_at_most_one_square_array(self):
        n = 500
        X, _ = swiss_roll(n, 2)
        tracemalloc.start()
        try:
            lle_embed(embedding._lle_knn_weights(X, 10), 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= n * n * 8 + 2**20

    def test_allocates_at_most_two_square_arrays(self):
        n = 500
        X, _ = swiss_roll(n, 2)
        S = lle_weights(X, 10)
        tracemalloc.start()
        try:
            lle_embed(S, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * n * n * 8 + 2**20


class TestAmds:
    def test_rank_q_exact(self):
        rng = np.random.default_rng(6)
        A = rng.random((6, 2))
        B = rng.random((5, 2))
        K = A @ B.T
        _, _, strain, _ = amds_factorize(K, 2, method="svd")
        assert strain == pytest.approx(0.0, abs=1e-18 * (K**2).sum() + 1e-20)

    def test_full_rank_strain_negligible(self):
        rng = np.random.default_rng(7)
        K = rng.random((4, 4))
        _, _, strain, _ = amds_factorize(K, 4, method="svd")
        assert strain < 1e-18 * (K**2).sum() + 1e-24

    def test_svd_reconstruction_factors(self):
        rng = np.random.default_rng(8)
        K = rng.random((5, 7))
        Phi, Psi, strain, _ = amds_factorize(K, 3, method="svd")
        U, S, Vt = np.linalg.svd(K, full_matrices=False)
        best = (S[3:] ** 2).sum()
        assert strain == pytest.approx(best, rel=1e-10)
        np.testing.assert_allclose(Phi @ Psi.T, U[:, :3] * S[:3] @ Vt[:3], atol=1e-10)

    def test_nmf_monotone_strain(self):
        rng = np.random.default_rng(9)
        K = rng.random((4, 4)) + 0.1
        Phi, Psi, strain, hist = amds_factorize(K, 2, method="nmf", iters=200, rng_seed=0)
        assert (Phi >= 0).all() and (Psi >= 0).all()
        diffs = np.diff(hist)
        assert (diffs <= 1e-10 * (1 + hist[:-1])).all()

    def test_svd_beats_nmf(self):
        rng = np.random.default_rng(10)
        K = rng.random((6, 6)) + 0.05
        _, _, s_svd, _ = amds_factorize(K, 2, method="svd")
        _, _, s_nmf, _ = amds_factorize(K, 2, method="nmf", iters=300, rng_seed=1)
        assert s_svd <= s_nmf + 1e-12

    def test_nmf_rejects_negative(self):
        with pytest.raises(errors.NegativeInputForNMF):
            amds_factorize(np.array([[1.0, -0.1], [0.2, 0.5]]), 1, method="nmf")

    def test_determinism(self):
        rng = np.random.default_rng(11)
        K = rng.random((5, 5))
        a = amds_factorize(K, 2, method="nmf", iters=50, rng_seed=3)
        b = amds_factorize(K, 2, method="nmf", iters=50, rng_seed=3)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])


class TestCooccurrence:
    def test_single_pair_window(self):
        wv = cooccurrence_embed([["a", "b"]], 1)
        assert wv.vocabulary == ["a", "b"]
        ia = wv.vocabulary.index("a")
        ib = wv.vocabulary.index("b")
        # 2x2 SVD of log1p([[0,1],[1,0]]): top direction (1,1)/sqrt(2)
        dot = float(wv.input_vectors[ia] @ wv.output_vectors[ib])
        assert dot > 0

    def test_disjoint_vocabularies_zero_cross_products(self):
        windows = [["a", "b"], ["c", "d"]]
        wv = cooccurrence_embed(windows, 3)
        ia, ic = wv.vocabulary.index("a"), wv.vocabulary.index("c")
        # full rank here is 4; rank-3 keeps the blocks orthogonal
        assert abs(wv.input_vectors[ia] @ wv.output_vectors[ic]) < 1e-10

    def test_repetition_preserves_top_direction(self):
        once = cooccurrence_embed([["a", "b"]], 1)
        tenfold = cooccurrence_embed([["a", "b"]] * 10, 1)
        u1 = once.input_vectors[:, 0] / np.linalg.norm(once.input_vectors[:, 0])
        u10 = tenfold.input_vectors[:, 0] / np.linalg.norm(tenfold.input_vectors[:, 0])
        np.testing.assert_allclose(np.abs(u1 @ u10), 1.0, atol=1e-8)

    def test_empty_corpus(self):
        with pytest.raises(errors.EmptyCorpus):
            cooccurrence_embed([], 1)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_counts_match_the_loop_reference_on_ragged_windows(self, seed):
        # windows of lengths 0 to 6 drawn from 5 tokens, so most of them repeat a token
        rng = np.random.default_rng(seed)
        windows = [list(rng.choice(list("abcde"), size=rng.integers(0, 7))) for _ in range(60)]
        vocab, C = embedding._cooccurrence_counts(windows)
        want_vocab, want_C = cooccurrence_counts(windows)
        assert vocab == want_vocab
        assert C.dtype == want_C.dtype
        np.testing.assert_array_equal(C, want_C)

    def test_read_corpus_windows(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("The cat SAT on the mat")
        windows = read_corpus(path, 3)
        assert windows[0] == ["the", "cat", "sat"]
        assert len(windows) == 4
        assert all(len(w) == 3 for w in windows)


class TestTrimap:
    def test_objective_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(3, 2))
        sim = gaussian_similarity(1.0)
        res = trimap_embed(
            X, pairwise(sim), q=2, h="identity", steps=1, lr=0.0, rng_seed=5, full_triplets=True
        )
        Z0 = 0.1 * np.random.default_rng(5).standard_normal((3, 2))
        total = 0.0
        for i in range(3):
            for j in range(3):
                if j == i:
                    continue
                for k in range(3):
                    if k in (i, j):
                        continue
                    Kv = sim(X[i], X[j]) / (sim(X[i], X[j]) + sim(X[i], X[k]))
                    u = ((Z0[i] - Z0[j]) ** 2).sum() - ((Z0[i] - Z0[k]) ** 2).sum()
                    total += Kv * u
        assert res.history[0] == pytest.approx(total, rel=1e-10)

    def test_all_identical_points_zero_gradient_at_origin(self):
        X = np.zeros((4, 2))
        sim = pairwise(lambda a, b: 1.0)
        res = trimap_embed(X, sim, q=2, h="identity", steps=3, lr=0.5, rng_seed=6, full_triplets=True)
        # contrast kernel is exactly 1/2 everywhere; at any centrally
        # symmetric configuration gradients cancel pairwise over (j, k) swaps
        assert np.isfinite(res.objective)
        # the K=1/2 structure: check directly
        assert res.history.shape == (4,)

    def test_two_tight_clusters_separate(self):
        # h=identity is unbounded below (pushing contrasts to infinity keeps
        # paying), so the structural test uses the saturating transform
        rng = np.random.default_rng(13)
        X = np.concatenate([rng.normal(0, 0.05, (8, 2)), rng.normal(5, 0.05, (8, 2))])
        labels = np.repeat([0, 1], 8)
        sim = pairwise(gaussian_similarity(1.0))
        res = trimap_embed(X, sim, q=2, h="log1p", steps=150, lr=0.05, rng_seed=7)
        Z = res.Z
        intra, inter = [], []
        for i in range(16):
            for j in range(i + 1, 16):
                d = np.linalg.norm(Z[i] - Z[j])
                (intra if labels[i] == labels[j] else inter).append(d)
        assert np.mean(intra) < np.mean(inter)

    def test_zero_init_symmetric_gradient_is_fixed(self):
        # all points identical: the contrast kernel is 1/2 for every triplet
        # and the gradient at Z = 0 vanishes, so descent never moves
        X = np.zeros((4, 2))
        res = trimap_embed(
            X,
            pairwise(lambda a, b: 1.0),
            q=2,
            h="identity",
            steps=5,
            lr=0.5,
            rng_seed=6,
            full_triplets=True,
            init=np.zeros((4, 2)),
        )
        np.testing.assert_array_equal(res.Z, np.zeros((4, 2)))
        np.testing.assert_array_equal(res.history, np.zeros(6))

    def test_log1p_transform_stays_finite(self):
        # the signed extension must stay finite for arguments below -1
        rng = np.random.default_rng(14)
        X = rng.normal(size=(6, 2)) * 3
        sim = pairwise(gaussian_similarity(2.0))
        res = trimap_embed(X, sim, q=2, h="log1p", steps=30, lr=0.1, rng_seed=8)
        assert np.isfinite(res.history).all()

    def test_invalid_parameters(self):
        with pytest.raises(errors.InvalidParameter):
            trimap_embed(np.zeros((2, 2)), pairwise(lambda a, b: 1.0), q=2)
        with pytest.raises(errors.InvalidParameter):
            trimap_embed(np.zeros((4, 2)), pairwise(lambda a, b: 1.0), q=2, h="cubic")

    @pytest.mark.parametrize("field", ["q", "steps", "n_neighbors", "n_contrast"])
    def test_a_count_below_one_is_rejected(self, field):
        with pytest.raises(errors.InvalidParameter, match=field):
            trimap_embed(np.eye(4), pairwise(lambda a, b: 1.0), **{"q": 2, field: 0})

    def test_the_similarity_is_called_once_on_the_whole_set(self):
        X = np.random.default_rng(15).normal(size=(9, 2))
        calls = []

        def similarity(A, B):
            calls.append((A.shape, B.shape))
            return kernels.gaussian(1.0).gram_values(A, B)

        trimap_embed(X, similarity, q=2, steps=3, rng_seed=1)
        assert calls == [((9, 2), (9, 2))]

    def test_a_per_pair_similarity_is_a_shape_mismatch(self):
        with pytest.raises(errors.ShapeMismatch, match=r"similarity\(A, B\) must return the pairwise \(4, 4\)"):
            trimap_embed(np.eye(4), gaussian_similarity(1.0), q=2)

    def test_negative_or_non_finite_similarities_are_rejected(self):
        with pytest.raises(errors.InvalidParameter, match="non-negative"):
            trimap_embed(np.eye(4), lambda A, B: -np.ones((len(A), len(B))), q=2)
        with pytest.raises(errors.DomainError, match="non-finite"):
            trimap_embed(np.eye(4), lambda A, B: np.full((len(A), len(B)), np.inf), q=2)

    @pytest.mark.parametrize("q", [1, 2, 3])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bincount_descent_matches_the_add_at_reference(self, q, seed):
        # the same S, triplets and start, so Z and every loss must agree bit for bit with three np.add.at per step
        rng = np.random.default_rng([seed, q])
        X = rng.normal(size=(40, 3))
        Z0 = rng.normal(size=(40, q))
        similarity = kernels.gaussian(1.5).gram_values
        S = similarity(X, X)
        i1, i2, i3 = embedding._sampled_triplets(S, 6, 5, np.random.default_rng(seed))
        denom = S[i1, i2] + S[i1, i3]
        assert (denom > 0).all()  # trimap_embed keeps every triplet
        K = S[i1, i2] / denom
        for h in ("identity", "log1p"):
            res = trimap_embed(
                X, similarity, q=q, h=h, steps=25, lr=0.01, rng_seed=seed, n_neighbors=6, n_contrast=5, init=Z0
            )
            Z, history = add_at_descent(Z0, i1, i2, i3, K, h, 25, 0.01)
            np.testing.assert_array_equal(res.Z, Z)
            np.testing.assert_array_equal(res.history, history)


class TestTripletBuilders:
    """The array builders against the loop references in ``tests/triplets.py``, bit for bit."""

    @pytest.mark.parametrize("n", [3, 4, 5, 8, 13])
    def test_all_triplets_match_the_loop_reference(self, n):
        want = all_triplets(n)
        got = np.column_stack(embedding._all_triplets(n))
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("n", [3, 4, 7, 40, 90])
    @pytest.mark.parametrize("n_neighbors, n_contrast", [(10, 10), (1, 1), (2, 60), (60, 3)])
    @pytest.mark.parametrize("ties", [False, True], ids=["distinct", "tie-heavy"])
    def test_sampled_triplets_match_the_loop_reference(self, n, n_neighbors, n_contrast, ties):
        for seed in (0, 1, 2):
            rng = np.random.default_rng([seed, n])
            # a tie-heavy S has three values, so most neighbor choices fall to the index rule
            S = rng.integers(0, 3, size=(n, n)).astype(float) if ties else rng.random((n, n))
            want = sampled_triplets(S, n_neighbors, n_contrast, np.random.default_rng(seed))
            got = np.column_stack(embedding._sampled_triplets(S, n_neighbors, n_contrast, np.random.default_rng(seed)))
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)

    def test_the_draws_leave_the_generator_where_the_reference_does(self):
        S = np.random.default_rng(3).random((20, 20))
        a, b = np.random.default_rng(4), np.random.default_rng(4)
        sampled_triplets(S, 5, 7, a)
        embedding._sampled_triplets(S, 5, 7, b)
        assert a.random() == b.random()
