"""Shift-iteration tests: fixed points, clustering, Hopfield recall,
medoid mappings, label propagation, and the KDE-ascent facts."""

import numpy as np
import pytest

from locuskit import errors
from locuskit.kernels import (
    concrete,
    dirac,
    epanechnikov,
    feature_kernel,
    gaussian,
    pairwise_sq_dists,
    uniform,
)
from locuskit.shifts import (
    extract_clusters,
    mean_shift,
    medoid_shift,
    mode_shift,
    nn_shift,
    pc_shift,
    relaxation_label,
)


def sq_euclid(a, b):
    return float(((np.asarray(a) - np.asarray(b)) ** 2).sum())


def linear_kernel():
    ident = lambda x: np.asarray(x, dtype=float)
    return feature_kernel(ident, ident, "dot")


def two_blobs(seed=0, n=20, centers=(0.0, 10.0), spread=0.5):
    rng = np.random.default_rng(seed)
    pts = np.concatenate(
        [rng.normal(c, spread, size=n) for c in centers]
    )[:, None]
    labels = np.repeat(np.arange(len(centers)), n)
    return pts, labels


class TestMeanShift:
    def test_single_point_fixed_immediately(self):
        res = mean_shift(gaussian(1.0), [[2.0, 3.0]])
        np.testing.assert_allclose(res.converged, [[2.0, 3.0]])
        assert res.converged_flags.all()
        assert res.iterations[0] == 1  # one check, no movement
        np.testing.assert_array_equal(res.trajectories[0], res.trajectories[-1])

    def test_uniform_kernel_everything_to_global_mean(self):
        X = np.array([[0.0], [1.0], [5.0]])
        res = mean_shift(uniform(), X, alpha=1.0)
        np.testing.assert_allclose(res.converged, np.full((3, 1), 2.0), atol=1e-12)
        assert len(np.unique(res.labels)) == 1

    def test_two_blob_fixed_points_match_weight_oracle(self):
        X, _ = two_blobs(seed=1)
        res = mean_shift(gaussian(1.0), X, alpha=1.0, tol=1e-10)
        assert res.converged_flags.all()
        # oracle: at a fixed point, re-evaluating the local mean moves nothing
        for q in res.converged:
            w = np.exp(-((X[:, 0] - q[0]) ** 2) / 2.0)
            m = w @ X[:, 0] / w.sum()
            assert abs(m - q[0]) < 1e-6
        assert len(np.unique(res.labels)) == 2
        centers = np.sort(res.centers[:, 0])
        assert abs(centers[0] - 0.0) < 0.5 and abs(centers[1] - 10.0) < 0.5

    def test_alpha_one_equals_plain_update(self):
        X, _ = two_blobs(seed=2, n=8)
        r1 = mean_shift(gaussian(1.0), X, alpha=1.0, max_iter=3, tol=1e-15)
        W = np.exp(-((X - X[:, 0]) ** 2) / 2.0)
        manual = (W / W.sum(1, keepdims=True)) @ X
        np.testing.assert_allclose(r1.trajectories[1], manual, atol=1e-12)

    def test_alpha_scales_displacement(self):
        X, _ = two_blobs(seed=3, n=8)
        full = mean_shift(gaussian(1.0), X, alpha=1.0, max_iter=1, tol=1e-15)
        small = mean_shift(gaussian(1.0), X, alpha=0.05, max_iter=1, tol=1e-15)
        d_full = np.linalg.norm(full.trajectories[1] - X, axis=1)
        d_small = np.linalg.norm(small.trajectories[1] - X, axis=1)
        np.testing.assert_allclose(d_small, 0.05 * d_full, rtol=1e-9)

    def test_permutation_equivariance(self):
        X, _ = two_blobs(seed=4, n=10)
        perm = np.random.default_rng(5).permutation(len(X))
        a = mean_shift(gaussian(1.0), X, tol=1e-10)
        b = mean_shift(gaussian(1.0), X[perm], tol=1e-10)
        np.testing.assert_allclose(a.converged[perm], b.converged, atol=1e-9)
        # labels permute consistently up to renaming
        ref = a.labels[perm]
        mapping = {}
        for x, y in zip(ref, b.labels):
            mapping.setdefault(x, y)
            assert mapping[x] == y

    def test_empty_neighborhood_query_frozen_and_flagged(self):
        X = np.array([[0.0], [0.5]])
        res = mean_shift(epanechnikov(1.0), X, queries=[[50.0]])
        assert res.empty_flags[0]
        assert not res.converged_flags[0]
        np.testing.assert_array_equal(res.converged, [[50.0]])

    def test_midway_gaussian_query_not_flagged_empty(self):
        res = mean_shift(gaussian(0.01), [[0.0], [1.0]], queries=[[0.5]])
        assert not res.empty_flags[0]
        assert res.converged_flags[0]
        np.testing.assert_array_equal(res.converged, [[0.5]])

    def test_far_gaussian_query_moves_instead_of_freezing(self):
        # every linear-domain weight underflows at distance 49; in the log
        # domain the first sweep lands on the nearest sample, and the query
        # then climbs to the KDE mode midway between the two samples
        res = mean_shift(gaussian(1.0), [[0.0], [1.0]], queries=[[50.0]], tol=1e-12)
        assert not res.empty_flags[0]
        assert res.converged_flags[0]
        np.testing.assert_array_equal(res.trajectories[1], [[1.0]])
        np.testing.assert_allclose(res.converged, [[0.5]], atol=1e-9)

    def test_shadow_pair_density_nondecreasing_along_trajectory(self):
        # shadow-kernel fact: flat-kernel mean shift climbs the Epanechnikov
        # KDE at the same radius (the Epanechnikov profile's derivative is
        # the flat profile)
        from locuskit.density import kde
        from locuskit.kernels import neighborhood

        X, _ = two_blobs(seed=6, n=15)
        res = mean_shift(neighborhood(2.0), X, alpha=1.0, max_iter=60, tol=1e-12)
        traj = np.stack(res.trajectories)
        for i in range(X.shape[0]):
            dens = [kde(epanechnikov(2.0), X, traj[t, i]) for t in range(traj.shape[0])]
            diffs = np.diff(dens)
            assert (diffs >= -1e-12).all()

    def test_overwrite_sweeps_collapse(self):
        X, _ = two_blobs(seed=7, n=10)
        res = mean_shift(gaussian(1.0), X, overwrite=True, tol=1e-10)
        assert len(np.unique(res.labels)) <= 2


class TestExtractClusters:
    def test_all_identical_one_cluster(self):
        labels, centers = extract_clusters(np.ones((5, 2)), 0.1)
        assert (labels == 0).all()
        np.testing.assert_allclose(centers, [[1.0, 1.0]])

    def test_two_far_points_two_clusters(self):
        labels, _ = extract_clusters([[0.0], [5.0]], 1.0)
        assert list(labels) == [0, 1]

    def test_chain_transitive_linkage(self):
        labels, _ = extract_clusters([[0.0], [0.5], [1.0]], 0.6)
        assert list(labels) == [0, 0, 0]

    def test_first_seen_label_order(self):
        labels, _ = extract_clusters([[10.0], [0.0], [10.1]], 0.5)
        assert list(labels) == [0, 1, 0]


class TestModeShift:
    def test_stored_pattern_is_fixed_point(self):
        X = np.array([[1.0, 1.0, -1.0]])
        res = mode_shift(linear_kernel(), X, queries=X.copy())
        np.testing.assert_array_equal(res.patterns, X)
        assert res.converged_flags.all()

    def test_one_step_recall(self):
        X = np.array([[1.0, 1.0, -1.0]])
        res = mode_shift(linear_kernel(), X, queries=[[1.0, 1.0, 1.0]])
        np.testing.assert_array_equal(res.patterns, [[1.0, 1.0, -1.0]])

    def test_orthogonal_patterns_are_fixed_points(self):
        X = np.array(
            [[1.0, 1.0, 1.0, 1.0], [1.0, -1.0, 1.0, -1.0]]
        )
        assert X[0] @ X[1] == 0
        res = mode_shift(linear_kernel(), X, queries=X.copy())
        np.testing.assert_array_equal(res.patterns, X)
        # direct update oracle: sign(q G) with G = X^T X
        G = X.T @ X
        for q in X:
            np.testing.assert_array_equal(np.where(q @ G >= 0, 1.0, -1.0), q)

    def test_hopfield_energy_nonincreasing(self):
        rng = np.random.default_rng(8)
        X = np.where(rng.random((3, 12)) < 0.5, -1.0, 1.0)
        G = X.T @ X
        q = np.where(rng.random(12) < 0.5, -1.0, 1.0)
        res = mode_shift(linear_kernel(), X, queries=q[None, :], max_iter=50)
        # replay the iteration and check -q G q^T never increases
        cur = q.copy()
        energies = [-(cur @ G @ cur)]
        for _ in range(res.iterations[0]):
            cur = np.where(cur @ G >= 0, 1.0, -1.0)
            energies.append(-(cur @ G @ cur))
        assert all(b <= a + 1e-9 for a, b in zip(energies, energies[1:]))

    def test_cycle_detection_flags(self):
        # antisymmetric concrete kernel on a 2-point domain drives a 2-cycle
        M = np.array([[0.0, 1.0], [-1.0, 0.0]])
        k = concrete(M)
        X = np.array([[1.0], [-1.0]])

        class FlipKernel:
            sign_class = "signed"

            def gram_values(self, rows, cols):
                # weight that always prefers the opposite sign
                return -np.asarray(rows) @ np.asarray(cols).T

            def eval(self, x, y):
                return float(-np.dot(x, y))

        res = mode_shift(FlipKernel(), X, queries=[[1.0]], max_iter=10)
        assert res.cycle_flags[0]
        assert res.last_two[0] is not None

    def test_rejects_non_binary(self):
        with pytest.raises(errors.InvalidParameter):
            mode_shift(linear_kernel(), np.array([[0.5, 1.0]]))


class TestMedoidShift:
    def test_identical_points_single_cluster(self):
        X = np.zeros((4, 2))
        mapping, labels, reps = medoid_shift(gaussian(1.0), sq_euclid, X)
        assert (mapping == 0).all()
        assert (labels == 0).all()

    def test_dirac_kernel_every_point_its_own_medoid(self):
        X = np.array([[0.0], [1.0], [2.0]])
        mapping, labels, _ = medoid_shift(dirac(), sq_euclid, X)
        np.testing.assert_array_equal(mapping, [0, 1, 2])
        assert len(np.unique(labels)) == 3

    def test_three_point_argmin_oracle(self):
        # literal (Kt D) argmin oracle; for this near-symmetric pair the
        # self-weight edge means each point is its own medoid
        X = np.array([[0.0], [0.1], [5.0]])
        mapping, labels, reps = medoid_shift(gaussian(1.0), sq_euclid, X)
        W = np.exp(-((X - X[:, 0]) ** 2) / 2.0)
        Kt = W / W.sum(1, keepdims=True)
        D = (X - X[:, 0]) ** 2
        oracle = (Kt @ D).argmin(1)
        np.testing.assert_array_equal(mapping, oracle)
        assert labels[2] != labels[0]

    def test_clustered_triple_collapses_to_shared_medoid(self):
        X = np.array([[0.0], [0.1], [0.25]])
        mapping, labels, reps = medoid_shift(gaussian(1.0), sq_euclid, X)
        W = np.exp(-((X - X[:, 0]) ** 2) / 2.0)
        oracle = ((W / W.sum(1, keepdims=True)) @ ((X - X[:, 0]) ** 2)).argmin(1)
        np.testing.assert_array_equal(mapping, oracle)
        np.testing.assert_array_equal(mapping, [1, 1, 1])
        assert len(np.unique(labels)) == 1


class TestNnShift:
    def test_all_seeds_unchanged(self):
        X = np.array([[0.0], [1.0], [2.0]])
        labels, edges = nn_shift(X, [0, 1, 2], delta=1.5)
        assert list(labels) == [0, 1, 2]
        assert edges == []

    def test_line_propagation_from_origin(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        labels, edges = nn_shift(X, [0], delta=1.5)
        assert list(labels) == [0, 0, 0, 0]
        assert edges == [(0, 1), (1, 2), (2, 3)]

    def test_small_delta_leaves_rest_unlabeled(self):
        X = np.array([[0.0], [1.0], [2.0]])
        labels, edges = nn_shift(X, [1], delta=0.5)
        assert list(labels) == [-1, 0, -1]
        assert edges == []


class TestPcShift:
    def test_line_data_zero_shift(self):
        t = np.linspace(0, 1, 10)
        X = np.stack([t, 3 * t], 1)
        res = pc_shift(gaussian(1.0), X, r=1)
        np.testing.assert_allclose(res.converged, X, atol=1e-8)
        assert res.converged_flags.all()

    def test_full_rank_projector_identity(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(12, 3))
        res = pc_shift(gaussian(2.0), X, r=2, max_iter=1)
        # r = p-1 here; use r=p via a direct local check instead: with r=p the
        # projector is the identity, so emulate by checking the r=2 step is a
        # genuine contraction toward the local plane rather than identity.
        assert res.trajectories[0].shape == X.shape

    def test_noisy_circle_objective_nonincreasing(self):
        rng = np.random.default_rng(10)
        theta = rng.uniform(0, 2 * np.pi, 40)
        X = np.stack([np.cos(theta), np.sin(theta)], 1) + rng.normal(0, 0.05, (40, 2))
        from locuskit.estimators import Dataset, local_pca

        res = pc_shift(gaussian(0.8), X, r=1, alpha=1.0, max_iter=10, tol=1e-14)
        data = Dataset(X)

        def objective(Q):
            total = 0.0
            for q in Q:
                b = local_pca(gaussian(0.8), data, q, 1)
                resid = (q - b.mu) - b.V @ (b.V.T @ (q - b.mu))
                total += float(resid @ resid)
            return total

        vals = [objective(snap) for snap in res.trajectories]
        assert all(b <= a + 1e-9 for a, b in zip(vals, vals[1:]))


class TestRelaxation:
    def test_dirac_fixed_point(self):
        X = np.array([[0.0], [1.0], [2.0]])
        R = np.eye(3)
        out = relaxation_label(dirac(), X, R, mode="soft", max_iter=5)
        np.testing.assert_allclose(out, R)

    def test_uniform_soft_converges_to_global_distribution(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        R = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        out = relaxation_label(uniform(), X, R, mode="soft", max_iter=1, tol=0)
        np.testing.assert_allclose(out, np.full((4, 2), [0.75, 0.25]))

    def test_hard_stable_partition_unchanged(self):
        X, labels = two_blobs(seed=11, n=12)
        out = relaxation_label(gaussian(1.0), X, labels, mode="hard")
        # one-step oracle sweep
        K = np.exp(-((X - X[:, 0]) ** 2) / 2.0)
        onehot = np.eye(2)[labels]
        oracle = (K @ onehot).argmax(1)
        np.testing.assert_array_equal(out, oracle)
        np.testing.assert_array_equal(out, labels)


class TestMedoidMergeAndPcShiftEdge:
    def test_merge_radius_joins_fragmented_roots(self):
        rng = np.random.default_rng(20)
        X = np.concatenate(
            [rng.normal(0.0, 0.4, (60, 2)), rng.normal(5.0, 0.4, (60, 2))]
        )
        truth = np.repeat([0, 1], 60)
        _, raw_labels, _ = medoid_shift(gaussian(1.0), sq_euclid, X)
        _, merged_labels, _ = medoid_shift(gaussian(1.0), sq_euclid, X, merge_radius=1.0)
        assert len(np.unique(merged_labels)) <= len(np.unique(raw_labels))
        assert len(np.unique(merged_labels)) == 2
        # merged labels agree with the truth up to renaming
        mapping = {}
        for t, m in zip(truth, merged_labels):
            mapping.setdefault(t, m)
            assert mapping[t] == m

    def test_pc_shift_full_dimension_identity(self):
        rng = np.random.default_rng(21)
        X = rng.normal(size=(10, 2))
        res = pc_shift(gaussian(1.0), X, r=2)
        np.testing.assert_array_equal(res.converged, X)
        assert res.converged_flags.all()
        assert (res.iterations == 0).all()


def union_find_clusters(P, merge_radius):
    """Reference single linkage: union-find over every close pair i < j,
    roots at the lowest index, labels by first-seen root, mean centers."""
    P = np.asarray(P, dtype=float)
    n = P.shape[0]
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    d2 = pairwise_sq_dists(P, P)
    for i in range(n):
        for j in range(i + 1, n):
            if d2[i, j] < merge_radius * merge_radius:
                ri, rj = find(i), find(j)
                parent[max(ri, rj)] = min(ri, rj)
    order = {}
    labels = np.array([order.setdefault(find(i), len(order)) for i in range(n)])
    centers = np.stack([P[labels == c].mean(axis=0) for c in range(len(order))])
    return labels, centers


def shuffled_chain(seed, n=400, step=0.1):
    rng = np.random.default_rng(seed)
    t = np.arange(n) * step
    pts = np.column_stack([t, np.sin(t)])
    return pts[rng.permutation(n)]


class TestExtractClustersAgainstUnionFind:
    CASES = {
        "many-components": (lambda: np.random.default_rng(30).uniform(0.0, 10.0, (400, 2)), 0.35),
        "shuffled-chain": (lambda: shuffled_chain(31), 0.15),
        "duplicates": (lambda: np.random.default_rng(32).integers(0, 6, (300, 2)).astype(float), 0.5),
        "singletons": (lambda: np.random.default_rng(33).permutation(
            np.stack(np.meshgrid(np.arange(15.0), np.arange(12.0)), -1).reshape(-1, 2)), 0.5),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_labels_and_centers_equal_reference(self, case):
        make, radius = self.CASES[case]
        P = make()
        labels, centers = extract_clusters(P, radius)
        want_labels, want_centers = union_find_clusters(P, radius)
        np.testing.assert_array_equal(labels, want_labels)
        np.testing.assert_array_equal(centers, want_centers)

    def test_cases_exercise_what_they_name(self):
        labels, _ = extract_clusters(self.CASES["many-components"][0](), 0.35)
        assert 20 < labels.max() + 1 < 400
        chain = shuffled_chain(31)
        labels, _ = extract_clusters(chain, 0.15)
        assert (labels == 0).all()  # one component, hundreds of hops deep
        dup = self.CASES["duplicates"][0]()
        labels, _ = extract_clusters(dup, 0.5)
        assert labels.max() + 1 == len(np.unique(dup, axis=0))
        grid = self.CASES["singletons"][0]()
        labels, _ = extract_clusters(grid, 0.5)
        np.testing.assert_array_equal(labels, np.arange(len(grid)))


def all_rows_mean_shift(k, X, queries=None, alpha=1.0, tol=1e-8, max_iter=500, overwrite=False):
    """Reference loop: every sweep evaluates the gram of every row and then
    updates only the rows still live."""
    X = np.asarray(X, dtype=float)
    Q = (X if queries is None else np.asarray(queries, dtype=float)).copy()
    n = Q.shape[0]
    live = np.ones(n, dtype=bool)
    empty = np.zeros(n, dtype=bool)
    iterations = np.zeros(n, dtype=int)
    trajectories = [Q.copy()]
    ref = X.copy()
    for sweep in range(1, max_iter + 1):
        if not live.any():
            break
        W = k.gram_values(Q, ref)
        deg = W.sum(axis=1)
        dead = (deg <= 0) & live
        empty |= dead
        live &= ~dead
        m = np.zeros_like(Q)
        ok = deg > 0
        m[ok] = (W[ok] @ ref) / deg[ok, None]
        shift = np.zeros(n)
        shift[ok] = np.linalg.norm(m[ok] - Q[ok], axis=1)
        step = live & ok
        Q[step] = alpha * m[step] + (1 - alpha) * Q[step]
        iterations[live] = sweep
        live &= ~(step & (shift < tol))
        trajectories.append(Q.copy())
        if overwrite:
            ref = Q.copy()
    return trajectories, iterations, ~live & ~empty, empty


class TestLiveRowMeanShiftAgainstAllRows:
    def check(self, k, X, **kw):
        got = mean_shift(k, X, **kw)
        traj, iterations, converged_flags, empty_flags = all_rows_mean_shift(k, X, **kw)
        np.testing.assert_array_equal(got.iterations, iterations)
        np.testing.assert_array_equal(got.converged_flags, converged_flags)
        np.testing.assert_array_equal(got.empty_flags, empty_flags)
        # The gram of a row subset is centred on that subset's midrange, and
        # a BLAS product's rounding depends on how many rows it holds, so
        # positions agree to a few units in the last place of the data scale.
        atol = 16 * np.finfo(float).eps * np.abs(traj[0]).max()
        assert len(got.trajectories) == len(traj)
        for snap, want in zip(got.trajectories, traj):
            np.testing.assert_allclose(snap, want, rtol=0, atol=atol)
        np.testing.assert_array_equal(got.converged, got.trajectories[-1])
        return got

    def test_rows_settle_at_different_sweeps(self):
        X, _ = two_blobs(seed=40, n=25, spread=1.0)
        got = self.check(gaussian(1.0), X, alpha=0.7, tol=1e-6)
        assert len(np.unique(got.iterations)) > 3

    def test_two_dimensional_blobs(self):
        rng = np.random.default_rng(41)
        X = np.concatenate([rng.normal(c, 0.6, (30, 2)) for c in (0.0, 4.0)])
        got = self.check(gaussian(0.8), X, tol=1e-7)
        assert len(np.unique(got.iterations)) > 3

    def test_far_queries_flagged_empty_and_frozen(self):
        rng = np.random.default_rng(42)
        X = rng.uniform(0.0, 2.0, (30, 1))
        queries = np.concatenate([rng.uniform(0.0, 2.0, (10, 1)), [[50.0], [-40.0]]])
        got = self.check(epanechnikov(0.6), X, queries=queries, tol=1e-9)
        np.testing.assert_array_equal(got.empty_flags, [False] * 10 + [True, True])
        np.testing.assert_array_equal(got.converged[10:], [[50.0], [-40.0]])
        assert (got.iterations[10:] == 0).all() and got.converged_flags[:10].all()

    def test_overwrite(self):
        X, _ = two_blobs(seed=43, n=12, spread=0.8)
        got = self.check(gaussian(1.0), X, overwrite=True, tol=1e-9)
        assert got.converged_flags.all() and got.iterations.min() > 2

    def test_max_iter_leaves_rows_live(self):
        X, _ = two_blobs(seed=44, n=10)
        got = self.check(gaussian(1.0), X, max_iter=2, tol=1e-12)
        assert not got.converged_flags.any()
