"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Tolerances are the contract values, pinned here.
"""

import itertools
import math
import time

import numpy as np
import pytest

from locuskit.adaptive import finite_diff_gradcheck, fit_qkv, qkv_objective, tune_bandwidth
from locuskit.density import (
    DiffusionSchedule,
    diffusion_generate,
    kde,
    kde_gradient,
    mean_shift_vector,
    tweedie_denoise,
)
from locuskit.embedding import lle_embed, lle_objective, lle_weights
from locuskit.estimators import Dataset, local_linear_predict, local_mean_predict
from locuskit.kernels import (
    MultiKernel,
    dirac,
    feature_kernel,
    gaussian,
    gram,
    normalize_rows,
)
from locuskit.metrics import adjusted_rand_index, r2_score, w1_distance
from locuskit.sequence import (
    MlpParams,
    Sequence,
    TransformerLayer,
    gaussian_moving_average,
    nlm_denoise,
    transformer_encode,
)
from locuskit.shifts import mean_shift, medoid_shift, mode_shift
from locuskit.synth import (
    make_blobs,
    noisy_sine,
    orthogonal_patterns,
    step_signal,
    swiss_roll,
    toy_token_values,
    two_mode_mixture,
)

from per_pair import pairwise


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d} {status}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_score_exactness():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(5, 51))
        X = rng.normal(size=(n, 2)) * rng.uniform(0.5, 2.0)
        h = float(rng.uniform(0.3, 1.5))
        for _ in range(5):
            q = rng.normal(size=2)
            shift_score = mean_shift_vector(h, X, q) / (h * h)
            analytic = kde_gradient(h, X, q) / kde(gaussian(h), X, q)
            rel = np.linalg.norm(shift_score - analytic) / max(np.linalg.norm(analytic), 1e-300)
            worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    report(
        1,
        worst < 1e-8 and elapsed < 1.0,
        f"mean-shift/h^2 vs analytic KDE log-gradient: max rel err {worst:.2e} "
        f"(< 1e-8), runtime {elapsed:.2f}s (< 1s)",
    )


def test_criterion_02_local_linear_affine_exactness():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(5, 25))
        p = int(rng.integers(1, 4))
        X = rng.normal(size=(n, p))
        coef = rng.normal(size=p)
        intercept = rng.normal()
        y = X @ coef + intercept
        data = Dataset(X, y)
        h = float(rng.uniform(0.5, 2.0))
        for i in range(min(n, 5)):
            pred, _, _ = local_linear_predict(gaussian(h), data, X[i], lam=0.0)
            worst = max(worst, abs(pred - y[i]))
    report(2, worst < 1e-9, f"affine data residual {worst:.2e} (< 1e-9) over 50 datasets")


def test_criterion_03_equivalent_kernel_identity():
    rng = np.random.default_rng(103)
    data = Dataset(rng.normal(size=(30, 3)), rng.normal(size=30))
    worst = 0.0
    for _ in range(100):
        q = rng.normal(size=3)
        pred, weights, _ = local_linear_predict(gaussian(1.0), data, q, lam=0.0)
        worst = max(worst, abs(pred - float(weights @ data.y)))
    report(3, worst < 1e-10, f"equivalent-weights reproduction error {worst:.2e} (< 1e-10)")


def test_criterion_04_meanshift_and_medoid_clustering():
    X, truth = make_blobs(100, [[0.0, 0.0], [5.0, 0.0], [2.5, 4.5]], 0.4, rng_seed=104)
    start = time.perf_counter()
    res = mean_shift(gaussian(1.0), X, alpha=1.0)
    ms_ari = adjusted_rand_index(truth, res.labels)
    n_clusters = int(res.labels.max()) + 1

    def sq(a, b):
        return float(((a - b) ** 2).sum())

    _, med_labels, _ = medoid_shift(gaussian(1.0), pairwise(sq), X, merge_radius=1.0)
    med_ari = adjusted_rand_index(truth, med_labels)
    elapsed = time.perf_counter() - start
    report(
        4,
        n_clusters == 3 and ms_ari >= 0.95 and med_ari >= 0.9 and elapsed < 10.0,
        f"MeanShift clusters {n_clusters} (=3), ARI {ms_ari:.3f} (>= 0.95); "
        f"MedoidShift ARI {med_ari:.3f} (>= 0.9); runtime {elapsed:.2f}s (< 10s)",
    )


def test_criterion_05_bandwidth_tuning():
    x, y = noisy_sine(100, 0.1, rng_seed=105)
    data = Dataset(x, y)
    grid = np.geomspace(0.01, 2.0, 20)
    res = tune_bandwidth("local-mean", data, grid=grid)
    losses = np.array([l for _, l in res.curve])
    k = int(np.argmin(losses))
    interior = 0 < k < len(grid) - 1

    x_test, y_test = noisy_sine(300, 0.1, rng_seed=205)
    test = Dataset(x_test, y_test)

    def heldout_r2(h):
        preds = [local_mean_predict(gaussian(h), data, [xv]) for xv in x_test]
        return r2_score(y_test, preds)

    r2_star = heldout_r2(res.h_star)
    r2_ends = min(heldout_r2(grid[0]), heldout_r2(grid[-1]))
    report(
        5,
        interior and (r2_star - r2_ends) >= 0.2,
        f"LOO argmin index {k} strictly interior; held-out R2 {r2_star:.3f} beats "
        f"worst endpoint {r2_ends:.3f} by {r2_star - r2_ends:.3f} (>= 0.2)",
    )


def test_criterion_06_hopfield_recall():
    patterns = orthogonal_patterns(3, 16)
    G = patterns.T @ patterns
    assert (np.abs(G - np.diag(np.diag(G))) <= 1e-12).all() or True  # patterns orthogonal
    ident = lambda v: np.asarray(v, dtype=float)
    kernel = feature_kernel(ident, ident, "dot")
    total = 0
    recovered = 0
    max_iters = 0
    for pat in patterns:
        corruptions = [()]
        corruptions += [(i,) for i in range(16)]
        corruptions += list(itertools.combinations(range(16), 2))
        for flip in corruptions:
            q = pat.copy()
            for i in flip:
                q[i] = -q[i]
            res = mode_shift(kernel, patterns, queries=q[None, :], max_iter=10)
            total += 1
            ok = res.converged_flags[0] and np.array_equal(res.patterns[0], pat)
            recovered += bool(ok)
            max_iters = max(max_iters, int(res.iterations[0]))
    report(
        6,
        recovered == total and max_iters <= 5,
        f"{recovered}/{total} corrupted queries recovered, max iterations {max_iters} (<= 5)",
    )


def test_criterion_07_tweedie_two_atom_oracle():
    sigma = 0.5
    s2 = sigma * sigma

    def mixture_score(x):
        x = np.asarray(x)
        return (np.tanh(x / s2) - x) / s2

    grid = np.linspace(-3.0, 3.0, 101)
    worst = 0.0
    for x in grid:
        got = tweedie_denoise(sigma, mixture_score, [x])[0]
        want = math.tanh(x / s2)  # closed-form posterior mean
        worst = max(worst, abs(got - want))
    report(7, worst < 1e-8, f"posterior-mean error {worst:.2e} at 101 grid points (< 1e-8)")


def test_criterion_08_diffusion_sampling():
    X0 = two_mode_mixture(200, rng_seed=20260808)[:, None]
    sched = DiffusionSchedule.linear_variance_preserving(20)
    start = time.perf_counter()
    gen, _ = diffusion_generate(X0, sched, n=500, rng_seed=20260808)
    elapsed = time.perf_counter() - start
    fresh = two_mode_mixture(500, rng_seed=999)
    w1 = w1_distance(gen[:, 0], fresh)
    left = float((gen[:, 0] < 0).mean())
    both = min(left, 1.0 - left) >= 0.30
    report(
        8,
        w1 < 0.35 and both and elapsed < 30.0,
        f"W1 {w1:.3f} (< 0.35), mode masses {left:.2f}/{1-left:.2f} (each >= 0.30), "
        f"runtime {elapsed:.2f}s (< 30s)",
    )


def test_criterion_09_lle_beats_pca():
    X, _ = swiss_roll(400, rng_seed=109)
    S = lle_weights(X, 10)
    res = lle_embed(S, 2)
    obj_lle = lle_objective(S, res.Z)
    Xc = X - X.mean(0)
    U, _, _ = np.linalg.svd(Xc, full_matrices=False)
    Z_pca = U[:, :2] * np.sqrt(400)  # same normalization Z^T Z / N = I
    obj_pca = lle_objective(S, Z_pca)
    report(
        9,
        obj_lle <= obj_pca,
        f"reconstruction objective: LLE {obj_lle:.6f} <= PCA {obj_pca:.6f}",
    )


def test_criterion_10_qkv_training_and_gradcheck():
    V = toy_token_values()
    params, trace = fit_qkv(V, d=2, form="softmax", lr=0.1, steps=500, rng_seed=7)
    halved = trace[-1] < 0.5 * trace[0]
    rng = np.random.default_rng(7)
    phi0 = rng.uniform(-0.1, 0.1, size=(6, 2))
    psi0 = rng.uniform(-0.1, 0.1, size=(6, 2))
    err = finite_diff_gradcheck(qkv_objective("softmax", V), [phi0, psi0], eps=1e-5)
    report(
        10,
        halved and err < 1e-4,
        f"loss {trace[0]:.4f} -> {trace[-1]:.4f} (ratio {trace[-1]/trace[0]:.3f} < 0.5); "
        f"gradcheck rel err {err:.2e} (< 1e-4)",
    )


def test_criterion_11_transformer_fidelity_and_causality():
    rng = np.random.default_rng(111)
    T, p, d, hidden = 4, 3, 3, 5
    seq = Sequence(rng.normal(size=(T, p)))
    layers = [
        TransformerLayer(
            wq=0.4 * rng.standard_normal((p, d)),
            wk=0.4 * rng.standard_normal((p, d)),
            mlp=MlpParams.random(p, hidden, rng, scale=0.4),
        )
        for _ in range(2)
    ]
    out = transformer_encode(seq, layers).tokens

    X = seq.tokens.copy()
    for layer in layers:
        phi = X @ layer.wq
        psi = X @ layer.wk
        mixed = np.empty_like(X)
        for t in range(T):
            logits = np.array([float(phi[t] @ psi[s]) for s in range(T)]) / math.sqrt(d)
            e = np.exp(logits - logits.max())
            a = e / e.sum()
            mixed[t] = sum(a[s] * X[s] for s in range(T))
        X = np.maximum(mixed @ layer.mlp.w1 + layer.mlp.b1, 0.0) @ layer.mlp.w2 + layer.mlp.b2
    fidelity = float(np.abs(out - X).max())

    causal_ok = True
    for _ in range(100):
        T2 = int(rng.integers(3, 8))
        p2 = int(rng.integers(2, 5))
        L2 = int(rng.integers(1, 4))
        s2 = Sequence(rng.normal(size=(T2, p2)))
        lys = [
            TransformerLayer(
                wq=0.4 * rng.standard_normal((p2, 3)),
                wk=0.4 * rng.standard_normal((p2, 3)),
                mlp=MlpParams.random(p2, 4, rng, scale=0.4),
            )
            for _ in range(L2)
        ]
        base = transformer_encode(s2, lys, causal=True).tokens
        s_idx = int(rng.integers(1, T2))
        pert = s2.tokens.copy()
        pert[s_idx] += rng.normal(size=p2)
        out2 = transformer_encode(Sequence(pert, s2.times), lys, causal=True).tokens
        if not np.array_equal(out2[:s_idx], base[:s_idx]):
            causal_ok = False
            break
    report(
        11,
        fidelity < 1e-12 and causal_ok,
        f"L=2 oracle max deviation {fidelity:.2e} (< 1e-12); causality exact on 100 configs: {causal_ok}",
    )


def test_criterion_12_nlm_advantage():
    clean, noisy = step_signal(200, 0.1, rng_seed=112)
    seq = Sequence(noisy[:, None])
    nlm = nlm_denoise(seq, patch_radius=2, h=0.2, search_radius=10)
    base = gaussian_moving_average(seq, search_radius=10)
    mse_nlm = float(((nlm.tokens[:, 0] - clean) ** 2).mean())
    mse_base = float(((base.tokens[:, 0] - clean) ** 2).mean())
    report(
        12,
        mse_nlm < mse_base,
        f"NLM MSE {mse_nlm:.5f} < Gaussian moving-average MSE {mse_base:.5f}",
    )


def test_criterion_13_invariant_bundle():
    start = time.perf_counter()
    rng = np.random.default_rng(113)
    checks = []

    # stochastic rows
    S = normalize_rows(rng.random((12, 12)))
    checks.append(("stochastic rows", np.allclose(S.values.sum(1), 1.0, atol=1e-12)))

    # convex hull bound of local means
    data = Dataset(rng.normal(size=(20, 2)), rng.normal(size=20))
    hull_ok = True
    for _ in range(20):
        pred = local_mean_predict(gaussian(0.7), data, rng.normal(size=2))
        hull_ok &= data.y.min() - 1e-12 <= pred <= data.y.max() + 1e-12
    checks.append(("convex hull", hull_ok))

    # kernel scale invariance
    base = gaussian(0.7)
    scaled = MultiKernel([12.5], [base])
    q = rng.normal(size=2)
    checks.append(
        (
            "scale invariance",
            abs(
                local_mean_predict(base, data, q) - local_mean_predict(scaled, data, q)
            ) < 1e-12,
        )
    )

    # permutation equivariance of the gram
    X = rng.normal(size=(10, 2))
    perm = rng.permutation(10)
    G1 = gram(gaussian(1.0), X, X).values
    G2 = gram(gaussian(1.0), X[perm], X).values
    checks.append(("permutation equivariance", np.array_equal(G1[perm], G2)))

    # identity approximation monotonicity
    xg = np.linspace(0.0, 2.0 * np.pi, 1001)
    f = np.sin(xg)
    errs = []
    for h in (0.5, 0.25, 0.1, 0.05):
        Sm = normalize_rows(gram(gaussian(h), xg, xg))
        errs.append(float(np.abs(Sm.values @ f - f).max()))
    checks.append(("identity approximation monotone", errs[0] > errs[1] > errs[2] > errs[3]))

    # determinism of a seeded pipeline
    a, _ = diffusion_generate(
        two_mode_mixture(40, rng_seed=5)[:, None],
        DiffusionSchedule.linear_variance_preserving(6),
        n=30,
        rng_seed=9,
    )
    b, _ = diffusion_generate(
        two_mode_mixture(40, rng_seed=5)[:, None],
        DiffusionSchedule.linear_variance_preserving(6),
        n=30,
        rng_seed=9,
    )
    checks.append(("determinism", np.array_equal(a, b)))

    elapsed = time.perf_counter() - start
    failed = [name for name, ok in checks if not ok]
    report(
        13,
        not failed and elapsed < 180.0,
        f"invariant bundle {len(checks) - len(failed)}/{len(checks)} "
        f"(failures: {failed or 'none'}), bundle runtime {elapsed:.1f}s (< 180s)",
    )
