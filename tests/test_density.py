"""Density/generative tests: KDE values, score identities, Tweedie's
formula against the exact two-atom posterior, noising statistics, DAE
chains, and the diffusion schedule algebra."""

import math

import numpy as np
import pytest

from locuskit import errors
from locuskit.density import (
    DiffusionSchedule,
    GaussianNoise,
    KernelNoise,
    conditional_kde,
    dae_chain,
    diffusion_generate,
    kde,
    kde_gradient,
    mean_shift_vector,
    noise_sample,
    score_estimate,
    tweedie_denoise,
)
from locuskit.kernels import dirac, epanechnikov, gaussian, neighborhood, uniform


class TestKde:
    def test_single_sample_standard_normal_peak(self):
        val = kde(gaussian(1.0), [[0.0]], [0.0])
        assert val == pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=1e-12)
        assert val == pytest.approx(0.39894, abs=5e-6)

    def test_outside_epanechnikov_support(self):
        assert kde(epanechnikov(1.0), [[0.0], [1.0]], [5.0]) == 0.0

    def test_equidistant_average_of_two(self):
        v = kde(gaussian(0.7), [[-1.0], [1.0]], [0.0])
        single = kde(gaussian(0.7), [[-1.0]], [0.0])
        assert v == pytest.approx(single)

    def test_gaussian_integrates_to_one(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(6, 1))
        grid = np.linspace(-10, 10, 4001)
        vals = [kde(gaussian(0.8), X, [g]) for g in grid]
        assert np.trapezoid(vals, grid) == pytest.approx(1.0, abs=1e-6)

    def test_epanechnikov_integrates_to_one_2d(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(3, 2))
        g = np.linspace(-4, 4, 161)
        mesh = np.array([[kde(epanechnikov(1.2), X, [a, b]) for b in g] for a in g])
        step = g[1] - g[0]
        assert mesh.sum() * step * step == pytest.approx(1.0, abs=1e-2)

    def test_rejects_unnormalizable_kernel(self):
        with pytest.raises(errors.InvalidParameter):
            kde(uniform(), [[0.0]], [0.0])


class TestConditionalKde:
    def test_dirac_conditioning_returns_k2_density(self):
        X = np.array([[0.0], [1.0]])
        Y = np.array([[2.0], [3.0]])
        v = conditional_kde(dirac(), gaussian(0.5), X, Y, [1.0], [2.5])
        want = kde(gaussian(0.5), [[3.0]], [2.5])
        assert v == pytest.approx(want)

    def test_constant_conditioning_is_marginal(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(5, 1))
        Y = rng.normal(size=(5, 1))
        v = conditional_kde(uniform(), gaussian(0.6), X, Y, [0.3], [0.1])
        assert v == pytest.approx(kde(gaussian(0.6), Y, [0.1]))

    def test_matches_double_sum_oracle(self):
        X = np.array([[0.0], [1.0], [2.0]])
        Y = np.array([[0.5], [1.5], [0.0]])
        xq, yq = 0.7, 0.9
        h1, h2 = 0.8, 0.5
        w = np.exp(-((X[:, 0] - xq) ** 2) / (2 * h1 * h1))
        dens = np.exp(-((Y[:, 0] - yq) ** 2) / (2 * h2 * h2)) / math.sqrt(
            2 * math.pi * h2 * h2
        )
        want = float(w @ dens / w.sum())
        got = conditional_kde(gaussian(h1), gaussian(h2), X, Y, [xq], [yq])
        assert got == pytest.approx(want, rel=1e-12)

    def test_integrates_to_one_over_y(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(4, 1))
        Y = rng.normal(size=(4, 1))
        grid = np.linspace(-8, 8, 2001)
        vals = [conditional_kde(gaussian(1.0), gaussian(0.5), X, Y, [0.2], [g]) for g in grid]
        assert np.trapezoid(vals, grid) == pytest.approx(1.0, abs=1e-6)

    def test_marginalization_recovers_joint(self):
        # integrating conditional * marginal over x on a grid gives the y-marginal
        rng = np.random.default_rng(4)
        X = rng.normal(size=(4, 1))
        Y = rng.normal(size=(4, 1))
        h1, h2 = 0.7, 0.6
        yq = 0.4
        grid = np.linspace(-8, 8, 1601)
        vals = [
            conditional_kde(gaussian(h1), gaussian(h2), X, Y, [g], [yq])
            * kde(gaussian(h1), X, [g])
            for g in grid
        ]
        marginal_y = kde(gaussian(h2), Y, [yq])
        assert np.trapezoid(vals, grid) == pytest.approx(marginal_y, abs=1e-3)


class TestScore:
    def test_symmetric_pair_zero_score(self):
        np.testing.assert_allclose(
            score_estimate(1.0, [[-1.0], [1.0]], [0.0]), [0.0], atol=1e-15
        )

    def test_midway_query_does_not_underflow(self):
        np.testing.assert_array_equal(score_estimate(0.01, [[0.0], [1.0]], [0.5]), [0.0])

    def test_single_sample_exact_gaussian_score(self):
        z, h, x = 2.0, 0.7, 0.3
        got = score_estimate(h, [[z]], [x])
        np.testing.assert_allclose(got, [(z - x) / (h * h)], rtol=1e-12)

    def test_equals_analytic_kde_log_gradient(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(20, 2))
        h = 0.6
        for _ in range(10):
            q = rng.normal(size=2)
            s = score_estimate(h, X, q)
            analytic = kde_gradient(h, X, q) / kde(gaussian(h), X, q)
            np.testing.assert_allclose(s, analytic, rtol=1e-8)

    def test_matches_finite_differences_of_log_kde(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            p = int(rng.integers(1, 4))
            X = rng.normal(size=(rng.integers(5, 50), p))
            h = float(rng.uniform(0.4, 1.2))
            q = rng.normal(size=p)
            s = score_estimate(h, X, q)
            eps = 1e-5
            fd = np.empty(p)
            for j in range(p):
                e = np.zeros(p)
                e[j] = eps
                fd[j] = (
                    math.log(kde(gaussian(h), X, q + e))
                    - math.log(kde(gaussian(h), X, q - e))
                ) / (2 * eps)
            np.testing.assert_allclose(s, fd, rtol=1e-5, atol=1e-7)


class TestTweedie:
    def test_single_atom_posterior(self):
        # prior = atom at 0: score of N(0, sigma^2) marginal is -x / sigma^2
        sigma = 1.0
        score = lambda x: -x / sigma**2
        for x in (-3.0, 0.1, 2.5):
            np.testing.assert_allclose(tweedie_denoise(sigma, score, [x]), [0.0], atol=1e-14)

    def test_zero_score_identity(self):
        zero = lambda x: np.zeros_like(x)
        np.testing.assert_array_equal(tweedie_denoise(0.5, zero, [1.5]), [1.5])

    def test_two_atom_posterior_mean_closed_form(self):
        # atoms {-1, +1}, x|z ~ N(z, sigma^2): E(z|x) = tanh(x / sigma^2)
        sigma = 1.0

        def mixture_score(x):
            x = np.asarray(x)
            return -x / sigma**2 + np.tanh(x / sigma**2) / sigma**2

        for x in np.linspace(-3, 3, 25):
            got = tweedie_denoise(sigma, mixture_score, [x])
            np.testing.assert_allclose(got, [math.tanh(x / sigma**2)], atol=1e-8)


class TestNoising:
    def test_vanishing_sigma_keeps_input(self):
        X = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = noise_sample(GaussianNoise(1e-300), X, rng_seed=0)
        np.testing.assert_allclose(out, X, atol=1e-290)

    def test_gaussian_mean_reverts_to_point(self):
        n = 100_000
        X = np.full((n, 1), 2.5)
        out = noise_sample(GaussianNoise(1.0), X, rng_seed=1)
        assert abs(out.mean() - 2.5) < 4.0 / math.sqrt(n)

    def test_epanechnikov_draws_within_support(self):
        X = np.zeros((50_000, 1))
        out = noise_sample(KernelNoise(epanechnikov(0.7)), X, rng_seed=2)
        assert (np.abs(out) <= 0.7 + 1e-9).all()
        # inverse-CDF sanity: mean 0, variance h^2/5 for the 1-D profile
        assert abs(out.mean()) < 0.01
        assert out.var() == pytest.approx(0.7**2 / 5.0, rel=0.02)

    def test_unsampleable_kernel(self):
        with pytest.raises(errors.UnsampleableKernel):
            KernelNoise(neighborhood(1.0))


class TestDaeChain:
    def test_zero_noise_identity_denoiser_constant(self):
        chain = dae_chain(lambda x: x, GaussianNoise(1e-300), [1.0, 2.0], 5, rng_seed=0)
        np.testing.assert_allclose(chain, np.tile([1.0, 2.0], (6, 1)), atol=1e-290)

    def test_zero_noise_local_mean_denoiser_is_mean_shift(self):
        from locuskit.estimators import Dataset, local_mean_predict
        from locuskit.shifts import mean_shift

        rng = np.random.default_rng(7)
        X = rng.normal(size=(10, 1))
        data = Dataset(X, X[:, 0])

        def denoiser(x):
            return np.atleast_1d(local_mean_predict(gaussian(0.5), data, x))

        chain = dae_chain(denoiser, GaussianNoise(1e-300), [0.3], 6, rng_seed=1)
        ms = mean_shift(gaussian(0.5), X, queries=[[0.3]], alpha=1.0, max_iter=6, tol=0.0)
        traj = ms.trajectory_of(0)
        np.testing.assert_allclose(chain, traj[: len(chain)], atol=1e-9)

    def test_two_blob_occupancy(self):
        # blob separation sized to the noise scale so the chain can mix:
        # crossing needs a ~2 sigma kick, expected dozens of times in 2000 steps
        from locuskit.estimators import Dataset, local_mean_predict

        rng = np.random.default_rng(8)
        X = np.concatenate([rng.normal(-0.4, 0.1, 60), rng.normal(0.4, 0.1, 60)])[:, None]
        data = Dataset(X, X[:, 0])

        def denoiser(x):
            return np.atleast_1d(local_mean_predict(gaussian(0.2), data, x))

        chain = dae_chain(denoiser, GaussianNoise(0.2), [-0.4], 2000, rng_seed=9)
        frac_left = float((chain[:, 0] < 0).mean())
        assert min(frac_left, 1 - frac_left) >= 0.1

    def test_determinism(self):
        den = lambda x: 0.5 * x
        a = dae_chain(den, GaussianNoise(0.5), [1.0], 50, rng_seed=11)
        b = dae_chain(den, GaussianNoise(0.5), [1.0], 50, rng_seed=11)
        np.testing.assert_array_equal(a, b)


class TestDiffusionSchedule:
    def test_cumulative_identities(self):
        sched = DiffusionSchedule.linear_variance_preserving(20)
        a, s2, b = sched.a, sched.s2, sched.b
        # per-step recursion: b_t = a_t b_{t-1}, s2_t = a_t^2 s2_{t-1} + sigma2_t
        np.testing.assert_allclose(b, np.cumprod(a), rtol=1e-15)
        acc = 0.0
        for t in range(sched.T):
            acc = a[t] ** 2 * acc + sched.sigma2[t]
            assert s2[t] == pytest.approx(acc, rel=1e-14)

    def test_variance_preserving_property(self):
        sched = DiffusionSchedule.linear_variance_preserving(30)
        # unit-variance data stays unit variance: b_t^2 + s2_t = 1
        np.testing.assert_allclose(sched.b**2 + sched.s2, 1.0, atol=1e-12)

    def test_invalid_schedules(self):
        with pytest.raises(errors.InvalidSchedule):
            DiffusionSchedule(a=np.array([1.5]), sigma2=np.array([0.1]))
        with pytest.raises(errors.InvalidSchedule):
            DiffusionSchedule(a=np.array([0.9]), sigma2=np.array([-0.1]))
        with pytest.raises(errors.InvalidSchedule):
            DiffusionSchedule.linear_variance_preserving(5, s2_max=1.5)


class TestDiffusionGenerate:
    def test_near_noiseless_single_step_collapses_to_training_points(self):
        X0 = np.array([[0.0], [1.0], [2.0]])
        sched = DiffusionSchedule(a=np.array([1.0]), sigma2=np.array([1e-12]))
        gen, cached = diffusion_generate(
            X0, sched, n=50, rng_seed=0, alpha=1.0, bandwidths=np.array([1e-5])
        )
        d = np.abs(gen - X0[:, 0][None, :]).min(axis=1)
        assert (d < 1e-4).all()

    def test_single_training_point_all_samples_converge(self):
        X0 = np.array([[3.0]])
        sched = DiffusionSchedule.linear_variance_preserving(10)
        gen, _ = diffusion_generate(X0, sched, n=20, rng_seed=1)
        np.testing.assert_allclose(gen, 3.0, atol=0.2)

    def test_seed_determinism_bit_exact(self):
        rng = np.random.default_rng(12)
        X0 = rng.normal(size=(30, 1))
        sched = DiffusionSchedule.linear_variance_preserving(8)
        g1, c1 = diffusion_generate(X0, sched, n=40, rng_seed=7)
        g2, c2 = diffusion_generate(X0, sched, n=40, rng_seed=7)
        np.testing.assert_array_equal(g1, g2)
        for a, b in zip(c1, c2):
            np.testing.assert_array_equal(a, b)

    def test_mixture_w1_small(self):
        from locuskit.synth import two_mode_mixture

        X0 = two_mode_mixture(200, rng_seed=20260808)[:, None]
        sched = DiffusionSchedule.linear_variance_preserving(20)
        gen, _ = diffusion_generate(X0, sched, n=500, rng_seed=20260808)
        true = two_mode_mixture(500, rng_seed=999)
        w1 = np.abs(np.sort(gen[:, 0]) - np.sort(true)).mean()
        assert w1 < 0.35


def test_mean_shift_vector_matches_estimators():
    from locuskit.estimators import Dataset, local_mean_predict

    rng = np.random.default_rng(13)
    X = rng.normal(size=(15, 2))
    data = Dataset(X, X)
    q = rng.normal(size=2)
    m = local_mean_predict(gaussian(0.9), data, q)
    np.testing.assert_allclose(mean_shift_vector(0.9, X, q), m - q, atol=1e-12)


def test_kde_gradient_matches_central_differences():
    rng = np.random.default_rng(21)
    X = rng.normal(size=(20, 2))
    h, eps = 0.6, 1e-5
    for _ in range(5):
        q = rng.normal(size=2)
        numeric = [
            (kde(gaussian(h), X, q + eps * e) - kde(gaussian(h), X, q - eps * e)) / (2 * eps)
            for e in np.eye(2)
        ]
        np.testing.assert_allclose(kde_gradient(h, X, q), numeric, rtol=1e-6, atol=1e-12)
