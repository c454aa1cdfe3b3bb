"""Kernel density estimation, score estimation, Tweedie denoising, DAE
noising-denoising chains, and the Gaussian local-mean diffusion sampler.

Unlike the rest of the library, the density entry points use fully
normalized kernels (Gaussian with its (2 pi h^2)^(-p/2) constant,
Epanechnikov with its dimension-dependent constant): a density must
integrate to 1, while a local mean never cares about constants.  The
conversion happens here and only here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EmptyNeighborhood,
    InvalidParameter,
    InvalidSchedule,
    UnsampleableKernel,
)
from .kernels import (
    EpanechnikovKernel,
    GaussianKernel,
    Kernel,
    NeighborhoodKernel,
    _check_bandwidth,
    _check_count,
    _gaussian_in_place,
    _sq_dist_blocks,
    as_point,
    as_point_set,
    gaussian,
    local_reduce,
    pairwise_sq_dists,
)

__all__ = [
    "kde",
    "kde_values",
    "conditional_kde",
    "score_estimate",
    "mean_shift_vector",
    "tweedie_denoise",
    "GaussianNoise",
    "KernelNoise",
    "noise_sample",
    "dae_chain",
    "DiffusionSchedule",
    "diffusion_generate",
]


def _unit_ball_volume(p: int) -> float:
    return math.pi ** (p / 2.0) / math.gamma(p / 2.0 + 1.0)


def _density_values(k: Kernel, sq_dists: np.ndarray, p: int) -> np.ndarray:
    """Normalized density kernel evaluated at squared distances, in place: ``sq_dists`` is overwritten."""
    if isinstance(k, GaussianKernel):
        c = (2.0 * math.pi * k.h * k.h) ** (-p / 2.0)
        _gaussian_in_place(sq_dists, k.h)
    elif isinstance(k, EpanechnikovKernel):
        # radial Epanechnikov: c_p (1 - ||u||^2)_+ with integral 1 on R^p
        c = (p + 2.0) / (2.0 * _unit_ball_volume(p)) / k.h**p
        sq_dists /= k.h * k.h
        np.subtract(1.0, sq_dists, out=sq_dists)
        np.maximum(sq_dists, 0.0, out=sq_dists)
    elif isinstance(k, NeighborhoodKernel):
        c = 1.0 / (_unit_ball_volume(p) * k.eps**p)
        np.less(sq_dists, k.eps * k.eps, out=sq_dists)
    else:
        raise InvalidParameter(
            f"kde requires a normalizable kernel (gaussian/epanechnikov/neighborhood), got {k!r}"
        )
    sq_dists *= c
    return sq_dists


def kde_values(k: Kernel, X, queries) -> np.ndarray:
    """Kernel density estimates ``(1/N) sum_i K_h(q - x_i)`` at every row of ``queries``, each row block's densities
    computed in place over its distances."""
    X = as_point_set(X)
    Q = as_point_set(queries)
    out = np.empty(Q.shape[0])
    for rows, D in _sq_dist_blocks(Q, X):
        out[rows] = _density_values(k, D, X.shape[1]).mean(axis=1)
    return out


def kde(k: Kernel, X, x_star) -> float:
    """Kernel density estimate ``(1/N) sum_i K_h(x* - x_i)``: the one-query case of :func:`kde_values`."""
    return float(kde_values(k, X, as_point(x_star)[None, :])[0])


def kde_gradient(h: float, X, x_star) -> np.ndarray:
    """Analytic gradient of the Gaussian KDE at x*: ``kde(x*) (m_K(x*) - x*) / h^2``."""
    return kde(gaussian(h), X, x_star) * mean_shift_vector(h, X, x_star) / (h * h)


def conditional_kde(k1: Kernel, k2: Kernel, X, Y, x_star, y_star) -> float:
    """Conditional density ``sum K1(x*, x_i) K2(y*, y_i) / sum K1(x*, x_i)``.

    K1 enters as raw localization weights (the ratio cancels constants);
    K2 is density-normalized so the estimate integrates to 1 over y.
    """
    X = as_point_set(X)
    Y = as_point_set(Y)
    if X.shape[0] != Y.shape[0]:
        raise InvalidParameter("paired samples required")
    d2 = pairwise_sq_dists(as_point(y_star)[None, :], Y)[0]
    dens = _density_values(k2, d2, Y.shape[1])
    mean, empty = local_reduce(k1, as_point(x_star)[None, :], X, dens)
    if empty[0]:
        raise EmptyNeighborhood(f"no conditioning weight at {x_star!r}")
    return float(mean[0, 0])


def mean_shift_vector(h: float, X, x_star) -> np.ndarray:
    """Gaussian mean-shift vector ``m_K(x*) - x*``."""
    x_star = as_point(x_star)
    mean, empty = local_reduce(gaussian(h), x_star[None, :], X, X)
    if empty[0]:
        raise EmptyNeighborhood(f"no kernel weight at {x_star!r}")
    return mean[0] - x_star


def score_estimate(h: float, X, x_star) -> np.ndarray:
    """Estimate of the log-density gradient at x*.

    For the Gaussian family (its own shadow kernel) the identity is exact:
    ``(m_K(x*) - x*) / h^2`` equals the analytic gradient of the log of the
    Gaussian KDE on the same sample.
    """
    h = _check_bandwidth(h)
    return mean_shift_vector(h, X, x_star) / (h * h)


def tweedie_denoise(sigma: float, score, x) -> np.ndarray:
    """Posterior-mean denoising ``x + sigma^2 * score(x)`` under Gaussian noise."""
    sigma = GaussianNoise(sigma).sigma
    x = as_point(x)
    s = np.asarray(score(x), dtype=float)
    return x + sigma * sigma * s


# ---------------------------------------------------------------------------
# noising
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaussianNoise:
    """Gaussian noise of std ``sigma``: any finite real > 0, even one whose square underflows."""

    sigma: float

    def __post_init__(self):
        sigma = float(self.sigma)
        if not 0 < sigma < math.inf:
            raise InvalidParameter(f"noise std must be a finite positive real, got {sigma!r}")
        object.__setattr__(self, "sigma", sigma)

    def draw(self, rng, shape):
        return rng.normal(0.0, self.sigma, size=shape)


# inverse CDF of (3/4)(1 - t^2) on [-1, 1], tabulated once
_EPA_GRID_T = np.linspace(-1.0, 1.0, 20001)
_EPA_GRID_F = (3.0 * _EPA_GRID_T - _EPA_GRID_T**3 + 2.0) / 4.0


@dataclass(frozen=True)
class KernelNoise:
    """Per-coordinate draws from a samplable kernel's density.

    Gaussian draws are exact; Epanechnikov uses inverse-CDF interpolation of
    its 1-D profile on [-1, 1] per coordinate, scaled by h.
    """

    kernel: Kernel

    def __post_init__(self):
        if not isinstance(self.kernel, (GaussianKernel, EpanechnikovKernel)):
            raise UnsampleableKernel(f"cannot sample from {self.kernel!r}")

    def draw(self, rng, shape):
        if isinstance(self.kernel, GaussianKernel):
            return rng.normal(0.0, self.kernel.h, size=shape)
        u = rng.random(size=shape)
        return self.kernel.h * np.interp(u, _EPA_GRID_F, _EPA_GRID_T)


def noise_sample(noise, X, rng_seed: int) -> np.ndarray:
    """One independent noise draw added to every point."""
    X = as_point_set(X)
    rng = np.random.default_rng(rng_seed)
    return X + noise.draw(rng, X.shape)


def dae_chain(denoiser, noise, x0, steps: int, rng_seed: int) -> np.ndarray:
    """Alternate noising and denoising from x0.

    Returns the denoised states as a (steps+1, p) array, chain[0] = x0.
    With a local-mean denoiser and Gaussian noise this is the
    noising-denoising iterative algorithm; with zero-scale noise it
    degenerates to the plain prediction iteration of the denoiser.
    """
    steps = _check_count(steps, "steps")
    rng = np.random.default_rng(rng_seed)
    x = as_point(x0)
    chain = [x.copy()]
    for _ in range(steps):
        noised = x + noise.draw(rng, x.shape)
        x = np.asarray(denoiser(noised), dtype=float)
        chain.append(x.copy())
    return np.stack(chain)


# ---------------------------------------------------------------------------
# local-mean diffusion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiffusionSchedule:
    """Forward noising schedule ``x_t = a_t x_{t-1} + eps_t``.

    ``b`` and ``s2`` are the cumulative factors of the equivalent one-shot
    form ``x_t = b_t x_0 + eta_t`` with Var(eta_t) = s2_t; they follow the
    recursion b_t = a_t b_{t-1}, s2_t = a_t^2 s2_{t-1} + sigma2_t.
    """

    a: np.ndarray
    sigma2: np.ndarray
    b: np.ndarray = field(init=False)
    s2: np.ndarray = field(init=False)

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        s = np.asarray(self.sigma2, dtype=float)
        if a.ndim != 1 or a.shape != s.shape or a.size < 1:
            raise InvalidSchedule("a and sigma2 must be equal-length 1-D arrays")
        if ((a <= 0) | (a > 1)).any():
            raise InvalidSchedule("scale factors must lie in (0, 1]")
        if (s <= 0).any():
            raise InvalidSchedule("noise variances must be positive")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "sigma2", s)
        b = np.cumprod(a)
        s2 = np.empty_like(s)
        acc = 0.0
        for t in range(s.size):
            acc = a[t] * a[t] * acc + s[t]
            s2[t] = acc
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "s2", s2)

    @property
    def T(self) -> int:
        return self.a.size

    @classmethod
    def linear_variance_preserving(cls, T: int, s2_min: float = 1e-4, s2_max: float = 0.2):
        """Linear sigma2 ramp with a_t = sqrt(1 - sigma2_t)."""
        T = _check_count(T, "step count T")
        sigma2 = np.linspace(s2_min, s2_max, T)
        if (sigma2 >= 1).any():
            raise InvalidSchedule("variance-preserving schedule needs sigma2 < 1")
        return cls(a=np.sqrt(1.0 - sigma2), sigma2=sigma2)


def diffusion_generate(
    X0,
    schedule: DiffusionSchedule,
    n: int,
    rng_seed: int,
    alpha: float = 0.8,
    bandwidths=None,
    inject_noise: bool = True,
):
    """Sample from the training distribution by reversing the noising chain.

    Forward pass caches the noised training sets X_t.  The reverse pass
    starts from a zero-mean Gaussian whose per-coordinate variance matches
    the cached X_T, then at each step applies the damped local mean of the
    particles against X_{t-1}.  The reverse kernel compares a particle with
    the a_t-scaled cached points, ``exp(-||x' - a_t x_i||^2 / (2 h_t^2))``,
    which is the exact empirical posterior of the forward step; bandwidths
    default to ``h_t = sqrt(sigma2_t)``.  ``inject_noise`` re-applies the
    noising process after every reverse step but the last, matching the
    cached level; disabling it leaves stragglers stranded between modes.

    Returns ``(generated, cached)`` where cached[t] is X_t.
    """
    X0 = as_point_set(X0)
    n = _check_count(n, "sample count n")
    if not 0.0 < alpha <= 1.0:
        raise InvalidParameter("reverse damping alpha must lie in (0, 1]")
    bandwidths = np.sqrt(schedule.sigma2) if bandwidths is None else np.asarray(bandwidths, dtype=float)
    if bandwidths.shape != (schedule.T,):
        raise InvalidParameter("need one bandwidth per step")
    reverse = [gaussian(h) for h in bandwidths]  # every bandwidth is checked before the forward pass
    rng = np.random.default_rng(rng_seed)

    cached = [X0]
    for t in range(schedule.T):
        prev = cached[-1]
        cached.append(
            schedule.a[t] * prev
            + rng.normal(0.0, math.sqrt(schedule.sigma2[t]), size=prev.shape)
        )

    var_T = cached[-1].var(axis=0)
    particles = rng.normal(0.0, np.sqrt(var_T), size=(n, X0.shape[1]))
    for t in range(schedule.T, 0, -1):
        ref = cached[t - 1]
        mean, _ = local_reduce(reverse[t - 1], particles, schedule.a[t - 1] * ref, ref)
        particles = alpha * mean + (1.0 - alpha) * particles
        if inject_noise and t > 1:
            particles = particles + rng.normal(
                0.0, math.sqrt(schedule.sigma2[t - 2]), size=particles.shape
            )
    return particles, cached
