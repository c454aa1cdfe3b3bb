"""Properties of the blocked local mean :func:`locuskit.kernels.local_reduce`.

Every property is checked at several block heights, set by patching the
module constant ``kernels._BLOCK_ENTRIES``.  Points lie on a grid of
quarter-integers, where every squared distance is exact.  On general data a
row's weights are also the same in every block, but its mean ``W @ Y`` is
summed by BLAS, whose rounding depends on the block height, so means are
compared within ``16 eps max|Y|``.

Gaussian weights are ``np.exp`` of the max-shifted log weight bit for bit,
also where numpy's ``exp`` leaves its fast loop (arguments below -707), and
the ufunc buffer size the library sets around its broadcasts is restored on
every exit.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from locuskit import kernels
from locuskit.errors import DesmoothingInput, DimensionMismatch
from locuskit.kernels import derive_kernel, epanechnikov, gaussian, local_reduce, pairwise_sq_dists, uniform

EPS = np.finfo(float).eps
KERNELS = (gaussian(0.7), epanechnikov(1.5), uniform())
# one row per block, a few rows per block (not dividing the row count), one block
BLOCK_ENTRIES = (1, 5, 13, 2**16)
GRID = st.integers(-12, 12).map(lambda v: v / 4.0)
SHIFTS = st.integers(-2**32, 2**32).map(lambda v: v / 4.0)

PROPERTY = settings(derandomize=True, max_examples=120, deadline=None)


@st.composite
def problems(draw):
    """``(kernel, Q, X, Y, skip_self)``; under skip_self the queries are X."""
    k = draw(st.sampled_from(KERNELS))
    n, p, r = draw(st.integers(1, 12)), draw(st.integers(1, 2)), draw(st.integers(1, 2))
    X = draw(arrays(float, (n, p), elements=GRID))
    Y = draw(arrays(float, (n, r), elements=st.floats(-1e3, 1e3)))
    skip_self = draw(st.booleans())
    Q = X if skip_self else draw(arrays(float, (draw(st.integers(1, 12)), p), elements=GRID))
    return k, Q, X, Y, skip_self


def blocked(entries, k, Q, X, Y, skip_self):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_BLOCK_ENTRIES", entries)
        return local_reduce(k, Q, X, Y, skip_self=skip_self)


def pairwise_reference(k, Q, X, Y, skip_self):
    """One-block local means from ``k.eval`` pair by pair, in the linear domain."""
    W = np.array([[k.eval(q, x) for x in X] for q in Q])
    if skip_self:
        np.fill_diagonal(W, 0.0)
    deg = W.sum(axis=1)
    with np.errstate(invalid="ignore"):
        return (W @ Y) / deg[:, None], ~(deg > 0)


def tolerance(Y):
    return 16 * EPS * np.abs(Y).max()


@PROPERTY
@given(problems())
def test_every_block_height_matches_the_one_block_reference(problem):
    k, Q, X, Y, skip_self = problem
    ref, ref_empty = pairwise_reference(k, Q, X, Y, skip_self)
    for entries in BLOCK_ENTRIES:
        means, empty = blocked(entries, k, Q, X, Y, skip_self)
        np.testing.assert_array_equal(empty, ref_empty)
        assert np.isnan(means[empty]).all()
        assert np.abs(means[~empty] - ref[~empty]).max(initial=0.0) <= tolerance(Y)


@PROPERTY
@given(problems())
def test_means_stay_in_the_targets_convex_hull(problem):
    k, Q, X, Y, skip_self = problem
    for entries in BLOCK_ENTRIES:
        means, empty = blocked(entries, k, Q, X, Y, skip_self)
        assert (means[~empty] >= Y.min(axis=0) - tolerance(Y)).all()
        assert (means[~empty] <= Y.max(axis=0) + tolerance(Y)).all()


@PROPERTY
@given(problems(), SHIFTS)
def test_translation_invariance(problem, shift):
    k, Q, X, Y, skip_self = problem
    for entries in BLOCK_ENTRIES:
        means, empty = blocked(entries, k, Q, X, Y, skip_self)
        moved, moved_empty = blocked(entries, k, Q + shift, X + shift, Y, skip_self)
        np.testing.assert_array_equal(moved_empty, empty)
        assert np.abs(moved[~empty] - means[~empty]).max(initial=0.0) <= tolerance(Y)


def neighbourhood(x, n=8):
    """x and the n doubles on each side of it."""
    up, down = [x], [x]
    for _ in range(n):
        up.append(np.nextafter(up[-1], np.inf))
        down.append(np.nextafter(down[-1], -np.inf))
    return down[::-1] + up[1:]


# the largest double whose exp is 0.0, the smallest argument with a normal exp, and where the fast loop ends
EXP_EDGES = [v for x in (-745.1332191019412, -708.3964185322641, -707.0) for v in neighbourhood(x)]
EXP_ARGUMENTS = st.one_of(st.floats(-800.0, 0.0), st.sampled_from(EXP_EDGES + [-np.inf, np.nan, -0.0, -1e300]))


@PROPERTY
@given(arrays(float, st.tuples(st.integers(1, 6), st.integers(1, 40)), elements=EXP_ARGUMENTS), st.booleans())
def test_exp_helper_is_numpy_exp_bit_for_bit(W, transposed):
    W = W.T if transposed else W  # a W with no flat view takes plain np.exp
    got = kernels._exp_in_place(W.copy(order="K"))
    assert np.array_equal(got.view(np.int64), np.exp(W).view(np.int64))


def test_exp_helper_over_every_edge_at_once():
    W = np.array([EXP_EDGES, EXP_EDGES[::-1]])
    got = kernels._exp_in_place(W.copy())
    assert np.array_equal(got.view(np.int64), np.exp(W).view(np.int64))


def max_shifted_reference(h, Q, X, skip_self):
    """``local_reduce(gaussian(h), Q, X, I)`` in one block: the plain max-shifted ``np.exp`` weights over their sum."""
    W = ((Q[:, None, :] - X[None, :, :]) ** 2).sum(axis=2) / -(2.0 * h * h)
    if skip_self:
        np.fill_diagonal(W, -np.inf)
    top = W.max(axis=1, keepdims=True)
    top[~np.isfinite(top)] = 0.0
    W = np.exp(W - top)
    deg = W.sum(axis=1)
    empty = ~(deg > 0)
    return W / np.where(empty, np.nan, deg)[:, None], empty


@PROPERTY
@given(
    arrays(float, st.tuples(st.integers(1, 12), st.integers(1, 2)), elements=st.integers(-6, 6).map(float)),
    # c = 1 / (2 h^2): a gap of g in squared distance is a log weight of -g c; 720, 360 and 240 put gaps 1-3 there
    st.one_of(st.sampled_from([720.0, 360.0, 240.0]), st.floats(100.0, 760.0)),
    st.booleans(),
    st.data(),
)
def test_gaussian_weights_that_mostly_underflow_are_the_max_shifted_exp(X, c, skip_self, data):
    # integer points, so squared distances are integers: most weights are exact zeros, and a gap of g with g c in
    # (707, 745.13) is one of numpy's slow exp arguments; Y = I makes each mean row its row of normalized weights
    h = (0.5 / c) ** 0.5
    Q = X if skip_self else data.draw(arrays(float, (data.draw(st.integers(1, 12)), X.shape[1]),
                                             elements=st.integers(-6, 6).map(float)))
    ref, ref_empty = max_shifted_reference(h, Q, X, skip_self)
    for entries in BLOCK_ENTRIES:
        means, empty = blocked(entries, gaussian(h), Q, X, np.eye(len(X)), skip_self)
        np.testing.assert_array_equal(empty, ref_empty)
        assert np.array_equal(means.view(np.int64), ref.view(np.int64))


@pytest.mark.parametrize(
    "call, error, state",
    [
        (lambda: pairwise_sq_dists(np.ones((40, 2)), np.zeros((3000, 2))), None, {}),
        (lambda: local_reduce(gaussian(0.3), np.ones((40, 1)), np.arange(3000.0), np.ones(3000)), None, {}),
        (lambda: pairwise_sq_dists([[0.0, 0.0]], [[0.0]]), DimensionMismatch, {}),
        (lambda: pairwise_sq_dists([[1e200]], [[-1e200]]), FloatingPointError, {"over": "raise"}),
        # the second coordinate overflows in the distance temporary, inside the Gaussian weights' one buffer scope
        (lambda: local_reduce(gaussian(1.0), [[0.0, 1e200]], [[0.0, -1e200]], [[1.0]]),
         FloatingPointError, {"over": "raise"}),
        (
            lambda: local_reduce(derive_kernel("difference", gaussian(1.0), gaussian(0.5)), [[0.0]], [[1.0]], [[1.0]]),
            DesmoothingInput,
            {},
        ),
        # a log weight of -720 has a subnormal exp, which underflows inside the Gaussian weights' buffer scope
        (lambda: local_reduce(gaussian((1 / 1440) ** 0.5), [[0.0]], [[0.0], [1.0]], [[0.0], [1.0]]),
         FloatingPointError, {"under": "raise"}),
    ],
    ids=[
        "distances", "gaussian-means", "dimension-mismatch", "distance-overflow", "gaussian-distance-overflow",
        "desmoothing", "weight-underflow",
    ],
)
def test_the_ufunc_buffer_size_is_restored_on_return_and_on_raise(call, error, state):
    old = np.setbufsize(4096)  # not numpy's default, so a reset to the default would show
    try:
        with np.errstate(**state):  # numpy >= 2 restores the buffer size on leaving errstate, so check inside it
            if error is None:
                call()
            else:
                with pytest.raises(error):
                    call()
            assert np.getbufsize() == 4096
    finally:
        np.setbufsize(old)
