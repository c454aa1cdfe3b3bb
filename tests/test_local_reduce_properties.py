"""Properties of the blocked local mean :func:`locuskit.kernels.local_reduce`.

Every property is checked at several block heights, set by patching the
module constant ``kernels._BLOCK_ENTRIES``.  Points lie on a grid of
quarter-integers, where every squared distance is exact whichever rows share
a block.  On general data ``pairwise_sq_dists`` centres on the midrange of
the rows it is given, so a row's distances, and with them its mean, may move
at the ulp level with the block it is reduced in; that is a property of the
distances, not of the blocked reduction tested here.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from locuskit import kernels
from locuskit.kernels import epanechnikov, gaussian, local_reduce, uniform

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
