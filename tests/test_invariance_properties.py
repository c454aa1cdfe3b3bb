"""Permutation equivariance and translation invariance of ``kde_values`` and
of ``mean_shift``'s labels.

KDE points lie on a grid of quarter-integers and shifts are quarter-integers
too, so every squared distance, and hence every density, is exact under a
translation.  Reordering the samples reorders the sum behind each density,
which is compared within ``16 eps max``.  Mean-shift inputs are tight blobs
whose centers lie far apart, so their labels do not hinge on rounding:
relabelled by first appearance, they must match the blobs themselves.
"""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from locuskit.density import kde_values
from locuskit.kernels import epanechnikov, gaussian, neighborhood
from locuskit.shifts import mean_shift

EPS = np.finfo(float).eps
GRID = st.integers(-12, 12).map(lambda v: v / 4.0)
SHIFTS = st.integers(-2**32, 2**32).map(lambda v: v / 4.0)
PROPERTY = settings(derandomize=True, max_examples=120, deadline=None)


@st.composite
def densities(draw):
    """``(kernel, X, Q, sample order, query order)`` with p in {1, 2}."""
    k = draw(st.sampled_from((gaussian(0.7), epanechnikov(1.5), neighborhood(1.0))))
    n, m, p = draw(st.integers(1, 12)), draw(st.integers(1, 12)), draw(st.integers(1, 2))
    X = draw(arrays(float, (n, p), elements=GRID))
    Q = draw(arrays(float, (m, p), elements=GRID))
    return k, X, Q, np.array(draw(st.permutations(range(n)))), np.array(draw(st.permutations(range(m))))


@st.composite
def blobs(draw):
    """``(X, blob of each row, row order)``: 1-3 blobs of 1-6 points within 0.25 of centers 20 apart."""
    p = draw(st.integers(1, 2))
    centers = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * p), min_size=1, max_size=3, unique=True))
    offsets = st.integers(-2, 2).map(lambda v: v / 8.0)
    parts = [20.0 * np.array(c) + draw(arrays(float, (draw(st.integers(1, 6)), p), elements=offsets)) for c in centers]
    X = np.vstack(parts)
    blob = np.repeat(np.arange(len(parts)), [len(b) for b in parts])
    return X, blob, np.array(draw(st.permutations(range(len(X)))))


def first_seen(labels):
    """Labels renumbered 0, 1, ... by first appearance."""
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[inverse]


@PROPERTY
@given(densities())
def test_kde_values_are_permutation_equivariant(problem):
    k, X, Q, sample_order, query_order = problem
    want = kde_values(k, X, Q)
    got = kde_values(k, X[sample_order], Q[query_order])
    assert np.abs(got - want[query_order]).max() <= 16 * EPS * want.max()


@PROPERTY
@given(densities(), SHIFTS)
def test_kde_values_are_translation_invariant(problem, shift):
    k, X, Q, _, _ = problem
    np.testing.assert_array_equal(kde_values(k, X + shift, Q + shift), kde_values(k, X, Q))


@PROPERTY
@given(blobs())
def test_mean_shift_labels_are_permutation_equivariant(problem):
    X, blob, order = problem
    labels = mean_shift(gaussian(1.0), X).labels
    np.testing.assert_array_equal(labels, first_seen(blob))
    np.testing.assert_array_equal(mean_shift(gaussian(1.0), X[order]).labels, first_seen(labels[order]))


@PROPERTY
@given(blobs(), st.integers(-1000, 1000).map(lambda v: v / 4.0))
def test_mean_shift_labels_are_translation_invariant(problem, shift):
    X, _, _ = problem
    labels = mean_shift(gaussian(1.0), X).labels
    np.testing.assert_array_equal(mean_shift(gaussian(1.0), X + shift).labels, labels)
