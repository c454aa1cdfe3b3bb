"""Batch forms against their one-query forms.

``local_linear_transform`` solves a whole block of local linear systems at
once and ``local_linear_predict`` is its one-query case; ``kde_values`` and
``kde`` likewise.  A row's distances are the same in every block, but a
block's weighted designs come from one BLAS product whose rounding depends
on the block height, so batch and one-query results are compared within a
rounding bound, not bit for bit.  For the local linear fits that bound
carries the condition number of the row's system, since the solve amplifies
rounding in the weighted design by it.

The leave-one-out loss of ``tune_bandwidth("local-linear")`` fits each row
with its own sample's weight set to zero, in one blocked pass per bandwidth;
it is checked against the loss of n refits without each sample.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from locuskit import kernels
from locuskit.adaptive import tune_bandwidth
from locuskit.cli import run_task
from locuskit.dataio import write_csv
from locuskit.density import kde, kde_values
from locuskit.errors import EmptyNeighborhood
from locuskit.estimators import (
    _COND_LIMIT,
    Dataset,
    local_linear_predict,
    local_linear_transform,
    local_mean_predict,
    local_mode_predict,
)
from locuskit.kernels import epanechnikov, gaussian, neighborhood

EPS = np.finfo(float).eps
PROPERTY = settings(derandomize=True, max_examples=120, deadline=None)
# one row per block, a few rows per block, one block
BLOCK_ENTRIES = (1, 13, 2**16)


@st.composite
def regressions(draw):
    """``(kernel, X, y, Q, lam)`` with p in {1, 2} and lam in {0, 0.1}."""
    k = gaussian(draw(st.sampled_from((0.7, 1.5, 3.0))))
    n, p = draw(st.integers(3, 14)), draw(st.integers(1, 2))
    coords = st.floats(-3, 3, allow_subnormal=False)
    X = draw(arrays(float, (n, p), elements=coords))
    y = draw(arrays(float, n, elements=st.floats(-1e3, 1e3)))
    Q = X if draw(st.booleans()) else draw(arrays(float, (draw(st.integers(1, 9)), p), elements=coords))
    return k, X, y, Q, draw(st.sampled_from((0.0, 0.1)))


def batch(entries, k, data, Q, lam):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_BLOCK_ENTRIES", entries)
        return local_linear_transform(k, data, Q, lam=lam)


def one_query(k, data, q, lam):
    """``(prediction, bound)``, bound None when the row jitters, its system is
    numerically singular, or (at lam = 0) its jitter test is within a factor
    1000 of the limit, where block rounding could flip it.

    The bound is 16 eps cond(A_q) sum_j |L_j| max_j |y_j|.
    """
    pred, L, jittered = local_linear_predict(k, data, q, lam=lam)
    w = k.gram_values(q[None, :], data.X)[0]
    Xt = np.hstack([np.ones((data.n, 1)), data.X])
    cond = np.linalg.cond(Xt.T @ (w[:, None] * Xt) + lam * np.eye(Xt.shape[1]))
    if jittered or not cond < 1e-3 / EPS:
        return pred, None
    if lam == 0:
        Xc = Xt - np.hstack([0.0, q])
        C = Xc.T @ (w[:, None] * Xc)
        s = 1 / np.sqrt(np.diag(C))
        if not np.linalg.cond(C * s[:, None] * s[None, :]) < 1e-3 * _COND_LIMIT:
            return pred, None
    return pred, 16 * EPS * cond * np.abs(L).sum() * np.abs(data.y).max()


@PROPERTY
@given(regressions())
def test_batch_local_linear_matches_the_one_query_form(problem):
    k, X, y, Q, lam = problem
    data = Dataset(X, y)
    rows = [one_query(k, data, q, lam) for q in Q]
    assume(any(bound is not None for _, bound in rows))
    for entries in BLOCK_ENTRIES:
        preds, jittered = batch(entries, k, data, Q, lam)
        for i, (pred, bound) in enumerate(rows):
            if bound is not None:
                assert not jittered[i]
                assert abs(preds[i] - pred) <= bound


@PROPERTY
@given(regressions(), arrays(float, 3, elements=st.floats(-10, 10)))
def test_linear_targets_are_reproduced_and_weights_sum_to_one(problem, coef):
    k, X, _, Q, _ = problem
    target = coef[0] + X @ coef[1 : X.shape[1] + 1]
    for y in (target, np.ones(len(X))):  # constant targets: sum_j L_j = 1
        data = Dataset(X, y)
        rows = [one_query(k, data, q, 0.0) for q in Q]
        preds, _ = batch(2**16, k, data, Q, 0.0)
        want = coef[0] + Q @ coef[1 : X.shape[1] + 1] if y is target else np.ones(len(Q))
        for i, (_, bound) in enumerate(rows):
            if bound is not None:
                assert abs(preds[i] - want[i]) <= bound + 16 * EPS * abs(want[i])


def test_jitter_flags_and_errors_match_the_one_query_form():
    data = Dataset([[0.0], [1.0], [2.0], [5.0]], [3.0, 8.0, 1.0, 4.0])
    k = neighborhood(0.5)  # each in-sample query sees only itself
    preds, jittered = local_linear_transform(k, data, data.X)
    for i, x in enumerate(data.X):
        pred, _, jit = local_linear_predict(k, data, x)
        assert jittered[i] == jit
        assert preds[i] == pytest.approx(pred, rel=1e-12)
    assert jittered.all()
    with pytest.raises(EmptyNeighborhood, match=r"no positive kernel weights at array\(\[3\.\]\)"):
        local_linear_transform(k, data, [[0.0], [3.0], [4.0]])


# ---------------------------------------------------------------------------
# leave-one-out loss from the held-out fits against the refit loss
# ---------------------------------------------------------------------------

def refit_loss(h, data):
    """Leave-one-out squared error by n refits without each sample."""
    total = 0.0
    for i in range(data.n):
        rest = Dataset(np.delete(data.X, i, axis=0), np.delete(data.y, i))
        try:
            pred, _, _ = local_linear_predict(gaussian(h), rest, data.X[i])
        except EmptyNeighborhood:
            return math.inf
        total += float((data.y[i] - pred) ** 2)
    return total


def loo_problem(case):
    """``(data, grid)``: random samples for an integer seed, else a named hard case."""
    if case == "isolated":  # the sample at 5 carries almost all of its own full fit
        return Dataset([0.0, 0.1, 0.2, 0.3, 0.4, 5.0], [0.0, 1.0, 0.0, 1.0, 0.0, 3.0]), [0.3, 1.0]
    rng = np.random.default_rng(case)
    n, p = int(rng.integers(8, 40)), int(rng.integers(1, 3))
    return Dataset(rng.normal(size=(n, p)), rng.normal(size=n)), [0.3, 0.6, 1.2, 3.0]


@pytest.mark.parametrize("seed", [*range(6), "isolated"])
def test_loo_identity_equals_refit_loss(seed):
    data, grid = loo_problem(seed)
    res = tune_bandwidth("local-linear", data, grid=grid)
    for h, loss in res.curve:
        assert loss == pytest.approx(refit_loss(h, data), rel=1e-9)


def test_duplicate_x_values_fall_back_to_the_refit():
    # at h = 0.01 each row's only positive weights, its own left out, are its pair's: every fit jitters
    x = np.repeat(np.arange(6.0), 2)
    data = Dataset(x, np.sin(x) + 0.01 * np.arange(12))
    res = tune_bandwidth("local-linear", data, grid=[0.01])
    assert res.jittered == 12
    assert res.curve[0][1] == refit_loss(0.01, data)
    res = tune_bandwidth("local-linear", data, grid=[0.3, 1.0])
    assert res.jittered == 0
    for h, loss in res.curve:
        assert loss == pytest.approx(refit_loss(h, data), rel=1e-9)


def test_dominant_own_weight_falls_back_to_the_refit():
    # the isolated sample at 5 carries almost all of its own full fit (1 - L_ii ~ 1e-6)
    data = Dataset([0.0, 0.1, 0.2, 0.3, 0.4, 5.0], [0.0, 1.0, 0.0, 1.0, 0.0, 3.0])
    res = tune_bandwidth("local-linear", data, grid=[0.5])
    assert res.jittered == 0
    assert res.curve[0][1] == pytest.approx(refit_loss(0.5, data), rel=1e-12)


def test_empty_refit_scores_inf_as_before():
    # the sample at 1 has no positive weight once it is left out
    data = Dataset([0.0, 0.0, 1.0, 2.0, 3.0], [0.0, 0.1, 1.0, 2.0, 3.0])
    res = tune_bandwidth("local-linear", data, grid=[0.01, 1.0])
    assert res.curve[0][1] == math.inf == refit_loss(0.01, data)
    assert res.h_star == 1.0


# ---------------------------------------------------------------------------
# batch KDE, classification and local means against their per-query forms
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", [gaussian(0.4), epanechnikov(0.8), neighborhood(0.5)])
@pytest.mark.parametrize("p", [1, 2])
def test_batch_kde_matches_per_query(k, p):
    rng = np.random.default_rng(p)
    X = rng.normal(size=(200, p))
    Q = rng.normal(size=(57, p)) * 1.5
    want = np.array([kde(k, X, q) for q in Q])
    for entries in BLOCK_ENTRIES:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "_BLOCK_ENTRIES", entries)
            got = kde_values(k, X, Q)
        assert np.abs(got - want).max() <= 16 * EPS * want.max()


def read_results(path):
    return np.loadtxt(path / "results.csv", delimiter=",", skiprows=1, ndmin=2)


def test_density_kde_task_matches_per_query(tmp_path):
    X = np.random.default_rng(4).normal(size=(300, 1))
    write_csv(tmp_path / "d.csv", ["x"], X)
    cfg = {"input": str(tmp_path / "d.csv"), "kernel": {"kind": "gaussian", "h": 0.3}, "grid_count": 151}
    metrics = run_task("density-kde", cfg, str(tmp_path / "out"))
    table = read_results(tmp_path / "out")
    want = np.array([kde(gaussian(0.3), X, [g]) for g in table[:, 0]])
    assert np.abs(table[:, 1] - want).max() <= 16 * EPS * want.max()
    in_sample = np.array([kde(gaussian(0.3), X, x) for x in X])
    assert metrics["total_log_likelihood"] == pytest.approx(float(np.log(in_sample).sum()), rel=1e-12)


def test_classify_task_matches_per_query(tmp_path):
    cfg = {"input": "bundled:two-blobs", "kernel": {"kind": "gaussian", "h": 0.8}}
    metrics = run_task("classify-local", cfg, str(tmp_path))
    assert metrics["diagnostics"] == {"counters": {"empty_rows": 0}}
    table = read_results(tmp_path)
    data = Dataset(table[:, :-2], table[:, -2].astype(int))
    want = [local_mode_predict(gaussian(0.8), data, x)[0] for x in data.X]
    np.testing.assert_array_equal(table[:, -1].astype(int), want)


def test_classify_ties_go_to_the_lowest_class(tmp_path):
    path = tmp_path / "d.csv"
    write_csv(path, ["x", "label"], [[0.0, 2], [1.0, 1], [2.0, 2], [3.0, 1]])
    run_task("classify-local", {"input": str(path), "kernel": {"kind": "uniform"}}, str(tmp_path / "out"))
    np.testing.assert_array_equal(read_results(tmp_path / "out")[:, -1], [1, 1, 1, 1])


def write_isolated(tmp_path):
    """Five samples whose last column reads as a target or as a class label."""
    path = tmp_path / "d.csv"
    write_csv(path, ["x", "y"], [[0.0, 0.0], [0.05, 1.0], [1.0, 1.0], [2.0, 0.0], [2.04, 0.0]])
    return str(path)


HOLLOW = {"kind": "hollow", "base": {"kind": "neighborhood", "eps": 0.1}}  # the sample at 1.0 sees nothing


def test_classify_empty_row_raises_as_per_query(tmp_path):
    data = Dataset([[0.0], [0.05], [1.0], [2.0], [2.04]], np.array([0, 1, 1, 0, 0]))
    with pytest.raises(EmptyNeighborhood) as per_query:
        local_mode_predict(kernels.make_kernel(HOLLOW), data, data.X[2])
    with pytest.raises(EmptyNeighborhood) as batch_form:
        run_task("classify-local", {"input": write_isolated(tmp_path), "kernel": HOLLOW}, str(tmp_path / "o"))
    assert str(batch_form.value) == str(per_query.value)


def test_regress_local_mean_empty_rows_use_the_fallback(tmp_path):
    src = write_isolated(tmp_path)
    cfg = {"input": src, "kernel": HOLLOW, "fallback": "nearest-neighbor"}
    run_task("regress-local-mean", cfg, str(tmp_path / "nn"))
    metrics = json.load(open(tmp_path / "nn" / "metrics.json"))
    assert metrics["diagnostics"] == {"counters": {"empty_rows": 1}}
    table = read_results(tmp_path / "nn")
    data = Dataset(table[:, :1], table[:, 1])
    want = [local_mean_predict(kernels.make_kernel(HOLLOW), data, x, fallback="nearest-neighbor") for x in data.X]
    np.testing.assert_allclose(table[:, 2], want, rtol=1e-12)
    with pytest.raises(EmptyNeighborhood, match=r"no positive kernel weights at array\(\[1\.\]\)"):
        run_task("regress-local-mean", {"input": src, "kernel": HOLLOW}, str(tmp_path / "err"))


def test_tune_bandwidth_reports_refits(tmp_path):
    path = tmp_path / "d.csv"
    write_csv(path, ["x", "y"], [[x, math.sin(x)] for x in np.repeat(np.arange(6.0), 2)])
    cfg = {"input": str(path), "predictor": "local-linear", "grid": [0.01, 1.0]}
    metrics = run_task("tune-bandwidth", cfg, str(tmp_path / "out"))
    assert metrics["diagnostics"] == {"counters": {"jittered": 12}}
