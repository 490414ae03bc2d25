"""Presorted split search: trees bit-identical to per-node sorting oracles.

The oracles (``tests/oracles.py``) sort every candidate feature at every
node, one feature at a time. The library sorts each column once per tree
(once per boosting fit) and scores all candidate features in one block.
Every ``TreeNodes`` array, and the forest's impurity importances, must
agree byte for byte.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from flowguard import classifiers as clf  # noqa: E402
from flowguard.classifiers.tree import (build_gini_tree,  # noqa: E402
                                        build_newton_tree, presort,
                                        presort_sample, value_ranks)
from flowguard.dataset import Dataset  # noqa: E402
from oracles import gini_tree_brute, newton_tree_brute  # noqa: E402

LAYOUTS = ("normal", "grid", "duplicates")
ARRAYS = ("feature", "threshold", "left", "right", "value")


def make_rows(rng, n, d, layout):
    """Rows whose layout stresses one part of the split search."""
    if layout == "normal":
        return rng.standard_normal((n, d))
    if layout == "grid":  # small integer grid: exact value and gain ties
        return rng.integers(0, 3, size=(n, d)).astype(np.float64)
    # repeated rows and a constant column: nodes that cannot split
    base = rng.integers(0, 4, size=(max(1, n // 3), d)).astype(np.float64)
    X = base[rng.integers(0, base.shape[0], size=n)]
    X[:, rng.integers(0, d)] = 7.0
    return X


def assert_same_tree(got, want):
    for name in ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


@st.composite
def tree_cases(draw):
    layout = draw(st.sampled_from(LAYOUTS))
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = make_rows(rng, n, d, layout)
    # pure: one class only; else labels drawn per row
    y = np.zeros(n, dtype=np.int64) if draw(st.booleans()) and n > 5 else \
        rng.integers(0, 2, size=n)
    return X, y, rng


@settings(max_examples=300, deadline=None)
@given(tree_cases(), st.one_of(st.none(), st.integers(1, 6)), st.integers(2, 4),
       st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_gini_tree_matches_oracle(case, max_depth, min_split, n_cand, seed):
    X, y, _ = case
    n_cand = min(n_cand, X.shape[1])
    imp_got, imp_want = np.zeros(X.shape[1]), np.zeros(X.shape[1])
    got = build_gini_tree(X, y, max_depth, min_split, n_cand,
                          np.random.default_rng(seed), importance=imp_got,
                          order=presort(X))
    want = gini_tree_brute(X, y, max_depth, min_split, n_cand,
                           np.random.default_rng(seed), importance=imp_want)
    assert_same_tree(got, want)
    assert imp_got.tobytes() == imp_want.tobytes()


@settings(max_examples=300, deadline=None)
@given(tree_cases(), st.integers(1, 5), st.sampled_from((1.0, 1e-3, 10.0)),
       st.sampled_from(("normal", "grid", "saturated")))
def test_newton_tree_matches_oracle(case, max_depth, reg_lambda, scores):
    X, y, rng = case
    n = X.shape[0]
    if scores == "normal":
        raw = rng.standard_normal(n)
    elif scores == "grid":  # repeated gradients: tied gains across features
        raw = rng.integers(-1, 2, size=n) * 0.5
    else:  # p == 1.0 exactly: zero gradient and hessian on some rows
        raw = rng.choice([-40.0, 0.0, 40.0], size=n)
    p = 1.0 / (1.0 + np.exp(-raw))
    g, h = p - y, p * (1.0 - p)
    got = build_newton_tree(X, g, h, max_depth, reg_lambda, order=presort(X))
    want = newton_tree_brute(X, g, h, max_depth, reg_lambda)
    assert_same_tree(got, want)


def test_trees_match_oracle_on_large_nodes():
    rng = np.random.default_rng(11)
    X = make_rows(rng, 600, 5, "grid")
    X[:, 4] = np.round(rng.standard_normal(600), 1)
    y = (X[:, 0] + rng.standard_normal(600) > 1).astype(np.int64)
    imp_got, imp_want = np.zeros(5), np.zeros(5)
    got = build_gini_tree(X, y, None, 2, 2, np.random.default_rng(5), imp_got,
                          order=presort(X))
    want = gini_tree_brute(X, y, None, 2, 2, np.random.default_rng(5), imp_want)
    assert_same_tree(got, want)
    assert imp_got.tobytes() == imp_want.tobytes()
    p = 1.0 / (1.0 + np.exp(-rng.standard_normal(600)))
    g, h = p - y, p * (1.0 - p)
    got = build_newton_tree(X, g, h, 6, 1.0, order=presort(X))
    assert_same_tree(got, newton_tree_brute(X, g, h, 6, 1.0))


def test_gini_fallback_widens_to_all_features():
    # Feature 0 is constant, so a node that draws only feature 0 must widen
    # its search to every feature to split on feature 1.
    X = np.column_stack([np.zeros(8), np.arange(8.0)])
    y = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    seed = next(s for s in range(100)
                if np.random.default_rng(s).choice(2, size=1, replace=False)[0] == 0)
    imp_got, imp_want = np.zeros(2), np.zeros(2)
    got = build_gini_tree(X, y, None, 2, 1, np.random.default_rng(seed), imp_got,
                          order=presort(X))
    want = gini_tree_brute(X, y, None, 2, 1, np.random.default_rng(seed), imp_want)
    assert_same_tree(got, want)
    assert got.feature[0] == 1 and got.threshold[0] == 3.5
    assert imp_got.tobytes() == imp_want.tobytes()
    assert imp_got[0] == 0.0 and imp_got[1] == 0.5


def test_presort_orders_columns_stably():
    X = np.array([[2.0, 1.0], [1.0, 1.0], [2.0, 0.0], [1.0, 1.0]])
    assert presort(X).tolist() == [[1, 3, 0, 2], [2, 0, 1, 3]]
    # long columns of ties, past the sizes where any sort happens to be stable
    X = np.random.default_rng(3).integers(0, 3, size=(2000, 3)).astype(np.float64)
    rows = np.arange(2000)
    want = [np.lexsort((rows, X[:, f])) for f in range(3)]
    assert np.array_equal(presort(X), want)


@settings(max_examples=200, deadline=None)
@given(tree_cases(), st.booleans())
def test_presort_sample_matches_a_stable_sort_of_the_sample(case, signed_zeros):
    X, _, rng = case
    if signed_zeros:  # -0.0 and 0.0 are equal values with different bytes
        X[(X == 0) & (rng.random(X.shape) < 0.5)] = -0.0
    sample = rng.integers(0, X.shape[0], size=X.shape[0])
    want = np.argsort(X[sample].T, axis=1, kind="stable")
    assert presort_sample(value_ranks(X), sample).tobytes() == want.tobytes()


def test_presort_sample_keeps_nan_last_in_position_order():
    X = np.array([[np.nan], [1.0], [np.nan], [0.0], [1.0]])
    sample = np.array([2, 4, 0, 1, 3, 2])
    want = np.argsort(X[sample].T, axis=1, kind="stable")
    assert presort_sample(value_ranks(X), sample).tolist() == want.tolist()


def test_forest_trees_match_oracle_on_their_bootstrap_samples():
    rng = np.random.default_rng(8)
    X = make_rows(rng, 120, 4, "grid")
    y = (X[:, 0] + rng.standard_normal(120) > 1).astype(np.int64)
    spec = clf.make_spec("RF", seed=3, n_trees=4)
    model = clf.train(spec, Dataset(feature_names=("a", "b", "c", "d"), X=X, y=y))
    importance = np.zeros(4)
    for t, tree in enumerate(model.trees):
        tree_rng = np.random.default_rng(spec.seed + t)
        sample = tree_rng.integers(0, 120, size=120)
        assert_same_tree(tree, gini_tree_brute(X[sample], y[sample], None, 2, 2,
                                               tree_rng, importance))
    assert model.feature_importance.tobytes() == (importance / 4).tobytes()
