"""Presorted split search: trees bit-identical to per-node sorting oracles.

The oracles (``tests/oracles.py``) sort every candidate feature at every
node, one feature at a time. The library sorts each column once per tree,
and a boosting fit builds each node layout once per distinct split path
and serves it to every later round (``tree.NodeLayouts``); it scores all
candidate features in one block. Every ``TreeNodes`` array, and the
forest's impurity importances, must agree byte for byte; the oracles keep
node lists of their own, so this also pins the library's node order.
Routing rows node by node must give the leaf values of the level-wise
oracle router byte for byte.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from flowguard import classifiers as clf  # noqa: E402
from flowguard.classifiers import boosting, tree  # noqa: E402
from flowguard.classifiers.base import sigmoid  # noqa: E402
from flowguard.classifiers.tree import (LEAF, NodeLayouts,  # noqa: E402
                                        TreeNodes, build_gini_tree,
                                        build_newton_tree, presort,
                                        presort_sample, tree_apply,
                                        trees_from_state, value_ranks)
from flowguard.dataset import Dataset  # noqa: E402
from flowguard.synth import SynthConfig, generate  # noqa: E402
from oracles import (gini_tree_brute, newton_tree_brute,  # noqa: E402
                     tree_apply_levelwise)

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
def tree_cases(draw, layouts=LAYOUTS):
    layout = draw(st.sampled_from(layouts))
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
    got, fitted = build_newton_tree(X, g, h, max_depth, reg_lambda,
                                    NodeLayouts(X))
    want = newton_tree_brute(X, g, h, max_depth, reg_lambda)
    assert_same_tree(got, want)
    assert fitted.tobytes() == tree_apply_levelwise(want, X).tobytes()


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
    got, fitted = build_newton_tree(X, g, h, 6, 1.0, NodeLayouts(X))
    want = newton_tree_brute(X, g, h, 6, 1.0)
    assert_same_tree(got, want)
    assert fitted.tobytes() == tree_apply_levelwise(want, X).tobytes()


class RecordedLayouts(tree.NodeLayouts):
    """``NodeLayouts`` that lists every store a fit makes."""

    made = []

    def __init__(self, X):
        super().__init__(X)
        self.made.append(self)


def fit_recording_layouts(spec, X, y):
    """A GBT fit on (X, y), and the layout store it used."""
    RecordedLayouts.made = []
    with mock.patch.object(boosting, "NodeLayouts", RecordedLayouts):
        model = boosting.GradientBoostedTreesModel.fit(spec, X, y)
    (layouts,) = RecordedLayouts.made
    return model, layouts


def test_boosting_layout_reuse_matches_oracle_round_by_round():
    # Every round's tree must be the oracle's for that round's g and h, with
    # scores accumulated from the oracle's own trees: a layout served from
    # the store for the wrong rows would split differently. Small integer
    # grids repeat split paths across rounds, so there the store serves.
    served = dict.fromkeys(LAYOUTS, 0)

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(LAYOUTS).flatmap(
               lambda layout: tree_cases((layout,)).map(lambda c: (layout, *c))),
           st.integers(1, 20), st.integers(1, 4), st.sampled_from((0.1, 0.3)),
           st.sampled_from((1.0, 1e-3)))
    def check(case, rounds, depth, eta, reg_lambda):
        layout, X, y, _ = case
        spec = clf.make_spec("GBT", rounds=rounds, depth=depth, learning_rate=eta,
                             reg_lambda=reg_lambda)
        model, layouts = fit_recording_layouts(spec, X, y)
        assert len(model.trees) == rounds
        yf = y.astype(np.float64)
        scores = np.zeros(X.shape[0])
        for got in model.trees:
            p = sigmoid(scores)
            want = newton_tree_brute(X, p - yf, p * (1.0 - p), depth, reg_lambda)
            assert_same_tree(got, want)
            scores += eta * tree_apply_levelwise(want, X)
        served[layout] += layouts.hits

    check()
    assert served["grid"] > 0


def test_boosting_layout_store_stays_within_its_cap():
    ds = generate(SynthConfig(n_benign=1800, n_ddos=900, class_separation=2.0,
                              noise_fraction=0.02, seed=4))
    X = (ds.X - ds.X.mean(axis=0)) / ds.X.std(axis=0)
    tracemalloc.start()
    try:
        _, layouts = fit_recording_layouts(clf.make_spec("GBT", rounds=100), X, ds.y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = list(layouts._store.values())
    assert layouts.nbytes == sum(a.nbytes for layout in kept for a in layout)
    # the fit would keep far more: the cap, not the fit, bounds the store
    assert tree._STORE_BYTES / 2 < layouts.nbytes <= tree._STORE_BYTES
    # the store, the root layout and one node's working arrays
    assert peak < tree._STORE_BYTES + 12 * X.nbytes


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


@st.composite
def routing_cases(draw):
    """A valid tree over d features, its children allocated in any order
    after their parent, and rows whose values sit on, just beside or far
    from its thresholds, with NaN among them."""
    d = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cuts = np.round(rng.standard_normal(draw(st.integers(1, 4))), 1)
    nodes = [[LEAF, 0.0, LEAF, LEAF, 0.0]]  # feature, threshold, left, right, value
    pending = [(0, 0)]
    while pending:
        slot, depth = pending.pop(draw(st.integers(0, len(pending) - 1)))
        nodes[slot][4] = float(rng.standard_normal())
        if depth < 6 and draw(st.booleans()):
            left = len(nodes)
            nodes[slot][:4] = (draw(st.integers(0, d - 1)), float(rng.choice(cuts)),
                               left, left + 1)
            nodes += [[LEAF, 0.0, LEAF, LEAF, 0.0], [LEAF, 0.0, LEAF, LEAF, 0.0]]
            pending += [(left, depth + 1), (left + 1, depth + 1)]
    values = np.concatenate([cuts, np.nextafter(cuts, -np.inf),
                             np.nextafter(cuts, np.inf), [np.nan, -np.inf, 9.0]])
    X = rng.choice(values, size=(draw(st.integers(0, 50)), d))
    return TreeNodes(*zip(*nodes)), X


def assert_routes_like_levelwise(tree, X):
    got, want = tree_apply(tree, X), tree_apply_levelwise(tree, X)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@settings(max_examples=300, deadline=None)
@given(routing_cases())
def test_tree_apply_matches_levelwise_routing(case):
    assert_routes_like_levelwise(*case)


def test_tree_apply_on_no_rows_and_on_a_single_leaf():
    leaf = TreeNodes(feature=np.array([LEAF]), threshold=np.zeros(1),
                     left=np.array([LEAF]), right=np.array([LEAF]),
                     value=np.array([0.25]))
    stump = TreeNodes(feature=np.array([1, LEAF, LEAF]), threshold=np.array([0.5, 0, 0]),
                      left=np.array([1, LEAF, LEAF]), right=np.array([2, LEAF, LEAF]),
                      value=np.array([0.0, -1.0, 1.0]))
    for tree in (leaf, stump):
        for n in (0, 1, 7):
            X = np.random.default_rng(n).standard_normal((n, 2))
            assert_routes_like_levelwise(tree, X)
    assert tree_apply(leaf, np.empty((3, 2))).tolist() == [0.25] * 3
    assert tree_apply(stump, np.empty((0, 2))).shape == (0,)


@pytest.mark.parametrize("kind", ["RF", "GBT"])
def test_saved_ensembles_route_like_levelwise(kind, tmp_path):
    rng = np.random.default_rng(12)
    X = make_rows(rng, 150, 5, "grid")
    X[:, 4] = np.round(rng.standard_normal(150), 1)
    y = (X[:, 0] + X[:, 4] + rng.standard_normal(150) > 1).astype(np.int64)
    model = clf.train(clf.make_spec(kind, seed=2, **{"RF": {"n_trees": 20},
                                                     "GBT": {"rounds": 20}}[kind]),
                      Dataset(feature_names=tuple("abcde"), X=X, y=y))
    clf.save_model(model, tmp_path / "m.json")
    loaded, _ = clf.load_model(tmp_path / "m.json")
    fresh = make_rows(rng, 400, 5, "grid")
    fresh[:, 4] = np.round(rng.standard_normal(400), 1)
    fresh[::17, 4] = np.nan
    for tree in loaded.trees:
        assert_routes_like_levelwise(tree, fresh)
        assert_routes_like_levelwise(tree, X)


def test_trees_from_state_accepts_only_trees_the_builder_makes():
    # root splits on feature 1; node 1 splits on feature 0; 2, 3, 4 are leaves
    good = {"feature": [1, 0, LEAF, LEAF, LEAF], "threshold": [0.5, 0.0, 0, 0, 0],
            "left": [1, 3, LEAF, LEAF, LEAF], "right": [2, 4, LEAF, LEAF, LEAF],
            "value": [0.0, 0.0, 1.0, 2.0, 3.0]}
    (tree,) = trees_from_state([good], 1, 2)
    assert tree_apply(tree, [[0.0, 1.0], [-1.0, 0.0], [1.0, 0.0]]).tolist() == [1.0, 2.0, 3.0]
    edits = {
        "child_is_itself": ("left", 1, 1),
        "root_is_own_child": ("right", 0, 0),
        "child_is_parent": ("left", 1, 0),
        "child_past_end": ("right", 0, 5),
        "feature_past_arity": ("feature", 1, 2),
        "feature_below_leaf": ("feature", 0, -2),
    }
    for name, (key, node, bad) in edits.items():
        state = {k: list(v) for k, v in good.items()}
        state[key][node] = bad
        with pytest.raises(ValueError):
            trees_from_state([state], 1, 2)
            raise AssertionError(name)
    for state in ({**good, "value": good["value"][:-1]},
                  {**good, "threshold": good["threshold"][:-1]},
                  {k: [] for k in good}, {**good, "left": [good["left"]]},
                  {**good, "left": [[i] for i in good["left"]]},
                  {**good, "right": [2, [4], LEAF, LEAF, LEAF]},
                  {**good, "value": 1.0}, {**good, "feature": "10"},
                  {**good, "threshold": dict.fromkeys(range(5), 0.0)}):
        with pytest.raises(ValueError):
            trees_from_state([state], 1, 2)
        # the same tree after a good one: all trees are converted together
        with pytest.raises(ValueError):
            trees_from_state([good, state], 2, 2)
    with pytest.raises(ValueError, match="2 trees, not 1"):
        trees_from_state([good, good], 1, 2)
