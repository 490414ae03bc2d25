"""Staged grid search: the same outcome as cross-validating every point.

The oracle (``tests/oracles.py``) trains every grid point in every fold.
The library trains one model per fold for all points that differ only in
the learner's staged hyperparameter (GBT rounds, RF n_trees, KNN k) and
scores each value from its staged predictions. The two must return equal
``GridSearchOutcome``s, failed points and their messages included, and
each staged prediction must equal, byte for byte, that of a model trained
with that value alone.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from flowguard import classifiers as clf  # noqa: E402
from flowguard.dataset import Dataset  # noqa: E402
from flowguard.experiment import grid_search  # noqa: E402
from oracles import grid_search_brute, knn_predict_brute  # noqa: E402

LAYOUTS = ("normal", "grid", "duplicates")
STAGED = {"GBT": "rounds", "RF": "n_trees", "KNN": "k"}


def make_rows(rng, n, d, layout):
    if layout == "normal":
        return rng.standard_normal((n, d))
    if layout == "grid":  # small integer grid: distance ties, even-k vote ties
        return rng.integers(0, 3, size=(n, d)).astype(np.float64)
    base = rng.integers(0, 4, size=(max(1, n // 3), d)).astype(np.float64)
    return base[rng.integers(0, base.shape[0], size=n)]  # repeated rows


def make_folds(rng, n_folds, n, d, layout):
    """Fold (train, validation) pairs of differing sizes, as build_fold_datasets
    would give after preprocessing."""
    folds = []
    names = tuple(f"f{j}" for j in range(d))
    for _ in range(n_folds):
        n_tr = int(rng.integers(2, n + 1))
        n_va = int(rng.integers(1, 8))
        X = make_rows(rng, n_tr + n_va, d, layout)
        y = rng.integers(0, 2, size=n_tr + n_va)
        folds.append((Dataset(feature_names=names, X=X[:n_tr], y=y[:n_tr]),
                      Dataset(feature_names=names, X=X[n_tr:], y=y[n_tr:])))
    return folds


def outcome_or_error(search):
    try:
        return search()
    except ValueError as exc:
        return f"ValueError: {exc}"


def assert_same_search(kind, grid, folds, seed):
    got = outcome_or_error(lambda: grid_search(kind, grid, fold_datasets=folds,
                                               seed=seed))
    want = outcome_or_error(lambda: grid_search_brute(kind, grid, folds, seed))
    assert got == want
    if not isinstance(want, str):
        assert [p.error for p in got.trace] == [p.error for p in want.trace]
        assert got.folds == want.folds


def assert_staged_match_single_fits(kind, hp, values, seed, train, query):
    stage = STAGED[kind]
    top = clf.train(clf.make_spec(kind, seed=seed, **{**hp, stage: max(values)}),
                    train)
    staged = top.staged_predict_sets(query, values)
    assert sorted(staged) == sorted(set(values))
    for value in values:
        alone = clf.train(clf.make_spec(kind, seed=seed, **{**hp, stage: value}),
                          train).predict_set(query)
        assert staged[value].labels.tobytes() == alone.labels.tobytes()
        assert staged[value].probabilities.tobytes() == alone.probabilities.tobytes()
        if kind == "KNN":  # and both follow the documented vote and tie rules
            for row, label, prob in zip(query, staged[value].labels,
                                        staged[value].probabilities):
                assert (label, prob) == knn_predict_brute(
                    train.X.tolist(), train.y.tolist(), row.tolist(), value)


@st.composite
def grid_cases(draw):
    kind = draw(st.sampled_from(sorted(STAGED)))
    layout = draw(st.sampled_from(LAYOUTS))
    d = draw(st.integers(1, 4))
    n = draw(st.integers(2, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    folds = make_folds(rng, draw(st.integers(1, 3)), n, d, layout)
    # repeated and out-of-order values; KNN values may exceed a fold's rows
    top = n + 3 if kind == "KNN" else 6
    staged = tuple(draw(st.lists(st.integers(1, top), min_size=1, max_size=4)))
    grid = {STAGED[kind]: staged}
    if kind == "GBT":
        grid["learning_rate"] = tuple(draw(st.lists(
            st.sampled_from((0.1, 0.3)), min_size=1, max_size=2)))
        grid["depth"] = (draw(st.integers(1, 3)),)
    elif kind == "RF":
        grid["max_depth"] = tuple(draw(st.lists(
            st.sampled_from((None, 1, 3)), min_size=1, max_size=2)))
    keys = draw(st.permutations(list(grid)))  # staged key need not come first
    return kind, {k: grid[k] for k in keys}, folds, draw(st.integers(0, 1000))


@settings(max_examples=120, deadline=None)
@given(grid_cases())
def test_staged_grid_search_matches_per_point_search(case):
    assert_same_search(*case)


@settings(max_examples=80, deadline=None)
@given(grid_cases())
def test_staged_predictions_match_single_fits(case):
    kind, grid, folds, seed = case
    train, validation = folds[0]
    values = [v for v in grid[STAGED[kind]] if kind != "KNN" or v <= train.n_rows]
    if not values or (kind == "GBT" and len(np.unique(train.y)) < 2):
        return  # nothing that can train
    hp = {k: v[0] for k, v in grid.items() if k != STAGED[kind]}
    query = np.vstack([train.X, validation.X])
    assert_staged_match_single_fits(kind, hp, values, seed, train, query)


@pytest.mark.parametrize("kind,grid", [
    ("KNN", {"k": (5, 3)}),          # out of order: the tie keeps k=5
    ("KNN", {"k": (3, 3)}),          # repeated value
    ("KNN", {"k": (2, 4, 6)}),       # even k: exact vote ties
    ("KNN", {"k": (3, 40, 1)}),      # k above the fold's rows fails alone
    ("RF", {"n_trees": (4, 2), "max_depth": (None, 2)}),
    ("GBT", {"learning_rate": (0.3, 0.1), "rounds": (3, 5, 3)}),
])
def test_fixed_grids_match_per_point_search(kind, grid):
    rng = np.random.default_rng(7)
    folds = make_folds(rng, 3, 20, 3, "grid")
    assert_same_search(kind, grid, folds, seed=3)


def test_grid_search_trains_each_group_once_per_fold(monkeypatch):
    trained = []
    train = clf.train_without_loss_curve  # the fold models' entry point
    monkeypatch.setattr(clf, "train_without_loss_curve",
                        lambda spec, ds: trained.append(spec) or train(spec, ds))
    folds = make_folds(np.random.default_rng(1), 3, 20, 3, "normal")
    grid = {"n_trees": (2, 4, 3), "max_depth": (None, 2)}
    outcome = grid_search("RF", grid, fold_datasets=folds, seed=0)
    assert all(p.error is None for p in outcome.trace)
    assert [(s.hyperparameters["n_trees"], s.hyperparameters["max_depth"], s.seed)
            for s in trained] == [(4, None, 0), (4, 2, 0), (4, None, 1),
                                  (4, 2, 1), (4, None, 2), (4, 2, 2)]


def test_staged_values_must_be_stages_of_the_model():
    rng = np.random.default_rng(0)
    (train, _), = make_folds(rng, 1, 12, 2, "normal")
    model = clf.train(clf.make_spec("KNN", k=3), train)
    with pytest.raises(ValueError, match="not a stage"):
        model.staged_predict_sets(train.X, (4,))
    with pytest.raises(ValueError, match="not a stage"):
        model.staged_predict_sets(train.X, (0,))


def test_fold_models_skip_the_loss_curve_and_final_models_keep_it(monkeypatch):
    from flowguard.classifiers import boosting, mlp
    from flowguard.experiment import _cross_validate

    calls = []
    for module, name in ((boosting, "mean_log_loss"), (mlp, "bce_loss")):
        loss = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, loss=loss, name=name:
                            calls.append(name) or loss(*args))
    rng = np.random.default_rng(2)
    names = ("a", "b", "c")
    folds = []
    for f in range(3):
        X = make_rows(rng, 36, 3, "normal")
        y = np.arange(36) % 2
        folds.append((f, Dataset(feature_names=names, X=X[:30], y=y[:30]),
                      Dataset(feature_names=names, X=X[30:], y=y[30:])))
    gbt = [clf.make_spec("GBT", rounds=r) for r in (3, 5)]
    net = [clf.make_spec("MLP", epochs=4, hidden_sizes=(4,))]
    for specs in (gbt, net):
        for f, train, validation in folds:
            results = _cross_validate(specs, f, train, validation)
            assert [r.fold for r in results] == [f] * len(specs)
    assert calls == []

    train = folds[0][1]
    for spec, field in ((gbt[1], "trees"), (net[0], "weights")):
        final = clf.train(spec, train)
        dropped = clf.train_without_loss_curve(spec, train)
        assert dropped.loss_curve is None
        assert final.to_state()[field] == dropped.to_state()[field]
    # one loss before training, then one per round or epoch
    assert len(clf.train(gbt[1], train).loss_curve) == 5 + 1
    assert len(clf.train(net[0], train).loss_curve) == 4 + 1
    assert calls.count("mean_log_loss") == 2 * (5 + 1)
    assert calls.count("bce_loss") == 2 * (4 + 1)
