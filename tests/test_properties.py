"""Property tests for saved models, metric bounds and the fitted pipeline.

Datasets are drawn with exact ties and repeated rows, the inputs on which
order-dependent code most easily goes wrong.
"""

import math
import tempfile
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from flowguard.classifiers import (MODEL_KINDS, load_model,  # noqa: E402
                                   make_spec, save_model, train)
from flowguard.dataset import Dataset  # noqa: E402
from flowguard.experiment import fit_track_pipeline  # noqa: E402
from flowguard.metrics import (agreement_metrics, brier_score,  # noqa: E402
                               confusion_matrix, core_metrics,
                               evaluate_predictions)

LAYOUTS = ("normal", "grid", "duplicates")
# Small models keep each example fast; the code paths are the defaults'.
SMALL = {"RF": {"n_trees": 5}, "GBT": {"rounds": 5}, "KNN": {"k": 3},
         "MLP": {"hidden_sizes": (8,), "epochs": 3}, "SVC": {"epochs": 3}}


def make_rows(rng, n, d, layout):
    if layout == "normal":
        return rng.standard_normal((n, d)) * 3
    if layout == "grid":  # exact ties in every column
        return rng.integers(0, 3, size=(n, d)).astype(np.float64)
    base = np.round(rng.standard_normal((max(1, n // 3), d)), 1)
    return base[rng.integers(0, base.shape[0], size=n)]  # repeated rows


def make_ds(X, y):
    names = tuple(f"f{i}" for i in range(X.shape[1]))
    return Dataset(feature_names=names, X=X, y=y)


@st.composite
def labelled_rows(draw, min_rows, max_rows):
    """(rng, layout, dataset) with at least three rows of each class.

    Three per class is the least the SVC's out-of-fold Platt scaling takes.
    """
    layout = draw(st.sampled_from(LAYOUTS))
    n = draw(st.integers(min_rows, max_rows))
    d = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    y = rng.integers(0, 2, size=n)
    y[:3], y[3:6] = 0, 1
    return rng, layout, make_ds(make_rows(rng, n, d, layout), y)


@settings(max_examples=25, deadline=None)
@given(labelled_rows(6, 30), st.integers(0, 1000))
def test_persistence_round_trip_drawn_datasets(case, seed):
    rng, layout, ds = case
    probe = np.vstack([ds.X, make_rows(rng, 20, ds.n_features, layout)])
    with tempfile.TemporaryDirectory() as tmp:
        for kind in MODEL_KINDS:
            model = train(make_spec(kind, seed=seed, **SMALL[kind]), ds)
            path = Path(tmp) / f"{kind.lower()}.json"
            save_model(model, path)
            loaded, _ = load_model(path)
            got, want = loaded.predict_proba(probe), model.predict_proba(probe)
            assert got.tobytes() == want.tobytes(), kind
            a, b = loaded.predict_set(probe), model.predict_set(probe)
            assert a.labels.tobytes() == b.labels.tobytes(), kind
            assert a.probabilities.tobytes() == b.probabilities.tobytes(), kind


@st.composite
def scored_predictions(draw):
    n = draw(st.integers(1, 60))
    y_true = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    if draw(st.booleans()):
        y_true = [y_true[0]] * n  # a single class
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    unit = st.floats(0.0, 1.0)
    if draw(st.booleans()):
        probs = [draw(unit)] * n  # all scores equal
    else:
        probs = draw(st.lists(st.one_of(unit, st.sampled_from((0.0, 0.5, 1.0))),
                              min_size=n, max_size=n))
    return np.array(y_true), np.array(labels), np.array(probs)


def assert_within(value, low, high, name):
    assert math.isfinite(value) and low <= value <= high, (name, value)


@settings(max_examples=400, deadline=None)
@given(scored_predictions())
def test_metrics_stay_within_bounds(case):
    y_true, labels, probs = case
    report, curve = evaluate_predictions(y_true, labels, probs)
    if len(set(y_true.tolist())) == 2:
        assert report.auc == curve.auc
    else:
        # AUC is undefined on one class: no curve, and 0.0 listed as
        # degenerate; every other metric is reported as it is on its own
        assert curve is None
        assert report.auc == 0.0 and "auc" in report.degenerate
        cm = confusion_matrix(y_true, labels)
        core, agree = core_metrics(cm), agreement_metrics(cm)
        assert report.to_dict() == {
            **asdict(core), **asdict(agree), "auc": 0.0,
            "brier": brier_score(y_true, probs), "confusion": asdict(cm),
            "degenerate": core.degenerate + ("auc",) + agree.degenerate}
    unit = {"accuracy": report.accuracy, "precision": report.precision,
            "recall": report.recall, "f1": report.f1, "auc": report.auc,
            "brier": report.brier}
    signed = {"kappa": report.kappa, "mcc": report.mcc}
    for name, value in unit.items():
        assert_within(value, 0.0, 1.0, name)
    for name, value in signed.items():
        assert_within(value, -1.0, 1.0, name)


@settings(max_examples=60, deadline=None)
@given(labelled_rows(6, 30), st.integers(0, 30), st.one_of(st.none(), st.integers(1, 5)))
def test_transform_keeps_rows_order_and_labels(case, n_eval, top_m):
    rng, layout, train_ds = case
    _, state = fit_track_pipeline(train_ds, None, None, select_top_m=top_m)
    y = rng.integers(0, 2, size=n_eval)
    ds = make_ds(make_rows(rng, n_eval, train_ds.n_features, layout), y)
    out = state.transform(ds)
    assert out.n_rows == ds.n_rows
    assert out.y.tobytes() == ds.y.tobytes()
    scaled = (ds.X - state.scaler.mean) / state.scaler.scale
    if state.selected is not None:
        assert out.n_features == len(state.selected) < ds.n_features
        scaled = scaled[:, list(state.selected)]
    assert out.X.tobytes() == scaled.tobytes()
    for i in range(n_eval):  # each row transforms alone to the same values
        alone = state.transform(ds.take([i]))
        assert alone.X.tobytes() == out.X[i].tobytes()
        assert alone.y.tolist() == [y[i]]
