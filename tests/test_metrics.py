"""Metric implementations against exact-arithmetic references."""

import csv
import io
import math

import numpy as np
import pytest

from flowguard.classifiers import train
from flowguard.dataset import Dataset, stratified_split
from flowguard.experiment import (ExperimentConfig, ExperimentReport, ModelResult,
                                  TrackReport, build_fold_datasets, fit_track_pipeline,
                                  grid_search, write_report_files)
from flowguard.metrics import (
    ConfusionMatrix,
    agreement_metrics,
    brier_score,
    confusion_matrix,
    core_metrics,
    evaluate_predictions,
    roc_auc,
)
from oracles import (
    auc_pairwise,
    brier_value,
    confusion_counts,
    core_metric_values,
    kappa_value,
    mcc_value,
)


def test_worked_confusion_example():
    cm = ConfusionMatrix(tp=1, tn=2, fp=0, fn=1)
    m = core_metrics(cm)
    assert m.accuracy == 0.75
    assert m.precision == 1.0
    assert m.recall == 0.5
    assert abs(m.f1 - 2 / 3) < 1e-15
    assert m.degenerate == ()


def test_confusion_matrix_from_labels():
    cm = confusion_matrix(np.array([1, 0, 1, 0, 1]), np.array([1, 0, 0, 1, 1]))
    assert (cm.tp, cm.tn, cm.fp, cm.fn) == (2, 1, 1, 1)
    assert cm.total == 5


def test_confusion_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        confusion_matrix(np.array([0, 2]), np.array([0, 1]))
    with pytest.raises(ValueError):
        confusion_matrix(np.array([0, 1]), np.array([0, 1, 1]))


def test_core_metrics_match_fraction_oracle():
    rng = np.random.default_rng(7)
    for _ in range(400):
        tp, tn, fp, fn = (int(v) for v in rng.integers(0, 30, size=4))
        if tp + tn + fp + fn == 0:
            continue
        m = core_metrics(ConfusionMatrix(tp, tn, fp, fn))
        acc, prec, rec, f1 = core_metric_values(tp, tn, fp, fn)
        assert abs(m.accuracy - acc) < 1e-12
        assert abs(m.precision - prec) < 1e-12
        assert abs(m.recall - rec) < 1e-12
        assert abs(m.f1 - f1) < 1e-12


def test_degenerate_flags():
    # nothing predicted positive: precision undefined, f1 undefined
    m = core_metrics(ConfusionMatrix(tp=0, tn=5, fp=0, fn=3))
    assert "precision" in m.degenerate and "f1" in m.degenerate
    assert m.precision == 0.0 and m.f1 == 0.0
    # no actual positives: recall undefined
    m = core_metrics(ConfusionMatrix(tp=0, tn=5, fp=2, fn=0))
    assert "recall" in m.degenerate
    assert m.recall == 0.0


def test_agreement_marginal_example():
    # uniform confusion: observed agreement equals chance agreement
    a = agreement_metrics(ConfusionMatrix(tp=1, tn=1, fp=1, fn=1))
    assert a.kappa == 0.0
    assert a.mcc == 0.0
    assert a.degenerate == ()


def test_agreement_chance_only_flagged():
    # every row predicted positive and every row actually positive:
    # p_e == 1, kappa is undefined and must be flagged, not NaN
    a = agreement_metrics(ConfusionMatrix(tp=4, tn=0, fp=0, fn=0))
    assert a.kappa == 0.0
    assert "kappa" in a.degenerate
    assert not math.isnan(a.kappa)


def test_agreement_match_oracle():
    rng = np.random.default_rng(11)
    for _ in range(400):
        tp, tn, fp, fn = (int(v) for v in rng.integers(0, 25, size=4))
        if tp + tn + fp + fn == 0:
            continue
        a = agreement_metrics(ConfusionMatrix(tp, tn, fp, fn))
        assert abs(a.kappa - kappa_value(tp, tn, fp, fn)) < 1e-12
        assert abs(a.mcc - mcc_value(tp, tn, fp, fn)) < 1e-12


def test_perfect_agreement_is_exactly_one():
    rng = np.random.default_rng(3)
    for _ in range(50):
        tp = int(rng.integers(1, 40))
        tn = int(rng.integers(1, 40))
        a = agreement_metrics(ConfusionMatrix(tp=tp, tn=tn, fp=0, fn=0))
        assert a.kappa == 1.0
        assert a.mcc == 1.0


def test_roc_worked_example():
    curve = roc_auc(np.array([1, 0, 1, 0]), np.array([0.9, 0.6, 0.4, 0.1]))
    assert abs(curve.auc - 0.75) < 1e-15
    assert curve.fpr[0] == 0.0 and curve.tpr[0] == 0.0
    assert curve.fpr[-1] == 1.0 and curve.tpr[-1] == 1.0
    assert math.isinf(curve.thresholds[0])


def test_roc_all_tied_scores():
    curve = roc_auc(np.array([1, 0, 1, 0]), np.full(4, 0.5))
    assert abs(curve.auc - 0.5) < 1e-15
    # a single tie block collapses the curve to the diagonal endpoints
    assert len(curve.fpr) == 2


def test_roc_matches_pairwise_oracle():
    rng = np.random.default_rng(19)
    for _ in range(300):
        n = int(rng.integers(2, 60))
        y = rng.integers(0, 2, size=n)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        # coarse grid forces heavy ties
        scores = rng.integers(0, 5, size=n) / 4.0
        curve = roc_auc(y, scores)
        assert abs(curve.auc - auc_pairwise(y.tolist(), scores.tolist())) < 1e-12


def test_roc_monotone_transform_invariance():
    rng = np.random.default_rng(23)
    for _ in range(50):
        n = int(rng.integers(4, 80))
        y = rng.integers(0, 2, size=n)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        scores = rng.integers(0, 8, size=n).astype(float)
        a = roc_auc(y, scores)
        b = roc_auc(y, 2.0 * scores + 1.0)
        assert a.auc == b.auc
        assert np.array_equal(a.fpr, b.fpr)
        assert np.array_equal(a.tpr, b.tpr)


def test_roc_rejects_degenerate_input():
    with pytest.raises(ValueError):
        roc_auc(np.array([1, 1]), np.array([0.2, 0.7]))
    with pytest.raises(ValueError):
        roc_auc(np.array([0, 1]), np.array([0.2, float("nan")]))


def test_roc_curve_csv(tmp_path):
    # the roc_<model>_<track>.csv file of a run: fpr,tpr cells that read back
    # as the curve's exact points, CRLF line ends
    y, scores = np.array([1, 0, 1, 0]), np.array([0.9, 0.6, 0.4, 0.1])
    test, curve = evaluate_predictions(y, (scores >= 0.5).astype(int), scores)
    ds = Dataset(feature_names=("x",), X=scores[:, None], y=y)
    search = grid_search("KNN", {"k": (1,)}, build_fold_datasets(ds, 2, seed=0))
    model = ModelResult(search=search, model=train(search.best_spec, ds),
                        training_accuracy=1.0, test=test, roc=curve)
    _, state = fit_track_pipeline(ds, None, None)
    track = TrackReport(track="balanced", train_rows=4, models=(model,), state=state)
    write_report_files(ExperimentReport(config=ExperimentConfig(), dataset=ds,
                                        split=stratified_split(ds, 0.5, seed=0),
                                        tracks=(track,)), tmp_path)
    text = (tmp_path / "roc_knn_balanced.csv").read_bytes().decode()
    assert text.endswith("\r\n") and "\n" not in text.replace("\r\n", "")
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["fpr", "tpr"]
    assert [(float(x), float(t)) for x, t in rows[1:]] == list(zip(curve.fpr,
                                                                   curve.tpr))


def test_brier_worked_example():
    assert abs(brier_score(np.array([1, 0]), np.array([0.8, 0.4])) - 0.1) < 1e-12


def test_brier_matches_oracle_and_bounds():
    rng = np.random.default_rng(29)
    for _ in range(200):
        n = int(rng.integers(1, 50))
        y = rng.integers(0, 2, size=n)
        p = rng.random(n)
        b = brier_score(y, p)
        assert abs(b - brier_value(y.tolist(), p.tolist())) < 1e-12
        assert 0.0 <= b <= 1.0
    assert brier_score(np.array([1, 0]), np.array([1.0, 0.0])) == 0.0
    with pytest.raises(ValueError):
        brier_score(np.array([1, 0]), np.array([1.2, 0.0]))
    with pytest.raises(ValueError):  # as roc_auc refuses it on two classes
        brier_score(np.array([0, 0]), np.array([np.nan, 0.5]))


def test_evaluate_predictions_report():
    y = np.array([1, 0, 1, 0, 1, 0])
    labels = np.array([1, 0, 1, 1, 1, 0])
    probs = np.array([0.9, 0.2, 0.8, 0.6, 0.7, 0.1])
    report, curve = evaluate_predictions(y, labels, probs)
    d = report.to_dict()
    cm = d["confusion"]
    assert (cm["tp"], cm["tn"], cm["fp"], cm["fn"]) == (3, 2, 1, 0)
    assert d["accuracy"] == (cm["tp"] + cm["tn"]) / 6
    assert abs(d["auc"] - auc_pairwise(y.tolist(), probs.tolist())) < 1e-12
    assert curve.auc == d["auc"]
    for key in ("precision", "recall", "f1", "kappa", "mcc", "brier"):
        assert key in d
