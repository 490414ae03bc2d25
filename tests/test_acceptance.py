"""End-to-end acceptance gate.

Each test here checks one headline guarantee at its stated tolerance and
runtime budget. The terminal summary prints one PASSED/FAILED line per
test (see conftest.py).
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

import flowguard as fg
from flowguard.classifiers import gradient_check, make_spec, predict, train
from flowguard.dataset import content_hash, load_csv, stratified_split
from flowguard.experiment import (
    ExperimentConfig,
    fit_track_pipeline,
    run_full_experiment,
    report_to_dict,
    report_to_json,
    write_report_files,
)
from flowguard.metrics import (
    ConfusionMatrix,
    agreement_metrics,
    brier_score,
    confusion_matrix,
    core_metrics,
    roc_auc,
)
from flowguard.preprocess import (
    LofConfig,
    SmoteConfig,
    lof_scores,
    remove_outliers,
    smote_oversample,
)
from oracles import (
    auc_pairwise,
    brier_value,
    confusion_counts,
    core_metric_values,
    kappa_value,
    knn_predict_brute,
    lof_brute,
    mcc_value,
)


def dataset(X, y):
    X = np.asarray(X, dtype=np.float64)
    return fg.Dataset(feature_names=tuple(f"f{i}" for i in range(X.shape[1])),
                      X=X, y=np.asarray(y, dtype=np.int64))


def test_metric_suite_matches_independent_references():
    start = time.perf_counter()
    # worked example first: 1 hit, 2 rejections, 1 miss
    m = core_metrics(ConfusionMatrix(tp=1, tn=2, fp=0, fn=1))
    assert abs(m.accuracy - 0.75) < 1e-12
    assert abs(m.precision - 1.0) < 1e-12
    assert abs(m.recall - 0.5) < 1e-12
    assert abs(m.f1 - 0.6666666666666666) < 1e-12

    rng = np.random.default_rng(101)
    checked = 0
    while checked < 1000:
        n = int(rng.integers(1, 40))
        y = rng.integers(0, 2, size=n)
        pred = rng.integers(0, 2, size=n)
        probs = rng.integers(0, 11, size=n) / 10.0
        cm = confusion_matrix(y, pred)
        assert (cm.tp, cm.tn, cm.fp, cm.fn) == confusion_counts(y.tolist(),
                                                                pred.tolist())
        got = core_metrics(cm)
        acc, prec, rec, f1 = core_metric_values(cm.tp, cm.tn, cm.fp, cm.fn)
        assert abs(got.accuracy - acc) < 1e-12
        assert abs(got.precision - prec) < 1e-12
        assert abs(got.recall - rec) < 1e-12
        assert abs(got.f1 - f1) < 1e-12
        agree = agreement_metrics(cm)
        assert abs(agree.kappa - kappa_value(cm.tp, cm.tn, cm.fp, cm.fn)) < 1e-12
        assert abs(agree.mcc - mcc_value(cm.tp, cm.tn, cm.fp, cm.fn)) < 1e-12
        assert abs(brier_score(y, probs) -
                   brier_value(y.tolist(), probs.tolist())) < 1e-12
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"metric suite took {elapsed:.1f}s"


def test_auc_equals_pairwise_concordance():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    for trial in range(1000):
        n = int(rng.integers(2, 201))
        y = rng.integers(0, 2, size=n)
        if y.min() == y.max():
            y[rng.integers(0, n)] = 1 - y[0]
        if trial % 3 == 0:
            levels = int(rng.integers(1, 6))  # few levels force heavy ties
            scores = rng.integers(0, levels + 1, size=n) / max(levels, 1)
        else:
            scores = rng.random(n)
        curve = roc_auc(y, scores)
        assert abs(curve.auc - auc_pairwise(y.tolist(), scores.tolist())) < 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"auc comparison took {elapsed:.1f}s"


def _segment_rel_deviation(a, b, s):
    ab = b - a
    denom = float(np.dot(ab, ab))
    if denom == 0.0:
        return float(np.linalg.norm(s - a))
    t = float(np.dot(s - a, ab)) / denom
    if not (-1e-12 <= t <= 1.0 + 1e-12):
        return np.inf
    resid = float(np.linalg.norm(s - (a + t * ab)))
    return resid / max(np.sqrt(denom), 1e-30)


def test_smote_geometry_counts_and_train_only_scope():
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    for trial in range(500):
        n_min = int(rng.integers(3, 13))
        n_maj = int(rng.integers(n_min, 50))
        k = int(rng.integers(1, n_min))
        ratio = float(rng.uniform(0.6, 1.4))
        d = int(rng.integers(2, 7))
        minority = rng.standard_normal((n_min, d)) * 4
        majority = rng.standard_normal((n_maj, d)) * 4
        ds = dataset(np.vstack([majority, minority]),
                     [0] * n_maj + [1] * n_min)
        out = smote_oversample(ds, SmoteConfig(k_neighbors=k,
                                               target_ratio=ratio, seed=trial))
        needed = max(0, round(ratio * n_maj) - n_min)
        assert out.n_rows == ds.n_rows + needed
        assert np.array_equal(out.X[:ds.n_rows], ds.X)
        assert np.array_equal(out.y[:ds.n_rows], ds.y)
        assert np.all(out.y[ds.n_rows:] == 1)
        for j in range(needed):
            s = out.X[ds.n_rows + j]
            base = minority[j % n_min]
            d2 = np.sum((minority - base) ** 2, axis=1)
            d2[j % n_min] = np.inf
            nearest = np.argsort(d2, kind="stable")[:k]
            dev = min(_segment_rel_deviation(base, minority[nb], s)
                      for nb in nearest)
            assert dev < 1e-9, f"trial {trial}: synthetic point off segment"

    # oversampling must never see or alter the held-out partition
    ds = fg.generate(fg.SynthConfig(n_benign=120, n_ddos=60, n_features=5,
                                    class_separation=3.0, seed=7))
    split = stratified_split(ds, 0.8, seed=7)
    test_before = content_hash(split.test)
    proc_train, state = fit_track_pipeline(split.train, SmoteConfig(seed=7),
                                           LofConfig(k_neighbors=5,
                                                     threshold=1.5))
    proc_test = state.transform(split.test)
    assert content_hash(split.test) == test_before
    assert proc_test.n_rows == split.test.n_rows
    assert np.array_equal(proc_test.y, split.test.y)
    assert state.smote_added > 0
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"smote geometry took {elapsed:.1f}s"


def test_lof_matches_brute_force_and_grid_cases():
    start = time.perf_counter()
    rng = np.random.default_rng(404)
    for n in (20, 45, 90, 140, 200):
        d = int(rng.integers(1, 5))
        k = int(rng.integers(2, 9))
        X = np.round(rng.standard_normal((n, d)) * 3, 3)
        if n % 2 == 0:
            X[: n // 5] = X[0]  # duplicate block exercises tie handling
        fast = lof_scores(dataset(X, rng.integers(0, 2, size=n)), k_neighbors=k)
        slow = np.asarray(lof_brute([tuple(r) for r in X.tolist()], k))
        # relative 1e-9: duplicate-block scores sit at the 1/eps guard
        # (~1e10), where a raw 1e-9 gap is finer than float64 resolution
        assert np.all(np.abs(fast - slow) <= 1e-9 * np.maximum(1.0, np.abs(slow)))

    pts = [[float(i), float(j)] for i in range(5) for j in range(5)]
    grid = dataset(pts, [0, 1] * 12 + [0])
    base = lof_scores(grid, k_neighbors=3)
    assert np.all(base >= 0.8) and np.all(base <= 1.2)

    planted = dataset(pts + [[100.0, 100.0]], [0, 1] * 13)
    removal = remove_outliers(planted, LofConfig(k_neighbors=3, threshold=1.5))
    assert removal.removed_count == 1
    assert np.array_equal(removal.dataset.X, np.asarray(pts))
    assert np.all(np.abs(removal.scores[:25] - base) < 0.05)

    same = dataset(np.ones((10, 3)), [0, 1] * 5)
    assert np.all(lof_scores(same, k_neighbors=3) == 1.0)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"lof checks took {elapsed:.1f}s"


def test_mlp_gradients_match_central_differences():
    start = time.perf_counter()
    worst = 0.0
    for trial in range(20):
        rng = np.random.default_rng(1000 + trial)
        n = int(rng.integers(3, 8))
        d = int(rng.integers(2, 5))
        h1 = int(rng.integers(2, 6))
        h2 = int(rng.integers(2, 4))
        ds = dataset(rng.standard_normal((n, d)), rng.integers(0, 2, size=n))
        err = gradient_check(make_spec("MLP", seed=trial,
                                       hidden_sizes=(h1, h2)), ds, step=1e-5)
        worst = max(worst, err)
    assert worst < 1e-4, f"worst gradient error {worst:.2e}"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"gradient checks took {elapsed:.1f}s"


def test_classifier_sanity_contracts():
    start = time.perf_counter()
    rng = np.random.default_rng(505)

    # unlimited single tree and 1-nn both memorize distinct rows
    X = rng.standard_normal((60, 5))
    y = rng.integers(0, 2, size=60)
    y[0], y[1] = 0, 1
    ds = dataset(X, y)
    tree = train(make_spec("RF", seed=0, n_trees=1, bootstrap=False,
                           max_depth=None), ds)
    assert np.array_equal(predict(tree, ds).labels, ds.y)
    nn = train(make_spec("KNN", k=1), ds)
    assert np.array_equal(predict(nn, ds).labels, ds.y)

    # boosting training loss never increases
    for trial in range(3):
        ds_b = dataset(rng.standard_normal((80, 4)),
                       np.r_[0, 1, rng.integers(0, 2, size=78)])
        booster = train(make_spec("GBT", seed=trial, rounds=40), ds_b)
        curve = np.asarray(booster.loss_curve)
        assert np.all(np.diff(curve) <= 1e-12)

    # vote counting agrees with an exhaustive python reference at n=500
    train_X = rng.integers(0, 5, size=(500, 3)).astype(np.float64)
    train_y = rng.integers(0, 2, size=500)
    ds_k = dataset(train_X, train_y)
    queries = rng.integers(0, 5, size=(80, 3)).astype(np.float64)
    for k in (1, 4, 7):
        model = train(make_spec("KNN", k=k), ds_k)
        got = model.predict_set(queries)
        for i in range(queries.shape[0]):
            label, frac = knn_predict_brute(train_X.tolist(), train_y.tolist(),
                                            queries[i].tolist(), k)
            assert got.labels[i] == label
            assert abs(got.probabilities[i] - frac) < 1e-15
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"classifier contracts took {elapsed:.1f}s"


def test_synthetic_end_to_end_detection_quality():
    start = time.perf_counter()
    ds = fg.generate(fg.SynthConfig(n_benign=2000, n_ddos=2000, n_features=22,
                                    class_separation=6.0, seed=0))
    report = run_full_experiment(ExperimentConfig(), ds)
    assert [t.track for t in report.tracks] == ["imbalanced", "balanced"]

    floor = {"rf": 0.99, "xgb": 0.99, "mlp": 0.99, "knn": 0.95, "svc": 0.95}
    accuracy = {}
    for track in report.tracks:
        for m in track.models:
            accuracy[(track.track, m.name)] = m.test.accuracy
            assert m.test.accuracy >= floor[m.name], (
                f"{m.name} on {track.track}: {m.test.accuracy:.4f}")
            if m.name in ("rf", "xgb"):
                assert m.test.brier <= 0.01
                assert m.test.kappa >= 0.98
    for name in floor:
        assert (accuracy[("balanced", name)] >=
                accuracy[("imbalanced", name)] - 0.01)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"end-to-end run took {elapsed:.1f}s"


def test_reports_are_byte_identical_and_seed_sensitive(tmp_path):
    start = time.perf_counter()
    cfg = ExperimentConfig(cv_folds=3, seed=0, models=("RF", "KNN"),
                           grids={"RF": {"n_trees": (5, 10)},
                                  "KNN": {"k": (3, 5)}},
                           lof=LofConfig(k_neighbors=5, threshold=1.5))
    ds = fg.generate(fg.SynthConfig(n_benign=150, n_ddos=100, n_features=6,
                                    class_separation=3.0, seed=1))

    dirs = []
    for run in range(2):
        out = tmp_path / f"run{run}"
        report = run_full_experiment(cfg, ds)
        write_report_files(report, out)
        dirs.append(out)
    files_a = sorted(p.name for p in dirs[0].iterdir())
    files_b = sorted(p.name for p in dirs[1].iterdir())
    assert files_a == files_b and files_a
    for name in files_a:
        assert ((dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()), name

    report0 = run_full_experiment(cfg, ds)
    cfg1 = ExperimentConfig(cv_folds=3, seed=1, models=("RF", "KNN"),
                            grids={"RF": {"n_trees": (5, 10)},
                                   "KNN": {"k": (3, 5)}},
                            lof=LofConfig(k_neighbors=5, threshold=1.5))
    report1 = run_full_experiment(cfg1, ds)
    assert (report_to_dict(report0)["split"]["train_hash"]
            != report_to_dict(report1)["split"]["train_hash"])
    assert report_to_json(report0) != report_to_json(report1)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"determinism checks took {elapsed:.1f}s"


def _reference_corpus_path():
    env = os.environ.get("FLOWGUARD_SDN_CSV")
    if env:
        return Path(env)
    for candidate in (Path(__file__).resolve().parent.parent / "data" / "dataset_sdn.csv",
                      Path("data/dataset_sdn.csv")):
        if candidate.exists():
            return candidate
    return None


def test_reference_corpus_reproduction():
    path = _reference_corpus_path()
    if path is None or not path.exists():
        pytest.skip("reference SDN flow corpus not present "
                    "(set FLOWGUARD_SDN_CSV or place data/dataset_sdn.csv)")
    ds = fg.load_csv(path)
    ds = fg.encode_categoricals(fg.impute_missing(ds))
    report = run_full_experiment(ExperimentConfig(), ds)
    balanced = next(t for t in report.tracks if t.track == "balanced")
    by_name = {m.name: m for m in balanced.models}
    # published-result floors, already widened by the 0.02 reproduction margin
    assert by_name["rf"].test.accuracy >= 0.98
    assert by_name["xgb"].test.accuracy >= 0.98
    assert by_name["mlp"].test.accuracy >= 0.98
    assert by_name["knn"].test.accuracy >= 0.95
    assert by_name["svc"].test.accuracy >= 0.94
    for name in ("rf", "xgb", "mlp"):
        assert by_name[name].test.auc >= 0.995
    for name in ("rf", "xgb"):
        assert by_name[name].test.kappa >= 0.99
        assert by_name[name].test.brier <= 0.005
