"""Experiment engine: CV, grid search, track pipelines, report artifacts."""

import dataclasses
import json
import logging
import multiprocessing
import os

import numpy as np
import pytest

from flowguard import classifiers, experiment
from flowguard.cli import _save_track_models
from flowguard.dataset import (Dataset, content_hash, encode_categoricals,
                               load_csv, stratified_fold_indices, stratified_split)
from flowguard.experiment import (
    ExperimentConfig,
    PipelineState,
    build_fold_datasets,
    expand_grid,
    fit_track_pipeline,
    grid_search,
    run_full_experiment,
    run_track,
    report_to_dict,
    report_to_json,
    write_report_files,
)
from flowguard.classifiers import LEARNERS
from flowguard.preprocess import LofConfig, SmoteConfig, fit_scaler
from flowguard.synth import SynthConfig, generate

SMALL_GRIDS = {"RF": {"n_trees": (5,)}, "KNN": {"k": (3,)}}


def small_config(**overrides):
    base = dict(cv_folds=3, seed=0, models=("RF", "KNN"), grids=SMALL_GRIDS,
                lof=LofConfig(k_neighbors=5, threshold=1.5))
    base.update(overrides)
    return ExperimentConfig(**base)


def small_data(seed=0, n_benign=90, n_ddos=60):
    return generate(SynthConfig(n_benign=n_benign, n_ddos=n_ddos, n_features=5,
                                class_separation=4.0, seed=seed))


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(split_ratio=1.0)
    with pytest.raises(ValueError):
        ExperimentConfig(cv_folds=1)
    with pytest.raises(ValueError):
        ExperimentConfig(tracks=("weighted",))
    with pytest.raises(ValueError):
        ExperimentConfig(models=("LSTM",))
    with pytest.raises(ValueError):
        ExperimentConfig(models=("RF",), grids={"RF": {"n_trees": ()}})
    with pytest.raises(ValueError):
        ExperimentConfig(select_top_m=0)
    # a grid for a kind that does not exist, for a hyperparameter the
    # learner lacks, and a kind enabled twice
    with pytest.raises(ValueError, match="unknown model kind 'XGB'"):
        ExperimentConfig(models=("GBT",), grids={"XGB": {"rounds": (5,)}})
    with pytest.raises(ValueError, match="n_tree"):
        ExperimentConfig(models=("RF",), grids={"RF": {"n_tree": (5,)}})
    with pytest.raises(ValueError, match="more than once"):
        ExperimentConfig(models=("RF", "RF"))
    with pytest.raises(ValueError, match="more than once"):
        ExperimentConfig(tracks=("balanced", "balanced"))
    cfg = ExperimentConfig(models=["RF"], grids={"RF": {"n_trees": [5, 9]}})
    assert cfg.grids["RF"]["n_trees"] == (5, 9)


@pytest.mark.parametrize("stage, value", [
    ("smote", None), ("lof", None), ("smote", LofConfig()), ("lof", SmoteConfig()),
], ids=["smote_none", "lof_none", "smote_lof_config", "lof_smote_config"])
def test_config_refuses_a_stage_config_of_another_type(stage, value):
    # with None, neither stage would run while the report listed both
    with pytest.raises(ValueError, match=f"^{stage} must be a "):
        ExperimentConfig(models=("KNN",), cv_folds=3, **{stage: value})


def test_default_grids_cover_every_model():
    for learner in LEARNERS:
        assert learner.default_grid, learner.kind
        assert all(learner.default_grid.values()), learner.kind
    cfg = ExperimentConfig()
    assert cfg.models == ("RF", "SVC", "KNN", "MLP", "GBT")
    assert cfg.models == tuple(learner.kind for learner in LEARNERS)
    for learner in LEARNERS:
        assert cfg.grids[learner.kind] == learner.default_grid


def test_kfold_mean_is_arithmetic_mean():
    ds = small_data()
    split = stratified_split(ds, 0.8, seed=0)
    cv = grid_search("KNN", {"k": (3,)},
                     fold_datasets=build_fold_datasets(split.train, 3, seed=0))
    assert len(cv.folds) == 3
    vals = [f.validation_accuracy for f in cv.folds]
    assert cv.mean_cv_accuracy == sum(vals) / 3
    assert [p.mean_cv_accuracy for p in cv.trace] == [cv.mean_cv_accuracy]
    for f in cv.folds:
        assert 0.0 <= f.validation_accuracy <= 1.0
        assert 0.0 <= f.train_accuracy <= 1.0


def test_kfold_is_deterministic():
    ds = small_data()
    split = stratified_split(ds, 0.8, seed=0)
    a = grid_search("RF", {"n_trees": (5,)},
                    fold_datasets=build_fold_datasets(split.train, 3, seed=1))
    b = grid_search("RF", {"n_trees": (5,)},
                    fold_datasets=build_fold_datasets(split.train, 3, seed=1))
    assert a == b


def test_expand_grid_orders_first_listed_outermost():
    combos = expand_grid({"a": (1, 2), "b": (10, 20)})
    assert combos == [{"a": 1, "b": 10}, {"a": 1, "b": 20},
                      {"a": 2, "b": 10}, {"a": 2, "b": 20}]


def test_grid_search_tie_keeps_first_listed():
    # both k values reach identical CV accuracy on cleanly separable data
    ds = small_data(n_benign=75, n_ddos=75)
    split = stratified_split(ds, 0.8, seed=0)
    folds = build_fold_datasets(split.train, 3, seed=0)
    out = grid_search("KNN", {"k": (5, 3)}, fold_datasets=folds, seed=0)
    accs = [p.mean_cv_accuracy for p in out.trace]
    assert accs[0] == accs[1] == 1.0
    assert out.best_spec.hyperparameters["k"] == 5


def test_grid_search_skips_failing_combinations():
    ds = small_data(n_benign=40, n_ddos=40)
    split = stratified_split(ds, 0.8, seed=0)
    folds = build_fold_datasets(split.train, 3, seed=0)
    out = grid_search("KNN", {"k": (5000, 3)}, fold_datasets=folds, seed=0)
    assert out.trace[0].error is not None
    assert out.trace[0].mean_cv_accuracy is None
    assert out.best_spec.hyperparameters["k"] == 3
    with pytest.raises(ValueError, match="every grid combination failed"):
        grid_search("KNN", {"k": (5000, 9000)}, fold_datasets=folds, seed=0)


def test_grid_search_skips_only_value_errors(monkeypatch):
    from flowguard.classifiers.knn import KnnModel

    ds = small_data(n_benign=40, n_ddos=40)
    split = stratified_split(ds, 0.8, seed=0)
    folds = build_fold_datasets(split.train, 3, seed=0)
    fit = KnnModel.fit.__func__

    def failing_fit(exc_type):
        def fit_or_raise(cls, spec, X, y):
            if spec.hyperparameters["k"] == 5:
                raise exc_type("learner fault")
            return fit(cls, spec, X, y)
        return classmethod(fit_or_raise)

    # ValueError: this combination cannot train, so it is skipped
    monkeypatch.setattr(KnnModel, "fit", failing_fit(ValueError))
    out = grid_search("KNN", {"k": (5, 3)}, fold_datasets=folds, seed=0)
    assert out.trace[0].error == "learner fault"
    assert out.trace[0].mean_cv_accuracy is None
    assert out.best_spec.hyperparameters["k"] == 3

    # any other exception is a bug in the code and must surface
    monkeypatch.setattr(KnnModel, "fit", failing_fit(TypeError))
    with pytest.raises(TypeError, match="learner fault"):
        grid_search("KNN", {"k": (5, 3)}, fold_datasets=folds, seed=0)


def test_fold_preprocessing_refits_inside_each_fold():
    ds = small_data()
    split = stratified_split(ds, 0.8, seed=0)
    folds = build_fold_datasets(split.train, 3, seed=0,
                                smote_cfg=SmoteConfig(seed=0),
                                lof_cfg=LofConfig(k_neighbors=5, threshold=1.5))
    assert len(folds) == 3
    for proc_tr, proc_va in folds:
        # the fold's scaler came from its own training part
        assert np.all(np.abs(np.mean(proc_tr.X, axis=0)) < 1e-9)
        # minority was oversampled toward parity inside the fold
        counts = np.bincount(proc_tr.y, minlength=2)
        assert abs(counts[0] - counts[1]) <= 3
        # validation part is scaled only, never resampled
        assert proc_va.n_rows < split.train.n_rows


def test_run_track_leaves_test_partition_untouched():
    ds = small_data()
    split = stratified_split(ds, 0.8, seed=0)
    before = content_hash(split.test)
    cfg = small_config()
    imbal = run_track("imbalanced", split, cfg)
    bal = run_track("balanced", split, cfg)
    assert content_hash(split.test) == before
    assert imbal.state.smote_added == 0
    assert bal.state.smote_added > 0
    bal_stages, imbal_stages = (experiment._track_to_dict(t)["pipeline"]
                                for t in (bal, imbal))
    assert "smote" in bal_stages and "smote" not in imbal_stages
    assert bal.train_rows >= imbal.train_rows


_TRAIN = classifiers.train


def _assert_pool_gives_the_one_cpu_outputs(cfg, ds, tmp_path, monkeypatch):
    """One CPU trains every model in this process, two train them in pool
    workers only, and both runs write the same report, plots and bundles."""
    outputs = {}
    for cpus in (1, 2):
        pids, out = tmp_path / f"cpus{cpus}.pids", tmp_path / f"cpus{cpus}"
        pids.write_text("", encoding="utf-8")

        def recorded_train(spec, data, pids=pids):
            with open(pids, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()}\n")
            return _TRAIN(spec, data)

        monkeypatch.setattr(classifiers, "train", recorded_train)
        monkeypatch.setattr(experiment, "_usable_cpus", lambda: cpus)
        report = run_full_experiment(cfg, ds)
        write_report_files(report, out)
        _save_track_models(report, out, "label")
        trainers = set(pids.read_text(encoding="utf-8").split())
        if cpus == 1:
            assert trainers == {str(os.getpid())}
        else:
            assert trainers and str(os.getpid()) not in trainers
        assert multiprocessing.active_children() == []
        outputs[cpus] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    # report; 3 plots + 1 bundle per model and track
    assert len(outputs[1]) == 1 + len(cfg.tracks) * len(cfg.models) * 4
    assert outputs[2] == outputs[1]


def test_pool_gives_the_outputs_of_the_in_process_run(tmp_path, monkeypatch):
    cfg = small_config(models=("RF", "KNN", "GBT"),
                       grids={**SMALL_GRIDS, "GBT": {"rounds": (5, 10)}})
    _assert_pool_gives_the_one_cpu_outputs(cfg, small_data(), tmp_path, monkeypatch)


def test_one_learner_runs_on_the_pool(tmp_path, monkeypatch):
    cfg = small_config(models=("KNN",))
    _assert_pool_gives_the_one_cpu_outputs(cfg, small_data(), tmp_path, monkeypatch)


def test_each_track_picks_its_winners_as_grid_search_does(monkeypatch, caplog):
    ds = small_data()
    cfg = small_config(models=("KNN",))
    split = stratified_split(ds, cfg.split_ratio, cfg.seed)
    folds = build_fold_datasets(split.train, cfg.cv_folds, cfg.seed,
                                smote_cfg=cfg.smote, lof_cfg=cfg.lof)
    sizes = [proc_tr.n_rows for proc_tr, _ in folds]
    assert len(set(sizes)) > 1
    # k=max(sizes) trains on the largest fold only; 5000 on none
    grid = {"k": (3, max(sizes), 5000)}
    with caplog.at_level(logging.WARNING, logger="flowguard.experiment"):
        want = grid_search("KNN", grid, fold_datasets=folds, seed=cfg.seed)
    warnings = list(caplog.messages)
    assert [p.error is None for p in want.trace] == [True, False, False]
    assert len(warnings) == 2
    cfg = small_config(models=("KNN",), grids={"KNN": grid})
    for cpus in (1, 2):
        monkeypatch.setattr(experiment, "_usable_cpus", lambda: cpus)
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="flowguard.experiment"):
            got = run_track("balanced", split, cfg).models[0].search
        assert got == want
        assert [p.error for p in got.trace] == [p.error for p in want.trace]
        assert caplog.messages == warnings  # logged here, by the run's process
        assert multiprocessing.active_children() == []


def test_pool_worker_errors_keep_their_type(monkeypatch):
    from flowguard.classifiers.knn import KnnModel

    ds = small_data()
    monkeypatch.setattr(experiment, "_usable_cpus", lambda: 2)
    # a learner that cannot train still surfaces as ValueError
    with pytest.raises(ValueError, match="every grid combination failed for KNN"):
        run_full_experiment(small_config(grids={**SMALL_GRIDS, "KNN": {"k": (5000,)}}),
                            ds)
    assert multiprocessing.active_children() == []

    # any other exception in a worker reaches the caller with its type
    parent, fit = os.getpid(), KnnModel.fit.__func__

    def fit_outside_parent(cls, spec, X, y):
        if os.getpid() != parent:
            raise TypeError("learner fault in a worker")
        return fit(cls, spec, X, y)

    monkeypatch.setattr(KnnModel, "fit", classmethod(fit_outside_parent))
    with pytest.raises(TypeError, match="learner fault in a worker"):
        run_full_experiment(small_config(), ds)
    assert multiprocessing.active_children() == []


def _report_json(cfg, ds):
    return report_to_json(run_full_experiment(cfg, ds))


def test_runs_in_process_inside_a_pool_worker(monkeypatch):
    # a pool worker may not fork workers of its own
    monkeypatch.setattr(experiment, "_usable_cpus", lambda: 2)
    cfg, ds = small_config(), small_data()
    with multiprocessing.get_context("fork").Pool(1) as pool:
        inner = pool.apply_async(_report_json, (cfg, ds)).get(timeout=120)
    assert inner == _report_json(cfg, ds)
    assert multiprocessing.active_children() == []


def test_report_names_and_confusion_consistency():
    ds = small_data()
    report = run_full_experiment(small_config(), ds)
    test_rows = report_to_dict(report)["split"]["test_rows"]
    assert tuple(t.track for t in report.tracks) == ("imbalanced", "balanced")
    for track in report.tracks:
        assert tuple(m.name for m in track.models) == ("rf", "knn")
        for m in track.models:
            cm = m.test.confusion
            # headline accuracy must be recomputable from the stored matrix
            assert m.test.accuracy == (cm.tp + cm.tn) / cm.total
            assert cm.total == test_rows
            assert 0.0 <= m.search.mean_cv_accuracy <= 1.0


def test_report_rerun_is_byte_identical():
    ds = small_data()
    a = report_to_json(run_full_experiment(small_config(), ds))
    b = report_to_json(run_full_experiment(small_config(), ds))
    assert a == b


def test_seed_changes_split_hash():
    ds = small_data()
    r0 = run_full_experiment(small_config(seed=0), ds)
    r1 = run_full_experiment(small_config(seed=1), ds)
    d0, d1 = report_to_dict(r0), report_to_dict(r1)
    assert d0["split"]["train_hash"] != d1["split"]["train_hash"]
    assert d0["dataset"]["content_hash"] == d1["dataset"]["content_hash"]


def test_generated_at_is_stamped_when_the_report_is_written(tmp_path, monkeypatch):
    # SOURCE_DATE_EPOCH pins the stamp as the report is written, whenever the
    # run was, so two runs write the same bytes; unpinned, there is no stamp
    monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
    ds = small_data()
    unpinned_run = run_full_experiment(small_config(), ds)
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    pinned_run = run_full_experiment(small_config(), ds)
    for out, report in (("a", unpinned_run), ("b", pinned_run)):
        write_report_files(report, tmp_path / out)
    text = (tmp_path / "a" / "report.json").read_bytes()
    assert text == (tmp_path / "b" / "report.json").read_bytes()
    assert json.loads(text)["generated_at"] == "2023-11-14T22:13:20+00:00"
    monkeypatch.delenv("SOURCE_DATE_EPOCH")
    assert report_to_dict(unpinned_run)["generated_at"] is None


def test_report_json_structure():
    ds = small_data()
    report = run_full_experiment(small_config(), ds)
    doc = json.loads(report_to_json(report))
    assert doc["dataset"]["labels"]["total"] == 150
    assert doc["split"]["train_rows"] + doc["split"]["test_rows"] == 150
    assert [t["track"] for t in doc["tracks"]] == ["imbalanced", "balanced"]
    model = doc["tracks"][0]["models"][0]
    for key in ("name", "kind", "hyperparameters", "training_accuracy",
                "mean_cv_accuracy", "folds", "test", "grid"):
        assert key in model
    assert doc["generated_at"] is None  # no wall clock unless pinned


def test_write_report_files(tmp_path):
    ds = small_data()
    report = run_full_experiment(small_config(), ds)
    written = write_report_files(report, tmp_path)
    # report.json plus roc/validation/confusion files per model-track pair
    assert len(written) == 1 + 3 * 2 * 2
    assert (tmp_path / "report.json").exists()
    for model in ("rf", "knn"):
        for track in ("imbalanced", "balanced"):
            assert (tmp_path / f"roc_{model}_{track}.csv").exists()
            curve = (tmp_path / f"validation_curve_{model}_{track}.csv").read_text()
            lines = curve.strip().split("\n")
            assert lines[0] == "fold,train_accuracy,validation_accuracy"
            assert len(lines) == 4  # header + one row per fold
            conf = (tmp_path / f"confusion_{model}_{track}.csv").read_text()
            assert conf.startswith(",predicted_benign,predicted_ddos")
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["config"]["cv_folds"] == 3


def test_feature_selection_keeps_informative_columns():
    rng = np.random.default_rng(42)
    n = 160
    y = np.array([0, 1] * (n // 2))
    X = rng.standard_normal((n, 6))
    X[:, 1] += y * 5.0
    X[:, 4] += y * 5.0
    ds = Dataset(feature_names=tuple(f"f{i}" for i in range(6)), X=X, y=y)
    cfg = small_config(select_top_m=2, models=("KNN",),
                       grids={"KNN": {"k": (3,)}})
    report = run_full_experiment(cfg, ds)
    for track in report_to_dict(report)["tracks"]:
        assert set(track["preprocessing"]["selected_features"]) == {"f1", "f4"}
        assert "select" in track["pipeline"]


def test_pipeline_lists_select_only_when_it_ran():
    # select_top_m at or above the feature count keeps every column
    cfg = small_config(select_top_m=50, models=("KNN",), grids={"KNN": {"k": (3,)}})
    report = run_full_experiment(cfg, small_data())
    doc = json.loads(report_to_json(report))
    for track, entry in zip(report.tracks, doc["tracks"]):
        assert track.state.selected is None
        assert "select" not in entry["pipeline"]
        assert entry["pipeline"][-2:] == ["lof", "scale"]
        assert entry["preprocessing"]["selected_features"] is None


def test_pipeline_state_bundle_round_trip():
    X = np.array([["tcp", 1.0, 5.0], ["udp", 2.0, 5.0], ["tcp", 4.0, 5.0],
                  ["icmp", 3.0, 5.0]] * 3, dtype=object)
    raw = Dataset(feature_names=("p", "a", "c"), X=X, y=[0, 1, 1, 0] * 3)
    train = encode_categoricals(raw)
    _, state = fit_track_pipeline(train, None, None, select_top_m=2)
    assert state.feature_names == ("p", "a", "c")
    assert state.category_maps == {"p": ("tcp", "udp", "icmp")}
    doc = dataclasses.replace(state, label_column="cls").to_dict()
    assert list(doc) == ["scaler", "category_maps", "label_column", "feature_names",
                         "selected"]
    assert doc["label_column"] == "cls"
    back = PipelineState.from_dict(json.loads(json.dumps(doc)))
    assert back.label_column == "cls"
    assert back.to_dict() == doc
    # the raw capture, columns shuffled, scores as the encoded training rows do
    shuffled = raw.replace(feature_names=("c", "p", "a"), X=raw.X[:, [2, 0, 1]])
    got = back.transform(back.prepare(shuffled))
    want = state.transform(train)
    assert got.feature_names == want.feature_names
    assert got.X.tobytes() == want.X.tobytes()

    bare = PipelineState.from_dict({"scaler": doc["scaler"]})
    assert ((bare.feature_names, bare.category_maps, bare.selected, bare.label_column)
            == (None, {}, None, "label"))
    assert bare.prepare(train).X.tobytes() == train.X.tobytes()


def test_prepare_refuses_a_coded_column_read_as_numbers(tmp_path):
    scaler = fit_scaler(Dataset(feature_names=("proto", "x"), X=[[0.0, 1.0], [1.0, 2.0]],
                                y=[0, 1]))
    state = PipelineState(scaler=scaler, selected=None, feature_names=("proto", "x"),
                          category_maps={"proto": ("6", "17", "tcp")})
    for rows in ("6,1,0\n17,2,1\n", "6,1,0\n,2,1\n"):  # the second with a gap
        path = tmp_path / "capture.csv"
        path.write_text("proto,x,label\n" + rows)
        with pytest.raises(ValueError, match=r"\['proto'\].*text_columns"):
            state.prepare(load_csv(path))
    path.write_text("proto,x,label\n6,1,0\n17,2,1\n")
    as_text = state.prepare(load_csv(path, text_columns=tuple(state.category_maps)))
    assert as_text.X.tolist() == [[0.0, 1.0], [1.0, 2.0]]
    # a column that reads as text on its own needs no text_columns
    path.write_text("proto,x,label\ntcp,1,0\n17,2,1\n")
    assert state.prepare(load_csv(path)).X.tolist() == [[2.0, 1.0], [1.0, 2.0]]


def test_without_fork_each_track_is_searched_before_the_next_is_prepared(
        tmp_path, monkeypatch):
    ds, cfg = small_data(), small_config()
    monkeypatch.setattr(experiment, "_usable_cpus", lambda: 2)
    events = []
    fit = experiment.fit_track_pipeline

    def recorded_fit(train, smote_cfg, *args, **kwargs):
        events.append(("balanced" if smote_cfg else "imbalanced", train.n_rows))
        return fit(train, smote_cfg, *args, **kwargs)

    monkeypatch.setattr(experiment, "fit_track_pipeline", recorded_fit)
    outputs, seen = {}, {}
    for fork in (True, False):
        methods = multiprocessing.get_all_start_methods() if fork else ["spawn"]
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: methods)
        events.clear()
        report = run_full_experiment(cfg, ds)
        out = tmp_path / f"fork{fork}"
        write_report_files(report, out)
        _save_track_models(report, out, "label")
        outputs[fork] = {p.name: p.read_bytes() for p in out.iterdir()}
        seen[fork] = list(events)
        assert multiprocessing.active_children() == []
    # with fork every pipeline is fitted in a pool worker; without it the
    # units run here in list order, each fold built once: track by track,
    # every fold of the track, then its full training partition
    split = stratified_split(ds, cfg.split_ratio, cfg.seed)
    n = split.train.n_rows
    fold_rows = [n - len(val_idx) for val_idx
                 in stratified_fold_indices(split.train.y, cfg.cv_folds, cfg.seed)]
    assert seen[True] == []
    assert seen[False] == [(track, rows) for track in cfg.tracks
                           for rows in fold_rows + [n]]
    assert len(outputs[False]) == 1 + 2 * 2 * 4  # report; 3 plots + 1 bundle each
    assert outputs[False] == outputs[True]
