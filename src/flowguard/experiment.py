"""Dual-track experiment orchestration.

One experiment = one stratified train/test split shared by every track. The
imbalanced track trains on the data as it comes; the balanced track first
SMOTE-oversamples the training partition. Both tracks then LOF-clean the
training rows and standardize with a train-fitted scaler (test data only
ever sees the scaler). Every enabled model is grid-searched by stratified
k-fold CV with preprocessing refit inside each fold, retrained on the full
processed training partition, and evaluated once on the processed test
partition. The run returns what it made, final models and fitted pipelines
included, so saving them retrains nothing; ``report_to_dict`` writes it.

Grid points that differ only in their learner's staged hyperparameter (GBT
rounds, RF n_trees, KNN k: see ``TrainedModel.staged_predict_sets``) share
one fit per fold. The fold-f model trains once, under the fold seed
spec.seed + f that every fold model uses, with the largest value of the
group; every value is scored from its staged predictions, which are exactly
those of a model trained with that value alone. A group whose fit
or scoring on a fold raises ValueError falls back, on that fold, to one fit
per point, so each point succeeds or fails on its own. Every model of a
track is searched on one set of fold pipelines.

A run is a list of units of work (see ``_run_tracks``): per track, one unit
per CV fold builds that fold and scores every learner's grid on it, and one
fits the track's pipeline; as soon as a track's units are done its winners
are picked, and one unit per (track, learner) trains and tests a winner.
With two or more CPUs in the affinity mask the units run side by side in
forked workers; otherwise, or under ``taskset -c 0``, in this process.
Every unit is seeded, so the report is the same either way. A run that
fails lets the units already queued finish before it raises.

Seed derivations (everything flows from cfg.seed unless noted):
  split                     cfg.seed
  CV fold models            spec.seed + fold_index
  final per-track models    cfg.seed
  SMOTE, full train         cfg.smote.seed
  SMOTE, inside fold f      cfg.smote.seed + f + 1
  feature-ranking forest    cfg.seed (full train), cfg.seed + f + 1 (fold f)
GBT consumes no randomness; SVC's internal Platt folds derive from the model
seed (see classifiers.svc).
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import itertools
import json
import logging
import os
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import classifiers as clf
from .dataset import (DEFAULT_LABEL_COLUMN, Dataset, SplitPair, apply_category_maps,
                      content_hash, impute_missing, label_distribution,
                      stratified_fold_indices, stratified_split, write_rows)
from .metrics import MetricsReport, RocCurve, evaluate_predictions
from .preprocess import (LofConfig, Scaler, SmoteConfig, apply_scaler,
                         fit_scaler, remove_outliers, scaler_from_dict,
                         scaler_to_dict, smote_oversample)

logger = logging.getLogger(__name__)

TRACKS = ("imbalanced", "balanced")

_RANKING_TREES = 25  # forest size used only for impurity-based feature ranking


@dataclass(frozen=True)
class ExperimentConfig:
    split_ratio: float = 0.8
    cv_folds: int = 5
    seed: int = 0
    tracks: tuple = TRACKS
    models: tuple = clf.MODEL_KINDS
    grids: dict = field(default_factory=dict)  # per kind; learner default if absent
    smote: SmoteConfig = SmoteConfig()
    lof: LofConfig = LofConfig()
    select_top_m: int | None = None

    def __post_init__(self):
        if not 0.0 < self.split_ratio < 1.0:
            raise ValueError("split_ratio must lie in (0, 1)")
        if self.cv_folds < 2:
            raise ValueError("cv_folds must be >= 2")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not isinstance(self.smote, SmoteConfig):
            raise ValueError(f"smote must be a SmoteConfig, got {self.smote!r}")
        if not isinstance(self.lof, LofConfig):
            raise ValueError(f"lof must be a LofConfig, got {self.lof!r}")
        object.__setattr__(self, "tracks", tuple(self.tracks))
        object.__setattr__(self, "models", tuple(self.models))
        for track in self.tracks:
            if track not in TRACKS:
                raise ValueError(f"unknown track {track!r}; expected subset of {TRACKS}")
        if not self.tracks:
            raise ValueError("at least one track must be enabled")
        if not self.models:
            raise ValueError("at least one model must be enabled")
        if len(set(self.tracks)) < len(self.tracks):
            raise ValueError(f"tracks {self.tracks} name a track more than once")
        if len(set(self.models)) < len(self.models):
            raise ValueError(f"models {self.models} name a kind more than once")
        for kind, grid in self.grids.items():
            unknown = [p for p in grid if p not in clf.learner(kind).defaults]
            if unknown:
                raise ValueError(f"grid for {kind} names unknown hyperparameters "
                                 f"{unknown}")
        grids = {}
        for kind in self.models:
            grid = self.grids.get(kind, clf.learner(kind).default_grid)
            grids[kind] = {p: tuple(vals) for p, vals in grid.items()}
            for p, vals in grids[kind].items():
                if not vals:
                    raise ValueError(f"grid for {kind}.{p} is empty")
        object.__setattr__(self, "grids", grids)
        if self.select_top_m is not None and self.select_top_m < 1:
            raise ValueError("select_top_m must be None or >= 1")


@dataclass(frozen=True)
class FoldResult:
    fold: int
    train_accuracy: float
    validation_accuracy: float


@dataclass(frozen=True)
class GridPoint:
    params: dict
    mean_cv_accuracy: float | None
    error: str | None = None


@dataclass(frozen=True)
class GridSearchOutcome:
    best_spec: clf.ModelSpec
    mean_cv_accuracy: float
    folds: tuple
    trace: tuple


@dataclass(frozen=True)
class ModelResult:
    """One learner on one track: its grid search (the CV facts: mean
    accuracy, folds and trace), the winner retrained on the processed
    training partition, and that model's training and test scores."""

    search: GridSearchOutcome
    model: clf.TrainedModel = field(compare=False, repr=False)
    training_accuracy: float
    test: MetricsReport
    roc: RocCurve

    @property
    def name(self) -> str:
        return self.model.report_name

    @property
    def kind(self) -> str:
        return self.model.kind

    @property
    def hyperparameters(self) -> dict:
        return self.model.spec.hyperparameters


@dataclass(frozen=True)
class TrackReport:
    track: str
    train_rows: int
    models: tuple
    state: PipelineState = field(compare=False, repr=False)


@dataclass(frozen=True)
class ExperimentReport:
    """What a run made: the dataset it ran on, its split and one TrackReport
    per track. ``report_to_dict`` writes it in the report format."""

    config: ExperimentConfig
    dataset: Dataset = field(compare=False, repr=False)
    split: SplitPair = field(compare=False, repr=False)
    tracks: tuple


@dataclass(frozen=True)
class PipelineState:
    """A track's fitted preprocessing, and the bundle format that carries it.

    ``feature_names`` and ``category_maps`` are those of the training
    partition the pipeline was fitted on; read from a bundle that lacks
    them, they are None and empty.
    """

    scaler: Scaler
    selected: tuple | None  # column indices kept by feature selection
    smote_added: int = 0
    lof_removed: int = 0
    feature_names: tuple | None = None
    category_maps: dict = field(default_factory=dict)
    label_column: str = DEFAULT_LABEL_COLUMN  # set by the run that saves a bundle

    def prepare(self, ds: Dataset) -> Dataset:
        """A raw capture encoded as the training data was: its columns picked
        by the training names, gaps imputed from the capture itself, tokens
        coded by the training category maps. ValueError if it cannot be, if
        it has no rows, or if a coded column was read as numbers (load it with
        ``text_columns``). A capture whose columns are already in training
        order is not copied, so the bundles that score it share its scans and
        tokens."""
        if ds.n_rows == 0:  # its columns' types cannot be told
            raise ValueError("the capture has no rows")
        if self.feature_names not in (None, ds.feature_names):
            missing = [n for n in self.feature_names if n not in ds.feature_names]
            extra = [n for n in ds.feature_names if n not in self.feature_names]
            if missing or extra:
                raise ValueError(f"columns do not match the model's features: "
                                 f"missing {missing}, extra {extra}")
            idx = [ds.feature_names.index(n) for n in self.feature_names]
            ds = _select_columns(ds, idx)
        ds = impute_missing(ds)
        numeric = [n for n, (categorical, _, _) in zip(ds.feature_names, ds.scans)
                   if n in self.category_maps and not categorical]
        if numeric:
            raise ValueError(f"category-coded columns {numeric} were read as numbers; "
                             f"load with text_columns={tuple(self.category_maps)}")
        return apply_category_maps(ds, self.category_maps)

    def transform(self, ds: Dataset) -> Dataset:
        """Scaler (and column selection) only; rows and labels pass through."""
        out = apply_scaler(self.scaler, ds)
        if self.selected is not None:
            out = _select_columns(out, self.selected)
        return out

    def to_dict(self) -> dict:
        """The ``pipeline`` entry of a saved model bundle."""
        return {
            "scaler": scaler_to_dict(self.scaler),
            "category_maps": self.category_maps,
            "label_column": self.label_column,
            "feature_names": self.feature_names,
            "selected": self.selected,
        }

    @classmethod
    def from_dict(cls, data) -> "PipelineState":
        """The state in a bundle's ``pipeline`` entry, of which only ``scaler``
        is required; ValueError if the entry is absent or malformed (a name,
        token or index listed twice, indices out of ascending order, a label
        column that is not a string)."""
        if data is None:
            raise ValueError("model file carries no preprocessing bundle; save "
                             "models via `flowguard run --save-models`")
        try:
            scaler = scaler_from_dict(data["scaler"])
            d = scaler.n_features
            names, selected = data.get("feature_names"), data.get("selected")
            names = None if names is None else _tupled(names, str)
            selected = None if selected is None else _tupled(selected, int)
            maps = {k: _tupled(v, str) for k, v in data.get("category_maps", {}).items()}
            label_column = data.get("label_column", DEFAULT_LABEL_COLUMN)
            if not isinstance(label_column, str):
                raise TypeError(f"label column {label_column!r} is not a string")
            if (names is not None and len(names) != d
                    or not all(0 <= i < d for i in selected or ())):
                raise ValueError(f"entries that do not fit a scaler of {d} features")
            if selected is not None and list(selected) != sorted(selected):
                raise ValueError(f"selected columns {selected} are not ascending")
        except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed model pipeline: {exc!r}") from exc
        return cls(scaler=scaler, selected=selected, feature_names=names,
                   category_maps=maps, label_column=label_column)


def _tupled(values, kind):
    """A JSON list of distinct ``kind`` values as a tuple; TypeError if not."""
    if (not isinstance(values, list) or any(type(v) is not kind for v in values)
            or len(set(values)) < len(values)):
        raise TypeError(f"expected a list of distinct {kind.__name__}, got {values!r}")
    return tuple(values)


def _select_columns(ds: Dataset, indices) -> Dataset:
    idx = list(indices)
    return ds.replace(feature_names=tuple(ds.feature_names[i] for i in idx),
                      X=ds.X[:, idx], category_maps={})


def _rank_features(train: Dataset, top_m: int, seed: int):
    """Top-m column indices by random-forest mean impurity decrease."""
    spec = clf.make_spec("RF", seed=seed, n_trees=_RANKING_TREES)
    model = clf.train(spec, train)
    importance = model.feature_importance
    order = np.argsort(-importance, kind="stable")  # ties: lower index first
    keep = np.sort(order[:top_m])
    return tuple(int(i) for i in keep)


def fit_track_pipeline(train: Dataset, smote_cfg, lof_cfg, select_top_m=None,
                       select_seed=0):
    """Fit SMOTE -> LOF -> scaler (-> feature selection) on training data.

    Any stage configured as None is skipped. Returns the processed training
    partition and the state needed to transform evaluation data.
    """
    processed = train
    smote_added = 0
    if smote_cfg is not None:
        processed = smote_oversample(processed, smote_cfg)
        smote_added = processed.n_rows - train.n_rows
    lof_removed = 0
    if lof_cfg is not None:
        removal = remove_outliers(processed, lof_cfg)
        processed = removal.dataset
        lof_removed = removal.removed_count
    scaler = fit_scaler(processed)
    processed = apply_scaler(scaler, processed)
    selected = None
    if select_top_m is not None and select_top_m < processed.n_features:
        selected = _rank_features(processed, select_top_m, select_seed)
        processed = _select_columns(processed, selected)
    state = PipelineState(scaler=scaler, selected=selected,
                          smote_added=smote_added, lof_removed=lof_removed,
                          feature_names=train.feature_names,
                          category_maps=train.category_maps)
    return processed, state


def _accuracy(pred, ds: Dataset) -> float:
    return float(np.mean(pred.labels == ds.y))


def _fit_part(train: Dataset, held_out: Dataset, offset: int, seed: int, smote_cfg,
              lof_cfg, select_top_m):
    """The pipeline fitted on ``train`` alone, with SMOTE under
    smote_cfg.seed + offset and feature ranking under seed + offset (offset 0
    for the training partition, f + 1 for CV fold f): the processed
    ``train``, ``held_out`` transformed, and the fitted state."""
    part_smote = (None if smote_cfg is None
                  else dataclasses.replace(smote_cfg, seed=smote_cfg.seed + offset))
    proc_train, state = fit_track_pipeline(train, part_smote, lof_cfg, select_top_m,
                                           select_seed=seed + offset)
    proc_held_out = state.transform(held_out)
    if not np.array_equal(proc_held_out.y, held_out.y):  # same rows, same labels
        raise AssertionError("held-out rows must pass through unmodified")
    return proc_train, proc_held_out, state


def _build_fold(train: Dataset, f: int, val_idx, seed: int, smote_cfg, lof_cfg,
                select_top_m):
    """CV fold f's processed (training, validation) parts, its pipeline fitted
    on its training rows alone (``_fit_part`` with offset f + 1)."""
    return _fit_part(train.take(np.delete(np.arange(train.n_rows), val_idx)),
                     train.take(val_idx), f + 1, seed, smote_cfg, lof_cfg,
                     select_top_m)[:2]


def build_fold_datasets(train: Dataset, n_folds: int, seed: int,
                        smote_cfg=None, lof_cfg=None, select_top_m=None):
    """Stratified CV folds with preprocessing fitted inside each fold."""
    return [_build_fold(train, f, val_idx, seed, smote_cfg, lof_cfg, select_top_m)
            for f, val_idx in enumerate(stratified_fold_indices(train.y, n_folds, seed))]


def _stage_accuracies(model, ds: Dataset, values) -> dict:
    """Accuracy on ds per staged value; None stands for the model itself."""
    if model.staged_hyperparameter is None:
        predictions = {None: clf.predict(model, ds)}
    else:
        predictions = model.staged_predict_sets(ds.X, values)
    return {value: _accuracy(pred, ds) for value, pred in predictions.items()}


def _cross_validate(specs, f: int, proc_tr: Dataset, proc_va: Dataset) -> list:
    """One FoldResult per spec on CV fold f, for specs that differ at most in
    the staged hyperparameter of their kind.

    The fold model trains once, under seed spec.seed + f, with the largest
    staged value among the specs, and without a loss curve: it is dropped
    once scored. Every spec is scored from its staged predictions on the
    fold's training and held-out parts.
    """
    stage = specs[0].learner.staged_hyperparameter
    values = [s.hyperparameters[stage] if stage else None for s in specs]
    top = specs[values.index(max(values))] if stage else specs[0]
    model = clf.train_without_loss_curve(top.with_seed(top.seed + f), proc_tr)
    train_acc = _stage_accuracies(model, proc_tr, values)
    val_acc = _stage_accuracies(model, proc_va, values)
    return [FoldResult(fold=f, train_accuracy=train_acc[value],
                       validation_accuracy=val_acc[value]) for value in values]


def expand_grid(grid: dict):
    """Cartesian product of grid values, in first-listed order."""
    keys = list(grid.keys())
    combos = []
    for values in itertools.product(*(grid[k] for k in keys)):
        combos.append(dict(zip(keys, values)))
    return combos


def _stage_groups(points, stage) -> list:
    """Indices of points grouped by every parameter except ``stage``."""
    groups = []  # (the other parameters, member indices)
    for i, params in enumerate(points):
        rest = {p: v for p, v in params.items() if p != stage}
        for key, members in groups:
            if key == rest:
                members.append(i)
                break
        else:
            groups.append((rest, [i]))
    return [members for _, members in groups]


def _grid_points(kind: str, grid: dict, seed: int):
    """A learner's grid points in ``expand_grid`` order, their specs under
    ``seed``, and their stage groups."""
    points = expand_grid(grid)
    specs = [clf.ModelSpec(kind=kind, hyperparameters=params, seed=seed)
             for params in points]
    return points, specs, _stage_groups(points, clf.learner(kind).staged_hyperparameter)


def _score_points(kind: str, grid: dict, seed: int, f: int, proc_tr: Dataset,
                  proc_va: Dataset) -> list:
    """Per grid point, its FoldResult on CV fold f or, if it cannot train
    (the learner raises ValueError), the error text. A stage group shares
    its fit; if that raises ValueError, each member is retried alone. Any
    other exception is a bug and propagates."""
    _, specs, groups = _grid_points(kind, grid, seed)

    def cross_validate(members):
        try:
            return _cross_validate([specs[i] for i in members], f, proc_tr, proc_va)
        except ValueError as exc:
            if len(members) > 1:  # retry each point alone
                return [r for i in members for r in cross_validate([i])]
            return [str(exc)]

    results = [None] * len(specs)
    for members in groups:
        for i, result in zip(members, cross_validate(members)):
            results[i] = result
    return results


def _pick(kind: str, grid: dict, seed: int, per_fold) -> GridSearchOutcome:
    """The search outcome from each fold's ``_score_points`` list, in fold
    order. A point that failed on some fold keeps the error of the first
    fold it failed on; any other point, its FoldResults in fold order.

    Highest mean validation accuracy wins; exact ties keep the point listed
    first. Each failed point is logged as a warning, in grid order; if
    every point failed, ValueError.
    """
    points, specs, _ = _grid_points(kind, grid, seed)
    results = []
    for on_each_fold in zip(*per_fold):
        errors = [r for r in on_each_fold if isinstance(r, str)]
        results.append(errors[0] if errors else on_each_fold)
    best = None
    trace = []
    for params, spec, folds in zip(points, specs, results):
        if isinstance(folds, str):
            logger.warning("grid combination %s %s failed: %s", kind, params, folds)
            trace.append(GridPoint(params=dict(params), mean_cv_accuracy=None,
                                   error=folds))
            continue
        mean = sum(r.validation_accuracy for r in folds) / len(folds)
        trace.append(GridPoint(params=dict(params), mean_cv_accuracy=mean))
        if best is None or mean > best[1]:
            best = (spec, mean, folds)
    if best is None:
        raise ValueError(f"every grid combination failed for {kind}")
    spec, mean, folds = best
    return GridSearchOutcome(best_spec=spec, mean_cv_accuracy=mean, folds=folds,
                             trace=tuple(trace))


def grid_search(kind: str, grid: dict, fold_datasets,
                seed: int = 0) -> GridSearchOutcome:
    """Exhaustive grid evaluation by CV accuracy on built folds, as a run
    searches: ``_pick`` over each fold's ``_score_points``, whose docstrings
    say how points share fits, fail and win."""
    return _pick(kind, grid, seed, [_score_points(kind, grid, seed, f, proc_tr, proc_va)
                                    for f, (proc_tr, proc_va) in enumerate(fold_datasets)])


def _search_fold(train: Dataset, f: int, val_idx, smote_cfg,
                 cfg: ExperimentConfig) -> list:
    """Unit (track, fold f): build fold f, then score every learner's grid on
    it: per learner, its ``_score_points`` list."""
    proc_tr, proc_va = _build_fold(train, f, val_idx, cfg.seed, smote_cfg, cfg.lof,
                                   cfg.select_top_m)
    return [_score_points(kind, cfg.grids[kind], cfg.seed, f, proc_tr, proc_va)
            for kind in cfg.models]


def _fit_winner(search: GridSearchOutcome, proc_train: Dataset,
                proc_test: Dataset) -> ModelResult:
    """Unit (track, learner): retrain a search's winner on the processed
    training partition and score it on the test partition."""
    model = clf.train(search.best_spec, proc_train)  # best_spec carries the run seed
    training_accuracy = _accuracy(clf.predict(model, proc_train), proc_train)
    test_pred = clf.predict(model, proc_test)
    test_report, roc = evaluate_predictions(proc_test.y, test_pred.labels,
                                            test_pred.probabilities)
    return ModelResult(search=search, model=model, training_accuracy=training_accuracy,
                       test=test_report, roc=roc)


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where there is one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


_INHERITED = ()  # in a pool worker: the units it was forked with


def _inherit(units):
    global _INHERITED
    _INHERITED = units


def _run_inherited(i):
    return _INHERITED[i]()


def _call(unit):
    return unit()


@contextlib.contextmanager
def _run_units(units):
    """Run ``units``; yield an iterator over their results, in unit order,
    and ``submit``, which starts a later list of units the same way and
    returns a function that waits for their results, in list order.

    The units run on a pool of forked workers, one per unit and at most one
    per usable CPU, or here in list order: with one CPU or unit, without
    fork, or inside a pool worker. On the pool a later list queues behind
    the units not yet started; here it runs when submitted. Each worker
    inherits ``units``, so their inputs are not pickled; a later list
    reaches the workers pickled. An exception in a worker reaches the caller
    with its type. Leaving the block, by an exception too, closes the pool
    and joins every worker once the queued units finish: terminating it
    could kill a worker holding the result queue's lock and hang. An
    interrupt, which stops the workers too, terminates it.
    """
    processes = min(len(units), _usable_cpus())
    if processes > 1:
        # Imported here, so that runs on one CPU do not pay for it: about
        # 1 MB of resident memory and 5 ms of set-up.
        import multiprocessing
        if (multiprocessing.current_process().daemon
                or "fork" not in multiprocessing.get_all_start_methods()):
            processes = 1
    if processes < 2:
        def submit(later):
            results = [unit() for unit in later]
            return lambda: results
        yield (unit() for unit in units), submit
        return
    pool = multiprocessing.get_context("fork").Pool(processes, initializer=_inherit,
                                                    initargs=(units,))
    try:
        yield (pool.imap(_run_inherited, range(len(units)), chunksize=1),
               lambda later: pool.map_async(_call, later, chunksize=1).get)
    except KeyboardInterrupt:  # close() would wait for the units it cut short
        pool.terminate()
        raise
    finally:
        pool.close()
        pool.join()


def _run_tracks(tracks, split: SplitPair, cfg: ExperimentConfig) -> tuple:
    """Run every enabled model on each track, as units of work.

    Track by track, the unit list holds one (track, fold f) unit per CV
    fold (``_search_fold``), then the track's (track, full) unit
    (``_fit_part``). Their results are read in list order: once a track's
    are in, each learner's winner is picked here, by ``_pick`` as in
    ``grid_search``, and one (track, learner) unit per winner
    (``_fit_winner``) is handed to the same pool, where it runs as soon as a
    worker is free of the units listed before it. So the first track's final
    fits fill the gaps the second track's last fold units leave. Every unit
    runs on one pool (``_run_units``), or here in list order, each track's
    final fits after its full unit; each unit is seeded, so the results are
    the same either way. A fold's datasets live only inside its unit. If a
    unit or a pick raises, the queued units finish before the error reaches
    the caller.
    """
    for track in tracks:
        if track not in TRACKS:
            raise ValueError(f"unknown track {track!r}")
    fold_indices = stratified_fold_indices(split.train.y, cfg.cv_folds, cfg.seed)
    units = []
    for track in tracks:
        smote_cfg = cfg.smote if track == "balanced" else None
        units += [functools.partial(_search_fold, split.train, f, val_idx, smote_cfg, cfg)
                  for f, val_idx in enumerate(fold_indices)]
        units.append(functools.partial(_fit_part, split.train, split.test, 0, cfg.seed,
                                       smote_cfg, cfg.lof, cfg.select_top_m))
    with _run_units(units) as (done, submit):
        started = []  # per track: its (track, full) result, and its finals
        for _ in tracks:
            per_fold = [next(done) for _ in fold_indices]
            proc_train, proc_test, state = next(done)
            finals = submit([
                functools.partial(_fit_winner,
                                  _pick(kind, cfg.grids[kind], cfg.seed,
                                        [results[k] for results in per_fold]),
                                  proc_train, proc_test)
                for k, kind in enumerate(cfg.models)])
            started.append((proc_train, state, finals))
        return tuple(TrackReport(track=track, train_rows=proc_train.n_rows,
                                 models=tuple(finals()), state=state)
                     for track, (proc_train, state, finals) in zip(tracks, started))


def run_track(track: str, split: SplitPair, cfg: ExperimentConfig) -> TrackReport:
    """Run every enabled model on one preprocessing track."""
    return _run_tracks((track,), split, cfg)[0]


def run_full_experiment(cfg: ExperimentConfig, ds: Dataset) -> ExperimentReport:
    """Split once under cfg.seed, then run every enabled track on that split."""
    if not ds.is_numeric:
        raise ValueError("run_full_experiment requires an encoded numeric dataset")
    split = stratified_split(ds, cfg.split_ratio, cfg.seed)
    return ExperimentReport(config=cfg, dataset=ds, split=split,
                            tracks=_run_tracks(cfg.tracks, split, cfg))


def _generation_timestamp():
    # Wall-clock stamps would break byte-identical reruns, so the timestamp
    # is only emitted when SOURCE_DATE_EPOCH pins it (reproducible-builds
    # convention).
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is None:
        return None
    return datetime.fromtimestamp(int(epoch), timezone.utc).isoformat()


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return {**dataclasses.asdict(cfg),
            "models": [clf.learner(k).report_name for k in cfg.models],
            "grids": {clf.learner(k).report_name: g for k, g in cfg.grids.items()}}


def _model_to_dict(m: ModelResult) -> dict:
    return {
        "name": m.name,
        "kind": m.kind,
        "hyperparameters": m.hyperparameters,
        "training_accuracy": m.training_accuracy,
        "mean_cv_accuracy": m.search.mean_cv_accuracy,
        "folds": [dataclasses.asdict(fr) for fr in m.search.folds],
        "grid": [dataclasses.asdict(gp) for gp in m.search.trace],
        "test": m.test.to_dict(),
    }


def _track_to_dict(t: TrackReport) -> dict:
    state, names = t.state, t.state.feature_names
    selected = None if state.selected is None else [names[i] for i in state.selected]
    return {
        "track": t.track,
        "pipeline": (["smote"] if t.track == "balanced" else []) + ["lof", "scale"]
                    + (["select"] if selected is not None else []),
        "preprocessing": {
            "smote_added": state.smote_added,
            "lof_removed": state.lof_removed,
            "train_rows_after": t.train_rows,
            "constant_features": [names[i] for i in
                                  np.flatnonzero(state.scaler.constant_mask)],
            "selected_features": selected,
        },
        "models": [_model_to_dict(m) for m in t.models],
    }


def _label_counts(ds: Dataset) -> dict:
    dist = label_distribution(ds)
    return {"benign": dist.benign_count, "ddos": dist.ddos_count}


def report_to_dict(report: ExperimentReport) -> dict:
    cfg, ds, split = report.config, report.dataset, report.split
    return {
        "format": "flowguard-report",
        "version": 1,
        "generated_at": _generation_timestamp(),
        "config": config_to_dict(cfg),
        "dataset": {"provenance": ds.provenance, "rows": ds.n_rows,
                    "features": ds.n_features,
                    "labels": {**_label_counts(ds), "total": ds.n_rows},
                    "content_hash": content_hash(ds)},
        "split": {"ratio": cfg.split_ratio, "seed": cfg.seed,
                  "train_rows": split.train.n_rows, "test_rows": split.test.n_rows,
                  "train_labels": _label_counts(split.train),
                  "test_labels": _label_counts(split.test),
                  "train_hash": content_hash(split.train),
                  "test_hash": content_hash(split.test)},
        "tracks": [_track_to_dict(t) for t in report.tracks],
    }


def report_to_json(report: ExperimentReport) -> str:
    return json.dumps(report_to_dict(report), indent=2) + "\n"


def write_report_files(report: ExperimentReport, out_dir) -> list:
    """Write report.json plus per model-track plot data CSVs.

    Emits roc_<model>_<track>.csv (fpr,tpr), validation_curve_<model>_<track>.csv
    (fold, train and validation accuracy), and confusion_<model>_<track>.csv,
    each by ``write_rows``. Returns the written paths.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    report_path = out / "report.json"
    report_path.write_text(report_to_json(report), encoding="utf-8")
    written.append(report_path)

    fold_fields = tuple(f.name for f in dataclasses.fields(FoldResult))
    for track in report.tracks:
        for m in track.models:
            cm = m.test.confusion
            files = {
                "roc": [("fpr", "tpr"), *zip(m.roc.fpr.tolist(), m.roc.tpr.tolist())],
                "validation_curve": [fold_fields,
                                     *map(dataclasses.astuple, m.search.folds)],
                "confusion": [("", "predicted_benign", "predicted_ddos"),
                              ("actual_benign", cm.tn, cm.fp),
                              ("actual_ddos", cm.fn, cm.tp)],
            }
            for kind, rows in files.items():
                path = out / f"{kind}_{m.name}_{track.track}.csv"
                write_rows(path, rows)
                written.append(path)
    return written
