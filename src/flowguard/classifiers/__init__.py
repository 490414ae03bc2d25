"""Five binary classifiers behind one train/predict interface.

Kinds: RF (random forest), GBT (gradient-boosted trees, reported as "xgb"),
KNN, MLP, SVC (linear). ``train`` dispatches on ModelSpec.kind; ``predict``
returns hard labels and class-1 probabilities with the decision threshold
fixed at 0.5.
"""

from __future__ import annotations

import numpy as np

from ..dataset import Dataset
from .base import (DEFAULT_HYPERPARAMETERS, MODEL_KINDS, SINGLE_CLASS_ERRORS,
                   ModelSpec, PredictionSet, TrainedModel, mean_log_loss,
                   sigmoid, softplus)
from .boosting import GradientBoostedTreesModel
from .forest import RandomForestModel
from .knn import KnnModel
from .mlp import MlpModel, gradient_check
from .persistence import load_model, save_model
from .svc import LinearSvcModel

_TRAINERS = {
    "RF": RandomForestModel,
    "GBT": GradientBoostedTreesModel,
    "KNN": KnnModel,
    "MLP": MlpModel,
    "SVC": LinearSvcModel,
}


def make_spec(kind: str, seed: int = 0, **hyperparameters) -> ModelSpec:
    """ModelSpec with per-kind defaults merged under explicit overrides."""
    return ModelSpec(kind=kind, hyperparameters=hyperparameters, seed=seed)


def staged_hyperparameter(kind: str):
    """The kind's hyperparameter whose smaller values are prefixes of one
    fit (see ``TrainedModel.staged_predict_sets``), or None."""
    return _TRAINERS[kind].staged_hyperparameter


def train(spec: ModelSpec, dataset: Dataset) -> TrainedModel:
    """Fit the learner named by the spec on an encoded dataset.

    A training set containing a single class raises for GBT/SVC/MLP (their
    objectives degenerate); RF and KNN simply become constant predictors.
    """
    if not dataset.is_numeric:
        raise ValueError("training requires a numeric (encoded) dataset")
    if dataset.n_rows == 0:
        raise ValueError("training set is empty")
    X = np.ascontiguousarray(dataset.X, dtype=np.float64)
    y = np.asarray(dataset.y, dtype=np.int64)
    classes = np.unique(y)
    if len(classes) < 2 and spec.kind in SINGLE_CLASS_ERRORS:
        raise ValueError(
            f"{spec.kind} cannot train on a single-class dataset (only class "
            f"{int(classes[0])} present)")
    return _TRAINERS[spec.kind].fit(spec, X, y)


def predict(model: TrainedModel, dataset: Dataset) -> PredictionSet:
    """Labels and probabilities for every row of the dataset."""
    if not dataset.is_numeric:
        raise ValueError("prediction requires a numeric (encoded) dataset")
    return model.predict_set(dataset.X)


__all__ = [
    "DEFAULT_HYPERPARAMETERS", "MODEL_KINDS", "SINGLE_CLASS_ERRORS",
    "ModelSpec", "PredictionSet", "TrainedModel", "GradientBoostedTreesModel",
    "RandomForestModel", "KnnModel", "MlpModel", "LinearSvcModel",
    "make_spec", "staged_hyperparameter", "train", "predict", "gradient_check",
    "save_model", "load_model", "mean_log_loss", "sigmoid", "softplus",
]
