"""Five binary classifiers behind one train/predict interface.

Each learner is one ``TrainedModel`` subclass that states the facts of its
kind: kind string, report name, default hyperparameters, default grid, range
checks, single-class rule and learned state fields (see ``TrainedModel``).
``LEARNERS`` lists the classes once, in report order, for specs, training,
persistence and the experiment's defaults. Adding a learner means writing
its class, with its ``state_fields``, and listing it in ``LEARNERS``.

A learner scores through one method. RF, GBT and KNN have a staged
hyperparameter and implement ``staged_predict_sets``; SVC and MLP implement
``predict_proba``. ``TrainedModel`` derives ``predict_set`` and
``predict_proba`` from that one method.

``train`` fits the learner of ModelSpec.kind; ``train_without_loss_curve``
fits it for a model that is scored and dropped, such as a CV fold's, and
skips the per-round training loss of a learner that records one.
``predict`` returns hard labels and class-1 probabilities with the decision
threshold fixed at 0.5.
"""

from __future__ import annotations

import numpy as np

from ..dataset import Dataset
from .base import ModelSpec, PredictionSet, TrainedModel
from .boosting import GradientBoostedTreesModel
from .forest import RandomForestModel
from .knn import KnnModel
from .mlp import MlpModel, gradient_check
from .persistence import load_model, read_json, save_model
from .svc import LinearSvcModel

# Report order matches the result-table convention: RF, SVC, KNN, MLP, XGB.
LEARNERS = (RandomForestModel, LinearSvcModel, KnnModel, MlpModel,
            GradientBoostedTreesModel)
MODEL_KINDS = tuple(c.kind for c in LEARNERS)


def learner(kind: str) -> type:
    """The learner class of a model kind; ValueError if there is none."""
    for cls in LEARNERS:
        if cls.kind == kind:
            return cls
    raise ValueError(f"unknown model kind {kind!r}; expected one of {MODEL_KINDS}")


def make_spec(kind: str, seed: int = 0, **hyperparameters) -> ModelSpec:
    """ModelSpec with per-kind defaults merged under explicit overrides."""
    return ModelSpec(kind=kind, hyperparameters=hyperparameters, seed=seed)


def train(spec: ModelSpec, dataset: Dataset) -> TrainedModel:
    """Fit the learner named by the spec on an encoded dataset.

    A training set containing a single class raises for a learner that
    ``needs_two_classes``; the others simply become constant predictors.
    """
    return spec.learner.fit(spec, *_training_arrays(spec, dataset))


def train_without_loss_curve(spec: ModelSpec, dataset: Dataset) -> TrainedModel:
    """``train``, except that a learner with a ``loss_curve`` state field
    does not compute it: the model's ``loss_curve`` is None. Its other
    state, and so its predictions, are those ``train`` gives."""
    X, y = _training_arrays(spec, dataset)
    if "loss_curve" in spec.learner.state_fields:
        return spec.learner.fit(spec, X, y, record_loss=False)
    return spec.learner.fit(spec, X, y)


def _training_arrays(spec: ModelSpec, dataset: Dataset):
    """The dataset's X and y as ``fit`` takes them; ValueError if it cannot
    train the spec's learner."""
    if not dataset.is_numeric:
        raise ValueError("training requires a numeric (encoded) dataset")
    if dataset.n_rows == 0:
        raise ValueError("training set is empty")
    X = np.ascontiguousarray(dataset.X, dtype=np.float64)
    y = np.asarray(dataset.y, dtype=np.int64)
    classes = np.flatnonzero(np.bincount(y))  # np.unique(y) would import numpy.ma
    if len(classes) < 2 and spec.learner.needs_two_classes:
        raise ValueError(
            f"{spec.kind} cannot train on a single-class dataset (only class "
            f"{int(classes[0])} present)")
    return X, y


def predict(model: TrainedModel, dataset: Dataset) -> PredictionSet:
    """Labels and probabilities for every row of the dataset."""
    if not dataset.is_numeric:
        raise ValueError("prediction requires a numeric (encoded) dataset")
    return model.predict_set(dataset.X)


__all__ = [
    "LEARNERS", "MODEL_KINDS", "ModelSpec", "gradient_check", "learner",
    "load_model", "make_spec", "predict", "read_json", "save_model", "train",
    "train_without_loss_curve",
]
