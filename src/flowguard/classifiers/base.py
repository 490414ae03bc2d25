"""Shared classifier plumbing: model specs, the train/predict interface,
and small numeric helpers used by several learners.

All five learners sit behind the same contract: ``train(spec, dataset)``
returns a fitted model whose ``predict_set`` yields probabilities of class 1
and hard labels thresholded at 0.5 (label 1 iff probability >= 0.5; KNN's
exact-tie rule is the single documented exception). Each learner scores in
one method, and ``TrainedModel`` derives the others from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .tree import TreeNodes


@dataclass(frozen=True)
class ModelSpec:
    kind: str
    hyperparameters: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        learner = self.learner
        merged = dict(learner.defaults)
        for key, value in self.hyperparameters.items():
            if key not in merged:
                raise ValueError(f"unknown hyperparameter {key!r} for kind {self.kind}")
            merged[key] = value
        learner.check_hyperparameters(merged)
        object.__setattr__(self, "hyperparameters", merged)
        object.__setattr__(self, "seed", int(self.seed))

    @property
    def learner(self):
        """The TrainedModel subclass of this kind; ValueError if none."""
        from . import learner  # the registry imports this module
        return learner(self.kind)

    def with_seed(self, seed: int) -> "ModelSpec":
        return replace(self, seed=seed)


@dataclass(frozen=True)
class PredictionSet:
    labels: np.ndarray
    probabilities: np.ndarray

    def __post_init__(self):
        labels = np.array(self.labels, dtype=np.int64)
        probs = np.array(self.probabilities, dtype=np.float64)
        if labels.shape != probs.shape or labels.ndim != 1:
            raise ValueError("labels and probabilities must be matching 1-d arrays")
        labels.flags.writeable = False
        probs.flags.writeable = False
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "probabilities", probs)


class TrainedModel:
    """Base for fitted models: stores the spec and input arity.

    Each learner subclass states the facts of its kind once, as class
    attributes that the rest of the program reads:

    - ``kind``: the ModelSpec kind, e.g. "GBT";
    - ``report_name``: its name in reports and file names, e.g. "xgb";
    - ``defaults``: every hyperparameter with its default, in report order;
    - ``default_grid``: the values an experiment searches unless told;
    - ``positive``: the hyperparameters that must be finite and > 0 (a
      learner with further range rules extends ``check_hyperparameters``);
    - ``needs_two_classes``: training on one class raises, because the
      objective degenerates, instead of giving a constant predictor;
    - ``state_fields``: the learned attributes in bundle ``state`` order;
      the constructor takes them by keyword, and ``to_state`` writes them.

    Each learner scores in exactly one method. A learner whose fit for a
    smaller value of one hyperparameter is an exact prefix of its fit for a
    larger value names that hyperparameter in ``staged_hyperparameter`` and
    implements only ``staged_predict_sets``; its ``predict_set`` is the
    one-stage case at its own value, and ``predict_proba`` is that set's
    probabilities. Any other learner implements only ``predict_proba``, and
    its ``predict_set`` thresholds those probabilities at 0.5.
    """

    kind = None
    report_name = None
    defaults = {}
    default_grid = {}
    positive = ()
    needs_two_classes = False
    staged_hyperparameter = None
    state_fields = ()

    def __init__(self, spec: ModelSpec, feature_arity: int, **state):
        self.spec = spec
        self.feature_arity = int(feature_arity)
        for name in self.state_fields:
            setattr(self, name, state[name])

    @classmethod
    def check_hyperparameters(cls, hp):
        """Raise ValueError for a value out of range; may normalize hp in
        place."""
        for key in cls.positive:
            if not (hp[key] > 0 and math.isfinite(hp[key])):
                raise ValueError(f"{cls.kind} hyperparameter {key} must be "
                                 f"positive and finite, got {hp[key]}")

    def predict_proba(self, X) -> np.ndarray:
        """Class-1 probabilities; a learner without stages overrides this."""
        if self.staged_hyperparameter is None:
            raise NotImplementedError(f"{type(self).__name__} implements no "
                                      "predict_proba")
        return self.predict_set(X).probabilities

    def predict_set(self, X) -> PredictionSet:
        if self.staged_hyperparameter is None:
            return thresholded(self.predict_proba(X))
        own = self.spec.hyperparameters[self.staged_hyperparameter]
        return self.staged_predict_sets(X, (own,))[own]

    def staged_predict_sets(self, X, values) -> dict:
        """{value: PredictionSet}: for each value of the staged
        hyperparameter (at most this model's own), exactly what a model
        trained with that value would predict. A learner with a
        ``staged_hyperparameter`` overrides this."""
        raise NotImplementedError(f"{type(self).__name__} implements no "
                                  "staged_predict_sets")

    def _stage_values(self, values) -> set:
        """The distinct requested stages, each checked to lie in [1, own]."""
        own = self.spec.hyperparameters[self.staged_hyperparameter]
        wanted = set(values)
        for v in wanted:
            if not 1 <= v <= own:
                raise ValueError(f"{self.staged_hyperparameter}={v} is not a stage "
                                 f"of a model with {self.staged_hyperparameter}={own}")
        return wanted

    def to_state(self) -> dict:
        """The learned state as the JSON of a bundle's ``state`` entry."""
        return {name: _jsonable(getattr(self, name)) for name in self.state_fields}

    def _check_arity(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.feature_arity:
            raise ValueError(
                f"model trained on {self.feature_arity} features, got matrix "
                f"of shape {X.shape}")
        return X


def _jsonable(value):
    """Arrays as nested lists, trees as their state, lists item by item."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, TreeNodes):
        return value.to_state()
    if isinstance(value, list):
        return [_jsonable(v) for v in value]
    return value


def all_finite(value) -> bool:
    """Whether every number in a learned attribute is finite: a number, an
    array, or a list of numbers, of arrays or of trees (their thresholds and
    values), checked in one pass. JSON reads a literal too large for a
    float, such as 1e999, as inf."""
    if isinstance(value, list) and value and isinstance(value[0], TreeNodes):
        value = [a for tree in value for a in (tree.threshold, tree.value)]
    if isinstance(value, list) and value and isinstance(value[0], np.ndarray):
        value = np.concatenate([a.ravel() for a in value])
    return bool(np.isfinite(value).all())


def thresholded(probs) -> PredictionSet:
    """Hard labels at the fixed 0.5 threshold (label 1 iff p >= 0.5)."""
    return PredictionSet(labels=(probs >= 0.5).astype(np.int64),
                         probabilities=probs)


def sigmoid(z):
    """Numerically stable logistic function."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def softplus(z):
    """log(1 + exp(z)) without overflow."""
    z = np.asarray(z, dtype=np.float64)
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def mean_log_loss(logits, y) -> float:
    """Mean logistic loss of raw scores against 0/1 labels."""
    logits = np.asarray(logits, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    return float(np.mean(softplus(logits) - y * logits))
