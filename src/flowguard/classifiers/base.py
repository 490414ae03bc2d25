"""Shared classifier plumbing: model specs, the train/predict interface,
and small numeric helpers used by several learners.

All five learners sit behind the same contract: ``train(spec, dataset)``
returns a fitted model whose ``predict_set`` yields probabilities of class 1
and hard labels thresholded at 0.5 (label 1 iff probability >= 0.5; KNN's
exact-tie rule is the single documented exception).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

MODEL_KINDS = ("RF", "SVC", "KNN", "MLP", "GBT")

DEFAULT_HYPERPARAMETERS = {
    "RF": {"n_trees": 100, "max_depth": None, "min_samples_split": 2,
           "bootstrap": True},
    "GBT": {"rounds": 100, "depth": 3, "learning_rate": 0.1, "reg_lambda": 1.0},
    "KNN": {"k": 5},
    "MLP": {"hidden_sizes": (64, 32), "learning_rate": 0.01, "momentum": 0.9,
            "batch_size": 64, "epochs": 50},
    "SVC": {"reg_lambda": 1e-4, "epochs": 20},
}

# Kinds whose optimization is undefined on a single class; RF and KNN instead
# degrade to constant predictors.
SINGLE_CLASS_ERRORS = ("GBT", "SVC", "MLP")


@dataclass(frozen=True)
class ModelSpec:
    kind: str
    hyperparameters: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}; expected one of {MODEL_KINDS}")
        merged = dict(DEFAULT_HYPERPARAMETERS[self.kind])
        for key, value in self.hyperparameters.items():
            if key not in merged:
                raise ValueError(f"unknown hyperparameter {key!r} for kind {self.kind}")
            merged[key] = value
        if "hidden_sizes" in merged:
            merged["hidden_sizes"] = tuple(int(h) for h in merged["hidden_sizes"])
        _validate_hyperparameters(self.kind, merged)
        object.__setattr__(self, "hyperparameters", merged)
        object.__setattr__(self, "seed", int(self.seed))

    def with_seed(self, seed: int) -> "ModelSpec":
        return ModelSpec(kind=self.kind, hyperparameters=dict(self.hyperparameters),
                         seed=seed)


def _validate_hyperparameters(kind, hp):
    positive = {
        "RF": ["n_trees", "min_samples_split"],
        "GBT": ["rounds", "depth", "learning_rate", "reg_lambda"],
        "KNN": ["k"],
        "MLP": ["learning_rate", "batch_size", "epochs"],
        "SVC": ["reg_lambda", "epochs"],
    }[kind]
    for key in positive:
        if not hp[key] > 0:
            raise ValueError(f"{kind} hyperparameter {key} must be positive, got {hp[key]}")
    if kind == "RF" and hp["max_depth"] is not None and hp["max_depth"] < 1:
        raise ValueError("RF max_depth must be None or >= 1")
    if kind == "MLP":
        if not 0.0 <= hp["momentum"] < 1.0:
            raise ValueError("MLP momentum must lie in [0, 1)")
        if any(h < 1 for h in hp["hidden_sizes"]):
            raise ValueError("MLP hidden layer sizes must be >= 1")


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

    A learner whose fit for a smaller value of one hyperparameter is an exact
    prefix of its fit for a larger value names that hyperparameter in
    ``staged_hyperparameter`` and implements ``staged_predict_sets``.
    """

    staged_hyperparameter = None

    def __init__(self, spec: ModelSpec, feature_arity: int):
        self.spec = spec
        self.feature_arity = int(feature_arity)

    @property
    def kind(self):
        return self.spec.kind

    def predict_proba(self, X) -> np.ndarray:
        raise NotImplementedError

    def predict_set(self, X) -> PredictionSet:
        return thresholded(self.predict_proba(X))

    def staged_predict_sets(self, X, values) -> dict:
        """{value: PredictionSet}: for each value of the staged
        hyperparameter (at most this model's own), exactly what a model
        trained with that value would predict."""
        raise NotImplementedError

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
        raise NotImplementedError

    def _check_arity(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.feature_arity:
            raise ValueError(
                f"model trained on {self.feature_arity} features, got matrix "
                f"of shape {X.shape}")
        return X


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
