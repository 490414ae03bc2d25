"""k-nearest-neighbors classifier (lazy; the model is the training set)."""

from __future__ import annotations

import numpy as np

from ..distance import nearest
from .base import PredictionSet, TrainedModel


class KnnModel(TrainedModel):
    """Majority vote of the k nearest training rows by Euclidean distance.

    Probability is the fraction of positive neighbors. Distance ties break
    toward the lower training-row index. An exact 50/50 vote (possible only
    for even k) is broken by the single nearest neighbor's label instead of
    the 0.5 threshold.
    """

    kind = "KNN"
    report_name = "knn"
    defaults = {"k": 5}
    default_grid = {"k": (3, 5, 7)}
    positive = ("k",)
    staged_hyperparameter = "k"
    state_fields = ("train_X", "train_y")

    @classmethod
    def fit(cls, spec, X, y):
        if spec.hyperparameters["k"] > X.shape[0]:
            raise ValueError(
                f"k={spec.hyperparameters['k']} exceeds training size {X.shape[0]}")
        return cls(spec, X.shape[1], train_X=X, train_y=y)

    def staged_predict_sets(self, X, values):
        X = self._check_arity(X)
        wanted = self._stage_values(values)
        # Neighbours come in (distance, index) order, so the k nearest are
        # the first k columns of the largest requested k.
        nn = nearest(X, self.train_X, max(wanted))
        votes_upto = np.cumsum(self.train_y[nn], axis=1)
        first = self.train_y[nn[:, 0]]
        out = {}
        for k in wanted:
            votes = votes_upto[:, k - 1]
            probs = votes / k
            labels = (probs >= 0.5).astype(np.int64)
            ties = votes * 2 == k  # exact half votes, even k only
            labels[ties] = first[ties]
            out[k] = PredictionSet(labels=labels, probabilities=probs)
        return out

    @classmethod
    def from_state(cls, spec, feature_arity, state):
        train_X = np.array(state["train_X"], dtype=np.float64)
        train_y = np.array(state["train_y"], dtype=np.int64)
        k = spec.hyperparameters["k"]
        if (train_y.ndim != 1 or train_X.shape != (len(train_y), feature_arity)
                or len(train_y) < k or not np.all((train_y == 0) | (train_y == 1))):
            raise ValueError(f"KNN state: train_X of shape {train_X.shape} and "
                             f"train_y of shape {train_y.shape} do not hold at least "
                             f"k={k} rows of {feature_arity} features labelled 0 or 1")
        return cls(spec, feature_arity, train_X=train_X, train_y=train_y)
