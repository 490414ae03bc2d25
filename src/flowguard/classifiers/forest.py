"""Random forest: bagged Gini CART trees with per-node feature sampling."""

from __future__ import annotations

import math

import numpy as np

from .base import TrainedModel, thresholded
from .tree import build_gini_tree, presort, tree_apply, trees_from_state


class RandomForestModel(TrainedModel):
    """Majority vote over n_trees; probability = fraction of trees voting 1.

    Tree t draws its bootstrap sample and per-node feature candidates from a
    dedicated generator seeded spec.seed + t, so trees are independent of
    training order and the whole fit is reproducible. So the first m trees
    are the forest trained with ``n_trees=m``. A tree grows on the fit's
    rows, each weighted by how many times its bootstrap drew it (once each
    without bootstrap), so the fit sorts X once for all its trees.
    """

    kind = "RF"
    report_name = "rf"
    defaults = {"n_trees": 100, "max_depth": None, "min_samples_split": 2,
                "bootstrap": True}
    default_grid = {"n_trees": (50, 100)}
    positive = ("n_trees", "min_samples_split")
    staged_hyperparameter = "n_trees"
    state_fields = ("trees", "feature_importance")

    @classmethod
    def check_hyperparameters(cls, hp):
        super().check_hyperparameters(hp)
        if hp["max_depth"] is not None and hp["max_depth"] < 1:
            raise ValueError("RF max_depth must be None or >= 1")

    @classmethod
    def fit(cls, spec, X, y):
        hp = spec.hyperparameters
        n, d = X.shape
        n_candidates = max(1, int(math.sqrt(d)))
        importance = np.zeros(d, dtype=np.float64)
        order = presort(X)  # every tree's rows are X's, so it is sorted once
        trees = []
        for t in range(hp["n_trees"]):
            rng = np.random.default_rng(spec.seed + t)
            if hp["bootstrap"]:
                counts = np.bincount(rng.integers(0, n, size=n), minlength=n)
            else:
                counts = np.ones(n, dtype=np.int64)
            trees.append(build_gini_tree(X, y, counts,
                                         max_depth=hp["max_depth"],
                                         min_samples_split=hp["min_samples_split"],
                                         n_candidate_features=n_candidates,
                                         rng=rng, importance=importance,
                                         order=order))
        importance /= hp["n_trees"]
        return cls(spec, d, trees=trees, feature_importance=importance)

    def staged_predict_sets(self, X, values):
        X = self._check_arity(X)
        wanted = self._stage_values(values)
        votes = np.zeros(X.shape[0], dtype=np.int64)
        out = {}
        for m, tree in enumerate(self.trees[:max(wanted)], start=1):
            votes += tree_apply(tree, X) >= 0.5
            if m in wanted:
                out[m] = thresholded(votes / m)
        return out

    @classmethod
    def from_state(cls, spec, feature_arity, state):
        trees = trees_from_state(state["trees"], spec.hyperparameters["n_trees"],
                                 feature_arity)
        importance = np.array(state["feature_importance"], dtype=np.float64)
        if importance.shape != (feature_arity,):
            raise ValueError(f"RF feature_importance has shape {importance.shape}, "
                             f"not ({feature_arity},)")
        return cls(spec, feature_arity, trees=trees, feature_importance=importance)
