"""Gradient-boosted trees on logistic loss with Newton leaf weights."""

from __future__ import annotations

import numpy as np

from .base import TrainedModel, mean_log_loss, sigmoid, thresholded
from .tree import NodeLayouts, build_newton_tree, tree_apply, trees_from_state


class GradientBoostedTreesModel(TrainedModel):
    """Additive depth-limited trees; probability = sigmoid of the raw score.

    Each round fits a tree to the logistic-loss gradients g = p - y and
    hessians h = p(1 - p); leaf weights are the damped Newton step
    -G / (H + lambda) scaled by the learning rate. Split search is
    exhaustive, so training consumes no randomness. ``loss_curve`` holds the
    mean training loss before boosting and after every round (None if fitted
    with ``record_loss=False``). Round r depends only on rounds before it,
    so the first m trees are the model trained with ``rounds=m``. Each node
    layout of a fit is built once and kept for its later rounds
    (``tree.NodeLayouts``).
    """

    kind = "GBT"
    report_name = "xgb"
    defaults = {"rounds": 100, "depth": 3, "learning_rate": 0.1, "reg_lambda": 1.0}
    default_grid = {"rounds": (50, 100), "learning_rate": (0.1, 0.3)}
    positive = ("rounds", "depth", "learning_rate", "reg_lambda")
    needs_two_classes = True
    staged_hyperparameter = "rounds"
    state_fields = ("trees", "loss_curve")

    @classmethod
    def fit(cls, spec, X, y, record_loss=True):
        hp = spec.hyperparameters
        eta = hp["learning_rate"]
        lam = hp["reg_lambda"]
        yf = y.astype(np.float64)
        scores = np.zeros(X.shape[0], dtype=np.float64)
        loss_curve = [mean_log_loss(scores, yf)] if record_loss else None
        trees = []
        layouts = NodeLayouts(X)
        for _ in range(hp["rounds"]):
            p = sigmoid(scores)
            g = p - yf
            h = p * (1.0 - p)
            tree, fitted = build_newton_tree(X, g, h, max_depth=hp["depth"],
                                             reg_lambda=lam, layouts=layouts)
            trees.append(tree)
            scores += eta * fitted
            if record_loss:
                loss_curve.append(mean_log_loss(scores, yf))
        return cls(spec, X.shape[1], trees=trees, loss_curve=loss_curve)

    def staged_predict_sets(self, X, values):
        X = self._check_arity(X)
        wanted = self._stage_values(values)
        eta = self.spec.hyperparameters["learning_rate"]
        scores = np.zeros(X.shape[0], dtype=np.float64)
        out = {}
        for m, tree in enumerate(self.trees[:max(wanted)], start=1):
            scores += eta * tree_apply(tree, X)
            if m in wanted:
                out[m] = thresholded(sigmoid(scores))
        return out

    @classmethod
    def from_state(cls, spec, feature_arity, state):
        trees = trees_from_state(state["trees"], spec.hyperparameters["rounds"],
                                 feature_arity)
        return cls(spec, feature_arity, trees=trees,
                   loss_curve=list(state["loss_curve"]))
