"""Linear support vector classifier: hinge loss, L2 penalty, SGD training,
Platt-scaled probabilities.

The bias rides along as an augmented always-1 feature, so it shares the L2
penalty - the standard simplification for this SGD scheme. Probabilities
come from a sigmoid fitted on out-of-fold decision values (3-fold internal
split), so hard labels follow the calibrated probability at threshold 0.5.
"""

from __future__ import annotations

import numpy as np

from ..dataset import stratified_fold_indices
from .base import TrainedModel, sigmoid

_PLATT_ITERATIONS = 100  # Newton steps of the sigmoid fit, at most
_PLATT_MIN_STEP = 1e-10  # its line search gives up below this step
_PLATT_RIDGE = 1e-12  # added to its Hessian's diagonal


def _fit_weights(X, y, reg_lambda, epochs, seed):
    """Stochastic subgradient descent on the regularized hinge objective.

    Step size at update t is 1 / (lambda * t); each epoch visits rows in a
    fresh seeded permutation.
    """
    n, d = X.shape
    Xa = np.hstack([X, np.ones((n, 1))])
    signs = np.where(y == 1, 1.0, -1.0)
    w = np.zeros(d + 1, dtype=np.float64)
    rng = np.random.default_rng(seed)
    t = 0
    for _ in range(epochs):
        for i in rng.permutation(n):
            t += 1
            eta = 1.0 / (reg_lambda * t)
            margin = signs[i] * (Xa[i] @ w)
            w *= 1.0 - eta * reg_lambda
            if margin < 1.0:
                w += (eta * signs[i]) * Xa[i]
    return w


def _fit_platt(decision, y):
    """Sigmoid parameters (a, b) such that P(y=1|f) = 1 / (1 + exp(a f + b)).

    Newton's method with backtracking line search on the regularized
    maximum-likelihood objective, using the standard smoothed targets
    (n_pos + 1) / (n_pos + 2) and 1 / (n_neg + 2).
    """
    f = np.asarray(decision, dtype=np.float64)
    y = np.asarray(y)
    n_pos = int(np.sum(y == 1))
    n_neg = len(y) - n_pos
    t = np.where(y == 1, (n_pos + 1.0) / (n_pos + 2.0), 1.0 / (n_neg + 2.0))

    def objective(a, b):
        z = a * f + b
        # t*z + log(1+exp(-z)) evaluated stably for either sign of z
        return float(np.sum(np.where(z >= 0,
                                     t * z + np.log1p(np.exp(-z)),
                                     (t - 1.0) * z + np.log1p(np.exp(z)))))

    a = 0.0
    b = np.log((n_neg + 1.0) / (n_pos + 1.0))
    fval = objective(a, b)
    for _ in range(_PLATT_ITERATIONS):
        z = a * f + b
        p = sigmoid(-z)  # model probability of class 1
        q = 1.0 - p
        d2 = p * q
        h11 = float(np.sum(f * f * d2)) + _PLATT_RIDGE
        h22 = float(np.sum(d2)) + _PLATT_RIDGE
        h21 = float(np.sum(f * d2))
        d1 = t - p
        g1 = float(np.sum(f * d1))
        g2 = float(np.sum(d1))
        if abs(g1) < 1e-5 and abs(g2) < 1e-5:
            break
        det = h11 * h22 - h21 * h21
        da = -(h22 * g1 - h21 * g2) / det
        db = -(h11 * g2 - h21 * g1) / det
        descent = g1 * da + g2 * db
        step = 1.0
        while step >= _PLATT_MIN_STEP:
            na, nb = a + step * da, b + step * db
            nf = objective(na, nb)
            if nf < fval + 1e-4 * step * descent:
                a, b, fval = na, nb, nf
                break
            step *= 0.5
        else:
            break  # line search exhausted; accept current parameters
    return float(a), float(b)


class LinearSvcModel(TrainedModel):
    kind = "SVC"
    report_name = "svc"
    defaults = {"reg_lambda": 1e-4, "epochs": 20}
    default_grid = {"reg_lambda": (1e-3, 1e-4)}
    positive = ("reg_lambda", "epochs")
    needs_two_classes = True
    state_fields = ("w", "platt_a", "platt_b")

    @classmethod
    def fit(cls, spec, X, y):
        hp = spec.hyperparameters
        lam = hp["reg_lambda"]
        epochs = hp["epochs"]

        # Out-of-fold decision values for calibration: 3 stratified folds,
        # each scored by a model trained on the other two.
        folds = stratified_fold_indices(y, 3, spec.seed + 1)
        decision = np.empty(X.shape[0], dtype=np.float64)
        for f, val_idx in enumerate(folds):
            mask = np.ones(X.shape[0], dtype=bool)
            mask[val_idx] = False
            w = _fit_weights(X[mask], y[mask], lam, epochs, spec.seed + 2 + f)
            decision[val_idx] = X[val_idx] @ w[:-1] + w[-1]
        platt_a, platt_b = _fit_platt(decision, y)

        w = _fit_weights(X, y, lam, epochs, spec.seed)
        return cls(spec, X.shape[1], w=w, platt_a=platt_a, platt_b=platt_b)

    def predict_proba(self, X):
        f = self._check_arity(X) @ self.w[:-1] + self.w[-1]
        return sigmoid(-(self.platt_a * f + self.platt_b))

    @classmethod
    def from_state(cls, spec, feature_arity, state):
        w = np.array(state["w"], dtype=np.float64)
        if w.shape != (feature_arity + 1,):
            raise ValueError(f"SVC state: w has shape {w.shape}, not "
                             f"({feature_arity + 1},) for {feature_arity} features")
        return cls(spec, feature_arity, w=w, platt_a=float(state["platt_a"]),
                   platt_b=float(state["platt_b"]))
