"""Feedforward network trained by mini-batch gradient descent with momentum.

Fixed shape input -> hidden layers (default 64 -> 32) -> 1 logistic output,
ReLU activations, binary cross-entropy loss. Weights initialize uniformly in
+-sqrt(6 / (fan_in + fan_out)), biases at zero. ``gradient_check`` verifies
the backpropagated gradients against central finite differences over every
parameter.
"""

from __future__ import annotations

import numpy as np

from .base import TrainedModel, mean_log_loss, sigmoid


def init_parameters(layer_sizes, rng):
    """Glorot-uniform weight matrices and zero biases for the given shape."""
    weights = []
    biases = []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out, dtype=np.float64))
    return weights, biases


def _forward_logits(weights, biases, X):
    """Raw output logits plus per-layer activations (for backprop)."""
    activations = [X]
    a = X
    last = len(weights) - 1
    for i, (W, b) in enumerate(zip(weights, biases)):
        z = a @ W + b
        a = z if i == last else np.maximum(z, 0.0)
        activations.append(a)
    return activations[-1][:, 0], activations


def gradients(weights, biases, X, y):
    """Gradients of the mean BCE loss w.r.t. every weight and bias."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = X.shape[0]
    logits, activations = _forward_logits(weights, biases, X)

    grad_w, grad_b = [None] * len(weights), [None] * len(biases)
    delta = ((sigmoid(logits) - y) / n)[:, None]
    for i in range(len(weights) - 1, -1, -1):
        grad_w[i] = activations[i].T @ delta
        grad_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ weights[i].T) * (activations[i] > 0.0)
    return grad_w, grad_b


def bce_loss(weights, biases, X, y) -> float:
    logits, _ = _forward_logits(weights, biases, np.asarray(X, dtype=np.float64))
    return mean_log_loss(logits, y)


class MlpModel(TrainedModel):
    kind = "MLP"
    report_name = "mlp"
    defaults = {"hidden_sizes": (64, 32), "learning_rate": 0.01, "momentum": 0.9,
                "batch_size": 64, "epochs": 50}
    default_grid = {"learning_rate": (0.01, 0.001)}
    positive = ("learning_rate", "batch_size", "epochs")
    needs_two_classes = True
    state_fields = ("weights", "biases", "loss_curve")

    @classmethod
    def check_hyperparameters(cls, hp):
        hp["hidden_sizes"] = tuple(int(h) for h in hp["hidden_sizes"])
        super().check_hyperparameters(hp)
        if not 0.0 <= hp["momentum"] < 1.0:
            raise ValueError("MLP momentum must lie in [0, 1)")
        if any(h < 1 for h in hp["hidden_sizes"]):
            raise ValueError("MLP hidden layer sizes must be >= 1")

    @classmethod
    def fit(cls, spec, X, y, record_loss=True):
        """The trained network; ``loss_curve`` holds the mean training loss
        before the first epoch and after each (None if ``record_loss`` is
        False)."""
        hp = spec.hyperparameters
        n, d = X.shape
        sizes = [d, *hp["hidden_sizes"], 1]
        rng = np.random.default_rng(spec.seed)
        weights, biases = init_parameters(sizes, rng)
        vel_w = [np.zeros_like(W) for W in weights]
        vel_b = [np.zeros_like(b) for b in biases]
        lr = hp["learning_rate"]
        mu = hp["momentum"]
        batch = hp["batch_size"]

        loss_curve = [bce_loss(weights, biases, X, y)] if record_loss else None
        for _ in range(hp["epochs"]):
            perm = rng.permutation(n)
            for start in range(0, n, batch):
                idx = perm[start:start + batch]
                grad_w, grad_b = gradients(weights, biases, X[idx], y[idx])
                for i in range(len(weights)):
                    vel_w[i] = mu * vel_w[i] - lr * grad_w[i]
                    vel_b[i] = mu * vel_b[i] - lr * grad_b[i]
                    weights[i] = weights[i] + vel_w[i]
                    biases[i] = biases[i] + vel_b[i]
            if record_loss:
                loss_curve.append(bce_loss(weights, biases, X, y))
        return cls(spec, d, weights=weights, biases=biases, loss_curve=loss_curve)

    def predict_proba(self, X):
        X = self._check_arity(X)
        logits, _ = _forward_logits(self.weights, self.biases, X)
        return sigmoid(logits)

    @classmethod
    def from_state(cls, spec, feature_arity, state):
        weights = [np.array(W, dtype=np.float64) for W in state["weights"]]
        biases = [np.array(b, dtype=np.float64) for b in state["biases"]]
        sizes = [feature_arity, *spec.hyperparameters["hidden_sizes"], 1]
        if ([W.shape for W in weights] != list(zip(sizes[:-1], sizes[1:]))
                or [b.shape for b in biases] != [(s,) for s in sizes[1:]]):
            raise ValueError(f"MLP state: weight and bias shapes do not chain "
                             f"layer sizes {sizes}")
        return cls(spec, feature_arity, weights=weights, biases=biases,
                   loss_curve=list(state["loss_curve"]))


def gradient_check(spec, dataset, step: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    The network is evaluated at a seeded generic point: Glorot weights plus
    small random nonzero biases. Nonzero biases matter because the training
    init (zero biases) can park a ReLU pre-activation exactly on its kink,
    where finite differences are meaningless. Relative error per parameter
    is |analytic - numeric| / max(|analytic| + |numeric|, 1e-8). Values
    below 1e-4 indicate a correct backward pass.
    """
    if spec.kind != "MLP":
        raise ValueError(f"gradient_check applies to MLP specs, got {spec.kind}")
    X = np.asarray(dataset.X, dtype=np.float64)
    y = np.asarray(dataset.y, dtype=np.float64)
    sizes = [X.shape[1], *spec.hyperparameters["hidden_sizes"], 1]
    rng = np.random.default_rng(spec.seed)
    weights, biases = init_parameters(sizes, rng)
    biases = [rng.uniform(-0.3, 0.3, size=b.shape) for b in biases]
    return max_gradient_error(weights, biases, X, y, step)


def max_gradient_error(weights, biases, X, y, step: float = 1e-5) -> float:
    """Finite-difference check of gradients at the given parameters."""
    grad_w, grad_b = gradients(weights, biases, X, y)
    worst = 0.0
    for params, grads in ((weights, grad_w), (biases, grad_b)):
        for tensor, grad in zip(params, grads):
            flat = tensor.reshape(-1)
            gflat = grad.reshape(-1)
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + step
                up = bce_loss(weights, biases, X, y)
                flat[j] = orig - step
                down = bce_loss(weights, biases, X, y)
                flat[j] = orig
                numeric = (up - down) / (2.0 * step)
                err = abs(gflat[j] - numeric) / max(abs(gflat[j]) + abs(numeric), 1e-8)
                worst = max(worst, err)
    return worst
