"""Synthetic flow-record generator for self-contained experiments.

Benign rows draw features from N(0, I), DDoS rows from N(sep, I). A
deterministic subset of columns (indices where i % 7 == 3) is overwritten
with protocol-like categorical codes in {0, 1, 2}, drawn from the same
distribution for both classes so the class signal lives entirely in the
Gaussian features. An optional fraction of labels is flipped as noise.
Output is byte-identical for a given config.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, dataset_to_csv

PROTOCOL_TOKENS = ("tcp", "udp", "icmp")
_PROTOCOL_PROBS = (0.5, 0.3, 0.2)


@dataclass(frozen=True)
class SynthConfig:
    n_benign: int = 1000
    n_ddos: int = 1000
    n_features: int = 22
    class_separation: float = 1.0
    noise_fraction: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.n_benign < 1 or self.n_ddos < 1:
            raise ValueError("need at least one row per class")
        if self.n_features < 2:
            raise ValueError("need at least 2 features")
        if not 0 <= self.class_separation < np.inf:
            raise ValueError("class_separation must be finite and >= 0")
        if not 0.0 <= self.noise_fraction < 1.0:
            raise ValueError("noise_fraction must lie in [0, 1)")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def categorical_columns(n_features: int):
    """Indices of the protocol-like categorical columns."""
    return [i for i in range(n_features) if i % 7 == 3]


def generate(cfg: SynthConfig) -> Dataset:
    """Deterministic labeled dataset per the config; see module docstring.

    Draw order (fixed for reproducibility): benign Gaussian block, DDoS
    Gaussian block, categorical columns, label flips, row permutation.
    """
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n_benign + cfg.n_ddos
    d = cfg.n_features
    benign = rng.standard_normal((cfg.n_benign, d))
    ddos = rng.standard_normal((cfg.n_ddos, d)) + cfg.class_separation
    X = np.vstack([benign, ddos])
    for col in categorical_columns(d):
        X[:, col] = rng.choice(len(PROTOCOL_TOKENS), size=n, p=_PROTOCOL_PROBS)
    y = np.concatenate([np.zeros(cfg.n_benign, dtype=np.int64),
                        np.ones(cfg.n_ddos, dtype=np.int64)])
    n_flips = int(round(cfg.noise_fraction * n))
    if n_flips:
        flip = rng.choice(n, size=n_flips, replace=False)
        y[flip] = 1 - y[flip]
    perm = rng.permutation(n)
    names = tuple(f"f{i:02d}" for i in range(d))
    provenance = (f"synth(seed={cfg.seed},benign={cfg.n_benign},ddos={cfg.n_ddos},"
                  f"features={d},sep={cfg.class_separation},noise={cfg.noise_fraction})")
    return Dataset(feature_names=names, X=X[perm], y=y[perm], provenance=provenance)


def with_tokens(ds: Dataset) -> Dataset:
    """A generated dataset as its CSV holds it: protocol codes become tokens,
    which exercise categorical typing and first-appearance encoding."""
    X = ds.X.astype(object)
    for j in categorical_columns(ds.n_features):
        X[:, j] = np.array(PROTOCOL_TOKENS, dtype=object)[ds.X[:, j].astype(np.int64)]
    return ds.replace(X=X)


def write_csv(cfg: SynthConfig, path) -> Dataset:
    """Write ``with_tokens(generate(cfg))`` as CSV; returns ``generate(cfg)``."""
    ds = generate(cfg)
    dataset_to_csv(with_tokens(ds), path)
    return ds
