"""Synthetic flow-record generator: determinism, geometry, noise plumbing."""

import numpy as np
import pytest

from flowguard.classifiers import make_spec, predict, train
from flowguard.dataset import (
    apply_category_maps,
    label_distribution,
    load_csv,
    stratified_split,
)
from flowguard.preprocess import apply_scaler, fit_scaler
from flowguard.synth import (
    PROTOCOL_TOKENS,
    SynthConfig,
    categorical_columns,
    generate,
    write_csv,
)


def test_generation_is_seeded():
    cfg = SynthConfig(n_benign=80, n_ddos=50, n_features=6, seed=3)
    a, b = generate(cfg), generate(cfg)
    assert np.array_equal(a.X, b.X)
    assert np.array_equal(a.y, b.y)
    c = generate(SynthConfig(n_benign=80, n_ddos=50, n_features=6, seed=4))
    assert not np.array_equal(a.X, c.X)


def test_label_counts_and_names():
    ds = generate(SynthConfig(n_benign=70, n_ddos=30, n_features=22, seed=0))
    dist = label_distribution(ds)
    assert (dist.benign_count, dist.ddos_count) == (70, 30)
    assert ds.n_rows == 100
    assert ds.feature_names[0] == "f00"
    assert len(ds.feature_names) == 22
    assert "benign=70" in ds.provenance


def test_categorical_columns_rule():
    assert categorical_columns(22) == [3, 10, 17]
    ds = generate(SynthConfig(n_benign=200, n_ddos=200, n_features=22, seed=1))
    for j in categorical_columns(22):
        vals = set(np.unique(ds.X[:, j]).tolist())
        assert vals <= {0.0, 1.0, 2.0}
    # all three protocols appear at this sample size
    assert set(np.unique(ds.X[:, 3]).tolist()) == {0.0, 1.0, 2.0}


def test_class_separation_controls_gaussian_means():
    sep = 4.0
    ds = generate(SynthConfig(n_benign=1500, n_ddos=1500, n_features=10,
                              class_separation=sep, seed=2))
    numeric = [j for j in range(10) if j not in categorical_columns(10)]
    for j in numeric:
        gap = float(np.mean(ds.X[ds.y == 1, j]) - np.mean(ds.X[ds.y == 0, j]))
        assert abs(gap - sep) < 0.1


def test_noise_fraction_flips_exact_count():
    cfg = SynthConfig(n_benign=600, n_ddos=400, n_features=8,
                      class_separation=50.0, noise_fraction=0.1, seed=5)
    ds = generate(cfg)
    numeric = [j for j in range(8) if j not in categorical_columns(8)]
    # the huge separation makes the generating class readable off each row
    generated = (np.mean(ds.X[:, numeric], axis=1) > 25.0).astype(np.int64)
    assert int(np.sum(generated != ds.y)) == round(0.1 * 1000)


def test_zero_separation_is_unlearnable():
    ds = generate(SynthConfig(n_benign=1000, n_ddos=1000, n_features=22,
                              class_separation=0.0, seed=0))
    split = stratified_split(ds, 0.8, seed=0)
    scaler = fit_scaler(split.train)
    model = train(make_spec("RF", seed=0), apply_scaler(scaler, split.train))
    out = predict(model, apply_scaler(scaler, split.test))
    acc = float(np.mean(out.labels == split.test.y))
    assert 0.4 <= acc <= 0.6


def test_imbalanced_corpus_shape():
    # the reference traffic capture shape: 63,561 benign vs 40,784 ddos,
    # and the floor-per-class 80/20 split sizes it implies
    ds = generate(SynthConfig(n_benign=63561, n_ddos=40784, n_features=4, seed=0))
    dist = label_distribution(ds)
    assert ds.n_rows == 104345
    split = stratified_split(ds, 0.8, seed=0)
    tr = label_distribution(split.train)
    assert (tr.benign_count, tr.ddos_count) == (50848, 32627)
    assert split.train.n_rows == 83475
    assert split.test.n_rows == 20870


def test_csv_round_trip_preserves_content(tmp_path):
    cfg = SynthConfig(n_benign=60, n_ddos=40, n_features=9, seed=6)
    path = tmp_path / "synth.csv"
    written = write_csv(cfg, path)
    direct = generate(cfg)
    assert np.array_equal(written.X, direct.X)
    loaded = load_csv(path)
    assert not loaded.is_numeric  # protocol columns arrive as tokens
    maps = {loaded.feature_names[j]: PROTOCOL_TOKENS
            for j in categorical_columns(9)}
    decoded = apply_category_maps(loaded, maps)
    assert np.array_equal(decoded.X, direct.X)
    assert np.array_equal(decoded.y, direct.y)


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(n_benign=0, n_ddos=10)
    with pytest.raises(ValueError):
        SynthConfig(n_benign=10, n_ddos=10, noise_fraction=1.0)
    with pytest.raises(ValueError):
        SynthConfig(n_benign=10, n_ddos=10, n_features=0)
    with pytest.raises(ValueError):
        SynthConfig(n_benign=10, n_ddos=10, class_separation=-1.0)
    for sep in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="finite"):
            SynthConfig(n_benign=10, n_ddos=10, class_separation=sep)
