"""Scaling, minority oversampling, and density-based outlier removal."""

import math

import numpy as np
import pytest

from flowguard.dataset import Dataset
from flowguard.preprocess import (
    LofConfig,
    Scaler,
    SmoteConfig,
    apply_scaler,
    fit_scaler,
    lof_scores,
    remove_outliers,
    scaler_from_dict,
    scaler_to_dict,
    smote_oversample,
)
from oracles import lof_brute


def make_ds(X, y):
    X = np.asarray(X, dtype=np.float64)
    names = tuple(f"f{i}" for i in range(X.shape[1]))
    return Dataset(feature_names=names, X=X, y=np.asarray(y, dtype=np.int64))


def test_scaler_worked_example():
    ds = make_ds([[2.0], [4.0], [6.0]], [0, 1, 0])
    sc = fit_scaler(ds)
    assert sc.mean[0] == 4.0
    assert abs(sc.scale[0] - math.sqrt(8.0 / 3.0)) < 1e-15
    out = apply_scaler(sc, ds)
    assert abs(out.X[0, 0] - (-1.224744871391589)) < 1e-12


def test_scaler_fixed_point():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(5, 100))
        d = int(rng.integers(1, 8))
        ds = make_ds(rng.standard_normal((n, d)) * 10 + 3,
                     rng.integers(0, 2, size=n))
        scaled = apply_scaler(fit_scaler(ds), ds)
        refit = fit_scaler(scaled)
        assert np.all(np.abs(refit.mean) < 1e-9)
        assert np.all(np.abs(refit.scale - 1.0) < 1e-9)


def test_scaler_constant_column():
    ds = make_ds([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]], [0, 1, 0])
    sc = fit_scaler(ds)
    assert sc.constant_mask[0] and not sc.constant_mask[1]
    assert sc.scale[0] == 1.0
    out = apply_scaler(sc, ds)
    assert np.all(out.X[:, 0] == 0.0)


def test_scaler_gives_an_underflowing_column_scale_one():
    # a non-constant column whose population variance rounds to 0
    ds = make_ds([[0.0, 1.0], [5e-324, 3.0]], [0, 1])
    sc = fit_scaler(ds)
    assert sc.scale.tolist() == [1.0, 1.0]
    assert sc.constant_mask.tolist() == [False, False]
    assert np.isfinite(apply_scaler(sc, ds).X).all()
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError, match="scale must be positive"):
            Scaler(mean=[0.0], scale=[bad], constant_mask=[False])


def test_scaler_serialization_round_trip():
    ds = make_ds([[1.0, 7.0], [2.0, 7.0], [4.0, 7.0]], [0, 1, 1])
    sc = fit_scaler(ds)
    back = scaler_from_dict(scaler_to_dict(sc))
    assert np.array_equal(back.mean, sc.mean)
    assert np.array_equal(back.scale, sc.scale)
    assert np.array_equal(back.constant_mask, sc.constant_mask)
    doc = scaler_to_dict(sc)
    doc["scale"] = doc["scale"][:-1]
    with pytest.raises(ValueError, match="1-d arrays of one length"):
        scaler_from_dict(doc)


def test_scaler_arity_check():
    sc = fit_scaler(make_ds([[1.0], [2.0]], [0, 1]))
    with pytest.raises(ValueError):
        apply_scaler(sc, make_ds([[1.0, 2.0]], [0]))


def test_smote_worked_example():
    # 6 majority + 2 minority at target 1.0 adds round(6) - 2 = 4 rows
    X = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 0.0], [2.0, 1.0],
         [10.0, 10.0], [12.0, 10.0]]
    y = [0, 0, 0, 0, 0, 0, 1, 1]
    out = smote_oversample(make_ds(X, y), SmoteConfig(k_neighbors=1, seed=0))
    assert out.n_rows == 12
    assert int(np.sum(out.y == 1)) == 6
    # originals preserved as an exact prefix
    assert np.array_equal(out.X[:8], np.asarray(X))
    assert np.array_equal(out.y[:8], y)
    # k=1 leaves one neighbor choice: every synthetic row sits on the
    # segment between the two minority points
    for row in out.X[8:]:
        t = (row[0] - 10.0) / 2.0
        assert 0.0 <= t < 1.0
        assert abs(row[1] - 10.0) < 1e-12


def test_smote_counts_and_prefix():
    rng = np.random.default_rng(5)
    for trial in range(40):
        n_min = int(rng.integers(3, 20))
        n_maj = int(rng.integers(n_min, 60))
        k = int(rng.integers(1, n_min))
        ratio = float(rng.uniform(0.5, 1.5))
        X = rng.standard_normal((n_maj + n_min, 3))
        y = np.array([0] * n_maj + [1] * n_min)
        order = rng.permutation(n_maj + n_min)
        ds = make_ds(X[order], y[order])
        cfg = SmoteConfig(k_neighbors=k, target_ratio=ratio, seed=trial)
        out = smote_oversample(ds, cfg)
        needed = max(0, round(ratio * n_maj) - n_min)
        assert out.n_rows == ds.n_rows + needed
        assert np.array_equal(out.X[:ds.n_rows], ds.X)
        assert np.array_equal(out.y[:ds.n_rows], ds.y)
        assert np.all(out.y[ds.n_rows:] == 1)


def test_smote_synthetic_points_lie_on_neighbor_segments():
    rng = np.random.default_rng(9)
    for trial in range(20):
        n_min = int(rng.integers(4, 12))
        n_maj = int(rng.integers(n_min + 5, 40))
        k = int(rng.integers(1, n_min))
        minority = rng.standard_normal((n_min, 4)) * 5
        majority = rng.standard_normal((n_maj, 4)) * 5
        X = np.vstack([majority, minority])
        y = np.array([0] * n_maj + [1] * n_min)
        out = smote_oversample(make_ds(X, y),
                               SmoteConfig(k_neighbors=k, seed=trial))
        synth = out.X[n_maj + n_min:]
        for j, s in enumerate(synth):
            base = minority[j % n_min]
            d2 = np.sum((minority - base) ** 2, axis=1)
            d2[j % n_min] = np.inf
            nearest = np.argsort(d2, kind="stable")[:k]
            dev = min(_segment_deviation(base, minority[nb], s) for nb in nearest)
            assert dev < 1e-9


def _segment_deviation(a, b, s):
    """Relative distance from s to segment a->b."""
    ab = b - a
    denom = float(np.dot(ab, ab))
    if denom == 0.0:
        return float(np.linalg.norm(s - a))
    t = float(np.dot(s - a, ab)) / denom
    if not (0.0 <= t <= 1.0):
        return math.inf
    resid = float(np.linalg.norm(s - (a + t * ab)))
    return resid / max(math.sqrt(denom), 1e-30)


def test_smote_no_op_when_balanced():
    X = np.arange(12, dtype=np.float64).reshape(6, 2)
    ds = make_ds(X, [0, 0, 0, 1, 1, 1])
    out = smote_oversample(ds, SmoteConfig(k_neighbors=2, seed=0))
    assert out.n_rows == 6
    assert np.array_equal(out.X, ds.X)


def test_smote_k_too_large_raises():
    ds = make_ds(np.arange(10, dtype=np.float64).reshape(5, 2), [0, 0, 0, 1, 1])
    with pytest.raises(ValueError):
        smote_oversample(ds, SmoteConfig(k_neighbors=2, seed=0))


def test_smote_is_seeded():
    rng = np.random.default_rng(31)
    X = rng.standard_normal((30, 3))
    y = np.array([0] * 22 + [1] * 8)
    ds = make_ds(X, y)
    a = smote_oversample(ds, SmoteConfig(k_neighbors=3, seed=7))
    b = smote_oversample(ds, SmoteConfig(k_neighbors=3, seed=7))
    c = smote_oversample(ds, SmoteConfig(k_neighbors=3, seed=8))
    assert np.array_equal(a.X, b.X)
    assert not np.array_equal(a.X, c.X)


def test_lof_uniform_grid_scores_near_one():
    # 5x5 unit grid: every point is locally typical
    pts = [[float(i), float(j)] for i in range(5) for j in range(5)]
    ds = make_ds(pts, [0, 1] * 12 + [0])
    scores = lof_scores(ds, k_neighbors=3)
    assert np.all(scores >= 0.8)
    assert np.all(scores <= 1.2)


def test_lof_planted_outlier():
    pts = [[float(i), float(j)] for i in range(5) for j in range(5)]
    ds_grid = make_ds(pts, [0, 1] * 12 + [0])
    base = lof_scores(ds_grid, k_neighbors=3)
    ds_out = make_ds(pts + [[100.0, 100.0]], [0, 1] * 13)
    removal = remove_outliers(ds_out, LofConfig(k_neighbors=3, threshold=1.5))
    assert removal.removed_count == 1
    assert removal.dataset.n_rows == 25
    assert np.array_equal(removal.dataset.X, np.asarray(pts))
    # grid scores barely move when the far point joins
    assert np.all(np.abs(removal.scores[:25] - base) < 0.05)
    assert removal.scores[25] > 1.5


def test_lof_identical_points_score_one():
    X = np.ones((8, 3))
    ds = make_ds(X, [0, 1] * 4)
    scores = lof_scores(ds, k_neighbors=3)
    assert np.all(scores == 1.0)


def test_lof_matches_brute_force():
    rng = np.random.default_rng(17)
    for trial in range(12):
        n = int(rng.integers(12, 60))
        d = int(rng.integers(1, 5))
        k = int(rng.integers(2, min(8, n - 1)))
        X = np.round(rng.standard_normal((n, d)) * 3, 3)
        if trial % 3 == 0:
            X[: n // 4] = X[0]  # duplicate block stresses the tie handling
        ds = make_ds(X, rng.integers(0, 2, size=n))
        fast = lof_scores(ds, k_neighbors=k)
        slow = np.asarray(lof_brute([tuple(row) for row in X.tolist()], k))
        # relative: duplicate blocks pin scores at the 1/eps guard (~1e10)
        assert np.all(np.abs(fast - slow) <= 1e-9 * np.maximum(1.0, np.abs(slow)))


def test_remove_outliers_never_empties_a_class():
    # one lonely ddos row far from a tight benign cluster
    X = np.vstack([np.random.default_rng(0).normal(0, 0.1, (20, 2)),
                   [[50.0, 50.0]]])
    ds = make_ds(X, [0] * 20 + [1])
    with pytest.raises(ValueError):
        remove_outliers(ds, LofConfig(k_neighbors=3, threshold=1.5))


def test_lof_config_validation():
    with pytest.raises(ValueError):
        LofConfig(k_neighbors=0, threshold=1.5)
    with pytest.raises(ValueError):
        LofConfig(k_neighbors=5, threshold=1.0)
    with pytest.raises(ValueError, match="threshold"):
        LofConfig(threshold=math.inf)  # what json reads from 1e999


def test_smote_config_refuses_an_infinite_ratio():
    with pytest.raises(ValueError, match="target_ratio"):
        SmoteConfig(target_ratio=math.inf)
