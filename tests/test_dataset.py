"""CSV ingestion, imputation, encoding, and stratified splitting."""

import numpy as np
import pytest

from flowguard.dataset import (
    Dataset,
    LoadError,
    apply_category_maps,
    content_hash,
    dataset_to_csv,
    encode_categoricals,
    impute_missing,
    label_distribution,
    load_csv,
    stratified_fold_indices,
    stratified_split,
)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def test_load_numeric_csv(tmp_path):
    p = write(tmp_path / "d.csv",
              "dur,rate,label\n1.5,10,0\n2.5,20,1\n")
    ds = load_csv(p)
    assert ds.feature_names == ("dur", "rate")
    assert ds.is_numeric
    assert ds.X.dtype == np.float64
    assert np.array_equal(ds.y, [0, 1])
    assert np.array_equal(ds.X, [[1.5, 10.0], [2.5, 20.0]])


def test_load_csv_label_column_position_is_free(tmp_path):
    p = write(tmp_path / "d.csv", "label,a\n1,3\n0,4\n")
    ds = load_csv(p)
    assert ds.feature_names == ("a",)
    assert np.array_equal(ds.y, [1, 0])


def test_load_csv_errors(tmp_path):
    with pytest.raises(LoadError):
        load_csv(tmp_path / "absent.csv")
    with pytest.raises(LoadError, match="empty"):
        load_csv(write(tmp_path / "e.csv", ""))
    with pytest.raises(LoadError, match="duplicate"):
        load_csv(write(tmp_path / "dup.csv", "a,a,label\n1,2,0\n"))
    with pytest.raises(LoadError, match="label column"):
        load_csv(write(tmp_path / "nl.csv", "a,b\n1,2\n"))
    with pytest.raises(LoadError, match="row 2"):
        load_csv(write(tmp_path / "bad.csv", "a,label\n1,0\n2,7\n"))
    with pytest.raises(LoadError, match="row 1"):
        load_csv(write(tmp_path / "short.csv", "a,b,label\n1,0\n"))


def test_missing_tokens_become_gaps(tmp_path):
    p = write(tmp_path / "m.csv",
              "a,b,label\n1,x,0\n,y,1\nNaN,?,0\nn/a,null,1\n3,x,0\n")
    ds = load_csv(p)
    assert not ds.is_numeric
    assert np.isnan(ds.X[1, 0]) or ds.X[1, 0] is None
    filled = impute_missing(ds)
    # numeric gap -> median of {1, 3} = 2; categorical gap -> mode "x"
    assert float(filled.X[1, 0]) == 2.0
    assert filled.X[2, 1] == "x"


def test_infinite_values_are_gaps(tmp_path):
    p = write(tmp_path / "inf.csv", "a,label\n1,0\ninf,1\n3,0\n")
    ds = load_csv(p)
    assert ds.is_numeric
    assert np.isnan(ds.X[1, 0])
    assert float(impute_missing(ds).X[1, 0]) == 2.0


def test_impute_median_worked_example():
    ds = Dataset(feature_names=("a",), X=np.array([[1.0], [np.nan], [3.0]]),
                 y=np.array([0, 1, 0]))
    out = impute_missing(ds)
    assert float(out.X[1, 0]) == 2.0
    # idempotent: a second pass changes nothing
    again = impute_missing(out)
    assert np.array_equal(again.X, out.X)


def test_impute_mode_tie_breaks_lexicographically():
    X = np.array([["b", 1.0], ["a", 2.0], [None, np.nan], ["a", 3.0], ["b", 4.0]],
                 dtype=object)
    ds = Dataset(feature_names=("proto", "v"), X=X, y=np.array([0, 1, 0, 1, 0]))
    out = impute_missing(ds)
    assert out.X[2, 0] == "a"
    assert float(out.X[2, 1]) == 2.5


def test_impute_all_missing_column_raises():
    X = np.array([[None], [None]], dtype=object)
    ds = Dataset(feature_names=("gone",), X=X, y=np.array([0, 1]))
    with pytest.raises(ValueError, match="gone"):
        impute_missing(ds)


def test_encode_first_appearance_order():
    X = np.array([["tcp", 1.0], ["udp", 2.0], ["tcp", 3.0]], dtype=object)
    ds = Dataset(feature_names=("proto", "v"), X=X, y=np.array([0, 1, 0]))
    enc = encode_categoricals(ds)
    assert enc.is_numeric
    assert np.array_equal(enc.X[:, 0], [0.0, 1.0, 0.0])
    assert np.array_equal(enc.X[:, 1], [1.0, 2.0, 3.0])
    assert enc.category_maps == {"proto": ("tcp", "udp")}


def test_encode_is_injective_per_column():
    rng = np.random.default_rng(4)
    tokens = np.array(["alpha", "beta", "gamma", "delta"])
    for _ in range(30):
        col = tokens[rng.integers(0, 4, size=20)]
        X = np.array(col, dtype=object).reshape(-1, 1)
        ds = Dataset(feature_names=("t",), X=X, y=rng.integers(0, 2, size=20))
        enc = encode_categoricals(ds)
        order = enc.category_maps["t"]
        # bijection between observed tokens and codes 0..k-1
        assert sorted(set(order)) == sorted(set(col.tolist()))
        codes = {tok: i for i, tok in enumerate(order)}
        assert all(enc.X[i, 0] == codes[col[i]] for i in range(20))


def test_apply_category_maps_unseen_token():
    maps = {"proto": ("tcp", "udp")}
    X = np.array([["icmp"], ["tcp"]], dtype=object)
    ds = Dataset(feature_names=("proto",), X=X, y=np.array([0, 1]))
    out = apply_category_maps(ds, maps)
    assert np.array_equal(out.X[:, 0], [2.0, 0.0])


def test_encode_requires_imputation_first():
    X = np.array([["tcp"], [None]], dtype=object)
    ds = Dataset(feature_names=("proto",), X=X, y=np.array([0, 1]))
    with pytest.raises(ValueError, match="impute"):
        encode_categoricals(ds)


def test_split_worked_example():
    # 6 benign + 4 ddos at ratio 0.8 -> floor gives 4 + 3 = 7 train, 3 test
    X = np.arange(20, dtype=np.float64).reshape(10, 2)
    y = np.array([0, 0, 0, 0, 0, 0, 1, 1, 1, 1])
    ds = Dataset(feature_names=("a", "b"), X=X, y=y)
    split = stratified_split(ds, 0.8, seed=0)
    assert split.train.n_rows == 7
    assert split.test.n_rows == 3
    tr = label_distribution(split.train)
    assert (tr.benign_count, tr.ddos_count) == (4, 3)


def test_split_partitions_without_overlap():
    rng = np.random.default_rng(8)
    for trial in range(25):
        n = int(rng.integers(10, 200))
        X = rng.random((n, 3))
        y = rng.integers(0, 2, size=n)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        ds = Dataset(feature_names=("a", "b", "c"), X=X, y=y)
        ratio = float(rng.uniform(0.5, 0.9))
        split = stratified_split(ds, ratio, seed=trial)
        assert split.train.n_rows + split.test.n_rows == n
        rows = {tuple(r) for r in X}
        got = {tuple(r) for r in split.train.X} | {tuple(r) for r in split.test.X}
        assert len(got) <= len(rows)
        # per-class train share within one record of the requested ratio
        for cls in (0, 1):
            want = int(np.floor(np.sum(y == cls) * ratio))
            have = int(np.sum(split.train.y == cls))
            assert abs(have - want) <= 1


def test_split_is_seeded():
    X = np.arange(60, dtype=np.float64).reshape(30, 2)
    y = np.array([0, 1] * 15)
    ds = Dataset(feature_names=("a", "b"), X=X, y=y)
    a = stratified_split(ds, 0.8, seed=1)
    b = stratified_split(ds, 0.8, seed=1)
    c = stratified_split(ds, 0.8, seed=2)
    assert np.array_equal(a.train.X, b.train.X)
    assert not np.array_equal(a.train.X, c.train.X)


def test_split_single_class_raises():
    ds = Dataset(feature_names=("a",), X=np.zeros((4, 1)), y=np.array([1, 1, 1, 1]))
    with pytest.raises(ValueError):
        stratified_split(ds, 0.8, seed=0)


def test_fold_indices_partition_each_class():
    rng = np.random.default_rng(13)
    for trial in range(20):
        n = int(rng.integers(20, 120))
        y = rng.integers(0, 2, size=n)
        y[:10] = [0, 1] * 5  # both classes guaranteed
        folds = stratified_fold_indices(y, 5, seed=trial)
        assert len(folds) == 5
        joined = np.concatenate(folds)
        assert sorted(joined.tolist()) == list(range(n))
        sizes = [np.sum(y[f] == 1) for f in folds]
        assert max(sizes) - min(sizes) <= 1


def test_fold_indices_class_too_small():
    y = np.array([0, 0, 0, 0, 1, 1])
    with pytest.raises(ValueError):
        stratified_fold_indices(y, 3, seed=0)


def test_dataset_csv_round_trip(tmp_path):
    rng = np.random.default_rng(21)
    X = rng.standard_normal((12, 3))
    y = rng.integers(0, 2, size=12)
    y[0], y[1] = 0, 1
    ds = Dataset(feature_names=("a", "b", "c"), X=X, y=y)
    path = tmp_path / "round.csv"
    dataset_to_csv(ds, path)
    back = load_csv(path)
    assert np.array_equal(back.X, ds.X)  # repr round-trips float64 exactly
    assert np.array_equal(back.y, ds.y)
    assert back.feature_names == ds.feature_names


def test_content_hash_tracks_content():
    X = np.arange(12, dtype=np.float64).reshape(4, 3)
    ds = Dataset(feature_names=("a", "b", "c"), X=X, y=np.array([0, 1, 0, 1]))
    h1 = content_hash(ds)
    assert h1 == content_hash(ds.replace())
    bumped = ds.replace(X=X + 1.0)
    assert content_hash(bumped) != h1
    relabeled = ds.replace(y=np.array([1, 0, 0, 1]))
    assert content_hash(relabeled) != h1


def test_dataset_is_immutable():
    ds = Dataset(feature_names=("a",), X=np.zeros((2, 1)), y=np.array([0, 1]))
    with pytest.raises(ValueError):
        ds.X[0, 0] = 5.0
    with pytest.raises(ValueError):
        ds.y[0] = 1
