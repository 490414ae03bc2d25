"""CSV ingestion, imputation, encoding, and stratified splitting."""

import csv
import io
import struct

import numpy as np
import pytest

from flowguard import dataset
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
from oracles import (apply_category_maps_cellwise, encode_categoricals_cellwise,
                     impute_missing_cellwise, load_csv_cellwise)


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


def test_load_csv_skips_a_byte_order_mark(tmp_path):
    p = write(tmp_path / "bom.csv", "\ufefflabel,a\n1,3\n0,4\n")
    ds = load_csv(p)
    assert ds.feature_names == ("a",)
    assert np.array_equal(ds.y, [1, 0])


def test_load_csv_keeps_named_columns_as_text(tmp_path):
    p = write(tmp_path / "proto.csv", "proto,rate,label\n6,1.5,0\n17,,1\n6,2.5,0\n")
    assert load_csv(p).is_numeric
    ds = load_csv(p, text_columns=("proto",))
    assert ds.X[:, 0].tolist() == ["6", "17", "6"]
    assert ds.X[0, 1] == 1.5 and np.isnan(ds.X[1, 1])
    encoded = apply_category_maps(impute_missing(ds), {"proto": ("6", "17")})
    assert encoded.X[:, 0].tolist() == [0.0, 1.0, 0.0]


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


@pytest.mark.parametrize("X", [
    np.array([[np.nan, None]], dtype=object),    # both gaps at once
    np.array([[1.0, None]], dtype=object),       # a gap in a mapped column
    np.array([[np.nan, "tcp"]], dtype=object),   # a gap in an unmapped column
    np.array([[np.nan, 0.0]]),                   # an all-numeric matrix
])
def test_apply_category_maps_requires_imputation_first(X):
    ds = Dataset(feature_names=("v", "p"), X=X, y=np.array([0]))
    with pytest.raises(ValueError, match="impute missing values before encoding"):
        apply_category_maps(ds, {"p": ("tcp", "udp")})


def counted_scans(monkeypatch, name="_scan"):
    """A list that gets one entry per call of ``dataset.<name>`` (a function
    of one column) from here on."""
    calls, scan = [], getattr(dataset, name)
    monkeypatch.setattr(dataset, name, lambda column: calls.append(1) or scan(column))
    return calls


def gap_free_capture():
    rng = np.random.default_rng(4)
    X = np.empty((40, 4), dtype=object)
    X[:, 0] = rng.choice(["tcp", "udp", "icmp"], size=40)
    X[:, 1] = rng.standard_normal(40)
    X[:, 2] = rng.choice(["a", "b"], size=40)
    X[:, 3] = rng.integers(0, 5, size=40).astype(np.float64)
    return Dataset(feature_names=("proto", "rate", "flag", "pkts"), X=X,
                   y=rng.integers(0, 2, size=40))


def test_a_capture_is_scanned_once_for_every_encoding(monkeypatch):
    ds = gap_free_capture()
    calls = counted_scans(monkeypatch)
    imputed = impute_missing(ds)
    maps = ({"proto": ("udp", "tcp"), "flag": ("b",)},
            {"proto": ("icmp",), "flag": ("a", "b")})
    encoded = [apply_category_maps(imputed, m) for m in maps]
    assert len(calls) == ds.n_features
    assert_same_dataset(imputed, impute_missing_cellwise(ds))
    for got, m in zip(encoded, maps):
        assert_same_dataset(got, apply_category_maps_cellwise(ds, m))


def test_one_capture_codes_through_many_maps_as_cellwise(monkeypatch):
    # Each map codes the cached tokens afresh: another token order, unseen
    # tokens and a numeric column named in a map must not carry a code over.
    ds = gap_free_capture()
    calls = counted_scans(monkeypatch, "_tokens")
    maps = ({"proto": ("udp", "tcp"), "flag": ("b",)},
            {"proto": ("icmp", "tcp", "udp"), "flag": ("a", "b")},
            {"proto": ("ftp",), "flag": ("b", "a"), "pkts": ("3.0", "1.0", "0.0")},
            {"proto": ("tcp", "icmp"), "flag": ("a",), "pkts": ("4.0",)})
    for m in maps + maps[::-1]:
        assert_same_dataset(apply_category_maps(ds, m),
                            apply_category_maps_cellwise(ds, m))
    assert_same_dataset(encode_categoricals(ds), encode_categoricals_cellwise(ds))
    assert len(calls) == 3  # proto, flag, pkts: once each
    cells = list(map(str, ds.X[:, 3].tolist()))
    tokens, positions = ds.tokens(3)
    assert list(tokens) == list(dict.fromkeys(cells))  # first-appearance order
    assert [tokens[i] for i in positions] == cells


def test_a_new_dataset_scans_its_own_columns(monkeypatch):
    ds = gap_free_capture()
    ds.scans  # noqa: B018 - computed before any copy is made
    calls = counted_scans(monkeypatch)
    head = ds.take(range(5))
    assert [gaps.size for _, gaps, _ in head.scans] == [5] * 4
    assert len(calls) == 4
    X = ds.X.copy()
    X[3, 1] = np.nan
    X[7, 0] = None
    gappy = ds.replace(X=X)
    assert [np.flatnonzero(gaps).tolist() for _, gaps, _ in gappy.scans] == \
        [[7], [3], [], []]
    assert len(calls) == 8
    assert not any(gaps.any() for _, gaps, _ in ds.scans)
    assert_same_dataset(impute_missing(gappy), impute_missing_cellwise(gappy))


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



# --- the column-at-a-time read side against the cell-at-a-time oracles ----

def outcome(fn, *args):
    """("ok", result) or ("raised", exception type, message) of one call."""
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # noqa: BLE001 - the exception itself is compared
        return ("raised", type(exc), str(exc))


def float_bits(v):
    return struct.pack("<d", v)


def assert_same_dataset(got, want):
    """Same names, dtype, cells (value, type and bits), labels and maps."""
    assert got.feature_names == want.feature_names
    assert got.provenance == want.provenance
    assert got.category_maps == want.category_maps
    assert got.y.dtype == want.y.dtype and got.y.tobytes() == want.y.tobytes()
    assert got.X.dtype == want.X.dtype and got.X.shape == want.X.shape
    if got.X.dtype != object:
        assert got.X.tobytes() == want.X.tobytes()
        return
    for a, b in zip(got.X.ravel(), want.X.ravel()):
        assert type(a) is type(b), (a, b)
        if isinstance(a, float):
            assert float_bits(a) == float_bits(b), (a, b)
        else:
            assert a == b, (a, b)


def assert_same_outcome(got, want):
    assert got[0] == want[0], (got, want)
    if got[0] == "raised":
        assert got[1:] == want[1:]
    else:
        assert_same_dataset(got[1], want[1])


def assert_read_side_matches_oracles(path, maps):
    """load, impute, encode and apply agree with the oracles step by step."""
    got = outcome(load_csv, path)
    want = outcome(load_csv_cellwise, path)
    assert_same_outcome(got, want)
    if got[0] == "raised":
        return
    got = outcome(impute_missing, got[1])
    want = outcome(impute_missing_cellwise, want[1])
    assert_same_outcome(got, want)
    if got[0] == "raised":
        return
    assert_same_outcome(outcome(encode_categoricals, got[1]),
                        outcome(encode_categoricals_cellwise, want[1]))
    assert_same_outcome(outcome(apply_category_maps, got[1], maps),
                        outcome(apply_category_maps_cellwise, want[1], maps))


# Tokens for generated CSV text. float() reads the numeric ones, including
# spellings of infinity and NaN, digit groups and non-ASCII digits.
NUMBERS = ("0", "1.5", "-2", "1e3", "-0", "3.", ".5", "1_000", "\u0661\u0662",
           "\uff15", " 7 ", "inf", "-inf", "+Infinity", "INF", "nan", "-nan",
           "NaN", "1e999", "0x1", "1__0")
MISSING = ("", "na", "n/a", "nan", "null", "?")
WORDS = ("tcp", "udp", "icmp", "TCP", "a,b", 'q"uote', "x y", "\u00f1", "6",
         "17", "1.5", "None", "line\nbreak", "nul\x00")
KINDS = ("numeric", "categorical") * 3 + ("missing",)  # kinds of column
GOOD_LABELS = ("0", "1", "1.0", " 0 ", "0e0", "-0", "1.", "+1")
BAD_LABELS = ("2", "x", "", "nan", "-1", "0.5", "inf", "1_0", "one")


def csv_cases():
    """Strategy for (CSV text, category maps) covering the loader's rules."""
    from hypothesis import strategies as st

    @st.composite
    def missing_token(draw):
        token = "".join(c.upper() if draw(st.booleans()) else c
                        for c in draw(st.sampled_from(MISSING)))
        pad = st.sampled_from(("", " ", "\t", "  "))
        return draw(pad) + token + draw(pad)

    number = st.one_of(st.sampled_from(NUMBERS),
                       st.floats(allow_nan=True, allow_infinity=True).map(repr))
    word = st.one_of(st.sampled_from(WORDS), st.text(max_size=4))
    cells = {
        "numeric": st.one_of(number, missing_token()),
        "categorical": st.one_of(word, number, missing_token()),
        "missing": missing_token(),
    }

    @st.composite
    def cases(draw):
        d = draw(st.integers(0, 4))
        n = draw(st.integers(0, 8))
        kinds = [draw(st.sampled_from(KINDS)) for _ in range(d)]
        names = [f"c{j}" for j in range(d)]
        label_at = draw(st.integers(0, d))
        header = names[:label_at] + ["label"] + names[label_at:]
        bad_row = draw(st.integers(0, 4 * n))  # a bad label in one file of four
        rows = []
        for i in range(n):
            label = draw(st.sampled_from(BAD_LABELS if i == bad_row else GOOD_LABELS))
            row = [draw(cells[kind]) for kind in kinds]
            rows.append(row[:label_at] + [label] + row[label_at:])
        if rows and draw(st.integers(0, 7)) == 0:  # one ragged row
            row = rows[draw(st.integers(0, n - 1))]
            if draw(st.booleans()) or not row:
                row.append("extra")
            else:
                row.pop()
        text = io.StringIO()
        quoting = draw(st.sampled_from((csv.QUOTE_MINIMAL, csv.QUOTE_ALL)))
        csv.writer(text, quoting=quoting).writerows([header] + rows)
        maps = {}
        for name in names:
            if draw(st.integers(0, 3)):  # most columns carry a map
                maps[name] = tuple(draw(st.lists(st.sampled_from(WORDS), unique=True,
                                                 max_size=4)))
        return text.getvalue(), maps

    return cases()


def test_read_side_matches_cellwise_oracles(tmp_path):
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings

    path = tmp_path / "case.csv"

    @settings(max_examples=400, deadline=None)
    @given(csv_cases())
    def check(case):
        text, maps = case
        path.write_text(text, encoding="utf-8")
        assert_read_side_matches_oracles(path, maps)

    check()


def assert_csv_round_trip(text, tmp_path):
    """A capture load_csv accepts comes back from dataset_to_csv unchanged."""
    (tmp_path / "in.csv").write_text(text, encoding="utf-8")
    try:
        ds = load_csv(tmp_path / "in.csv")
    except LoadError:
        return
    dataset_to_csv(ds, tmp_path / "out.csv")
    back = load_csv(tmp_path / "out.csv")
    assert_same_dataset(back.replace(provenance=ds.provenance), ds)


def test_csv_round_trip_of_accepted_captures(tmp_path):
    pytest.importorskip("hypothesis")
    from hypothesis import example, given, settings

    @settings(max_examples=300, deadline=None)
    @given(csv_cases())
    @example(("a,p,label\n1,tcp,0\n,?,1\n3,udp,0\n", {}))  # gaps of both kinds
    def check(case):
        assert_csv_round_trip(case[0], tmp_path)

    check()


@pytest.mark.parametrize("content", [
    "a,label\n",                                       # a header alone
    "label\n1\n0\n",                                  # no feature column
    "a,label\n\n1,0\n",                               # a blank line is ragged
    "a,label\n1,7\n" + "x" * 200_000 + ",0\n",        # bad label, then a csv error
    "a,label\n" + "x" * 200_000 + ",0\n",              # a csv error alone
    b"a,label\n1,7\n" + b"1,0\n" * 5000 + b"\xff,0\n",  # bad label, then bad UTF-8
    b"a,label\n" + b"1,0\n" * 5000 + b"\xff,0\n",        # bad UTF-8 alone
    "a,b,label\nNA,tcp,0\nnull,?,1\n",                # all-missing numeric column
    "a,label\n\"1,5\",0\n2,1\n",                     # a quoted comma
])
def test_edge_files_match_cellwise_oracles(tmp_path, content):
    path = tmp_path / "edge.csv"
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content, encoding="utf-8")
    assert_read_side_matches_oracles(path, {"b": ("tcp",)})
