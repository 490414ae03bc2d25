"""Exact nearest neighbours: the Gram-screened kernel against dense references.

The dense reference is ``sq_dists`` followed by a stable argsort, the path
SMOTE, LOF and KNN took before the screen existed. Agreement is checked bit
for bit: the same neighbour rows, in the same order, at the same squared
distances.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from flowguard import distance  # noqa: E402
from flowguard.dataset import Dataset  # noqa: E402
from flowguard.distance import distinct_neighbors, nearest, sq_dists  # noqa: E402
from flowguard.preprocess import (LOF_DENSITY_EPS, SmoteConfig,  # noqa: E402
                                  lof_scores, smote_oversample)
from oracles import lof_scores_rowwise  # noqa: E402

LAYOUTS = ("normal", "grid", "duplicates", "offset", "byte_counts", "scales")
# Feature counts up to 24, 22 (the SDN flow features) always among them:
# numpy sums 8 or more contiguous values pairwise, so only widths of 8 and
# up tell the exact pass's feature order from another.
WIDTHS = st.one_of(st.just(22), st.integers(1, 24))


def make_rows(rng, n, d, layout):
    """Rows whose layout stresses one part of the screen."""
    if layout == "normal":
        return rng.standard_normal((n, d)) * 3
    if layout == "grid":  # small integer grid: many exact distance ties
        return rng.integers(0, 3, size=(n, d)).astype(np.float64)
    if layout == "duplicates":  # repeated rows: exact zero distances
        base = np.round(rng.standard_normal((max(1, n // 3), d)), 2)
        return base[rng.integers(0, base.shape[0], size=n)]
    if layout == "offset":  # large common offset: the centring and bound path
        return 1e6 + rng.integers(0, 4, size=(n, d)) * 0.25
    if layout == "scales":  # columns whose scales differ by orders of magnitude
        return rng.standard_normal((n, d)) * 10.0 ** rng.integers(-6, 7, size=d)
    # raw flow statistics: one column of byte counts near 1e9
    X = rng.integers(0, 50, size=(n, d)).astype(np.float64)
    X[:, 0] = 1e9 + rng.integers(0, 3, size=n) * 1500.0
    return X


@st.composite
def neighbor_cases(draw):
    layout = draw(st.sampled_from(LAYOUTS))
    d = draw(WIDTHS)
    m = draw(st.integers(2, 40))
    exclude_self = draw(st.booleans())
    n = m if exclude_self else draw(st.integers(0, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    R = make_rows(rng, m, d, layout)
    if exclude_self:
        Q = R
    else:
        # queries mix reference rows (zero distances) with fresh rows
        Q = np.vstack([R, make_rows(rng, n, d, layout)])[rng.permutation(m + n)[:n]]
    k = draw(st.integers(1, m - 1 if exclude_self else m))
    return Q, R, k, exclude_self, draw(st.booleans()), draw(st.integers(1, 200))


def small_blocks(cells):
    """Blocks of ``cells`` cells, down to one query row: many blocks per call."""
    return mock.patch.multiple(distance, _BLOCK_CELLS=cells, _MIN_BLOCK_ROWS=1)


def dense_neighbors(Q, R, k, exclude_self):
    """``nearest`` from the dense exact matrix and a stable argsort."""
    D = sq_dists(Q, R)
    if exclude_self:
        np.fill_diagonal(D, np.inf)
    return np.argsort(D, axis=1, kind="stable")[:, :k].astype(np.int64)


def assert_dense_lists(got, Q, R, k, exclude_self, ties):
    """``distinct_neighbors`` against the dense exact matrix, query by query.

    A query's list is every reference row within its exact k-th distance,
    in stable argsort order, its own row included but left out of the count
    under ``exclude_self``; all of them with ``ties``, else the first k
    (k + 1 under ``exclude_self``). Queries of one distinct row share its
    list, and ``first`` names the lowest of them.
    """
    D = sq_dists(Q, R)
    others = D.copy()
    if exclude_self:
        np.fill_diagonal(others, np.inf)
    kth = np.sort(others, axis=1)[:, k - 1]
    rows = [row.tobytes() for row in np.ascontiguousarray(Q)]
    assert len({rows[i] for i in got.first}) == got.first.size
    assert np.array_equal(got.inverse[got.first], np.arange(got.first.size))
    assert got.offsets.size == got.first.size + 1
    for i, u in enumerate(got.inverse):
        assert rows[got.first[u]] == rows[i] and got.first[u] <= i
        order = np.argsort(D[i], kind="stable")
        want = order[D[i, order] <= kth[i]]
        want = want if ties else want[:k + exclude_self]
        lo, hi = got.offsets[u], got.offsets[u + 1]
        assert got.index[lo:hi].tobytes() == want.astype(np.int64).tobytes()
        assert got.sq_dist[lo:hi].tobytes() == D[i, want].tobytes()


@settings(max_examples=300, deadline=None)
@given(neighbor_cases())
def test_nearest_matches_dense_oracle(case):
    Q, R, k, exclude_self, ties, block_cells = case
    with small_blocks(block_cells):
        got = nearest(Q, R, k, exclude_self=exclude_self)
        lists = distinct_neighbors(Q, R, k, exclude_self=exclude_self, ties=ties)
    assert got.dtype == np.int64 and got.shape == (Q.shape[0], k)
    assert got.tobytes() == dense_neighbors(Q, R, k, exclude_self).tobytes()
    assert_dense_lists(lists, Q, R, k, exclude_self, ties)


def test_nearest_keeps_exact_ties_the_screen_cannot_see():
    # Three rows at exactly the same distance from the query (the offset is
    # permuted over the coordinates). Their Gram values differ in the last
    # bits and put row 0 last, yet ties must go to the lowest row index.
    q = np.array([0.694, -0.758, 1.421])
    a, b, c = 0.726, 0.844, 1.165
    R = np.array([q + [a, b, c], q + [b, c, a], q + [c, a, b]])
    exact = sq_dists(q[None], R)[0]
    assert len(set(exact.tolist())) == 1
    A, B = q - R.mean(axis=0), R - R.mean(axis=0)
    gram = A @ A + np.einsum("ij,ij->i", B, B) - 2 * B @ A
    assert gram[0] > gram.min()
    assert nearest(q[None], R, 1).tolist() == [[0]]
    assert nearest(q[None], R, 3).tolist() == [[0, 1, 2]]
    got = distinct_neighbors(q[None], R, 1, ties=True)
    assert got.index.tolist() == [0, 1, 2]
    assert got.sq_dist.tobytes() == exact.tobytes()


def test_nearest_rejects_bad_input():
    X = np.zeros((4, 2))
    with pytest.raises(ValueError, match="k=4"):
        nearest(X, X, 4, exclude_self=True)
    with pytest.raises(ValueError, match="k=0"):
        nearest(X, X, 0)
    with pytest.raises(ValueError, match="equal width"):
        nearest(X, np.zeros((4, 3)), 1)
    with pytest.raises(ValueError, match="finite"):
        nearest(np.array([[np.nan, 0.0]]), X, 1)
    assert nearest(np.zeros((0, 2)), X, 2).shape == (0, 2)
    empty = distinct_neighbors(np.zeros((0, 2)), X, 2, ties=True)
    assert empty.offsets.tolist() == [0] and empty.index.size == 0


def dense_lof(X, k):
    """LOF from the full dense distance matrix, three passes over all pairs."""
    D = sq_dists(X, X)
    np.fill_diagonal(D, np.inf)
    kd2 = np.partition(D, k - 1, axis=1)[:, k - 1]
    member = D <= kd2[:, None]
    reach = np.sqrt(np.maximum(D, kd2[None, :]))
    mean_reach = np.sum(reach, axis=1, where=member) / member.sum(axis=1)
    with np.errstate(divide="ignore"):
        lrd = np.where(mean_reach == 0.0, 1.0 / LOF_DENSITY_EPS, 1.0 / mean_reach)
    return (member @ lrd) / member.sum(axis=1) / lrd


def as_dataset(X, y=None):
    y = np.zeros(X.shape[0], dtype=np.int64) if y is None else y
    return Dataset(feature_names=tuple(f"f{i}" for i in range(X.shape[1])),
                   X=X, y=np.asarray(y, dtype=np.int64))


@st.composite
def lof_cases(draw):
    n = draw(st.integers(3, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = make_rows(rng, n, draw(WIDTHS), draw(st.sampled_from(LAYOUTS)))
    return X, draw(st.integers(1, n - 1)), rng.permutation(n)


@settings(max_examples=150, deadline=None)
@given(lof_cases())
def test_lof_matches_dense_reference_and_is_permutation_equivariant(case):
    X, k, perm = case
    scores = lof_scores(as_dataset(X), k)
    # neighbourhoods match exactly; only the order of the sums differs
    np.testing.assert_allclose(scores, dense_lof(X, k), rtol=1e-12, atol=0)
    np.testing.assert_allclose(lof_scores(as_dataset(X[perm]), k), scores[perm],
                               rtol=1e-12, atol=0)


@st.composite
def smote_cases(draw):
    n_min = draw(st.integers(2, 15))
    n_maj = draw(st.integers(n_min, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layout = draw(st.sampled_from(LAYOUTS))
    X = make_rows(rng, n_min + n_maj, draw(st.integers(1, 5)), layout)
    y = np.array([0] * n_maj + [1] * n_min)[rng.permutation(n_min + n_maj)]
    cfg = SmoteConfig(k_neighbors=draw(st.integers(1, n_min - 1)),
                      target_ratio=draw(st.floats(0.1, 2.0)),
                      seed=draw(st.integers(0, 1000)))
    return X, y, cfg


@settings(max_examples=150, deadline=None)
@given(smote_cases())
def test_smote_output_starts_with_the_original_rows(case):
    X, y, cfg = case
    ds = as_dataset(X, y)
    out = smote_oversample(ds, cfg)
    assert out.X[:ds.n_rows].tobytes() == ds.X.tobytes()
    assert np.array_equal(out.y[:ds.n_rows], ds.y)
    assert np.all(out.y[ds.n_rows:] == 1)


@st.composite
def repeated_rows(draw, max_rows=300):
    """Rows made of a few distinct rows, each repeated 1 to 50 times.

    The distinct rows sit on a small grid, so different groups often lie at
    equal distances; the grid's columns may differ in scale by powers of
    ten, whose squares are inexact, so the order of the feature sum shows;
    some zero coordinates of some copies are -0.0, which makes byte-distinct
    rows that are equal in value; labels are drawn per copy, so copies of
    one row can disagree.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(WIDTHS)
    copies = draw(st.lists(st.integers(1, 50), min_size=1, max_size=8))
    scale = draw(st.sampled_from((1.0, 0.5, 1e9, "columns")))
    if scale == "columns":
        scale = 10.0 ** rng.integers(-3, 4, size=d)
    base = rng.integers(-1, 2, size=(len(copies), d)) * scale
    X = np.repeat(base, copies, axis=0)[:max_rows]
    if draw(st.booleans()):
        X[(X == 0) & (rng.random(X.shape) < 0.5)] = -0.0
    order = rng.permutation(X.shape[0])
    return X[order], rng.integers(0, 2, size=X.shape[0])


@settings(max_examples=150, deadline=None)
@given(repeated_rows(), st.data())
def test_nearest_matches_dense_oracle_on_repeated_rows(rows, data):
    R, _ = rows
    exclude_self, ties = data.draw(st.booleans()), data.draw(st.booleans())
    if exclude_self:
        Q = R
    else:  # copies of reference rows, in any order and number
        picks = data.draw(st.lists(st.integers(0, R.shape[0] - 1), max_size=60))
        Q = R[np.array(picks, dtype=np.int64)]
    available = R.shape[0] - exclude_self
    if available < 1:
        return
    k = data.draw(st.integers(1, available))
    with small_blocks(data.draw(st.integers(1, 400))):
        got = nearest(Q, R, k, exclude_self=exclude_self)
        lists = distinct_neighbors(Q, R, k, exclude_self=exclude_self, ties=ties)
    assert got.tobytes() == dense_neighbors(Q, R, k, exclude_self).tobytes()
    assert_dense_lists(lists, Q, R, k, exclude_self, ties)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(LAYOUTS), WIDTHS, st.integers(1, 40), st.booleans(),
       st.integers(1, 400), st.integers(0, 2**32 - 1), st.data())
def test_rows_against_themselves_share_one_grouping(layout, d, n, ties, cells, seed,
                                                      data):
    # KNN scores its own training rows as nearest(X, X, k): the queries are
    # the reference array itself, without exclude_self.
    X = make_rows(np.random.default_rng(seed), n, d, layout)
    k = data.draw(st.integers(1, n))
    with small_blocks(cells):
        shared = nearest(X, X, k)
        apart = nearest(X, X.copy(), k)
        shared_lists = distinct_neighbors(X, X, k, ties=ties)
        apart_lists = distinct_neighbors(X, X.copy(), k, ties=ties)
    assert shared.tobytes() == dense_neighbors(X, X, k, False).tobytes()
    assert shared.tobytes() == apart.tobytes()
    assert_dense_lists(shared_lists, X, X, k, False, ties)
    for got, want in zip(shared_lists, apart_lists):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def duplicated_flows(n=700, d=22):
    """n rows of d features drawn with replacement from n // 2 distinct rows."""
    rng = np.random.default_rng(12)
    base = rng.standard_normal((n // 2, d)) * 10.0 ** rng.integers(-3, 4, size=d)
    return base[rng.integers(0, base.shape[0], size=n)]


@pytest.mark.parametrize("exclude_self, ties, fresh", [
    (True, True, False),  # LOF
    (True, False, False),  # SMOTE
    (False, False, False),  # KNN scoring its training rows
    (False, True, True),  # other rows, with ties
])
def test_block_size_changes_no_byte(exclude_self, ties, fresh):
    X = duplicated_flows()
    Q = duplicated_flows(300) + 0.01 if fresh else X
    results = []
    for cells, min_rows in ((1, 1), (distance._BLOCK_CELLS, distance._MIN_BLOCK_ROWS),
                            (4_000_000, distance._MIN_BLOCK_ROWS)):
        with mock.patch.multiple(distance, _BLOCK_CELLS=cells,
                                 _MIN_BLOCK_ROWS=min_rows):
            results.append(distinct_neighbors(Q, X, 20, exclude_self=exclude_self,
                                              ties=ties))
    for other in results[1:]:
        for got, want in zip(other, results[0]):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_scoring_many_flows_stays_in_cache_sized_blocks():
    # 3,000 fresh flows against a 250-row KNN model: memory is the blocks'
    # working set and the lists, not a screen of every (query, row) pair.
    rng = np.random.default_rng(5)
    Q, R = rng.standard_normal((3000, 22)), rng.standard_normal((250, 22))
    tracemalloc.start()
    try:
        got = nearest(Q, R, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got[:10], dense_neighbors(Q[:10], R, 7, False))
    assert peak < 4e6


@settings(max_examples=150, deadline=None)
@given(repeated_rows(), st.data())
def test_lof_is_bit_identical_to_the_row_wise_reference(rows, data):
    X, y = rows
    if X.shape[0] < 2:
        return
    k = data.draw(st.integers(1, X.shape[0] - 1))
    ds = as_dataset(X, y)
    assert lof_scores(ds, k).tobytes() == lof_scores_rowwise(ds, k).tobytes()


def test_lof_on_identical_rows_keeps_one_list():
    X = np.tile(np.random.default_rng(4).standard_normal(22), (3000, 1))
    tracemalloc.start()
    try:
        scores = lof_scores(as_dataset(X), 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert scores.tobytes() == np.ones(3000).tobytes()
    assert peak < 20e6


def test_exclude_self_needs_the_same_rows():
    X = np.arange(8.0).reshape(4, 2)
    with pytest.raises(ValueError, match="exclude_self"):
        nearest(X, X[::-1], 1, exclude_self=True)
