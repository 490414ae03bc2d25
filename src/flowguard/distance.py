"""Exact Euclidean nearest neighbours, screened at BLAS speed.

Every squared distance this module hands out is the *exact* one: the sum of
per-feature squared differences, accumulated feature by feature
(``acc += diff * diff``) in float64, as ``sq_dists`` does. That order is free
of the cancellation noise of the |q|^2 + |r|^2 - 2 q.r identity, so duplicate
rows come out at exactly 0 and equal distances compare equal, which the
tie-break and outlier-density contracts rely on. ``sq_dists`` is the dense
reference; ``nearest`` finds the same neighbours without filling the dense
matrix feature by feature:

0. **Group.** Rows with equal bytes are one distinct row (``np.unique``
   over a void view of each row). The reference side is grouped once; the
   query side shares that grouping when the queries are the reference rows
   (the same array, or ``exclude_self``) and is grouped on its own
   otherwise. Equal bytes give bit-equal exact distances to every other
   row, so the steps below run over distinct rows only, and a reference
   group counts with its multiplicity. Raw flow captures repeat records, so
   this shrinks both sides of the screen.
1. **Screen.** Per block of distinct query rows, both sides are centred on
   the mean of the distinct reference rows, a = q - mu and b = r - mu, and
   the Gram identity s = |a|^2 + |b|^2 - 2 a.b is evaluated with one matrix
   product. Centring keeps |a|^2 + |b|^2 on the scale of the spread of the
   data rather than of its offset (raw SDN byte counts reach 1e9; SMOTE and
   LOF run before the scaler).
2. **Bound.** With u = 2^-53, d features and N = |a|^2 + |b|^2, every
   screened value lies within delta = c * N + tiny of the exact value e:
   - computing |a|^2, |b|^2 and a.b in any summation order (BLAS included)
     errs by at most 2 gamma_d * N in total, and the two additions that
     form s by 5u * N;
   - rounding q - mu and r - mu moves the difference vector by at most
     u' * (|a| + |b|) with u' = u / (1 - u), hence |a - b|^2 by at most
     u'(2 + u') * (|a| + |b|)^2 <= 4u' * N;
   - the exact path rounds each difference, each square and each of the
     d - 1 additions of non-negative terms, so it is within gamma_{d+2} * D
     of the true D = |q - r|^2 <= 2N (1 + 3u).
   To first order that is (4d + 13) u * N, with gamma_n = n u / (1 - n u).
   c is twice that, which covers every second-order term and the roundings
   of delta and of s +/- delta themselves while d u < 1e-6 (d below ten
   billion). ``tiny`` (the smallest normal float) absorbs underflow.
3. **Select.** Let m be k, or k + 1 with ``exclude_self`` (the query's own
   group may hold no other copy), capped at the number of distinct
   reference rows. Let T be the m-th smallest upper bound s + delta in a
   query's row. The m groups under T hold at least k rows other than the
   query, each with exact value <= T, so the exact k-th distance is <= T,
   and every group whose lower bound s - delta exceeds T is strictly farther
   than it. Groups with s - delta <= T are the candidates; this set holds
   every row at or within the exact k-th distance, ties included.
4. **Recompute.** Exact distances are recomputed for the candidates only,
   in one pass per block: the candidates' coordinates are gathered as two
   (d, C) arrays, subtracted, squared and summed over axis 0. numpy adds
   the rows of such an array one after another, and pairwise only along a
   contiguous axis, so the sum runs feature by feature as in ``sq_dists``
   and each value is bit-identical to the dense reference. (A single
   column would be summed pairwise, so each block gathers one spare
   candidate.) The exact k-th distance is read off the candidates in
   distance order, each counted with its multiplicity (the query's own group
   with one copy fewer under ``exclude_self``).
5. **Expand.** The groups within that distance are expanded to their rows,
   sorted by (exact squared distance, row index). With ``ties=True`` a
   distinct row keeps all of that list (LOF's k-distance neighbourhood),
   else its first k (k + 1 under ``exclude_self``). ``nearest`` gives each
   query its row's list, less itself under ``exclude_self``, cut to k.

Exact duplicates and exact ties therefore survive the screen even though
the screened values of tied rows may differ in their last bits: the slack
spans the screen's error, and the final order is decided by exact values.

Memory: a block holds ``_BLOCK_CELLS`` (query, reference) cells, or
``_MIN_BLOCK_ROWS`` query rows against many reference rows. Its two float64
screen buffers and its boolean mask are reused by every block and sized to
stay in a core's L2 cache; its C candidates take 2 d C floats. Beyond that
a call holds the distinct rows and the neighbour lists.
``distinct_neighbors`` keeps one list per distinct query row, so with
``ties=True`` a group of g identical rows costs one list of g entries, not
g (g - 1). ``nearest`` returns k entries per query.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

# (query, reference) cells per block: the two float64 screen buffers of
# 256 KB and the mask stay in a core's L2 cache.
_BLOCK_CELLS = 32_768
# Query rows per block at least, so that against many reference rows the
# block still does enough arithmetic to hide its ~40 numpy calls.
_MIN_BLOCK_ROWS = 16

_U = 2.0 ** -53
_TINY = np.finfo(np.float64).tiny


class DistinctNeighbors(NamedTuple):
    """Neighbour lists of every distinct query row, flattened.

    Query i is distinct row ``inverse[i]``, and ``first[u]`` is the lowest
    query index of distinct row u. Row u owns
    ``index[offsets[u]:offsets[u + 1]]`` with the exact squared distances
    ``sq_dist``, sorted by (squared distance, reference row index): every
    reference row within its exact k-th distance, the row's own copies
    included. With ``ties=False`` a list stops after k entries (k + 1 under
    ``exclude_self``), enough for each query to find its k.
    """

    inverse: np.ndarray
    first: np.ndarray
    offsets: np.ndarray
    index: np.ndarray
    sq_dist: np.ndarray


def sq_dists(A, B) -> np.ndarray:
    """Dense (len(A), len(B)) matrix of squared Euclidean distances."""
    A = np.ascontiguousarray(A, dtype=np.float64)
    B = np.ascontiguousarray(B, dtype=np.float64)
    out = np.zeros((A.shape[0], B.shape[0]), dtype=np.float64)
    for f in range(A.shape[1]):
        diff = A[:, f, None] - B[None, :, f]
        out += diff * diff
    return out


def _group_rows(X):
    """(first, inverse, counts) of the byte-identical rows of a 2-D array."""
    width = X.shape[1] * X.itemsize
    keys = (X.view(np.dtype((np.void, width))).ravel() if width
            else np.zeros(X.shape[0], dtype=np.int8))
    _, first, inverse, counts = np.unique(keys, return_index=True,
                                          return_inverse=True, return_counts=True)
    return first, inverse.ravel(), counts


def _segment_positions(starts, lengths):
    """Concatenated ``arange(s, s + n)`` for every (s, n) pair."""
    ends = np.cumsum(lengths)
    return np.arange(ends[-1] if ends.size else 0) + np.repeat(starts - ends + lengths,
                                                               lengths)


def _segment_heads(lengths, limit):
    """Mask keeping the first ``limit`` entries of consecutive segments."""
    return _segment_positions(np.zeros_like(lengths), lengths) < limit


def distinct_neighbors(Q, R, k: int, *, exclude_self: bool = False,
                       ties: bool = False) -> DistinctNeighbors:
    """Exact neighbourhoods of the distinct rows of Q among the rows of R.

    ``k`` and ``exclude_self`` are those of ``nearest``. With ``ties=True``
    a row's list holds every reference row within its exact k-th distance,
    which can be more than k; see the module docstring for the steps.
    """
    same = Q is R
    R = np.ascontiguousarray(R, dtype=np.float64)
    Q = R if same else np.ascontiguousarray(Q, dtype=np.float64)
    if Q.ndim != 2 or R.ndim != 2 or Q.shape[1] != R.shape[1]:
        raise ValueError(f"nearest needs 2-D arrays of equal width, got "
                         f"{Q.shape} and {R.shape}")
    available = R.shape[0] - (1 if exclude_self else 0)
    if not 1 <= k <= available:
        raise ValueError(f"k={k} needs between 1 and {available} reference rows")
    if exclude_self and not (same or np.array_equal(Q, R)):
        raise ValueError("exclude_self needs the queries to be the reference rows")
    if not (np.isfinite(Q).all() and np.isfinite(R).all()):
        raise ValueError("nearest needs finite coordinates")

    # Distinct rows, as columns for the exact recompute; queries that are
    # the reference rows share their grouping.
    r_first, r_inv, r_count = _group_rows(R)
    Rt = R.T.take(r_first, axis=1)
    if same or exclude_self:
        q_first, q_inv, Qt = r_first, r_inv, Rt
    else:
        q_first, q_inv, _ = _group_rows(Q)
        Qt = Q.T.take(q_first, axis=1)
    # Rows of each reference group, ascending, from members[m_start[j]:].
    members = np.argsort(r_inv, kind="stable")
    m_start = np.cumsum(r_count) - r_count

    mu = Rt.mean(axis=1)
    A, B = Qt.T - mu, Rt.T - mu
    na, nb = np.einsum("ij,ij->i", A, A), np.einsum("ij,ij->i", B, B)
    if not (np.isfinite(na).all() and np.isfinite(nb).all()):
        raise ValueError("coordinates too large for squared distances")
    A *= -2.0  # exact; the product below carries the factor
    c = 2.0 * (4 * Q.shape[1] + 13) * _U
    col_slack = c * nb
    m = min(k + int(exclude_self), Rt.shape[1])
    limit = None if ties else k + int(exclude_self)

    offsets = [np.zeros(1, dtype=np.int64)]
    index, sq_dist = [np.zeros(0, dtype=np.int64)], [np.zeros(0)]
    rows = max(_MIN_BLOCK_ROWS, _BLOCK_CELLS // Rt.shape[1])
    rows = min(max(Qt.shape[1], 1), rows)
    # Two block buffers and a mask, reused by every block.
    s_buf, bound_buf = np.empty((rows, Rt.shape[1])), np.empty((rows, Rt.shape[1]))
    mask_buf = np.empty((rows, Rt.shape[1]), dtype=bool)
    for start in range(0, Qt.shape[1], rows):
        stop = min(start + rows, Qt.shape[1])
        n = stop - start
        s, bound, mask = s_buf[:n], bound_buf[:n], mask_buf[:n]
        # 1. Screened values s = (-2 a.b + |a|^2) + |b|^2.
        np.matmul(A[start:stop], B.T, out=s)
        s += na[start:stop, None]
        s += nb[None, :]
        # 2-3. delta = c (|a|^2 + |b|^2) + tiny is kept as a row part and a
        # column part. Adding the row part keeps the order within a row, so
        # it joins after the partition.
        row_slack = c * na[start:stop] + _TINY
        np.add(s, col_slack, out=bound)
        bound.partition(m - 1, axis=1)
        upper_m = bound[:, m - 1] + row_slack  # m-th smallest s + delta
        # candidates: s - delta <= upper_m
        np.subtract(s, col_slack, out=bound)
        np.less_equal(bound, (upper_m + row_slack)[:, None], out=mask)
        qi, ci = np.nonzero(mask)
        # 4. One exact pass over the (d, C) candidate coordinates. numpy sums
        # axis 0 of a C-contiguous array row after row, sq_dists' order, but
        # a lone column pairwise; a spare last candidate keeps C above 1.
        diff = Qt.take(np.append(qi + start, 0), axis=1)
        diff -= Rt.take(np.append(ci, 0), axis=1)
        diff *= diff
        exact = diff.sum(axis=0)[:-1]
        # (query, distance) order from one integer key; equal distances may
        # come in any order here, as step 5 orders their rows by index.
        rank = np.empty(qi.size, dtype=np.int64)
        rank[np.argsort(exact)] = np.arange(qi.size)
        order = np.argsort(qi * qi.size + rank)
        qi, ci, exact = qi[order], ci[order], exact[order]
        # The k-th distance counts every group with its multiplicity; the
        # running count only grows, so one search finds every query's k-th.
        weight = r_count[ci] - (exclude_self & (ci == qi + start))
        seen = np.cumsum(weight)
        before = np.concatenate(([0], seen))[np.searchsorted(qi, np.arange(n))]
        kth = exact[np.searchsorted(seen, before + k)]
        within = exact <= kth[qi]
        qi, ci, exact = qi[within], ci[within], exact[within]
        # 5. The rows of those groups (without ties, a group's first `limit`
        # rows are all a list can take), by row index within each (query,
        # distance) run; the runs are already in order.
        size = r_count[ci] if limit is None else np.minimum(r_count[ci], limit)
        ri = members[_segment_positions(m_start[ci], size)]
        run = np.ones(qi.size, dtype=bool)
        run[1:] = (qi[1:] != qi[:-1]) | (exact[1:] != exact[:-1])
        ri = ri[np.argsort(np.repeat(np.cumsum(run), size) * R.shape[0] + ri)]
        qi, exact = np.repeat(qi, size), np.repeat(exact, size)
        counts = np.bincount(qi, minlength=n)
        if limit is not None:
            head = _segment_heads(counts, limit)
            ri, exact = ri[head], exact[head]
            counts = np.minimum(counts, limit)
        offsets.append(offsets[-1][-1] + np.cumsum(counts))
        index.append(ri)
        sq_dist.append(exact)
    return DistinctNeighbors(q_inv, q_first, np.concatenate(offsets),
                             np.concatenate(index), np.concatenate(sq_dist))


def nearest(Q, R, k: int, *, exclude_self: bool = False) -> np.ndarray:
    """Exact k nearest rows of R for every row of Q, as a (len(Q), k) matrix
    of row indices.

    Each row is ordered by (exact squared distance, row index), so distance
    ties go to the lower row index. ``exclude_self`` skips reference row i
    for query row i (Q and R are the same rows). See the module docstring
    for how the Gram screen keeps this exact.
    """
    nb = distinct_neighbors(Q, R, k, exclude_self=exclude_self)
    # Every query takes its distinct row's list ...
    length = np.diff(nb.offsets)[nb.inverse]
    pos = _segment_positions(nb.offsets[:-1][nb.inverse], length)
    owner = np.repeat(np.arange(nb.inverse.size), length)
    if exclude_self:  # ... less itself ...
        keep = nb.index[pos] != owner
        length = np.bincount(owner[keep], minlength=nb.inverse.size)
        pos = pos[keep]
    # ... and its first k.
    return nb.index[pos[_segment_heads(length, k)]].reshape(-1, k)
