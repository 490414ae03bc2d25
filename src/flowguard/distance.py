"""Exact Euclidean nearest neighbours, screened at BLAS speed.

Every squared distance this module hands out is the *exact* one: the sum of
per-feature squared differences, accumulated feature by feature
(``acc += diff * diff``) in float64, as ``sq_dists`` does. That order is free
of the cancellation noise of the |q|^2 + |r|^2 - 2 q.r identity, so duplicate
rows come out at exactly 0 and equal distances compare equal, which the
tie-break and outlier-density contracts rely on. ``sq_dists`` is the dense
reference; ``nearest`` finds the same neighbours without filling the dense
matrix feature by feature:

1. **Screen.** Per block of at most ``_BLOCK_CELLS`` (query, reference)
   cells, both sides are centred on the reference column mean, a = q - mu and
   b = r - mu, and the Gram identity s = |a|^2 + |b|^2 - 2 a.b is evaluated
   with one matrix product. Centring keeps |a|^2 + |b|^2 on the scale of the
   spread of the data rather than of its offset (raw SDN byte counts reach
   1e9; SMOTE and LOF run before the scaler).
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
3. **Select.** Let T be the k-th smallest upper bound s + delta in a query's
   row. At least k rows have exact value <= T, so the exact k-th distance is
   <= T, and every row whose lower bound s - delta exceeds T is strictly
   farther than it. Rows with s - delta <= T are the candidates; this set
   holds every row at or within the exact k-th distance, ties included.
4. **Recompute.** Exact distances are recomputed for the candidates only, in
   ``sq_dists``' operation order, so each is bit-identical to the dense
   reference. Candidates are sorted by (exact squared distance, row index);
   the first k are kept, or, with ``ties=True``, every candidate within the
   exact k-th distance.

Exact duplicates and exact ties therefore survive the screen even though
the screened values of tied rows may differ in their last bits: the slack
spans the screen's error, and the final order is decided by exact values.

Memory: two float64 blocks and one boolean block, reused across blocks,
plus the neighbour lists returned. With ``ties=True`` those lists hold every
tied row, so a group of g identical rows alone contributes g (g - 1) entries.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

# Upper bound on the number of matrix cells held per block.
_BLOCK_CELLS = 4_000_000

_U = 2.0 ** -53
_TINY = np.finfo(np.float64).tiny


class Neighbors(NamedTuple):
    """Neighbour lists of every query, flattened in query order.

    Query i owns ``index[offsets[i]:offsets[i + 1]]`` with the exact squared
    distances ``sq_dist`` at the same positions, sorted by (squared distance,
    reference row index).
    """

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


def nearest(Q, R, k: int, *, exclude_self: bool = False,
            ties: bool = False) -> Neighbors:
    """Exact k nearest rows of R for every row of Q.

    Each query gets its k nearest reference rows, ordered by (exact squared
    distance, row index), so distance ties go to the lower row index. With
    ``ties=True`` it gets every row within its exact k-th distance instead,
    which can be more than k. ``exclude_self`` skips reference row i for
    query row i (Q and R are the same rows). See the module docstring for
    how the Gram screen keeps this exact.
    """
    Q = np.ascontiguousarray(Q, dtype=np.float64)
    R = np.ascontiguousarray(R, dtype=np.float64)
    if Q.ndim != 2 or R.ndim != 2 or Q.shape[1] != R.shape[1]:
        raise ValueError(f"nearest needs 2-D arrays of equal width, got "
                         f"{Q.shape} and {R.shape}")
    available = R.shape[0] - (1 if exclude_self else 0)
    if not 1 <= k <= available:
        raise ValueError(f"k={k} needs between 1 and {available} reference rows")
    if exclude_self and Q.shape[0] != R.shape[0]:
        raise ValueError("exclude_self needs the queries to be the reference rows")
    if not (np.isfinite(Q).all() and np.isfinite(R).all()):
        raise ValueError("nearest needs finite coordinates")

    mu = R.mean(axis=0)
    A, B = Q - mu, R - mu
    na, nb = np.einsum("ij,ij->i", A, A), np.einsum("ij,ij->i", B, B)
    if not (np.isfinite(na).all() and np.isfinite(nb).all()):
        raise ValueError("coordinates too large for squared distances")
    A2 = -2.0 * A
    Qt, Rt = np.ascontiguousarray(Q.T), np.ascontiguousarray(R.T)
    c = 2.0 * (4 * Q.shape[1] + 13) * _U

    offsets = [np.zeros(1, dtype=np.int64)]
    index, sq_dist = [np.zeros(0, dtype=np.int64)], [np.zeros(0)]
    rows = max(1, min(Q.shape[0], _BLOCK_CELLS // R.shape[0]))
    # Two block buffers and a mask, reused by every block.
    s_buf, bound_buf = np.empty((rows, R.shape[0])), np.empty((rows, R.shape[0]))
    mask_buf = np.empty((rows, R.shape[0]), dtype=bool)
    for start in range(0, Q.shape[0], rows):
        stop = min(start + rows, Q.shape[0])
        n = stop - start
        s, bound, mask = s_buf[:n], bound_buf[:n], mask_buf[:n]
        # 1. Screened values s = (-2 a.b + |a|^2) + |b|^2 (scaling by -2 is
        # exact, so the product carries the factor).
        np.matmul(A2[start:stop], B.T, out=s)
        s += na[start:stop, None]
        s += nb[None, :]
        if exclude_self:
            s[np.arange(n), np.arange(start, stop)] = np.inf
        # 2-3. delta = c (|a|^2 + |b|^2) + tiny is kept as a row part and a
        # column part. Adding the row part keeps the order within a row, so
        # it joins after the partition.
        row_slack, col_slack = c * na[start:stop] + _TINY, c * nb
        np.add(s, col_slack, out=bound)
        bound.partition(k - 1, axis=1)
        upper_k = bound[:, k - 1] + row_slack  # k-th smallest s + delta
        # candidates: s - delta <= upper_k
        np.subtract(s, col_slack, out=bound)
        np.less_equal(bound, (upper_k + row_slack)[:, None], out=mask)
        qi, ci = np.nonzero(mask)
        # 4. Exact recompute in sq_dists' order, then (distance, index) order.
        qg = qi + start
        exact = np.zeros(qi.size, dtype=np.float64)
        for f in range(Qt.shape[0]):
            diff = Qt[f, qg] - Rt[f, ci]
            exact += diff * diff
        order = np.lexsort((ci, exact, qi))
        qi, ci, exact = qi[order], ci[order], exact[order]
        first = np.searchsorted(qi, np.arange(n))
        if ties:
            keep = exact <= exact[first + k - 1][qi]
        else:
            keep = np.arange(qi.size) - first[qi] < k
        counts = np.bincount(qi[keep], minlength=n)
        offsets.append(offsets[-1][-1] + np.cumsum(counts))
        index.append(ci[keep])
        sq_dist.append(exact[keep])
    return Neighbors(np.concatenate(offsets), np.concatenate(index),
                     np.concatenate(sq_dist))
