"""Flat-array binary decision trees shared by the forest and boosting models.

Trees are stored as parallel arrays (feature, threshold, left, right, value)
rather than linked nodes: construction is an explicit stack, application
splits each internal node's own rows with one gather and compare, and
serialization is a dict of lists with no recursion anywhere. Every child
comes after its parent in the arrays, so routing always reaches a leaf.

Both learners sort each column once per fit (``presort``) and never at a
node. A node is a subset of the fit's rows in that order: its rows
ascending (``idx``), and (d, m) its rows by ascending value of each feature
(``rows``). A child's are its parent's, filtered by the side of the split
each row falls on, and filtering keeps order. So within a node equal values
stay in ascending row order, the order a stable sort of the node's rows
would give, and cumulative sums, node sums over ``idx`` and tie-breaks all
run as they would with per-node sorting.

A forest's tree grows on the rows its bootstrap drew, each with its draw
count: its root holds the rows with a nonzero count, and a node's size and
positives are count-weighted sums. The counts are whole numbers, so every
sum is exact and the tree is, bit for bit, the one grown on the drawn copy.

Both learners split a node by one rule. One kernel scores every candidate
feature of the node in a single (features x rows) block, at its boundaries
between distinct values alone. The split is the first largest gain in
(candidate, boundary) order; the gain must be > 0, and the threshold is the
midpoint of the two values.

A boosting fit, where X never changes, goes further: ``NodeLayouts`` keeps
each node's layout (its rows, their order by each feature and its
boundaries between distinct values) under the node's path of splits from
the root. The root's layout is built once per fit, and a child's once
per distinct split path, however many rounds split the same way. The store
is capped at ``_STORE_BYTES``, dropping the layouts used least recently,
so a fit on many rows holds a few megabytes of layouts besides its root's.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import chain

import numpy as np

LEAF = -1


@dataclass
class TreeNodes:
    feature: np.ndarray    # int64, LEAF marks a leaf
    threshold: np.ndarray  # float64, split value (go left when x < threshold)
    left: np.ndarray       # int64 child index
    right: np.ndarray      # int64 child index
    value: np.ndarray      # float64 leaf payload

    def __post_init__(self):
        for name, dtype in _FIELD_DTYPES:
            setattr(self, name, np.asarray(getattr(self, name), dtype=dtype))

    def to_state(self) -> dict:
        return {name: getattr(self, name).tolist() for name, _ in _FIELD_DTYPES}


_FIELD_DTYPES = tuple((f.name, np.float64 if f.name in ("threshold", "value")
                       else np.int64) for f in fields(TreeNodes))


def trees_from_state(states, count, arity) -> list:
    """The ``count`` trees that ``TreeNodes.to_state`` wrote, for rows of
    ``arity`` features.

    ValueError unless each is a tree ``_grow`` could have made: five
    lists of numbers of one length, each feature LEAF or a column index,
    and each internal node's children after it in its arrays. Each field of
    all trees is converted in one pass, and the checks run once over the
    nodes of all trees together.
    """
    if len(states) != count:
        raise ValueError(f"state holds {len(states)} trees, not {count}")
    names = [name for name, _ in _FIELD_DTYPES]
    sizes = [len(s["feature"]) if type(s["feature"]) is list else 0 for s in states]
    for s, n in zip(states, sizes):
        if not (n > 0 and all(type(s[name]) is list and len(s[name]) == n
                              for name in names)):
            raise ValueError("tree arrays must be non-empty lists of one length")
    columns = {}
    for name, dtype in _FIELD_DTYPES:
        columns[name] = np.array(list(chain.from_iterable(s[name] for s in states)),
                                 dtype=dtype)
        if columns[name].shape != (sum(sizes),):
            raise ValueError(f"tree {name} entries must be numbers")
    feature, left, right = columns["feature"], columns["left"], columns["right"]
    # each node's index within its tree, and its tree's node count
    node = np.arange(feature.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    n = np.repeat(sizes, sizes)
    leaf = feature == LEAF
    if not np.all(leaf | (feature >= 0) & (feature < arity)):
        raise ValueError(f"tree splits on a feature outside [0, {arity})")
    if not np.all(leaf | (np.minimum(left, right) > node) & (np.maximum(left, right) < n)):
        raise ValueError("tree node has a child that does not come after it")
    ends = np.cumsum(sizes).tolist()
    return [TreeNodes(*(columns[name][start:end] for name in names))
            for start, end in zip([0] + ends, ends)]


def presort(X) -> np.ndarray:
    """Row order of every column, stably sorted: a (d, n) int64 array.

    Row f lists the rows of ``X`` by ascending ``X[:, f]``, equal values
    (-0.0 and 0.0 among them) in ascending row order and NaN last.
    """
    return np.argsort(X.T, axis=1, kind="stable")


def _grow(root, split_node, children) -> TreeNodes:
    """Grow a tree depth-first from the node ``root``.

    ``split_node(node, depth)`` returns the node's value and its split
    ``(feature, threshold)``, or None for a leaf; ``children(node, depth,
    feature, threshold)`` returns its (left, right) nodes.
    """
    leaf = [LEAF, 0.0, LEAF, LEAF, 0.0]  # feature, threshold, left, right, value
    nodes = [leaf.copy()]
    stack = [(root, 0, 0)]
    while stack:
        node, depth, slot = stack.pop()
        nodes[slot][4], split = split_node(node, depth)
        if split is None:
            continue
        f, thr = split
        left = len(nodes)
        nodes[slot][:4] = f, thr, left, left + 1
        nodes += [leaf.copy(), leaf.copy()]
        lo, hi = children(node, depth, f, thr)
        stack.append((hi, depth + 1, left + 1))
        stack.append((lo, depth + 1, left))
    return TreeNodes(*zip(*nodes))


def build_gini_tree(X, y, counts, max_depth, min_samples_split,
                    n_candidate_features, rng, importance, order) -> TreeNodes:
    """Greedy CART classification tree minimizing Gini impurity, grown on
    row i of (X, y) taken ``counts[i]`` times.

    ``n_candidate_features`` features are sampled per node without
    replacement; when none of them admits a positive-gain split the search
    widens to all features before giving up, so rows that differ anywhere
    can always be separated. A node's size and positives are count-weighted
    sums, and its leaf value is its positive fraction. ``importance``
    (length-d array) accumulates per-feature impurity decrease weighted by
    the node's share of the total count. ``order`` is ``presort(X)``.

    A node is ``(idx, rows)``, as the module docstring says, over the rows
    with a nonzero count.
    """
    d = X.shape[1]
    everything = np.arange(d)
    # count and count-weighted label in one array: one gather and one
    # cumulative sum give both, each part summed exactly
    weights = np.empty(X.shape[0], dtype=np.complex128)
    weights.real = counts
    weights.imag = counts * y
    n = int(counts.sum())

    def search(rows, cand, n_node, pos_total, gini_node):
        rows = rows[cand]
        m = rows.shape[1]
        xs = X[rows, cand[:, None]]
        k = np.flatnonzero(xs[:, :-1] < xs[:, 1:])  # in (len(cand), m - 1)
        if not len(k):
            return None
        bounds = k + k // (m - 1)
        sums = np.cumsum(weights.take(rows), axis=1).take(bounds)
        n_left, pos_left = sums.real, sums.imag
        n_right = n_node - n_left
        pos_right = pos_total - pos_left
        pl = pos_left / n_left
        pr = pos_right / n_right
        gini_left = 1.0 - pl * pl - (1.0 - pl) ** 2
        gini_right = 1.0 - pr * pr - (1.0 - pr) ** 2
        gain = gini_node - (n_left * gini_left + n_right * gini_right) / n_node
        b = int(gain.argmax())
        if not gain[b] > 0.0:
            return None
        f, j = divmod(int(bounds[b]), m)
        return int(cand[f]), float(0.5 * (xs[f, j] + xs[f, j + 1])), float(gain[b])

    def split_node(node, depth):
        idx, rows = node
        total = weights.take(idx).sum()
        n_node, pos = int(total.real), int(total.imag)
        p = pos / n_node
        if pos in (0, n_node) or n_node < min_samples_split or \
                (max_depth is not None and depth >= max_depth):
            return p, None
        gini_node = 1.0 - p * p - (1.0 - p) * (1.0 - p)
        if n_candidate_features < d:
            cand = rng.choice(d, size=n_candidate_features, replace=False)
        else:
            cand = everything
        split = search(rows, cand, n_node, pos, gini_node)
        if split is None and n_candidate_features < d:
            split = search(rows, everything, n_node, pos, gini_node)
        if split is None:
            return p, None
        f, thr, dec = split
        importance[f] += dec * (n_node / n)
        return p, (f, thr)

    def children(node, depth, f, thr):
        idx, rows = node
        col = X[:, f]
        go_left = col[idx] < thr
        side = col[rows] < thr
        return ((idx[go_left], rows[side].reshape(d, -1)),
                (idx[~go_left], rows[~side].reshape(d, -1)))

    drawn = counts.take(order) > 0
    return _grow((np.flatnonzero(counts), order[drawn].reshape(d, -1)),
                 split_node, children)


# Most bytes of arrays a boosting fit's layout store keeps, its root's not
# counted: a fit on a few hundred rows loses no reuse to it, and a larger
# fit's store stays bounded.
_STORE_BYTES = 4 << 20


class NodeLayouts:
    """The layouts of one boosting fit's nodes, kept across its rounds.

    X does not change between rounds, so a node's rows, and their order by
    each feature, depend only on its path of splits from the root. A layout
    is ``(idx, rows, bounds)``: the node's m rows ascending; (d, m) its rows
    by ascending value of each feature; and the positions ``f * m + j`` in
    ``rows`` after which feature f's value rises (its boundaries between
    distinct values), ascending. The root's is built once per fit, and a
    child's once per distinct split path ``((feature, threshold, went_left),
    ...)`` from its parent's: filtering by the side each row falls on keeps
    order. So within a node equal values stay in ascending row order, the
    order a stable sort of the node's rows would give, and a layout served
    from the store is the one building it again would give.

    The store keeps at most ``_STORE_BYTES`` of layouts; to keep a new one
    it drops those used least recently. ``hits`` counts the child layouts
    it served, ``nbytes`` the bytes it holds.
    """

    def __init__(self, X):
        n, d = X.shape
        self.columns = np.ascontiguousarray(X.T)  # (d, n): one feature per row
        self._starts = np.arange(0, d * n, n)[:, None]  # of each column, flat
        self.root = self._layout(np.arange(n), presort(X))
        self.hits = 0
        self.nbytes = 0
        self._store = {}  # path -> layout, least recently used first

    def children(self, path, layout, f, thr, searched):
        """The (path, layout) of both children of a node split on feature
        ``f`` at ``thr``. A child that is not ``searched``, or holds one
        row, gets ``idx`` alone: the rest of its layout is None."""
        idx, rows, _ = layout
        col = self.columns[f]
        go_left = col.take(idx) < thr
        side = None
        out = []
        for went_left in (True, False):
            child = path + ((f, thr, went_left),)
            built = self._store.pop(child, None) if searched else None
            if built is not None:
                self.hits += 1
                self._store[child] = built  # now the most recently used
                out.append((child, built))
                continue
            child_idx = idx.compress(go_left == went_left)
            m = len(child_idx)
            if not searched or m < 2:
                out.append((child, (child_idx, None, None)))
                continue
            if side is None:
                side = col.take(rows) < thr
            built = self._layout(child_idx,
                                 rows.compress((side == went_left).ravel()).reshape(-1, m))
            self._keep(child, built)
            out.append((child, built))
        return out

    def _keep(self, path, layout):
        """Store ``layout``, dropping the least recently used layouts to make
        room; one larger than the whole store is not kept."""
        size = sum(a.nbytes for a in layout)
        if size > _STORE_BYTES:
            return
        while self.nbytes + size > _STORE_BYTES:
            self.nbytes -= sum(a.nbytes for a in self._store.pop(next(iter(self._store))))
        self._store[path] = layout
        self.nbytes += size

    def _layout(self, idx, rows):
        """A node's layout from its rows ascending, and by value."""
        values = self.columns.take(rows + self._starts)
        k = np.flatnonzero(values[:, :-1] < values[:, 1:])  # in (d, m - 1)
        return idx, rows, k + k // (len(idx) - 1)


def build_newton_tree(X, g, h, max_depth, reg_lambda, layouts):
    """Depth-limited regression tree on gradient/hessian statistics.

    Leaf weight is the Newton step -G / (H + lambda). Split search is
    exhaustive over features and distinct-value midpoints (deterministic,
    no sampling), keeping boosting fully reproducible without a seed.
    ``layouts`` is ``NodeLayouts(X)``, which one boosting fit shares among
    its rounds. Returns the tree and each row's leaf value, which is
    ``tree_apply(tree, X)`` read off the grown leaves.

    A node packs g and h into one complex array, so one gather and one
    cumulative sum give both GL and HL: complex addition adds the parts
    separately, so each is the sum ``np.cumsum`` of that part would give.
    The gain is computed at the node's boundaries alone, in place, with the
    operations of the formula in its order. The best split is the first
    maximum in (feature, boundary) order: the first boundary of the first
    feature that reaches it. A split needs gain strictly > 0.
    """
    gh = np.empty(X.shape[0], dtype=np.complex128)
    gh.real = g
    gh.imag = h
    fitted = np.empty(X.shape[0], dtype=np.float64)

    def split_node(node, depth):
        idx, rows, bounds = node[1]
        G = float(g[idx].sum())
        H = float(h[idx].sum())
        value = -G / (H + reg_lambda)
        if depth < max_depth and len(idx) >= 2 and len(bounds):
            sums = np.cumsum(gh.take(rows), axis=1).take(bounds)
            GL, HL = sums.real, sums.imag
            # 0.5 * (GL**2 / (HL + lambda) + GR**2 / (HR + lambda) - parent)
            gain = GL * GL
            right = HL + reg_lambda
            gain /= right
            GR = G - GL
            GR *= GR
            np.subtract(H, HL, out=right)
            right += reg_lambda
            GR /= right
            gain += GR
            gain -= G * G / (H + reg_lambda)
            gain *= 0.5
            k = int(gain.argmax())
            if gain[k] > 0.0:
                f, j = divmod(int(bounds[k]), len(idx))
                col = layouts.columns[f]
                return value, (f, float(0.5 * (col[rows[f, j]] + col[rows[f, j + 1]])))
        fitted[idx] = value
        return value, None

    def children(node, depth, f, thr):
        return layouts.children(*node, f, thr, searched=depth + 1 < max_depth)

    return _grow(((), layouts.root), split_node, children), fitted


def tree_apply(tree: TreeNodes, X) -> np.ndarray:
    """Leaf value for every row.

    Each internal node splits its own rows with one gather and compare
    (``x < threshold`` goes left, so NaN goes right), and each leaf writes
    its value to the rows that reach it. A node that no row reaches does no
    work.
    """
    X = np.asarray(X, dtype=np.float64)
    out = np.empty(X.shape[0], dtype=np.float64)
    feature, threshold = tree.feature.tolist(), tree.threshold.tolist()
    left, right, value = tree.left.tolist(), tree.right.tolist(), tree.value.tolist()
    stack = [(0, np.arange(X.shape[0]))]
    while stack:
        node, idx = stack.pop()
        f = feature[node]
        if f == LEAF:
            out[idx] = value[node]
            continue
        go_left = X[:, f].take(idx) < threshold[node]
        rows = idx[go_left]
        if len(rows):
            stack.append((left[node], rows))
        rows = idx[~go_left]
        if len(rows):
            stack.append((right[node], rows))
    return out
