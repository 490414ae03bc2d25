"""Independent reference implementations used to cross-check the library.

Everything here is written the slow, obvious way: python loops, exact
integer or Fraction arithmetic where the quantity is rational, and
plain lists instead of arrays.  Agreement between these and the fast
numpy paths is therefore meaningful evidence, not a tautology.

The tree builders are the exception: they are the per-node, per-feature
sorting search that the presorted split kernel replaced. Each keeps its
own node list, sharing no tree-growing code with the library, in the
library's node order (the root first; a split appends its left child,
then its right), so that trees can be compared bit for bit. So are the
per-point grid search, which trains every grid point in every fold, the
``--save-models`` writer that retrains every final model to save it, and
the row-wise LOF, which keeps a neighbour list for every row, copies of a
row included, the CSV loader and category encoders that read, impute
and encode one cell at a time, the full-model scoring loops of the
forest and the boosted trees, which sum over every tree in one pass
instead of reading the last stage of the staged loop, and the level-wise
tree router, which moves every unfinished row down one level per step
instead of splitting each node's own rows.
"""

import csv
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from flowguard import classifiers as clf
from flowguard.classifiers.tree import LEAF, TreeNodes
from flowguard.dataset import (DEFAULT_LABEL_COLUMN, MISSING_TOKENS, Dataset,
                               LoadError, stratified_split)
from flowguard.distance import sq_dists
from flowguard.experiment import (FoldResult, GridPoint, GridSearchOutcome,
                                  _accuracy, fit_track_pipeline)
from flowguard.preprocess import LOF_DENSITY_EPS, _require_numeric, scaler_to_dict


def confusion_counts(y_true, y_pred):
    tp = tn = fp = fn = 0
    for t, p in zip(y_true, y_pred):
        if t == 1 and p == 1:
            tp += 1
        elif t == 0 and p == 0:
            tn += 1
        elif t == 0 and p == 1:
            fp += 1
        else:
            fn += 1
    return tp, tn, fp, fn


def core_metric_values(tp, tn, fp, fn):
    """Exact rational accuracy/precision/recall/f1, returned as floats.

    Degenerate ratios (empty denominator) come back as 0.0, matching the
    convention that flagged metrics report zero.
    """
    total = tp + tn + fp + fn
    acc = Fraction(tp + tn, total)
    prec = Fraction(tp, tp + fp) if tp + fp > 0 else Fraction(0)
    rec = Fraction(tp, tp + fn) if tp + fn > 0 else Fraction(0)
    if (tp + fp > 0 or tp + fn > 0) and prec + rec > 0:
        f1 = 2 * prec * rec / (prec + rec)
    else:
        f1 = Fraction(0)
    return float(acc), float(prec), float(rec), float(f1)


def kappa_value(tp, tn, fp, fn):
    n = tp + tn + fp + fn
    p_o = Fraction(tp + tn, n)
    p_e = Fraction((tp + fp) * (tp + fn) + (tn + fn) * (tn + fp), n * n)
    if p_e == 1:
        return 0.0
    return float((p_o - p_e) / (1 - p_e))


def mcc_value(tp, tn, fp, fn):
    denom = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    if denom == 0:
        return 0.0
    return (tp * tn - fp * fn) / math.sqrt(denom)


def brier_value(y_true, probs):
    total = 0.0
    for t, p in zip(y_true, probs):
        total += (p - t) ** 2
    return total / len(y_true)


def auc_pairwise(y_true, scores):
    """Mann-Whitney concordance: P(score_pos > score_neg), ties count 1/2."""
    pos = [s for t, s in zip(y_true, scores) if t == 1]
    neg = [s for t, s in zip(y_true, scores) if t == 0]
    total = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                total += 1.0
            elif sp == sn:
                total += 0.5
    return total / (len(pos) * len(neg))


def lof_brute(X, k, eps=1e-10):
    """Textbook LOF with per-point loops.  X is a list of row tuples."""
    n = len(X)
    dist = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            s = 0.0
            for a, b in zip(X[i], X[j]):
                d = a - b
                s += d * d
            dist[i][j] = math.sqrt(s)
    k_dist = []
    neighbors = []
    for i in range(n):
        others = sorted(dist[i][j] for j in range(n) if j != i)
        kd = others[k - 1]
        k_dist.append(kd)
        neighbors.append([j for j in range(n) if j != i and dist[i][j] <= kd])
    lrd = []
    for i in range(n):
        reach = [max(dist[i][j], k_dist[j]) for j in neighbors[i]]
        mean_reach = sum(reach) / len(reach)
        lrd.append(1.0 / max(mean_reach, eps))
    scores = []
    for i in range(n):
        ratio = sum(lrd[j] for j in neighbors[i]) / len(neighbors[i])
        scores.append(ratio / lrd[i])
    return scores


def lof_scores_rowwise(ds: Dataset, k_neighbors: int) -> np.ndarray:
    """Classic local outlier factor for every row.

    k-distance(p) is the distance to p's k-th nearest other row; the
    neighborhood is every other row within that distance (ties included, so
    it can exceed k). reach-dist(p, o) = max(k-distance(o), d(p, o)); local
    reachability density is the inverse mean reach distance, substituting
    1/LOF_DENSITY_EPS when that mean is exactly zero (duplicate-heavy data);
    the score is the mean ratio of neighbor densities to own density.
    Scores near 1 mean inlier.

    Every row's neighborhood is read off the dense exact distance matrix
    (``sq_dists``) in stable argsort order, (distance, row index), without
    the neighbour kernel that ``lof_scores`` uses; k-distances, densities and
    scores are then summed over those lists in that order.
    """
    _require_numeric(ds, "lof_scores")
    n = ds.n_rows
    if not 0 < k_neighbors < n:
        raise ValueError(f"k_neighbors must lie in [1, {n - 1}], got {k_neighbors}")
    D = sq_dists(ds.X, ds.X)
    np.fill_diagonal(D, np.inf)
    order = np.argsort(D, axis=1, kind="stable")
    kd2 = D[np.arange(n), order[:, k_neighbors - 1]]
    # Each row's tie-inclusive neighborhood: the sorted prefix within kd2.
    lists = [row_order[D[i, row_order] <= kd2[i]] for i, row_order in enumerate(order)]
    count = np.array([len(members) for members in lists])
    index = np.concatenate(lists)
    owner = np.repeat(np.arange(n), count)
    reach = np.sqrt(np.maximum(D[owner, index], kd2[index]))
    mean_reach = np.bincount(owner, weights=reach, minlength=n) / count
    with np.errstate(divide="ignore"):
        lrd = np.where(mean_reach == 0.0, 1.0 / LOF_DENSITY_EPS, 1.0 / mean_reach)
    neighbor_lrd = np.bincount(owner, weights=lrd[index], minlength=n)
    return neighbor_lrd / count / lrd


def knn_predict_brute(train_X, train_y, query, k):
    """Nearest-neighbor vote with the documented tie rules.

    Neighbor ties on distance resolve to the lower training index; an even
    vote split resolves to the single nearest neighbor's label.  Returns
    (label, positive_vote_fraction).
    """
    dists = []
    for idx, row in enumerate(train_X):
        s = 0.0
        for a, b in zip(row, query):
            d = a - b
            s += d * d
        dists.append((s, idx))
    dists.sort()
    chosen = dists[:k]
    votes = sum(train_y[idx] for _, idx in chosen)
    if 2 * votes == k:
        label = train_y[chosen[0][1]]
    else:
        label = 1 if 2 * votes > k else 0
    return label, votes / k


def trapezoid_area(xs, ys):
    total = 0.0
    for i in range(1, len(xs)):
        total += (xs[i] - xs[i - 1]) * (ys[i] + ys[i - 1]) / 2.0
    return total


# Tree builders that sort every candidate feature at every node, one
# feature at a time: the split search the presorted kernel replaced.

def _gini_best_split(X, y, idx, features):
    """Best (feature, threshold, decrease) over candidate features, or None.

    Thresholds are midpoints between consecutive distinct sorted values.
    First feature in candidate order and lowest boundary win ties (strict >).
    """
    ysub = y[idx]
    n = len(idx)
    pos_total = int(ysub.sum())
    p = pos_total / n
    gini_node = 1.0 - p * p - (1.0 - p) * (1.0 - p)
    if gini_node == 0.0:
        return None

    best = None
    best_dec = 0.0
    for f in features:
        xs = X[idx, f]
        order = np.argsort(xs, kind="stable")
        xsort = xs[order]
        boundaries = np.flatnonzero(xsort[:-1] < xsort[1:])
        if len(boundaries) == 0:
            continue
        cpos = np.cumsum(ysub[order])
        n_left = boundaries + 1.0
        pos_left = cpos[boundaries]
        n_right = n - n_left
        pos_right = pos_total - pos_left
        pl = pos_left / n_left
        pr = pos_right / n_right
        gini_left = 1.0 - pl * pl - (1.0 - pl) ** 2
        gini_right = 1.0 - pr * pr - (1.0 - pr) ** 2
        weighted = (n_left * gini_left + n_right * gini_right) / n
        decrease = gini_node - weighted
        j = int(np.argmax(decrease))
        if decrease[j] > best_dec:
            best_dec = float(decrease[j])
            thr = 0.5 * (xsort[boundaries[j]] + xsort[boundaries[j] + 1])
            best = (int(f), float(thr), best_dec)
    return best


def gini_tree_brute(X, y, max_depth, min_samples_split, n_candidate_features,
                    rng, importance=None) -> TreeNodes:
    """Greedy CART classification tree minimizing Gini impurity.

    ``n_candidate_features`` features are sampled per node without
    replacement; when none of them admits a positive-gain split the search
    widens to all features before giving up, so rows that differ anywhere
    can always be separated. Leaf value is the node's positive fraction.
    ``importance`` (length-d array, optional) accumulates per-feature
    impurity decrease weighted by node fraction.
    """
    n, d = X.shape
    nodes = [[LEAF, 0.0, LEAF, LEAF, 0.0]]  # feature, threshold, left, right, value
    stack = [(np.arange(n), 0, 0)]
    while stack:
        idx, depth, slot = stack.pop()
        n_node = len(idx)
        pos = int(y[idx].sum())
        nodes[slot][4] = pos / n_node
        if pos in (0, n_node) or n_node < min_samples_split or \
                (max_depth is not None and depth >= max_depth):
            continue
        if n_candidate_features < d:
            cand = rng.choice(d, size=n_candidate_features, replace=False)
        else:
            cand = np.arange(d)
        split = _gini_best_split(X, y, idx, cand)
        if split is None and n_candidate_features < d:
            split = _gini_best_split(X, y, idx, np.arange(d))
        if split is None:
            continue
        f, thr, dec = split
        if importance is not None:
            importance[f] += dec * (n_node / n)
        go_left = X[idx, f] < thr
        left = len(nodes)
        nodes[slot][:4] = f, thr, left, left + 1
        nodes += [[LEAF, 0.0, LEAF, LEAF, 0.0], [LEAF, 0.0, LEAF, LEAF, 0.0]]
        stack.append((idx[~go_left], depth + 1, left + 1))
        stack.append((idx[go_left], depth + 1, left))
    return TreeNodes(*zip(*nodes))


def _newton_best_split(X, g, h, idx, reg_lambda):
    """Best split by second-order gain; None when no split improves."""
    n = len(idx)
    gsub = g[idx]
    hsub = h[idx]
    G = float(gsub.sum())
    H = float(hsub.sum())
    parent = G * G / (H + reg_lambda)

    best = None
    best_gain = 0.0
    for f in range(X.shape[1]):
        xs = X[idx, f]
        order = np.argsort(xs, kind="stable")
        xsort = xs[order]
        boundaries = np.flatnonzero(xsort[:-1] < xsort[1:])
        if len(boundaries) == 0:
            continue
        cg = np.cumsum(gsub[order])
        ch = np.cumsum(hsub[order])
        GL = cg[boundaries]
        HL = ch[boundaries]
        GR = G - GL
        HR = H - HL
        gain = 0.5 * (GL * GL / (HL + reg_lambda) + GR * GR / (HR + reg_lambda)
                      - parent)
        j = int(np.argmax(gain))
        if gain[j] > best_gain:
            best_gain = float(gain[j])
            thr = 0.5 * (xsort[boundaries[j]] + xsort[boundaries[j] + 1])
            best = (f, float(thr))
    return best


def newton_tree_brute(X, g, h, max_depth, reg_lambda) -> TreeNodes:
    """Depth-limited regression tree on gradient/hessian statistics.

    Leaf weight is the Newton step -G / (H + lambda). Split search is
    exhaustive over features and distinct-value midpoints (deterministic,
    no sampling), keeping boosting fully reproducible without a seed.
    """
    n = X.shape[0]
    nodes = [[LEAF, 0.0, LEAF, LEAF, 0.0]]  # feature, threshold, left, right, value
    stack = [(np.arange(n), 0, 0)]
    while stack:
        idx, depth, slot = stack.pop()
        G = float(g[idx].sum())
        H = float(h[idx].sum())
        nodes[slot][4] = -G / (H + reg_lambda)
        if depth >= max_depth or len(idx) < 2:
            continue
        split = _newton_best_split(X, g, h, idx, reg_lambda)
        if split is None:
            continue
        f, thr = split
        go_left = X[idx, f] < thr
        left = len(nodes)
        nodes[slot][:4] = f, thr, left, left + 1
        nodes += [[LEAF, 0.0, LEAF, LEAF, 0.0], [LEAF, 0.0, LEAF, LEAF, 0.0]]
        stack.append((idx[~go_left], depth + 1, left + 1))
        stack.append((idx[go_left], depth + 1, left))
    return TreeNodes(*zip(*nodes))


@dataclass(frozen=True)
class CvResult:
    """One grid point's cross-validation: its folds and their mean."""
    mean_accuracy: float
    folds: tuple


def kfold_cv_brute(spec, fold_datasets) -> CvResult:
    """One model trained and scored per fold, under seed spec.seed + f."""
    results = []
    for f, (proc_tr, proc_va) in enumerate(fold_datasets):
        model = clf.train(spec.with_seed(spec.seed + f), proc_tr)
        train_acc = _accuracy(clf.predict(model, proc_tr), proc_tr)
        val_acc = _accuracy(clf.predict(model, proc_va), proc_va)
        results.append(FoldResult(fold=f, train_accuracy=train_acc,
                                  validation_accuracy=val_acc))
    mean = sum(r.validation_accuracy for r in results) / len(results)
    return CvResult(mean_accuracy=mean, folds=tuple(results))


def grid_search_brute(kind, grid, fold_datasets, seed) -> GridSearchOutcome:
    """Every grid point cross-validated on its own. Points are listed with
    the first-listed hyperparameter outermost, an order kept here apart from
    the library's, as it decides ties."""
    best = None
    trace = []
    for values in itertools.product(*grid.values()):
        params = dict(zip(grid, values))
        spec = clf.ModelSpec(kind=kind, hyperparameters=params, seed=seed)
        try:
            cv = kfold_cv_brute(spec, fold_datasets)
        except ValueError as exc:
            trace.append(GridPoint(params=dict(params), mean_cv_accuracy=None,
                                   error=str(exc)))
            continue
        trace.append(GridPoint(params=dict(params),
                               mean_cv_accuracy=cv.mean_accuracy))
        if best is None or cv.mean_accuracy > best[1].mean_accuracy:
            best = (spec, cv)
    if best is None:
        raise ValueError(f"every grid combination failed for {kind}")
    spec, cv = best
    return GridSearchOutcome(best_spec=spec, mean_cv_accuracy=cv.mean_accuracy,
                             folds=cv.folds, trace=tuple(trace))


def save_track_models_retrain(report, ds, out_dir, label_column):
    """Refit each track's pipeline and retrain its chosen models to save them."""
    cfg = report.config
    split = stratified_split(ds, cfg.split_ratio, cfg.seed)
    for track_report in report.tracks:
        smote_cfg = cfg.smote if track_report.track == "balanced" else None
        proc_train, state = fit_track_pipeline(split.train, smote_cfg, cfg.lof,
                                               cfg.select_top_m, select_seed=cfg.seed)
        pipeline = {
            "scaler": scaler_to_dict(state.scaler),
            "category_maps": {k: list(v) for k, v in ds.category_maps.items()},
            "label_column": label_column,
            "feature_names": list(split.train.feature_names),
            "selected": None if state.selected is None else list(state.selected),
        }
        for m in track_report.models:
            spec = clf.ModelSpec(kind=m.kind, hyperparameters=m.hyperparameters,
                                 seed=cfg.seed)
            model = clf.train(spec, proc_train)
            path = out_dir / f"model_{m.name}_{track_report.track}.json"
            clf.save_model(model, path, pipeline=pipeline)


# --- cell-at-a-time CSV ingest and category encoding -------------------

def _is_missing(cell: str) -> bool:
    return cell.strip().lower() in MISSING_TOKENS


def load_csv_cellwise(path, label_column: str = DEFAULT_LABEL_COLUMN) -> Dataset:
    """Read a header-mandatory UTF-8 CSV into a Dataset.

    Columns are typed numeric when every non-missing value parses as a finite
    number, categorical otherwise. Label values must be 0 or 1; violations
    raise LoadError naming the offending data row (1-based, excluding the
    header).
    """
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise LoadError(f"cannot open dataset file {path!r}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise LoadError(f"{path!r} is empty; a header row is mandatory") from None
        except csv.Error as exc:
            raise LoadError(f"header: {exc}") from exc
        dupes = [name for name, cnt in Counter(header).items() if cnt > 1]
        if dupes:
            raise LoadError(f"duplicate column name(s) in header: {sorted(dupes)}")
        if label_column not in header:
            raise LoadError(f"label column {label_column!r} not found in header {header}")
        label_idx = header.index(label_column)
        feature_names = tuple(h for i, h in enumerate(header) if i != label_idx)

        rows = []
        labels = []
        try:
            for row_no, row in enumerate(reader, start=1):
                if len(row) != len(header):
                    raise LoadError(
                        f"row {row_no}: expected {len(header)} fields, got {len(row)}")
                cell = row[label_idx]
                try:
                    val = float(cell)
                except ValueError:
                    raise LoadError(
                        f"row {row_no}: label {cell!r} is not a number") from None
                if val not in (0.0, 1.0):
                    raise LoadError(f"row {row_no}: label {cell!r} outside {{0, 1}}")
                labels.append(int(val))
                rows.append([c for i, c in enumerate(row) if i != label_idx])
        except csv.Error as exc:
            raise LoadError(f"row {len(rows) + 1}: {exc}") from exc

    n, d = len(rows), len(feature_names)
    # Type each column: numeric iff all non-missing cells parse as finite floats.
    numeric_cols = []
    parsed = [[None] * d for _ in range(n)]
    for j in range(d):
        numeric = True
        for i in range(n):
            cell = rows[i][j]
            if _is_missing(cell):
                continue
            try:
                v = float(cell)
            except ValueError:
                numeric = False
                break
            if not math.isfinite(v):
                continue  # treated as a gap, filled by imputation
            parsed[i][j] = v
        numeric_cols.append(numeric)

    all_numeric = all(numeric_cols)
    X = np.empty((n, d), dtype=np.float64 if all_numeric else object)
    for j in range(d):
        if numeric_cols[j]:
            for i in range(n):
                v = parsed[i][j]
                X[i, j] = np.nan if v is None else v
        else:
            for i in range(n):
                cell = rows[i][j]
                X[i, j] = None if _is_missing(cell) else cell

    return Dataset(feature_names=feature_names, X=X, y=np.array(labels, dtype=np.int64),
                   provenance=str(path))


def _column_is_categorical(col) -> bool:
    return any(isinstance(v, str) for v in col)


def impute_missing_cellwise(ds: Dataset) -> Dataset:
    """Fill gaps: numeric columns by their median, categorical by their mode.

    Mode ties break lexicographically smallest. A column with every value
    missing cannot be imputed and raises ValueError naming it. Idempotent.
    """
    if ds.is_numeric:
        X = np.array(ds.X, dtype=np.float64)
        for j in range(ds.n_features):
            col = X[:, j]
            gaps = np.isnan(col)
            if not gaps.any():
                continue
            if gaps.all():
                raise ValueError(f"column {ds.feature_names[j]!r} is entirely missing")
            col[gaps] = float(np.median(col[~gaps]))
        return ds.replace(X=X)

    X = np.array(ds.X, dtype=object)
    for j in range(ds.n_features):
        col = list(X[:, j])
        present = [v for v in col
                   if v is not None and not (isinstance(v, float) and math.isnan(v))]
        if not present:
            raise ValueError(f"column {ds.feature_names[j]!r} is entirely missing")
        if _column_is_categorical(present):
            counts = Counter(present)
            top = max(counts.values())
            fill = min(tok for tok, c in counts.items() if c == top)
        else:
            fill = float(np.median(np.array(present, dtype=np.float64)))
        for i, v in enumerate(col):
            if v is None or (isinstance(v, float) and math.isnan(v)):
                X[i, j] = fill
    return ds.replace(X=X)


def encode_categoricals_cellwise(ds: Dataset) -> Dataset:
    """Map each categorical column to integer codes by first appearance.

    Codes run 0, 1, 2, ... in order of first occurrence. The per-column
    token order is recorded in the returned dataset's ``category_maps`` for
    reuse on later data (see apply_category_maps). All-numeric input is
    returned unchanged. Requires missing values to be imputed first.
    """
    if ds.is_numeric:
        if np.isnan(ds.X).any():
            raise ValueError("impute missing values before encoding")
        return ds

    maps = dict(ds.category_maps)
    X = np.empty(ds.X.shape, dtype=np.float64)
    for j in range(ds.n_features):
        col = list(ds.X[:, j])
        for v in col:
            if v is None or (isinstance(v, float) and math.isnan(v)):
                raise ValueError("impute missing values before encoding")
        if _column_is_categorical(col):
            order = []
            codes = {}
            for v in col:
                tok = str(v)
                if tok not in codes:
                    codes[tok] = len(order)
                    order.append(tok)
            maps[ds.feature_names[j]] = tuple(order)
            X[:, j] = [codes[str(v)] for v in col]
        else:
            X[:, j] = [float(v) for v in col]
    return ds.replace(X=X, category_maps=maps)


def apply_category_maps_cellwise(ds: Dataset, maps: dict) -> Dataset:
    """Encode categorical columns using previously recorded token orders.

    Tokens unseen at fit time get code = count of known categories for that
    column. Columns not named in ``maps`` must already be numeric.
    """
    if ds.is_numeric:
        return ds
    X = np.empty(ds.X.shape, dtype=np.float64)
    for j, name in enumerate(ds.feature_names):
        col = list(ds.X[:, j])
        if name in maps:
            known = {tok: code for code, tok in enumerate(maps[name])}
            unseen = len(known)
            X[:, j] = [known.get(str(v), unseen) for v in col]
        else:
            if _column_is_categorical(col):
                raise ValueError(f"no category map for categorical column {name!r}")
            X[:, j] = [float(v) for v in col]
    return ds.replace(X=X, category_maps=dict(maps))


# --- tree routing and full-model scoring of the tree ensembles ----------

def tree_apply_levelwise(tree: TreeNodes, X) -> np.ndarray:
    """Leaf value for every row: each step moves every row that is not yet
    at a leaf to its child, until all rows are at leaves."""
    X = np.asarray(X, dtype=np.float64)
    cur = np.zeros(X.shape[0], dtype=np.int64)
    active = np.flatnonzero(tree.feature[cur] != LEAF)
    while len(active):
        nodes = cur[active]
        f = tree.feature[nodes]
        go_left = X[active, f] < tree.threshold[nodes]
        cur[active] = np.where(go_left, tree.left[nodes], tree.right[nodes])
        active = active[tree.feature[cur[active]] != LEAF]
    return tree.value[cur]


def forest_vote_fraction(model, X) -> np.ndarray:
    """Fraction of a random forest's trees whose leaf value is >= 0.5."""
    X = np.asarray(X, dtype=np.float64)
    votes = np.zeros(X.shape[0], dtype=np.int64)
    for tree in model.trees:
        votes += tree_apply_levelwise(tree, X) >= 0.5
    return votes / len(model.trees)


def boosting_raw_scores(model, X) -> np.ndarray:
    """Raw score of boosted trees: every tree's output times the learning
    rate, summed in tree order."""
    X = np.asarray(X, dtype=np.float64)
    eta = model.spec.hyperparameters["learning_rate"]
    scores = np.zeros(X.shape[0], dtype=np.float64)
    for tree in model.trees:
        scores += eta * tree_apply_levelwise(tree, X)
    return scores
