"""Training-partition preprocessing: standardization, SMOTE, LOF cleaning.

Pipeline order when everything is enabled: SMOTE the training partition,
remove its outliers by local outlier factor, then fit the scaler on what
remains. Test data only ever sees the fitted scaler.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .dataset import Dataset
from .distance import distinct_neighbors, nearest

# Substitute reachability density for duplicate-heavy neighborhoods whose
# mean reachability distance is exactly zero.
LOF_DENSITY_EPS = 1e-10


@dataclass(frozen=True)
class Scaler:
    """Per-feature standardization parameters fitted on training data."""

    mean: np.ndarray
    scale: np.ndarray
    constant_mask: np.ndarray

    def __post_init__(self):
        for f in fields(self):
            arr = np.array(getattr(self, f.name),
                           dtype=bool if f.name == "constant_mask" else np.float64)
            arr.flags.writeable = False
            object.__setattr__(self, f.name, arr)
        if self.mean.ndim != 1 or not (self.mean.shape == self.scale.shape
                                       == self.constant_mask.shape):
            raise ValueError("scaler mean, scale and constant_mask must be 1-d "
                             "arrays of one length")
        if not (np.isfinite(self.mean).all() and np.isfinite(self.scale).all()):
            raise ValueError("scaler mean and scale must be finite")
        if not (self.scale > 0).all():
            raise ValueError("scaler scale must be positive")

    @property
    def n_features(self):
        return len(self.mean)


@dataclass(frozen=True)
class SmoteConfig:
    k_neighbors: int = 5
    target_ratio: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.k_neighbors < 1:
            raise ValueError("k_neighbors must be >= 1")
        if not 0 < self.target_ratio < np.inf:
            raise ValueError("target_ratio must be positive and finite")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class LofConfig:
    k_neighbors: int = 20
    threshold: float = 1.5

    def __post_init__(self):
        if self.k_neighbors < 1:
            raise ValueError("k_neighbors must be >= 1")
        if not 1.0 < self.threshold < np.inf:
            raise ValueError("threshold must be finite and exceed 1.0 (LOF of "
                             "uniform data)")


@dataclass(frozen=True)
class OutlierRemoval:
    dataset: Dataset
    removed_count: int
    scores: np.ndarray


def _require_numeric(ds: Dataset, op: str) -> None:
    if not ds.is_numeric:
        raise ValueError(f"{op} requires a numeric (encoded) dataset")


def fit_scaler(train: Dataset) -> Scaler:
    """Per-feature mean and population (1/n) standard deviation.

    Columns whose values are all identical get scale 1 and are flagged in
    constant_mask for the report. Standardization maps them to x - mean,
    not always exactly zero: seven 0.1 values have mean 0.10000000000000002.
    A column whose standard deviation underflows to 0 without being
    constant, such as [0, 5e-324], also gets scale 1, unflagged.
    """
    _require_numeric(train, "fit_scaler")
    if train.n_rows == 0:
        raise ValueError("cannot fit a scaler on an empty dataset")
    X = train.X
    mean = X.mean(axis=0)
    # Exact all-equal test, not std == 0: float means leave ~1e-17 residual
    # std on genuinely constant columns.
    constant = np.all(X == X[0], axis=0)
    scale = np.sqrt(X.var(axis=0))
    scale = np.where(constant | (scale == 0.0), 1.0, scale)
    return Scaler(mean=mean, scale=scale, constant_mask=constant)


def apply_scaler(scaler: Scaler, ds: Dataset) -> Dataset:
    """(x - mean) / scale per feature; labels pass through untouched."""
    _require_numeric(ds, "apply_scaler")
    if ds.n_features != scaler.n_features:
        raise ValueError(
            f"scaler fitted on {scaler.n_features} features, dataset has {ds.n_features}")
    X = (ds.X - scaler.mean) / scaler.scale
    return ds.replace(X=X)


def scaler_to_dict(scaler: Scaler) -> dict:
    return {f.name: getattr(scaler, f.name).tolist() for f in fields(scaler)}


def scaler_from_dict(data: dict) -> Scaler:
    return Scaler(**{f.name: data[f.name] for f in fields(Scaler)})


def _minority_label(counts) -> int:
    # Equal counts: call class 1 the minority; with target_ratio <= 1 this
    # path synthesizes nothing anyway.
    return 1 if counts[1] <= counts[0] else 0


def smote_oversample(train: Dataset, cfg: SmoteConfig) -> Dataset:
    """Append interpolated minority samples until the class ratio hits target.

    Each synthetic row is x_i + u * (x_nn - x_i) with u ~ Uniform(0,1), where
    x_nn is one of the k nearest minority neighbors of minority row x_i
    (Euclidean; distance ties break toward the lower row index). Parents are
    visited round-robin. The original rows are preserved as an exact prefix.
    Never run this on a test partition.
    """
    _require_numeric(train, "smote_oversample")
    counts = {0: int(np.sum(train.y == 0)), 1: int(np.sum(train.y == 1))}
    if counts[0] == 0 or counts[1] == 0:
        raise ValueError("SMOTE needs both classes present")
    minority = _minority_label(counts)
    n_min, n_maj = counts[minority], counts[1 - minority]
    needed = int(round(cfg.target_ratio * n_maj)) - n_min
    if needed <= 0:
        return train.replace()
    if cfg.k_neighbors >= n_min:
        raise ValueError(
            f"k_neighbors={cfg.k_neighbors} must be < minority class size {n_min}")

    min_idx = np.flatnonzero(train.y == minority)
    Xm = np.ascontiguousarray(train.X[min_idx])
    k = cfg.k_neighbors
    # k nearest minority neighbors per minority row, self excluded, exact
    # distance ties in row-index order.
    neighbors = nearest(Xm, Xm, k, exclude_self=True)

    rng = np.random.default_rng(cfg.seed)
    synth = np.empty((needed, train.n_features), dtype=np.float64)
    for j in range(needed):
        i = j % n_min
        pick = int(rng.integers(k))
        u = rng.random()
        parent = Xm[i]
        synth[j] = parent + u * (Xm[neighbors[i, pick]] - parent)

    X = np.vstack([train.X, synth])
    y = np.concatenate([train.y, np.full(needed, minority, dtype=np.int64)])
    return train.replace(X=X, y=y)


def lof_scores(ds: Dataset, k_neighbors: int) -> np.ndarray:
    """Classic local outlier factor for every row.

    k-distance(p) is the distance to p's k-th nearest other row; the
    neighborhood is every other row within that distance (ties included, so
    it can exceed k). reach-dist(p, o) = max(k-distance(o), d(p, o)); local
    reachability density is the inverse mean reach distance, substituting
    1/LOF_DENSITY_EPS when that mean is exactly zero (duplicate-heavy data);
    the score is the mean ratio of neighbor densities to own density.
    Scores near 1 mean inlier.

    Only the k-distance neighborhoods are needed (Breunig et al., 2000), so
    one exact nearest-neighbor pass finds them all. Identical rows share
    them: ``distinct_neighbors`` gives each distinct row one list in
    (distance, row index) order, its own copies included at distance 0.
    Leaving out one copy gives the neighborhood of every copy as the same
    sequence of values, so the k-distance, density and score of a distinct
    row are computed once, summed in that order, and copied to its
    duplicates. A group of g identical rows thus costs O(g) memory, not
    g (g - 1) list entries. (Copies would see different sequences only if
    two distinct rows lay so close that their squared distance underflowed
    to 0, below about 1e-154 in every coordinate.)
    """
    _require_numeric(ds, "lof_scores")
    n = ds.n_rows
    if not 0 < k_neighbors < n:
        raise ValueError(f"k_neighbors must lie in [1, {n - 1}], got {k_neighbors}")
    # One pass finds every distinct row's tie-inclusive neighborhood, sorted
    # by distance; its last member sits at the k-distance.
    nb = distinct_neighbors(ds.X, ds.X, k_neighbors, exclude_self=True, ties=True)
    size = np.diff(nb.offsets)
    rows = size.size
    kd2 = nb.sq_dist[nb.offsets[1:] - 1]
    owner = np.repeat(np.arange(rows), size)
    # The first copy of each row leaves its own list.
    other = nb.index != nb.first[owner]
    owner, group, sq_dist = owner[other], nb.inverse[nb.index[other]], nb.sq_dist[other]
    count = size - 1
    reach = np.sqrt(np.maximum(sq_dist, kd2[group]))
    mean_reach = np.bincount(owner, weights=reach, minlength=rows) / count
    with np.errstate(divide="ignore"):
        lrd = np.where(mean_reach == 0.0, 1.0 / LOF_DENSITY_EPS, 1.0 / mean_reach)
    neighbor_lrd = np.bincount(owner, weights=lrd[group], minlength=rows)
    return (neighbor_lrd / count / lrd)[nb.inverse]


def remove_outliers(train: Dataset, cfg: LofConfig) -> OutlierRemoval:
    """Drop training rows whose LOF score exceeds the threshold.

    Training data only. Raises if removal would empty either class.
    """
    scores = lof_scores(train, cfg.k_neighbors)
    keep = scores <= cfg.threshold
    for cls in (0, 1):
        cls_mask = train.y == cls
        if cls_mask.any() and not (keep & cls_mask).any():
            raise ValueError(
                f"outlier removal would delete every class-{cls} training record")
    kept = train.take(np.flatnonzero(keep))
    return OutlierRemoval(dataset=kept, removed_count=int(np.sum(~keep)), scores=scores)
