"""Loading, cleaning, encoding, and splitting of labeled flow-record datasets.

The on-disk format is plain UTF-8 CSV with a mandatory header row. One column
(default ``label``) holds the class: 0 = benign, 1 = DDoS. Every other column
is a feature, typed numeric when all of its values parse as numbers and
categorical otherwise.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import count, repeat

import numpy as np

# Cell values treated as missing, compared case-insensitively after stripping.
MISSING_TOKENS = frozenset({"", "na", "n/a", "nan", "null", "?"})

DEFAULT_LABEL_COLUMN = "label"


class LoadError(ValueError):
    """Raised when a CSV file cannot be interpreted as a flow dataset."""


@dataclass(frozen=True)
class Dataset:
    """Immutable feature matrix plus binary labels.

    ``X`` is float64 once fully numeric; while raw categorical tokens are
    still present it is an object array mixing floats, strings, and gaps
    (``nan`` for numeric cells, ``None`` for categorical ones).
    ``scans`` types each column once per dataset, and ``tokens`` reads a
    coded column's tokens once: a capture is imputed and then encoded, once
    per model that scores it, from one scan and one token list per column.
    """

    feature_names: tuple
    X: np.ndarray
    y: np.ndarray
    provenance: str = ""
    category_maps: dict = field(default_factory=dict)

    def __post_init__(self):
        names = tuple(str(n) for n in self.feature_names)
        X = np.array(self.X, copy=True)
        if X.ndim != 2:
            raise ValueError("X must be 2-dimensional")
        y = np.array(self.y, dtype=np.int64, copy=True)
        if y.ndim != 1 or len(y) != X.shape[0]:
            raise ValueError("y must be 1-dimensional with one label per row")
        if len(names) != X.shape[1]:
            raise ValueError("feature_names length must match X columns")
        if len(y) and not np.all((y == 0) | (y == 1)):
            raise ValueError("labels must be 0 (benign) or 1 (ddos)")
        X.flags.writeable = False
        y.flags.writeable = False
        object.__setattr__(self, "feature_names", names)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "category_maps",
                           {k: tuple(v) for k, v in self.category_maps.items()})

    @property
    def n_rows(self):
        return self.X.shape[0]

    @property
    def n_features(self):
        return self.X.shape[1]

    @property
    def is_numeric(self):
        return self.X.dtype.kind == "f"

    @cached_property
    def scans(self) -> tuple:
        """``_scan`` of every column, computed on first use. ``X`` is
        read-only and the dataclass frozen, so it cannot go stale; a
        ``replace`` or ``take`` is a new dataset and scans its own ``X``."""
        return tuple(_scan(self.X[:, j]) for j in range(self.n_features))

    @cached_property
    def _token_lists(self) -> dict:
        return {}

    def tokens(self, j) -> tuple:
        """``_tokens`` of column ``j``, computed on first use and kept, as
        ``scans`` is."""
        if j not in self._token_lists:
            self._token_lists[j] = _tokens(self.X[:, j])
        return self._token_lists[j]

    def replace(self, **changes) -> "Dataset":
        return dataclasses.replace(self, **changes)

    def take(self, indices) -> "Dataset":
        """Row subset in the given index order."""
        idx = np.asarray(indices, dtype=np.int64)
        return self.replace(X=self.X[idx], y=self.y[idx])


@dataclass(frozen=True)
class LabelDistribution:
    benign_count: int
    ddos_count: int


@dataclass(frozen=True)
class SplitPair:
    train: Dataset
    test: Dataset


def _floats(cells):
    """The cells read by float(), or None if one of them does not parse."""
    try:
        return np.fromiter(map(float, cells), np.float64, len(cells))
    except ValueError:
        return None


def _parse_labels(cells) -> np.ndarray:
    """0/1 labels of one column; LoadError names the first bad row."""
    values = _floats(cells)
    if values is None or not np.all((values == 0.0) | (values == 1.0)):
        for row_no, cell in enumerate(cells, start=1):
            try:
                val = float(cell)
            except ValueError:
                raise LoadError(f"row {row_no}: label {cell!r} is not a number") from None
            if val not in (0.0, 1.0):
                raise LoadError(f"row {row_no}: label {cell!r} outside {{0, 1}}")
    return values.astype(np.int64)


def _parse_column(cells, text=False):
    """Type one CSV column: (float64 values, None) if numeric, else (None, cells).

    A numeric column holds NaN at its gaps and non-finite values; a
    categorical one is an object array of its strings, None at its gaps.
    With ``text`` the column is categorical even if every token is a number.
    """
    n = len(cells)
    # float() accepts the "nan" spellings of MISSING_TOKENS; every other
    # token makes it fail, so only such a column is searched for gaps.
    values = None if text else _floats(cells)
    if values is None:
        gap_tokens = {tok for tok in set(cells) if tok.strip().lower() in MISSING_TOKENS}
        gaps = np.fromiter(map(gap_tokens.__contains__, cells), bool, n)
        present = (None if text
                   else _floats([cell for cell in cells if cell not in gap_tokens]))
        if present is None:
            column = np.array(cells, dtype=object)
            column[gaps] = None
            return None, column
        values = np.full(n, np.nan)
        values[~gaps] = present
    values[~np.isfinite(values)] = np.nan  # a gap, filled by imputation
    return values, None


def load_csv(path, label_column: str = DEFAULT_LABEL_COLUMN,
             text_columns=()) -> Dataset:
    """Read a header-mandatory UTF-8 CSV into a Dataset.

    Columns are typed numeric when every non-missing value parses as a number
    (non-finite ones become gaps), categorical otherwise; the columns named in
    ``text_columns`` are categorical whatever their tokens look like. A
    leading byte-order mark is not part of the first column's name. Label
    values must be 0 or 1; violations, and rows the csv module cannot parse,
    raise LoadError naming the offending data row (1-based, excluding the
    header).
    """
    try:
        fh = open(path, "r", encoding="utf-8-sig", newline="")
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
        # A read error is raised after the rows read before it are checked,
        # so a bad row there is still reported first.
        rows, read_error = [], None
        try:
            rows.extend(reader)
        except (csv.Error, UnicodeDecodeError) as exc:
            read_error = exc

    width = len(header)
    lengths = np.fromiter(map(len, rows), np.int64, len(rows))
    ragged = np.flatnonzero(lengths != width)
    n = int(ragged[0]) if ragged.size else len(rows)
    columns = list(zip(*rows[:n])) or [()] * width
    del rows  # the columns hold the same cell strings
    labels = _parse_labels(columns.pop(header.index(label_column)))
    if ragged.size:
        raise LoadError(f"row {n + 1}: expected {width} fields, got {lengths[n]}")
    if isinstance(read_error, csv.Error):
        raise LoadError(f"row {n + 1}: {read_error}") from read_error
    if read_error is not None:
        raise read_error

    feature_names = tuple(h for h in header if h != label_column)
    parsed = [_parse_column(cells, name in text_columns)
              for name, cells in zip(feature_names, columns)]
    all_numeric = all(text is None for _, text in parsed)
    X = np.empty((n, len(columns)), dtype=np.float64 if all_numeric else object)
    for j, (values, text) in enumerate(parsed):
        X[:, j] = values if text is None else text
    return Dataset(feature_names=feature_names, X=X, y=labels, provenance=str(path))


def _scan(column):
    """Type one column of ``Dataset.X``: (categorical, gaps, values).

    The column is categorical when any cell is a ``str``. Every other cell is
    read as a float (None as NaN), and a NaN there is a gap. ``values`` holds
    those floats, in order, when the column is numeric, else None.
    """
    if column.dtype.kind == "f":
        return False, np.isnan(column), column
    text = [issubclass(t, str) for t in set(map(type, column))]
    if not any(text):
        values = column.astype(np.float64)
        return False, np.isnan(values), values
    gaps = np.zeros(len(column), dtype=bool)
    if not all(text):
        other = ~np.fromiter(map(isinstance, column, repeat(str)), bool, len(column))
        gaps[other] = np.isnan(column[other].astype(np.float64))
    return True, gaps, None


def _tokens(column):
    """(distinct tokens, positions) of one column of ``Dataset.X``: the
    ``str`` of its cells, each once, in order of first appearance, and each
    cell's position among them as an int64 array."""
    cells = column.tolist()
    first = {}  # token -> row of its first appearance
    rows = np.fromiter(map(first.setdefault, map(str, cells), count()), np.int64,
                       len(cells))
    starts = np.fromiter(first.values(), np.int64, len(first))
    return tuple(first), np.searchsorted(starts, rows)


def impute_missing(ds: Dataset) -> Dataset:
    """Fill gaps: numeric columns by their median, categorical by their mode.

    Gaps are None and NaN cells. Mode ties break lexicographically smallest.
    A column with every value missing cannot be imputed and raises ValueError
    naming it. A dataset without gaps is returned as it is, with its scans.
    Idempotent.
    """
    if not any(gaps.any() for _, gaps, _ in ds.scans):
        return ds
    X = np.array(ds.X, dtype=np.float64 if ds.is_numeric else object)
    for j, (categorical, gaps, values) in enumerate(ds.scans):
        if not gaps.any():
            continue
        if gaps.all():
            raise ValueError(f"column {ds.feature_names[j]!r} is entirely missing")
        col = X[:, j]
        if categorical:
            counts = Counter(col[~gaps])
            top = max(counts.values())
            fill = min(tok for tok, c in counts.items() if c == top)
        else:
            fill = float(np.median(values[~gaps]))
        col[gaps] = fill
    return ds.replace(X=X)


def encode_categoricals(ds: Dataset) -> Dataset:
    """Map each categorical column to integer codes by first appearance.

    Codes run 0, 1, 2, ... in order of first occurrence. The per-column
    token order is recorded in the returned dataset's ``category_maps`` for
    reuse on later data (see apply_category_maps). All-numeric input keeps
    its values. Requires missing values to be imputed first.
    """
    learned = {name: ds.tokens(j)[0]
               for j, name in enumerate(ds.feature_names) if ds.scans[j][0]}
    return ds.replace(X=_encode(ds, learned),
                      category_maps={**ds.category_maps, **learned})


def apply_category_maps(ds: Dataset, maps: dict) -> Dataset:
    """Encode categorical columns using previously recorded token orders.

    Tokens unseen at fit time get code = count of known categories for that
    column. Columns not named in ``maps`` must already be numeric, and every
    gap must be imputed first; otherwise ValueError.
    """
    if ds.is_numeric:
        if np.isnan(ds.X).any():
            raise ValueError("impute missing values before encoding")
        return ds
    for name, (categorical, _, _) in zip(ds.feature_names, ds.scans):
        if categorical and name not in maps:
            raise ValueError(f"no category map for categorical column {name!r}")
    return ds.replace(X=_encode(ds, maps), category_maps=dict(maps))


def _encode(ds: Dataset, maps) -> np.ndarray:
    """Float matrix of ``ds`` from ``ds.scans`` (see ``_scan``).

    A column named in ``maps`` holds each token's position in its map, or
    the map's length for an unseen token, looked up once per distinct token
    (``Dataset.tokens``); any other holds its scanned values. A gap anywhere
    raises ValueError.
    """
    if any(gaps.any() for _, gaps, _ in ds.scans):
        raise ValueError("impute missing values before encoding")
    X = np.empty(ds.X.shape, dtype=np.float64)
    for j, (name, (_, _, values)) in enumerate(zip(ds.feature_names, ds.scans)):
        if name in maps:
            known = dict(zip(maps[name], range(len(maps[name]))))
            tokens, positions = ds.tokens(j)
            codes = np.fromiter(map(known.get, tokens, repeat(len(known))),
                                np.float64, len(tokens))
            X[:, j] = codes[positions]
        else:
            X[:, j] = values
    return X


def label_distribution(ds: Dataset) -> LabelDistribution:
    return LabelDistribution(benign_count=int(np.sum(ds.y == 0)),
                             ddos_count=int(np.sum(ds.y == 1)))


def stratified_split(ds: Dataset, ratio: float, seed: int) -> SplitPair:
    """Class-stratified train/test split.

    Each class contributes floor(ratio * class_count) rows to train, chosen
    uniformly under the seed; the remainder forms the test partition. Row
    order within each partition follows the original dataset order.
    """
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"split ratio must lie in (0, 1), got {ratio}")
    rng = np.random.default_rng(seed)
    train_idx = []
    test_idx = []
    for cls in (0, 1):
        cls_idx = np.flatnonzero(ds.y == cls)
        if len(cls_idx) < 2:
            raise ValueError(
                f"class {cls} has {len(cls_idx)} record(s); need at least 2 to split")
        perm = rng.permutation(cls_idx)
        n_train = int(math.floor(ratio * len(cls_idx)))
        train_idx.append(perm[:n_train])
        test_idx.append(perm[n_train:])
    train_idx = np.sort(np.concatenate(train_idx))
    test_idx = np.sort(np.concatenate(test_idx))
    return SplitPair(train=ds.take(train_idx), test=ds.take(test_idx))


def stratified_fold_indices(y, n_folds: int, seed: int):
    """Validation-index arrays for stratified k-fold CV.

    Each class's indices are permuted under the seed and dealt into folds as
    evenly as possible. Every class must have at least n_folds records so no
    fold lacks a class.
    """
    y = np.asarray(y)
    if n_folds < 2:
        raise ValueError("need at least 2 folds")
    rng = np.random.default_rng(seed)
    per_fold = [[] for _ in range(n_folds)]
    for cls in (0, 1):
        cls_idx = np.flatnonzero(y == cls)
        if len(cls_idx) < n_folds:
            raise ValueError(
                f"class {cls} has {len(cls_idx)} record(s), fewer than {n_folds} folds")
        perm = rng.permutation(cls_idx)
        for f, chunk in enumerate(np.array_split(perm, n_folds)):
            per_fold[f].append(chunk)
    return [np.sort(np.concatenate(chunks)) for chunks in per_fold]


def dataset_to_csv(ds: Dataset, path, label_column: str = DEFAULT_LABEL_COLUMN) -> None:
    """Write a Dataset in the standard CSV format, one column at a time.

    Strings are written as they are, numbers by ``repr`` (exact for float64)
    and gaps (None, NaN) as empty cells, so ``load_csv`` reads them back.
    """
    columns = [_column_text(ds.X[:, j], scan) for j, scan in enumerate(ds.scans)]
    columns.append(list(map(str, ds.y.tolist())))
    write_rows(path, [ds.feature_names + (label_column,), *zip(*columns)])


def write_rows(path, rows) -> None:
    """Write ``rows`` of cells as UTF-8 CSV with the ``csv`` module's quoting
    and CRLF line ends; a Python float is written by ``repr`` (exact)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _column_text(column, scan) -> list:
    """CSV cells of one column of ``Dataset.X`` with its ``scan``; see
    dataset_to_csv."""
    categorical, gaps, values = scan
    if categorical:
        cells = [v if isinstance(v, str) else "" if v is None else repr(float(v))
                 for v in column.tolist()]
    else:
        cells = list(map(repr, values.tolist()))
    for i in np.flatnonzero(gaps).tolist():
        cells[i] = ""
    return cells


def content_hash(ds: Dataset) -> str:
    """SHA-256 over the numeric matrix, labels, and schema; split identity."""
    if not ds.is_numeric:
        raise ValueError("content_hash requires a numeric (encoded) dataset")
    h = hashlib.sha256()
    h.update(repr(ds.X.shape).encode())
    h.update(np.ascontiguousarray(ds.X, dtype=np.float64).tobytes())
    h.update(np.ascontiguousarray(ds.y, dtype=np.int64).tobytes())
    h.update("\x00".join(ds.feature_names).encode())
    return h.hexdigest()
