"""Binary-classification evaluation: confusion counts, threshold metrics,
ROC/AUC, chance-corrected agreement, and probability calibration error.

Class 1 (DDoS) is the positive class throughout. Metrics whose denominator
is zero return 0.0 and flag themselves as degenerate instead of emitting
NaN, so serialized reports stay machine-readable.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    tn: int
    fp: int
    fn: int

    def __post_init__(self):
        for name in ("tp", "tn", "fp", "fn"):
            v = getattr(self, name)
            if v < 0 or v != int(v):
                raise ValueError(f"{name} must be a non-negative integer, got {v}")
            object.__setattr__(self, name, int(v))

    @property
    def total(self):
        return self.tp + self.tn + self.fp + self.fn


@dataclass(frozen=True)
class CoreMetrics:
    accuracy: float
    precision: float
    recall: float
    f1: float
    degenerate: tuple


@dataclass(frozen=True)
class AgreementMetrics:
    kappa: float
    mcc: float
    degenerate: tuple


@dataclass(frozen=True)
class RocCurve:
    """ROC points ordered by descending decision threshold.

    fpr/tpr start at (0, 0) and end at (1, 1); thresholds[0] is +inf for the
    empty-prediction point. Tied scores are grouped into a single step.
    """

    fpr: np.ndarray
    tpr: np.ndarray
    thresholds: np.ndarray
    auc: float

    def __post_init__(self):
        for name in ("fpr", "tpr", "thresholds"):
            arr = np.array(getattr(self, name), dtype=np.float64)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class MetricsReport:
    accuracy: float
    precision: float
    recall: float
    f1: float
    auc: float
    kappa: float
    mcc: float
    brier: float
    confusion: ConfusionMatrix
    degenerate: tuple

    def to_dict(self) -> dict:
        return asdict(self)


def _as_binary(arr, name):
    a = np.asarray(arr)
    if a.ndim != 1:
        raise ValueError(f"{name} must be 1-dimensional")
    if len(a) and not np.all((a == 0) | (a == 1)):
        raise ValueError(f"{name} must contain only 0 and 1")
    return a.astype(np.int64)


def confusion_matrix(y_true, y_pred) -> ConfusionMatrix:
    t = _as_binary(y_true, "y_true")
    p = _as_binary(y_pred, "y_pred")
    if len(t) != len(p):
        raise ValueError(f"length mismatch: {len(t)} labels vs {len(p)} predictions")
    return ConfusionMatrix(tp=int(np.sum((t == 1) & (p == 1))),
                           tn=int(np.sum((t == 0) & (p == 0))),
                           fp=int(np.sum((t == 0) & (p == 1))),
                           fn=int(np.sum((t == 1) & (p == 0))))


def core_metrics(cm: ConfusionMatrix) -> CoreMetrics:
    """Accuracy, precision, recall, F1 with explicit zero-division flags."""
    if cm.total == 0:
        raise ValueError("confusion matrix is empty")
    degenerate = []
    accuracy = (cm.tp + cm.tn) / cm.total
    if cm.tp + cm.fp == 0:
        precision = 0.0
        degenerate.append("precision")
    else:
        precision = cm.tp / (cm.tp + cm.fp)
    if cm.tp + cm.fn == 0:
        recall = 0.0
        degenerate.append("recall")
    else:
        recall = cm.tp / (cm.tp + cm.fn)
    if precision + recall == 0.0:
        f1 = 0.0
        degenerate.append("f1")
    else:
        f1 = 2.0 * precision * recall / (precision + recall)
    return CoreMetrics(accuracy=accuracy, precision=precision, recall=recall,
                       f1=f1, degenerate=tuple(degenerate))


def roc_auc(y_true, scores) -> RocCurve:
    """ROC curve and trapezoidal AUC from decision scores.

    One curve step per distinct score, descending; the trapezoidal area
    equals the Mann-Whitney concordance probability with ties credited 1/2.
    Requires both classes present (AUC is undefined otherwise).
    """
    t = _as_binary(y_true, "y_true")
    s = np.asarray(scores, dtype=np.float64)
    if len(t) != len(s):
        raise ValueError(f"length mismatch: {len(t)} labels vs {len(s)} scores")
    if not np.all(np.isfinite(s)):
        raise ValueError("scores must be finite")
    n_pos = int(np.sum(t == 1))
    n_neg = len(t) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs both classes present in y_true")

    order = np.argsort(-s, kind="stable")
    s_sorted = s[order]
    t_sorted = t[order]
    # Last index of each tied-score block.
    block_end = np.flatnonzero(np.diff(s_sorted) != 0.0)
    block_end = np.concatenate([block_end, [len(s) - 1]])
    cum_tp = np.cumsum(t_sorted)[block_end]
    cum_fp = (block_end + 1) - cum_tp

    tpr = np.concatenate([[0.0], cum_tp / n_pos])
    fpr = np.concatenate([[0.0], cum_fp / n_neg])
    thresholds = np.concatenate([[np.inf], s_sorted[block_end]])
    auc = float(np.sum((fpr[1:] - fpr[:-1]) * (tpr[1:] + tpr[:-1]) * 0.5))
    return RocCurve(fpr=fpr, tpr=tpr, thresholds=thresholds, auc=auc)


def agreement_metrics(cm: ConfusionMatrix) -> AgreementMetrics:
    """Cohen's kappa (marginal-product chance) and Matthews correlation."""
    n = cm.total
    if n == 0:
        raise ValueError("confusion matrix is empty")
    tp, tn, fp, fn = cm.tp, cm.tn, cm.fp, cm.fn
    degenerate = []

    p_observed = (tp + tn) / n
    chance_num = (tp + fp) * (tp + fn) + (tn + fn) * (tn + fp)  # exact ints
    if chance_num == n * n:
        kappa = 0.0
        degenerate.append("kappa")
    else:
        p_expected = chance_num / (n * n)
        kappa = (p_observed - p_expected) / (1.0 - p_expected)

    denom_sq = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    if denom_sq == 0:
        mcc = 0.0
        degenerate.append("mcc")
    else:
        mcc = (tp * tn - fp * fn) / math.sqrt(denom_sq)
    return AgreementMetrics(kappa=kappa, mcc=mcc, degenerate=tuple(degenerate))


def brier_score(y_true, probabilities) -> float:
    """Mean squared gap between predicted probability and the 0/1 label."""
    t = _as_binary(y_true, "y_true")
    p = np.asarray(probabilities, dtype=np.float64)
    if len(t) != len(p):
        raise ValueError(f"length mismatch: {len(t)} labels vs {len(p)} probabilities")
    if len(t) == 0:
        raise ValueError("brier_score needs at least one prediction")
    if not np.all((p >= 0.0) & (p <= 1.0)):  # NaN included
        raise ValueError("probabilities must lie in [0, 1]")
    return float(np.mean((p - t) ** 2))


def evaluate_predictions(y_true, labels, probabilities):
    """Full MetricsReport plus RocCurve for one model on one partition. With
    one class present the curve is None and AUC is 0.0, listed as degenerate."""
    cm = confusion_matrix(y_true, labels)
    core, agree = core_metrics(cm), agreement_metrics(cm)
    both_classes = cm.tp + cm.fn > 0 and cm.tn + cm.fp > 0
    curve = roc_auc(y_true, probabilities) if both_classes else None
    report = MetricsReport(accuracy=core.accuracy, precision=core.precision,
                           recall=core.recall, f1=core.f1,
                           auc=curve.auc if both_classes else 0.0,
                           kappa=agree.kappa, mcc=agree.mcc,
                           brier=brier_score(y_true, probabilities), confusion=cm,
                           degenerate=(core.degenerate
                                       + (() if both_classes else ("auc",))
                                       + agree.degenerate))
    return report, curve
