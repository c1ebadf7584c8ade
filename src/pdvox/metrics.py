"""Binary-classification evaluation: confusion counts, ratio metrics, ROC/AUC.

Conventions used throughout:

* the positive class is label 1;
* a record is predicted positive iff its score is >= the threshold
  (ties go to the positive side);
* a ratio with a zero denominator is reported as ``None`` — explicitly
  not defined — never silently 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FrozenArrays, ValidationError


@dataclass(frozen=True)
class ConfusionMatrix:
    """2x2 counts at a fixed threshold; positive class is label 1."""

    tp: int
    fn: int
    tn: int
    fp: int

    def __post_init__(self):
        for field in ("tp", "fn", "tn", "fp"):
            if getattr(self, field) < 0:
                raise ValidationError(f"{field} must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.fn + self.tn + self.fp


@dataclass(frozen=True)
class MetricSet:
    """Ratio metrics; any undefined entry is None."""

    accuracy: float | None
    sensitivity: float | None
    specificity: float | None
    precision: float | None
    f1: float | None
    auc: float | None = None


@dataclass(frozen=True, eq=False)
class RocCurve(FrozenArrays):
    """Operating points swept from the highest score downward.

    The leading point is the predict-nothing anchor (0, 0) at threshold
    +inf; the final point is (1, 1) at the lowest observed score. Tied
    scores collapse into a single step.
    """

    ARRAYS = {"thresholds": np.float64, "fpr": np.float64, "tpr": np.float64}
    thresholds: np.ndarray
    fpr: np.ndarray
    tpr: np.ndarray


def _as_scores_labels(scores, labels):
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if s.ndim != 1 or y.ndim != 1:
        raise ValidationError("scores and labels must be 1-D")
    if s.shape[0] != y.shape[0]:
        raise ValidationError(f"length mismatch: {s.shape[0]} scores vs {y.shape[0]} labels")
    if s.shape[0] == 0:
        raise ValidationError("need at least one record")
    if not np.isfinite(s).all():
        raise ValidationError("scores must be finite (no NaN/inf)")
    if not np.isin(y, (0, 1)).all():
        raise ValidationError("labels must be 0 or 1")
    return s, y.astype(np.int64)


def confusion(scores, labels, threshold: float) -> ConfusionMatrix:
    """Tally predictions (score >= threshold -> positive) against labels.
    A NaN threshold fails; ±inf predict every row negative / positive."""
    if np.isnan(threshold):
        raise ValidationError("threshold must not be NaN")
    s, y = _as_scores_labels(scores, labels)
    predicted = s >= threshold
    actual = y == 1
    return ConfusionMatrix(
        tp=int(np.sum(predicted & actual)),
        fn=int(np.sum(~predicted & actual)),
        tn=int(np.sum(~predicted & ~actual)),
        fp=int(np.sum(predicted & ~actual)),
    )


def _ratio(num: int, den: int) -> float | None:
    return num / den if den else None


def classification_metrics(cm: ConfusionMatrix) -> MetricSet:
    """Accuracy, sensitivity, specificity, precision, F1 from counts.

    F1 is the harmonic mean of precision and sensitivity for the positive
    class; it is None whenever either ingredient is undefined or the
    harmonic-mean denominator is zero.
    """
    if cm.total == 0:
        raise ValidationError("empty confusion matrix")
    sensitivity = _ratio(cm.tp, cm.tp + cm.fn)
    specificity = _ratio(cm.tn, cm.tn + cm.fp)
    precision = _ratio(cm.tp, cm.tp + cm.fp)
    if precision is None or sensitivity is None or precision + sensitivity == 0:
        f1 = None
    else:
        f1 = 2.0 * precision * sensitivity / (precision + sensitivity)
    return MetricSet(
        accuracy=(cm.tp + cm.tn) / cm.total,
        sensitivity=sensitivity,
        specificity=specificity,
        precision=precision,
        f1=f1,
    )


def roc_auc(scores, labels) -> tuple[RocCurve, float]:
    """ROC curve plus trapezoidal AUC.

    Thresholds sweep the unique scores in descending order with tied
    scores grouped into a single operating point, so the trapezoidal area
    equals the pairwise rank statistic
    P(score+ > score-) + 0.5 * P(score+ = score-).
    """
    s, y = _as_scores_labels(scores, labels)
    n_pos = int(np.sum(y == 1))
    n_neg = y.shape[0] - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValidationError("AUC needs both classes present; got a single-class label set")
    order = np.argsort(-s, kind="stable")
    s_sorted = s[order]
    y_sorted = y[order]
    group_end = np.flatnonzero(np.diff(s_sorted) != 0)
    group_end = np.concatenate([group_end, [s_sorted.shape[0] - 1]])
    tp = np.cumsum(y_sorted)[group_end].astype(np.float64)
    fp = (group_end + 1) - tp
    tpr = np.concatenate([[0.0], tp / n_pos])
    fpr = np.concatenate([[0.0], fp / n_neg])
    thresholds = np.concatenate([[np.inf], s_sorted[group_end]])
    auc = float(np.sum(np.diff(fpr) * (tpr[1:] + tpr[:-1])) / 2.0)
    return RocCurve(thresholds=thresholds, fpr=fpr, tpr=tpr), auc


def format_percent(value: float | None) -> str:
    """Render a ratio as a 2-decimal percentage string; None -> 'n/a'."""
    if value is None:
        return "n/a"
    return f"{100.0 * value:.2f}"
