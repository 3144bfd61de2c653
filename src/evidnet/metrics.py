"""Binary classification metrics: accuracy, F1, ROC curve, AUC.

Every metric takes array-likes. The ROC sweep moves a threshold down
through the distinct score values, grouping ties at a single threshold.
AUC is the trapezoidal area under that curve, which equals the pairwise
comparison statistic (ties count one half).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, EvidnetError, NonFiniteInputError


@dataclass(frozen=True)
class RocCurve:
    """Ordered (fpr, tpr, threshold) points from (0,0,inf) to (1,1,min)."""

    points: tuple[tuple[float, float, float], ...]

    @property
    def area(self) -> float:
        """Trapezoidal area under the curve, summed in curve order."""
        return _area(*np.asarray(self.points)[:, :2].T)


def _area(fpr, tpr) -> float:
    """Trapezoidal area under the curve through (fpr, tpr), in their order."""
    return float(np.cumsum(np.diff(fpr) * (tpr[:-1] + tpr[1:]) / 2.0)[-1])


@dataclass(frozen=True)
class MetricsReport:
    accuracy: float
    f1: float
    auc: float
    n: int


def _paired(a, b) -> tuple[np.ndarray, np.ndarray]:
    a, b = np.asarray(a), np.asarray(b)
    if len(a) != len(b):
        raise DimensionMismatchError(f"{len(a)} predictions vs {len(b)} truths")
    if len(a) == 0:
        raise EvidnetError("no instances to score")
    return a, b


def accuracy(preds, truth) -> float:
    """Fraction of exact label matches."""
    p, t = _paired(preds, truth)
    return float(np.count_nonzero(p == t) / len(p))


def f1(preds, truth, positive) -> float:
    """Binary F1 = 2tp / (2tp + fp + fn); zero denominator gives 0.0."""
    p, t = _paired(preds, truth)
    p, t = p == positive, t == positive
    tp = np.count_nonzero(p & t)
    denom = np.count_nonzero(p) + np.count_nonzero(t)  # 2tp + fp + fn
    return float(2 * tp / denom) if denom else 0.0


def _sweep(scores, truth, positive):
    """The fpr, tpr and threshold arrays of roc_points' curve."""
    s = np.asarray(scores, dtype=float)
    if s.ndim != 1:
        raise ValueError("scores must be a flat sequence")
    s, t = _paired(s, truth)
    if not np.all(np.isfinite(s)):
        raise NonFiniteInputError("scores must be finite")
    pos = t == positive
    n_pos = np.count_nonzero(pos)
    n_neg = len(pos) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise EvidnetError(
            f"need both classes for a ROC sweep, got {n_pos} positive / {n_neg} negative"
        )
    order = np.argsort(-s, kind="stable")
    s, pos = s[order], pos[order]
    new_score = s[1:] != s[:-1]
    first = np.flatnonzero(np.concatenate([[True], new_score]))  # threshold rows
    last = np.flatnonzero(np.concatenate([new_score, [True]]))  # counted rows
    tp = np.concatenate([[0], np.cumsum(pos)[last]])
    fp = np.concatenate([[0], last + 1]) - tp
    return fp / n_neg, tp / n_pos, np.concatenate([[np.inf], s[first]])


def roc_points(scores, truth, positive=1) -> RocCurve:
    """Threshold sweep over distinct score values, descending.

    Instances scoring at or above the threshold are called positive.
    Ties share one threshold, so the curve has one point per distinct
    score plus the (0, 0, inf) start.
    """
    return RocCurve(points=tuple(zip(*(a.tolist() for a in _sweep(scores, truth, positive)))))


def auc(scores, truth, positive=1) -> float:
    """Trapezoidal area under the ROC curve.

    Equals the fraction of (positive, negative) pairs ranked correctly,
    counting ties as one half.
    """
    return _area(*_sweep(scores, truth, positive)[:2])


def metrics_report(preds, truth, scores, positive=1) -> MetricsReport:
    """Bundle accuracy, F1 and AUC for one test set."""
    p, t = _paired(preds, truth)
    return MetricsReport(
        accuracy=accuracy(p, t),
        f1=f1(p, t, positive),
        auc=auc(scores, t, positive),
        n=len(p),
    )
