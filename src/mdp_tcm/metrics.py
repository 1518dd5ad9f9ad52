"""Evaluation metrics for state classification and wear regression.

Classification metrics are computed per class from one-vs-rest confusion
counts and aggregated as a support-weighted average; degenerate per-class
denominators score 0 rather than raising. Regression metrics are RMSE in
micrometers, the coefficient of determination, and mean absolute
percentage error (as a ratio, not a percentage).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

REPORT_KEYS = ("accuracy", "gmean", "precision", "recall", "f1", "rmse", "r2score", "mape")

# MAPE counts only targets of at least this wear: near-zero wear would dominate it
MAPE_FLOOR_UM = 1.0


@dataclass(frozen=True)
class ConfusionCounts:
    """One-vs-rest confusion counts per class."""

    tp: np.ndarray
    fp: np.ndarray
    fn: np.ndarray
    tn: np.ndarray
    support: np.ndarray

    @property
    def n_samples(self) -> int:
        return int(self.support.sum())


@dataclass
class MetricsReport:
    """Flat bundle of the eight reported metrics; NaN where not applicable."""

    accuracy: float = math.nan
    gmean: float = math.nan
    precision: float = math.nan
    recall: float = math.nan
    f1: float = math.nan
    rmse: float = math.nan
    r2score: float = math.nan
    mape: float = math.nan

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def to_kv_text(self) -> str:
        return "".join(f"{k} = {v:.10g}\n" for k, v in self.as_dict().items())


def _check_pair(y, yhat):
    y = np.asarray(y)
    yhat = np.asarray(yhat)
    if y.shape != yhat.shape:
        raise ValueError(f"length mismatch: {y.shape} vs {yhat.shape}")
    if y.size == 0:
        raise ValueError("empty input")
    return y, yhat


def accuracy(y, yhat) -> float:
    """Fraction of exact matches."""
    y, yhat = _check_pair(y, yhat)
    return float(np.mean(y == yhat))


def confusion(y, yhat, n_classes: int) -> ConfusionCounts:
    """One-vs-rest confusion counts for labels in {0..n_classes-1}."""
    y, yhat = _check_pair(y, yhat)
    y = y.astype(np.int64)
    yhat = yhat.astype(np.int64)
    if y.min() < 0 or yhat.min() < 0 or y.max() >= n_classes or yhat.max() >= n_classes:
        raise ValueError(f"labels outside [0, {n_classes})")
    # matrix[true, predicted]: the count of each pair
    matrix = np.bincount(y * n_classes + yhat,
                         minlength=n_classes * n_classes).reshape(n_classes, n_classes)
    tp = matrix.diagonal().copy()
    support = matrix.sum(axis=1)
    fp = matrix.sum(axis=0) - tp
    fn = support - tp
    return ConfusionCounts(tp, fp, fn, len(y) - tp - fp - fn, support)


def _safe_div(num, den):
    num = np.asarray(num, dtype=np.float64)
    den = np.asarray(den, dtype=np.float64)
    out = np.zeros_like(num)
    mask = den > 0
    out[mask] = num[mask] / den[mask]
    return out


def per_class_gmean(c: ConfusionCounts) -> np.ndarray:
    """sqrt(sensitivity * specificity) per class, 0 on empty denominators."""
    sens = _safe_div(c.tp, c.tp + c.fn)
    spec = _safe_div(c.tn, c.tn + c.fp)
    return np.sqrt(sens * spec)


def per_class_precision(c: ConfusionCounts) -> np.ndarray:
    return _safe_div(c.tp, c.tp + c.fp)


def per_class_recall(c: ConfusionCounts) -> np.ndarray:
    return _safe_div(c.tp, c.tp + c.fn)


def per_class_f1(c: ConfusionCounts) -> np.ndarray:
    p = per_class_precision(c)
    r = per_class_recall(c)
    return _safe_div(2.0 * p * r, p + r)


def _weighted(values: np.ndarray, c: ConfusionCounts) -> float:
    return float(np.sum(c.support * values) / c.n_samples)


def gmean(c: ConfusionCounts) -> float:
    return _weighted(per_class_gmean(c), c)


def precision(c: ConfusionCounts) -> float:
    return _weighted(per_class_precision(c), c)


def recall(c: ConfusionCounts) -> float:
    return _weighted(per_class_recall(c), c)


def f1(c: ConfusionCounts) -> float:
    return _weighted(per_class_f1(c), c)


def rmse(y, yhat) -> float:
    """Root mean squared error (micrometers for wear targets)."""
    y, yhat = _check_pair(y, yhat)
    return float(np.sqrt(np.mean((np.asarray(y, dtype=np.float64) - yhat) ** 2)))


def r2score(y, yhat) -> float:
    """1 - SS_res / SS_tot; requires nonconstant targets."""
    y, yhat = _check_pair(y, yhat)
    y = np.asarray(y, dtype=np.float64)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        raise ValueError("r2score undefined for constant targets")
    ss_res = float(np.sum((y - yhat) ** 2))
    return 1.0 - ss_res / ss_tot


def mape(y, yhat) -> float:
    """Mean |(y - yhat) / y|; raises on any zero target."""
    y, yhat = _check_pair(y, yhat)
    y = np.asarray(y, dtype=np.float64)
    if np.any(y == 0.0):
        raise ValueError("mape undefined for zero targets")
    return float(np.mean(np.abs((y - yhat) / y)))


def classification_report(y, yhat, n_classes: int) -> MetricsReport:
    c = confusion(y, yhat, n_classes)
    return MetricsReport(
        accuracy=accuracy(y, yhat),
        gmean=gmean(c),
        precision=precision(c),
        recall=recall(c),
        f1=f1(c),
    )


def regression_report(y, yhat) -> MetricsReport:
    """RMSE / R2 / MAPE bundle; MAPE restricted to targets >= MAPE_FLOOR_UM."""
    y, yhat = _check_pair(y, yhat)
    y = np.asarray(y, dtype=np.float64)
    yhat = np.asarray(yhat, dtype=np.float64)
    mask = y >= MAPE_FLOOR_UM
    return MetricsReport(
        rmse=rmse(y, yhat),
        r2score=r2score(y, yhat),
        mape=mape(y[mask], yhat[mask]) if mask.any() else math.nan,
    )
