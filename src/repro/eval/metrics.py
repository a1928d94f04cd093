"""Detection metrics against the blacklist ground truth (paper §V-B1).

The paper evaluates detected PIN sets with Precision / Recall / F1
("Accuracy … seems not very significant, because the proportion of
fraud samples is quite low"). Everything here is driver-side numpy over
collected vote tables and score arrays; this module imports no pyspark.
"""
from __future__ import annotations

import numpy as np
import pandas as pd


def prf(detected: np.ndarray, truth: np.ndarray) -> tuple[float, float, float]:
    """(precision, recall, f1) of a detected id set vs a ground-truth id set."""
    detected = np.unique(np.asarray(detected, dtype=np.int64))
    truth = np.unique(np.asarray(truth, dtype=np.int64))
    if len(detected) == 0:
        return 0.0, 0.0, 0.0
    tp = len(np.intersect1d(detected, truth, assume_unique=True))
    precision = tp / len(detected)
    recall = tp / len(truth) if len(truth) else 0.0
    return precision, recall, f1_score(precision, recall)


def f1_score(precision: float, recall: float) -> float:
    """Harmonic mean, 0 when both are 0."""
    return 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)


def threshold_sweep(
    pin_votes: pd.DataFrame, truth: np.ndarray, thresholds: np.ndarray | list[int]
) -> pd.DataFrame:
    """Sweep the MVA threshold T over a (node, votes) table.

    Returns one row per T with n_detected / precision / recall / f1 —
    the data behind Figs. 4, 7, 8 and 9 (x-axis either T or
    n_detected).
    """
    truth = np.unique(np.asarray(truth, dtype=np.int64))
    nodes = pin_votes["node"].to_numpy()
    votes = pin_votes["votes"].to_numpy()
    rows = []
    for t in thresholds:
        det = nodes[votes >= t]
        p, r, f1 = prf(det, truth)
        rows.append(
            dict(T=int(t), n_detected=int(len(det)), precision=p, recall=r, f1=f1)
        )
    return pd.DataFrame(rows)


def score_sweep(
    scores: np.ndarray, truth: np.ndarray, n_points: int = 50
) -> pd.DataFrame:
    """PR curve for a per-node score array (SPOKEN / FBox baselines).

    Thresholds are score quantiles; higher score = more suspicious.
    """
    finite = scores[np.isfinite(scores)]
    if len(finite) == 0:
        return pd.DataFrame(columns=["threshold", "n_detected", "precision", "recall", "f1"])
    rows = []
    for q in np.linspace(0.0, 1.0, n_points, endpoint=False):
        thr = np.quantile(finite, 1.0 - q) if q > 0 else np.inf
        det = np.flatnonzero(scores >= thr) if np.isfinite(thr) else np.empty(0, dtype=np.int64)
        p, r, f1 = prf(det, truth)
        rows.append(dict(threshold=float(thr), n_detected=len(det), precision=p, recall=r, f1=f1))
    return pd.DataFrame(rows)
