"""Predictive-performance measures: rank-based AUC, F-maximizing threshold, sparsity."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["PredictionSet", "auc", "best_f_threshold", "selected_count"]


@dataclass(frozen=True, eq=False)
class PredictionSet:
    """Real-valued scores paired with +/-1 labels."""

    scores: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        if len(self.scores) != len(self.labels):
            raise ValueError("scores and labels must have equal length")
        if not np.all(np.isin(self.labels, (-1.0, 1.0))):
            raise ValueError("labels must be +1 or -1")
        if np.isnan(self.scores).any():
            raise ValueError("scores must not be NaN")


def _require_both_classes(p: PredictionSet) -> None:
    if not (np.any(p.labels > 0) and np.any(p.labels < 0)):
        raise ValueError("both classes must be present")


def auc(p: PredictionSet) -> float:
    """Probability that a positive outscores a negative, ties counting 0.5.

    Computed from midranks in O(M log M); equals the fraction of
    (positive, negative) pairs won, plus half the ties.
    """
    _require_both_classes(p)
    pos = p.labels > 0
    n_pos = int(pos.sum())
    n_neg = len(p.labels) - n_pos
    # midranks: 1-based ranks, tied scores sharing their mean rank; they are
    # half-integers, so they and their sums are exact in float64
    order = np.argsort(p.scores, kind="stable")
    s = p.scores[order]
    starts = np.flatnonzero(np.concatenate([[True], s[1:] != s[:-1]]))
    ends = np.append(starts[1:], len(s))
    ranks = np.empty(len(s))
    ranks[order] = np.repeat((starts + 1 + ends) / 2.0, ends - starts)
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def best_f_threshold(p: PredictionSet) -> tuple[float, float]:
    """Threshold maximizing F1, predicting positive at score >= threshold.

    Candidates are the midpoints between consecutive distinct scores plus
    -inf and +inf; ties in F1 resolve to the smallest threshold.  A
    degenerate confusion matrix (no predicted or matched positives) scores 0.
    """
    _require_both_classes(p)
    distinct = np.unique(p.scores)
    # -inf and +inf are adjacent only as the sole distinct scores, and have no
    # midpoint: (-inf + inf) / 2 is NaN
    if np.array_equal(distinct, [-np.inf, np.inf]):
        distinct = distinct[:1]
    lo, hi = distinct[:-1], distinct[1:]
    with np.errstate(over="ignore"):
        mid = (lo + hi) / 2.0
    # a sum past the float maximum overflows; halving first cannot, and is
    # used only there, so every finite midpoint keeps its bits
    over = np.isinf(mid) & np.isfinite(lo) & np.isfinite(hi)
    mid[over] = lo[over] / 2.0 + hi[over] / 2.0
    candidates = np.concatenate([[-np.inf], mid, [np.inf]])
    # counts of scores >= each candidate, all and positive, from sorted scores
    n_pred = len(p.scores) - np.searchsorted(np.sort(p.scores), candidates)
    positives = np.sort(p.scores[p.labels > 0])
    n_pos = len(positives)
    tp = n_pos - np.searchsorted(positives, candidates)
    f1 = np.zeros(len(candidates))
    hit = tp > 0
    precision = tp[hit] / n_pred[hit]
    recall = tp[hit] / n_pos
    f1[hit] = 2.0 * precision * recall / (precision + recall)
    best = int(np.argmax(f1))
    return float(candidates[best]), float(f1[best])


def selected_count(theta: np.ndarray, tol: float = 1e-6) -> tuple[int, float]:
    """How many weights exceed ``tol`` in magnitude, and that count over N."""
    if not 0 < tol < np.inf:  # NaN fails both comparisons
        raise ValueError("tol must be > 0")
    count = int(np.sum(np.abs(theta) > tol))
    return count, count / theta.size
