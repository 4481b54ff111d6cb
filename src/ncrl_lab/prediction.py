"""Turning score vectors into predicted label sets.

Three rules are supported: adaptive thresholding (positive iff a label
outscores the none score, with ties predicting negative), a global threshold
on sigmoid probabilities, and per-label thresholds. Sweeps pick thresholds
from a grid by dev-set F1 with ties broken toward the smaller threshold.
"""

from __future__ import annotations

import numpy as np

from .losses import sigmoid
from .metrics import gold_flags, pooled_f1

COARSE_GRID = tuple(round(i / 10, 1) for i in range(1, 10))
FINE_GRID = tuple(round(i / 100, 2) for i in range(10, 91))


def _check_scores(f) -> np.ndarray:
    f = np.asarray(f, dtype=float)
    if f.ndim != 1 or f.size < 2:
        raise ValueError("score vector must cover the none class plus K >= 1 labels")
    return f


def _check_grid(grid) -> np.ndarray:
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or g.size == 0:
        raise ValueError("threshold grid must be nonempty")
    if not ((g > 0) & (g < 1)).all():
        raise ValueError("thresholds must lie in (0, 1)")
    if not (np.diff(g) > 0).all():
        raise ValueError("threshold grid must be strictly increasing")
    return g


def _score_matrix(scores) -> np.ndarray:
    s = np.asarray(scores, dtype=float)
    if s.ndim != 2 or s.shape[1] < 2:
        raise ValueError("scores must be (n, K+1) with the none score first")
    return s


def adaptive_flags(scores) -> np.ndarray:
    """(n, K) flags under adaptive thresholding: positive iff f_i > f_0."""
    s = _score_matrix(scores)
    return (s[:, 1:] > s[:, :1]).astype(int)


def global_flags(scores, t: float) -> np.ndarray:
    """(n, K) flags under a shared probability threshold: sigmoid(f_i) > t."""
    if not 0.0 < t < 1.0:
        raise ValueError(f"threshold must lie in (0, 1), got {t}")
    s = _score_matrix(scores)
    return (sigmoid(s[:, 1:]) > t).astype(int)


def per_label_flags(scores, thresholds) -> np.ndarray:
    """(n, K) flags under per-label thresholds: sigmoid(f_i) > t_i."""
    s = _score_matrix(scores)
    t = np.asarray(thresholds, dtype=float)
    if t.shape != (s.shape[1] - 1,):
        raise ValueError(
            f"need one threshold per label, {s.shape[1] - 1} total, got {t.size}"
        )
    if not ((t > 0) & (t < 1)).all():
        raise ValueError("thresholds must lie in (0, 1)")
    return (sigmoid(s[:, 1:]) > t).astype(int)


def _set_from_flags(flags: np.ndarray) -> np.ndarray:
    return np.nonzero(flags)[0] + 1


def predict_adaptive(f) -> np.ndarray:
    """Positive label indices {i : f_i > f_0}; empty means NA."""
    f = _check_scores(f)
    return _set_from_flags(adaptive_flags(f[None, :])[0])


def predict_global(f, t: float) -> np.ndarray:
    """Positive label indices {i : sigmoid(f_i) > t}."""
    f = _check_scores(f)
    return _set_from_flags(global_flags(f[None, :], t)[0])


def predict_per_label(f, thresholds) -> np.ndarray:
    """Positive label indices {i : sigmoid(f_i) > t_i}."""
    f = _check_scores(f)
    return _set_from_flags(per_label_flags(f[None, :], thresholds)[0])


def _threshold_counts(scores, gold, grid):
    """(grid, TP, FP, FN): each label's confusion counts at every grid threshold.

    The counts are (G, K) arrays whose row j tallies the flags
    sigmoid(f_i) > grid[j], as `confusion(global_flags(scores, t), gold)`
    does for one t, but in one pass: each probability is bucketed by the
    number of grid values below it, so it is predicted at threshold j iff
    j < its bucket, and reverse cumulative sums of the per-(label, bucket)
    counts give every threshold at once.
    """
    g = _check_grid(grid)
    s = _score_matrix(scores)
    y = gold_flags(gold)
    if len(y) != len(s):
        raise ValueError("predictions and gold must have equal instance counts")
    if y.shape[1] != s.shape[1] - 1:
        raise ValueError("prediction flags must match gold shape")
    k = y.shape[1]
    p = sigmoid(s[:, 1:])
    bucket = np.searchsorted(g, p, side="left")
    bucket[np.isnan(p)] = 0  # NaN exceeds no threshold
    # gold class per entry: 0 negative, 1 positive, 2 neither (counts nowhere)
    gold_class = np.where((y == 0) | (y == 1), y, 2)
    cell = (gold_class * k + np.arange(k)) * (g.size + 1) + bucket
    counts = np.bincount(cell.ravel(), minlength=3 * k * (g.size + 1))
    above = np.cumsum(counts.reshape(3, k, -1)[:, :, ::-1], axis=2)[:, :, ::-1]
    fp, tp = above[0, :, 1:].T, above[1, :, 1:].T
    return g, tp, fp, above[1, :, :1].T - tp


def sweep_global_threshold(scores, gold, grid=COARSE_GRID):
    """(best threshold, best micro F1) over the grid; ties take the smaller t."""
    g, tp, fp, fn = _threshold_counts(scores, gold, grid)
    best_t, best_f1 = None, -1.0
    for t, *counts in zip(g, tp.sum(axis=1), fp.sum(axis=1), fn.sum(axis=1)):
        f1 = pooled_f1(*counts)[0]
        if f1 > best_f1:
            best_t, best_f1 = float(t), f1
    return best_t, best_f1


def sweep_per_label_thresholds(scores, gold, grid=FINE_GRID) -> np.ndarray:
    """Per-label thresholds maximizing each label's own F1 independently."""
    g, tp, fp, fn = _threshold_counts(scores, gold, grid)
    denom = 2 * tp + fp + fn
    f1 = np.where(denom > 0, 2 * tp / np.maximum(denom, 1), 0.0)
    return g[np.argmax(f1, axis=0)]  # the first maximum is the smallest t
