"""Turning score vectors into predicted label sets.

Three rules are supported: adaptive thresholding (positive iff a label
outscores the none score, with ties predicting negative), a global threshold
on sigmoid probabilities, and per-label thresholds. Sweeps pick thresholds
from a grid by dev-set F1 with ties broken toward the smaller threshold.
"""

from __future__ import annotations

import numpy as np

from .losses import sigmoid
from .metrics import confusion, micro_f1_flags

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


def sweep_global_threshold(scores, gold, grid=COARSE_GRID):
    """(best threshold, best micro F1) over the grid; ties take the smaller t."""
    g = _check_grid(grid)
    s = _score_matrix(scores)
    best_t, best_f1 = None, -1.0
    for t in g:
        f1 = micro_f1_flags(global_flags(s, float(t)), gold)
        if f1 > best_f1:
            best_t, best_f1 = float(t), f1
    return best_t, best_f1


def sweep_per_label_thresholds(scores, gold, grid=FINE_GRID) -> np.ndarray:
    """Per-label thresholds maximizing each label's own F1 independently."""
    g = _check_grid(grid)
    s = _score_matrix(scores)
    k = s.shape[1] - 1
    best_t = np.full(k, g[0])
    best_f1 = np.full(k, -1.0)
    for t in g:
        counts = confusion(global_flags(s, float(t)), gold)
        denom = 2 * counts.tp + counts.fp + counts.fn
        f1 = np.where(denom > 0, 2 * counts.tp / np.maximum(denom, 1), 0.0)
        better = f1 > best_f1
        best_t[better] = float(t)
        best_f1[better] = f1[better]
    return best_t
