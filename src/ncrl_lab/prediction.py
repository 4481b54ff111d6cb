"""Turning score matrices into (n, K) bool prediction flags.

Two rules, one function each: adaptive thresholding (`adaptive_flags`:
positive iff a label outscores the none score, with ties predicting
negative) and a threshold on sigmoid probabilities (`global_flags`: one
probability for every label, or one per label). A trained cell's rule is
one value, its threshold, with None meaning adaptive; `native_flags`
applies it. Sweeps pick thresholds from a grid by dev-set F1 with ties
broken toward the smaller threshold; the global sweep also takes the
stacked scores of several scorers at once.
"""

from __future__ import annotations

import math

import numpy as np

from .losses import sigmoid
from .metrics import gold_flags, pooled_f1, score_matrix

COARSE_GRID = tuple(round(i / 10, 1) for i in range(1, 10))
FINE_GRID = tuple(round(i / 100, 2) for i in range(10, 91))


def _check_grid(grid) -> np.ndarray:
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or g.size == 0:
        raise ValueError("threshold grid must be nonempty")
    if not ((g > 0) & (g < 1)).all():
        raise ValueError("thresholds must lie in (0, 1)")
    if not (np.diff(g) > 0).all():
        raise ValueError("threshold grid must be strictly increasing")
    return g


def adaptive_flags(scores) -> np.ndarray:
    """(n, K) bool flags under adaptive thresholding: positive iff
    f_i > f_0; stacked (R, n, K+1) scores of R scorers give (R, n, K) flags."""
    s = score_matrix(scores, stacked=True)
    return s[..., 1:] > s[..., :1]


def global_flags(scores, t) -> np.ndarray:
    """(n, K) bool flags under a probability threshold: sigmoid(f_i) > t,
    with t one probability for every label or a sequence of one per label."""
    s = score_matrix(scores)
    t = np.asarray(t, dtype=float)
    if t.ndim and t.shape != (s.shape[1] - 1,):
        raise ValueError(f"need one threshold per label, {s.shape[1] - 1} "
                         f"total, got {t.size}")
    if not ((t > 0) & (t < 1)).all():
        raise ValueError(f"thresholds must lie in (0, 1), got {t}")
    return sigmoid(s[:, 1:]) > t


def native_flags(scores, threshold) -> np.ndarray:
    """(n, K) bool flags under a trained cell's own rule: adaptive when its
    `threshold` is None, else `global_flags` at it."""
    if threshold is None:
        return adaptive_flags(scores)
    return global_flags(scores, threshold)


def _threshold_counts(scores, gold, grid, stacked: bool = False):
    """(grid, TP, FP, FN): each label's confusion counts at every grid threshold.

    The counts are (G, K) arrays whose row j tallies the flags
    sigmoid(f_i) > grid[j], as `confusion(global_flags(scores, t), gold)`
    does for one t, but in one count: each probability is bucketed by the
    number of grid values below it, so it is predicted at threshold j iff
    j < its bucket, and reverse cumulative sums of the per-(label, bucket)
    counts give every threshold at once. With `stacked`, (R, n, K+1) scores
    of R scorers give (R, G, K) counts from the same one count, each row's
    buckets offset by the row.
    """
    g = _check_grid(grid)
    s = score_matrix(scores, stacked)
    y = gold_flags(gold, s[..., 1:].shape)
    k = y.shape[1]
    p = sigmoid(s[..., 1:])
    # a compare pass per threshold runs several times faster than a binary
    # search per entry, even over the 81 values of FINE_GRID; NaN exceeds
    # no threshold
    bucket = np.zeros(p.shape, np.min_scalar_type(g.size))
    above = np.empty(p.shape, bool)
    for t in g:
        np.greater(p, t, out=above)
        bucket += above.view(np.uint8)
    # gold class per entry: 0 negative, 1 positive
    width = 2 * k * (g.size + 1)  # counts per scorer
    cell = (y * k + np.arange(k)) * (g.size + 1) + bucket
    if s.ndim == 3:
        cell += np.arange(len(s))[:, None, None] * width
    counts = np.bincount(cell.ravel(), minlength=width * math.prod(s.shape[:-2]))
    counts = counts.reshape(s.shape[:-2] + (2, k, g.size + 1))
    above = np.cumsum(counts[..., ::-1], axis=-1)[..., ::-1]
    fp, tp = (above[..., c, :, 1:].swapaxes(-1, -2) for c in (0, 1))
    return g, tp, fp, above[..., 1, :, :1].swapaxes(-1, -2) - tp


def _best_global(g, tp, fp, fn):
    """sweep_global_threshold's pick from one scorer's pooled (G,) counts."""
    best_t, best_f1 = None, -1.0
    for t, *counts in zip(g, tp, fp, fn):
        f1 = pooled_f1(*counts)[0]
        if f1 > best_f1:
            best_t, best_f1 = float(t), f1
    return best_t, best_f1


def sweep_global_threshold(scores, gold, grid=COARSE_GRID):
    """(best threshold, best micro F1) over the grid; ties take the smaller t.

    Stacked (R, n, K+1) scores of R scorers on one gold set give a list of
    R thresholds and a list of R F1s, each what that scorer's own call
    gives, from one bucketed count.
    """
    g, tp, fp, fn = _threshold_counts(scores, gold, grid, stacked=True)
    pooled = tp.sum(axis=-1), fp.sum(axis=-1), fn.sum(axis=-1)
    if tp.ndim == 2:
        return _best_global(g, *pooled)
    picks = [_best_global(g, *row) for row in zip(*pooled)]
    return [t for t, _ in picks], [f1 for _, f1 in picks]


def sweep_per_label_thresholds(scores, gold, grid=FINE_GRID) -> np.ndarray:
    """Per-label thresholds maximizing each label's own F1 independently."""
    g, tp, fp, fn = _threshold_counts(scores, gold, grid)
    denom = 2 * tp + fp + fn
    f1 = np.where(denom > 0, 2 * tp / np.maximum(denom, 1), 0.0)
    return g[np.argmax(f1, axis=0)]  # the first maximum is the smallest t
