"""Evaluation measures over predicted label sets and score rankings.

Gold labels arrive as full (n, K+1) vectors with the none flag at column 0;
confusion counting runs over the K pre-defined labels only, so none-class
instances can contribute false positives but never true positives. All 0/0
ratios (precision, recall, F1) evaluate to 0 so runs stay comparable.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .losses import batch_ncre


@dataclass
class ConfusionCounts:
    """Per-label true positive, false positive, and false negative counts."""

    tp: np.ndarray
    fp: np.ndarray
    fn: np.ndarray


@dataclass
class MetricsReport:
    micro_f1: float
    macro_f1: float
    micro_precision: float
    micro_recall: float
    mean_ap: float
    mean_ncre: float

    def as_dict(self) -> dict:
        return asdict(self)


def flags_from_sets(preds, k: int) -> np.ndarray:
    """Convert per-instance positive index collections to an (n, k) flag matrix."""
    flags = np.zeros((len(preds), k), dtype=int)
    for row, idx in enumerate(preds):
        idx = np.asarray(idx, dtype=int)
        if idx.size and (idx.min() < 1 or idx.max() > k):
            raise ValueError(f"prediction indices must lie in 1..{k}")
        flags[row, idx - 1] = 1
    return flags


def gold_flags(gold) -> np.ndarray:
    """The (n, K) pre-defined columns of (n, K+1) gold label vectors, as ints."""
    g = np.asarray(gold, dtype=int)
    if g.ndim != 2 or g.shape[1] < 2:
        raise ValueError("gold labels must be (n, K+1) with the none column first")
    return g[:, 1:]


def _tally(preds, gold, axis):
    """TP, FP and FN counts along `axis` (None pools every label).

    A flag or gold entry counts as positive when it is 1 and as negative when
    it is 0, after a cast to int; other values count nowhere.
    """
    y = gold_flags(gold)
    if len(preds) != len(y):
        raise ValueError("predictions and gold must have equal instance counts")
    p = np.asarray(preds) if isinstance(preds, np.ndarray) else None
    if p is not None and p.ndim == 2:
        if p.shape != y.shape:
            raise ValueError("prediction flags must match gold shape")
        p = np.asarray(p, dtype=int)
    else:
        p = flags_from_sets(preds, y.shape[1])
    predicted, actual = p == 1, y == 1
    return (np.count_nonzero(predicted & actual, axis=axis),
            np.count_nonzero(predicted & (y == 0), axis=axis),
            np.count_nonzero((p == 0) & actual, axis=axis))


def confusion(preds, gold) -> ConfusionCounts:
    """Tally per-label TP/FP/FN of predictions against gold label vectors.

    preds is either a sequence of positive-index collections or an (n, K)
    flag matrix.
    """
    return ConfusionCounts(*_tally(preds, gold, axis=0))


def _ratio(num, den) -> float:
    return float(num / den) if den > 0 else 0.0


def _f1(precision: float, recall: float) -> float:
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def pooled_f1(tp, fp, fn):
    """(micro F1, precision, recall) from counts pooled over all labels."""
    precision = _ratio(tp, tp + fp)
    recall = _ratio(tp, tp + fn)
    return _f1(precision, recall), precision, recall


def micro_macro_f1(counts: ConfusionCounts):
    """(micro F1, macro F1, micro precision, micro recall) from pooled counts."""
    micro, precision, recall = pooled_f1(counts.tp.sum(), counts.fp.sum(),
                                         counts.fn.sum())
    per_label = [
        _f1(_ratio(t, t + p), _ratio(t, t + n))
        for t, p, n in zip(counts.tp, counts.fp, counts.fn)
    ]
    return micro, float(np.mean(per_label)), precision, recall


def micro_f1_flags(pred_flags, gold) -> float:
    """Micro F1 straight from an (n, K) prediction flag matrix."""
    return pooled_f1(*_tally(np.asarray(pred_flags), gold, axis=None))[0]


def average_precision(scores, gold_flags) -> float:
    """AP of one instance's gold set under its score-ranked labels.

    Labels are ranked by descending score with ties broken by ascending label
    index; AP averages precision-at-rank over the gold positions.
    """
    f = np.asarray(scores, dtype=float)
    y = np.asarray(gold_flags, dtype=int)
    if f.size != y.size + 1:
        raise ValueError(f"scores must have length K+1={y.size + 1}, got {f.size}")
    if y.sum() == 0:
        raise ValueError("average precision needs at least one positive label")
    order = np.argsort(-f[1:], kind="stable")
    rel = y[order]
    cum = np.cumsum(rel)
    ranks = np.arange(1, y.size + 1)
    return float((cum[rel == 1] / ranks[rel == 1]).mean())


def mean_average_precision(scores, gold) -> float:
    """Mean per-instance AP over instances with at least one positive label."""
    s = np.asarray(scores, dtype=float)
    y = gold_flags(gold)
    if len(s) != len(y):
        raise ValueError("scores and gold must have equal instance counts")
    qualifying = y.sum(axis=1) > 0
    if not qualifying.any():
        raise ValueError("no instance has a positive pre-defined label")
    s, y = s[qualifying], y[qualifying]
    order = np.argsort(-s[:, 1:], axis=1, kind="stable")
    rel = np.take_along_axis(y, order, axis=1)
    cum = np.cumsum(rel, axis=1)
    prec = cum / np.arange(1, y.shape[1] + 1)
    ap = (prec * rel).sum(axis=1) / rel.sum(axis=1)
    return float(ap.mean())


def mean_ncre(scores, gold) -> float:
    """Mean none-class ranking error over all instances."""
    s = np.asarray(scores, dtype=float)
    g = np.asarray(gold, dtype=int)
    if len(s) != len(g) or len(s) == 0:
        raise ValueError("need equally many score and gold rows, at least one")
    return float(batch_ncre(g, s).mean())


def evaluate(scores, gold, pred_flags) -> MetricsReport:
    """Full report for one evaluation split."""
    micro, macro, precision, recall = micro_macro_f1(
        confusion(np.asarray(pred_flags), gold)
    )
    return MetricsReport(
        micro_f1=micro,
        macro_f1=macro,
        micro_precision=precision,
        micro_recall=recall,
        mean_ap=mean_average_precision(scores, gold),
        mean_ncre=mean_ncre(scores, gold),
    )
