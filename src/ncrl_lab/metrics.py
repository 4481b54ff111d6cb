"""Evaluation measures over prediction flags and score rankings.

Gold labels arrive as full (n, K+1) vectors with the none flag at column 0;
confusion counting runs over the K pre-defined labels only, so none-class
instances can contribute false positives but never true positives. Gold
labels and prediction flags are read through `losses.binary_flags`, so bools
and 0/1 numbers are counted alike and any other value is refused.
`gold_flags` also checks the gold against the shape of the flags or scores
it is compared with. All 0/0 ratios (precision, recall, F1) evaluate to 0
so runs stay comparable.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .losses import batch_ncre, binary_flags, with_none_flag


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


def score_matrix(scores, stacked: bool = False) -> np.ndarray:
    """(n, K+1) scores, or with `stacked` also (R, n, K+1) ones of R scorers."""
    s = np.asarray(scores, dtype=float)
    if s.ndim not in ((2, 3) if stacked else (2,)) or s.shape[-1] < 2:
        raise ValueError("scores must be (n, K+1) with the none score first"
                         + (", or (R, n, K+1) for R scorers" if stacked else ""))
    return s


def gold_flags(gold, shape) -> np.ndarray:
    """The (n, K) pre-defined columns of (n, K+1) gold label vectors, as a
    bool view of `binary_flags(gold)`, checked against the (..., n, K)
    `shape` of the flags or label scores they are compared with."""
    y = binary_flags(gold)
    if y.ndim != 2 or y.shape[1] < 2:
        raise ValueError("gold labels must be (n, K+1) with the none column first")
    if shape[-2] != len(y):
        raise ValueError("scores or flags and gold must have equal instance counts")
    if shape[-1] != y.shape[1] - 1:
        raise ValueError("scores or flags must match gold shape")
    return y[:, 1:]


def _tally(preds, gold, axis, stacked: bool = False):
    """TP, FP and FN counts along `axis` of an (n, K) flag matrix, or with
    `stacked` of the (R, n, K) flags of R scorers, both the flags and the
    gold read as `binary_flags`."""
    p = binary_flags(preds)
    if p.ndim != 2 + stacked:
        raise ValueError("predictions must be an (n, K) flag matrix"
                         + (" per scorer, (R, n, K)" if stacked else ""))
    y = gold_flags(gold, p.shape)
    tp = np.count_nonzero(p & y, axis=axis)
    return (tp, np.count_nonzero(p, axis=axis) - tp,
            np.count_nonzero(y, axis=axis) - tp)


def confusion(preds, gold) -> ConfusionCounts:
    """Tally per-label TP/FP/FN of an (n, K) flag matrix against gold label
    vectors."""
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


def micro_f1_flags(pred_flags, gold, stacked: bool = False):
    """Micro F1 straight from an (n, K) prediction flag matrix; with
    `stacked`, (R, n, K) flags of R scorers give a list of R F1s."""
    counts = _tally(pred_flags, gold, (-2, -1), stacked)
    if stacked:
        return [pooled_f1(*row)[0] for row in zip(*counts)]
    return pooled_f1(*counts)[0]


def average_precision(scores, gold_flags) -> float:
    """AP of one instance's gold set under its score-ranked labels: the
    one-instance case of `mean_average_precision`, given K+1 scores and K
    flags with at least one set."""
    return mean_average_precision(np.asarray(scores, dtype=float)[None],
                                  with_none_flag(gold_flags)[None])


def mean_average_precision(scores, gold) -> float:
    """Mean per-instance AP over instances with at least one positive label.

    Labels are ranked by descending score with ties broken by ascending label
    index; an instance's AP averages precision-at-rank over its gold
    positions.
    """
    s = score_matrix(scores)
    y = gold_flags(gold, s[:, 1:].shape)
    qualifying = y.any(axis=1)
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
    s = score_matrix(scores)
    gold_flags(gold, s[:, 1:].shape)  # the gold must fit the scores
    if len(s) == 0:
        raise ValueError("mean ranking error needs at least one instance")
    return float(batch_ncre(gold, s).mean())


def evaluate(scores, gold, pred_flags) -> MetricsReport:
    """Full report for one evaluation split."""
    micro, macro, precision, recall = micro_macro_f1(
        confusion(pred_flags, gold)
    )
    return MetricsReport(
        micro_f1=micro,
        macro_f1=macro,
        micro_precision=precision,
        micro_recall=recall,
        mean_ap=mean_average_precision(scores, gold),
        mean_ncre=mean_ncre(scores, gold),
    )
