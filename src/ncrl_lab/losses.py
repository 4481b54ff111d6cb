"""Loss functions and error measures for multi-label problems with a none class.

Score vectors have length K+1: index 0 is the none class, indices 1..K are the
pre-defined classes. Label arguments carry only the K pre-defined flags; the
none flag y0 is derived (y0 = 1 iff every pre-defined label is negative).

All losses return exact analytic gradients over the full K+1 scores. The
margin-based losses (ncrl_plain, ncrl_final, margin_regularization, atl)
depend only on score differences, so their gradients sum to zero and their
values are invariant to adding a constant to every score.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

LOSS_KINDS = (
    "ncrl_plain",
    "ncrl_final",
    "ncrl_noreg",
    "bce",
    "bce_shifted",
    "atl",
    "pairwise",
)

_P_FLOOR = 1e-12  # guard against log(0) on saturated shifted probabilities


@dataclass
class LossResult:
    """Scalar loss value and its gradient over all K+1 scores."""

    value: float
    grad: np.ndarray


@dataclass
class Margins:
    """Per-label and average margins of a score vector.

    m_pos[i-1] = f_i - f_0 and m_neg = -m_pos for the pre-defined labels;
    m0_pos = f_0 - mean(f_1..f_K) and m0_neg = -m0_pos.
    """

    m_pos: np.ndarray
    m_neg: np.ndarray
    m0_pos: float
    m0_neg: float


def sigmoid(x):
    """Numerically stable logistic function."""
    x = np.asarray(x, dtype=float)
    z = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z))


def softplus(x):
    """log(1 + exp(x)) without overflow; note -log sigmoid(x) = softplus(-x)."""
    x = np.asarray(x, dtype=float)
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def with_none_flag(pre_labels) -> np.ndarray:
    """Prepend the derived none flag to K pre-defined label flags."""
    y = np.asarray(pre_labels, dtype=int)
    if y.ndim != 1 or y.size < 1:
        raise ValueError("pre-defined labels must be a nonempty 1-D array")
    if not np.isin(y, (0, 1)).all():
        raise ValueError("labels must be binary flags")
    return np.concatenate([[1 - y.max(initial=0)], y])


def validate_labels(labels) -> np.ndarray:
    """Check a full K+1 label vector: binary flags with a consistent none flag."""
    y = np.asarray(labels, dtype=int)
    if y.ndim != 1 or y.size < 2:
        raise ValueError("label vector must cover the none class plus K >= 1 labels")
    if not np.isin(y, (0, 1)).all():
        raise ValueError("labels must be binary flags")
    if y[0] != int(y[1:].max() == 0):
        raise ValueError("none flag inconsistent with pre-defined labels")
    return y


def margins(f) -> Margins:
    f = np.asarray(f, dtype=float)
    m_pos = f[1:] - f[0]
    k = f.size - 1
    m0_pos = float(f[0] - f[1:].sum() / k)
    return Margins(m_pos=m_pos, m_neg=-m_pos, m0_pos=m0_pos, m0_neg=-m0_pos)


def check_kind(kind: str) -> None:
    if kind not in LOSS_KINDS:
        raise ValueError(f"unknown loss kind {kind!r}; expected one of {LOSS_KINDS}")


def check_gamma(gamma: float) -> float:
    if not 0.0 <= gamma < 1.0:
        raise ValueError(f"shift parameter must lie in [0, 1), got {gamma}")
    return float(gamma)


def _pair(pre_labels, scores, require_finite=True):
    """Validate one (labels, scores) pair and lift it to a batch of one."""
    full = with_none_flag(pre_labels)
    f = np.asarray(scores, dtype=float)
    if f.shape != full.shape:
        raise ValueError(
            f"scores must be 1-D of length K+1={full.size}, got shape {f.shape}"
        )
    if require_finite and not np.isfinite(f).all():
        raise ValueError("scores must be finite")
    return full[None, :], f[None, :]


# --- batched cores -----------------------------------------------------------
# Y is a (B, K+1) binary matrix including the none column, as 0/1 ints or as
# bools flagging the positives; F is (B, K+1) float.
# A cell stack adds a leading axis: (C, B, K+1), one loss kind and gamma per
# cell. Cores return per-instance values (..., B) and gradients (..., B, K+1).
# In a stack sorted by `stack_rank`, each step of the fused margin path runs
# on one contiguous run of cells and writes into the buffers of a Workspace.


class Workspace:
    """Scratch buffers for the loss kernels of one cell stack.

    `take` returns views of a named flat buffer, which grows to the largest
    size asked of it and no further. The arrays `batch_loss` returns with a
    workspace are such views, valid until its next call with that workspace.
    """

    def __init__(self):
        self._buffers, self._views = {}, {}

    def take(self, name: str, shape: tuple, dtype=float, parts: int = 0):
        """An array of `shape`, or with `parts` a tuple of that many; the
        same views again while the request stays the same."""
        key, views = self._views.get(name, (None, None))
        if key != (shape, parts):
            size = math.prod(shape) * max(parts, 1)
            buffer = self._buffers.get(name)
            if buffer is None or buffer.size < size:
                buffer = self._buffers[name] = np.empty(size, dtype)
            views = buffer[:size].reshape((parts,) + shape if parts else shape)
            views = tuple(views) if parts else views
            self._views[name] = (shape, parts), views
        return views


def logistic_terms(z, positive, gamma):
    """Logistic terms over oriented margins z and their derivatives dz.

    Positive entries give -log sigmoid(z). Negative entries give
    -log(min(sigmoid(-z) + gamma, 1)); terms with sigmoid(-z) >= 1 - gamma are
    clamped to zero value and zero slope. gamma is a scalar or an array
    broadcasting against z. Where gamma = 0 negatives are exactly softplus(z)
    with slope sigmoid(z), untouched by the probability floor. Both sigmoids
    come from one exp(-|z|), so neither is formed as one minus the other and
    precision holds at large |z|.
    """
    z = np.asarray(z, dtype=float)
    positive = np.asarray(positive, dtype=bool)
    sign, value, dz, kept, *work = (np.empty(z.shape) for _ in range(8))
    np.multiply(positive, -2.0, out=sign)  # -1 on positives, +1 on negatives
    sign += 1.0
    _logistic(z, sign, value, dz, work)
    gamma = np.asarray(gamma, dtype=float)
    if (gamma > 0.0).any():  # tested on gamma alone, often much smaller than z
        mask = np.broadcast_to((gamma > 0.0) & ~positive, z.shape)
        _shift(work, gamma, mask, value, dz, kept)
    return value, dz


def _logistic(z, sign, value, dz, work) -> None:
    """The unshifted terms of logistic_terms into value and dz, given sign
    -1 on positives and +1 on negatives. The four `work` arrays are left
    holding what _shift reads: e, 1 + e, sign(zs) and sigmoid(zs), where
    zs = z * sign."""
    e, denom, side, sig = work
    zs = np.multiply(z, sign, out=value)
    np.abs(z, out=e)
    np.negative(e, out=e)
    np.exp(e, out=e)
    np.add(e, 1.0, out=denom)
    # the numerator of sigmoid(zs) is 1 where zs > 0 and e where zs < 0, and
    # e <= 1, so a max against sign(zs) picks it (at zs = 0, e = 1);
    # sigmoid(-zs) takes the other one
    np.sign(zs, out=side)
    np.maximum(e, side, out=sig)
    sig /= denom
    np.maximum(zs, 0.0, out=value)
    value += np.log1p(e, out=dz)
    np.multiply(sig, sign, out=dz)


def _shift(work, gamma, mask, value, dz, kept) -> None:
    """Overwrite value and dz with the shifted terms where `mask` is set.

    `work` is as _logistic left it for the same entries, and is spent here;
    `kept` is a float array shaped like value, so the 0/1 clamp factor
    multiplies without a cast.
    """
    e, denom, side, sig = work
    sig_neg = np.negative(side, out=side)
    np.maximum(e, sig_neg, out=sig_neg)
    sig_neg /= denom
    np.less(sig_neg, 1.0 - gamma, out=kept)  # not clamped; a 0/1 factor
    p = np.add(sig_neg, gamma, out=denom)
    np.minimum(p, 1.0, out=p)
    np.maximum(p, _P_FLOOR, out=p)
    term = np.log(p, out=e)
    np.negative(term, out=term)
    term *= kept
    np.putmask(value, mask, term)
    np.multiply(sig, sig_neg, out=term)
    term /= p
    term *= kept
    np.putmask(dz, mask, term)


# Each margin kind sums logistic terms over K + 1 oriented margins with 0/1
# weights: the average margin z_0 = f_0 - mean(f_1..f_K), positive on none
# instances, counts for ncrl_final and margin_regularization, and the K
# pre-defined columns z_i = f_i - a * f_0 (a = 1 ranks each label against the
# none score, a = 0 is raw BCE) count for every other kind, so the columns
# line up with the label and score columns. gamma shifts the negatives of
# ncrl_final (both column kinds), ncrl_noreg and bce_shifted; at gamma = 0
# these are the kinds they reduce to. (kind, shifted) -> place in a sorted
# stack, which keeps each setting on one run: a = 0 on 0 and 6, the average
# column on 2-4, shifting on 4-6 (the average column's on 4),
# margin_regularization on 2, and the cells with their own kernels last.
_RANKS = {("bce", False): 0, ("bce_shifted", False): 0,
          ("ncrl_plain", False): 1, ("ncrl_noreg", False): 1,
          ("margin_regularization", False): 2,
          ("ncrl_final", False): 3, ("ncrl_final", True): 4,
          ("ncrl_noreg", True): 5, ("bce_shifted", True): 6,
          ("atl", False): 7, ("pairwise", False): 8}
_SHIFTED_KINDS = frozenset({"ncrl_final", "ncrl_noreg", "bce_shifted"})


def stack_rank(kind: str, gamma: float) -> int:
    """Sort key of a cell in a kind-sorted stack; checks a shifted kind's gamma."""
    return _RANKS[kind, kind in _SHIFTED_KINDS and check_gamma(gamma) > 0.0]


class _Plan(NamedTuple):
    """Where each setting of a kind-sorted stack applies, and its constants;
    `order` is None for a sorted stack and its sorting permutation otherwise.
    """

    order: object = None
    margin: int = 0  # cells 0..margin-1 take the fused path
    average: slice = slice(0)  # cells whose average column counts
    unranked: slice = slice(0)  # margin_regularization cells
    shifted: int = 0  # cells shifted..margin-1 shift their negatives
    slope: object = None  # a per margin cell, (margin, 1, 1)
    gamma: object = None  # of the shifted cells: a float if shared, else (n, 1, 1)


@functools.lru_cache(maxsize=64)
def _plan(kinds: tuple, gammas: tuple) -> _Plan:
    """Cached, since a training run asks for the same stack every step; the
    arrays are read-only."""
    ranks = [stack_rank(kind, gamma) for kind, gamma in zip(kinds, gammas)]
    order = sorted(range(len(ranks)), key=ranks.__getitem__)
    if order != list(range(len(ranks))):
        return _Plan(order=np.array(order))
    start = [bisect.bisect_left(ranks, rank) for rank in range(10)]
    margin, shifted = start[7], start[4]
    slope = np.array([float(0 < rank < 6) for rank in ranks[:margin]])[:, None, None]
    gamma = np.array(gammas[shifted:margin], dtype=float)[:, None, None]
    for array in (slope, gamma):
        array.flags.writeable = False
    return _Plan(None, margin, slice(start[2], start[5]), slice(start[2], start[3]),
                 shifted, slope,
                 float(gamma[0, 0, 0]) if len(set(gamma.flat)) == 1 else gamma)


def _margin_losses(plan, Y, F, ws, vals, grads) -> None:
    """Values into vals (M, B) and gradients into grads (M, B, K+1) of the
    margin cells of a kind-sorted stack, one contiguous run per setting.

    Every sum stays along one cell's rows, so each cell's numbers are those
    it gets alone, whatever else the stack holds.
    """
    k = F.shape[-1] - 1
    z, sign, value, kept, *work = ws.take("float", F.shape, parts=8)
    positive, mask = ws.take("bool", F.shape, bool, parts=2)
    af0, total, mean, spread = ws.take("small", vals.shape, parts=4)
    avg, cells = plan.average, slice(plan.shifted, plan.margin)
    np.subtract(F, np.multiply(plan.slope, F[..., :1], out=af0[..., None]), out=z)
    if avg.start < avg.stop:
        mean = np.add.reduce(F[avg, :, 1:], axis=-1, out=mean[avg])
        mean /= k
        np.subtract(F[avg, :, 0], mean, out=z[avg, :, 0])
    if Y.dtype == bool:  # a trainer hands its labels over as these flags
        positive = Y
    else:
        positive = np.equal(Y, 1, out=positive)
    # -1 on positives, +1 on negatives: a cast and two float passes run
    # faster than one bool * float pass
    np.copyto(sign, positive)
    sign *= -2.0
    sign += 1.0
    _logistic(z, sign, value, grads, work)
    if cells.start < cells.stop:
        # the negatives, on the average column only for ncrl_final
        mask = np.logical_not(positive[cells], out=mask[cells])
        mask[avg.stop - cells.start:, :, 0] = False
        _shift([w[cells] for w in work], plan.gamma, mask, value[cells],
               grads[cells], kept[cells])
    # 0/1 weights: only the average column and margin_regularization's
    # pre-defined columns can carry a 0
    for lo, hi in ((0, avg.start), (avg.stop, plan.margin)):
        if lo < hi:
            value[lo:hi, :, 0] *= 0.0
            grads[lo:hi, :, 0] *= 0.0
    if plan.unranked.start < plan.unranked.stop:
        value[plan.unranked, :, 1:] *= 0.0
        grads[plan.unranked, :, 1:] *= 0.0
    # lift dz back to the scores: f_0 takes dz_0 and -a * dz_i from each
    # pre-defined column; dz_0 spreads -dz_0 / k over f_1..f_K (outside the
    # average cells dz_0 is a signed zero that leaves them as they are)
    np.add.reduce(grads[..., 1:], axis=-1, out=total)
    total *= plan.slope[..., 0]
    np.subtract(grads[..., 0], total, out=total)  # the f_0 column
    if avg.start < avg.stop:
        spread = np.divide(grads[avg, :, :1], k, out=spread[avg, :, None])
        grads[avg] -= spread  # column 0 is overwritten below
    grads[..., 0] = total
    np.add.reduce(value[..., 1:], axis=-1, out=vals)
    vals += value[..., 0]


def _masked_lse_softmax(F, mask):
    shifted = np.where(mask, F, -np.inf)
    mx = shifted.max(axis=1, keepdims=True)
    ex = np.exp(shifted - mx)
    total = ex.sum(axis=1, keepdims=True)
    return (mx + np.log(total)).ravel(), ex / total


def _atl_batch(Y, F):
    b = F.shape[0]
    y = Y[:, 1:]
    always = np.ones((b, 1), dtype=bool)
    pos_mask = np.concatenate([always, y == 1], axis=1)
    neg_mask = np.concatenate([always, y == 0], axis=1)
    lse_p, sm_p = _masked_lse_softmax(F, pos_mask)
    lse_n, sm_n = _masked_lse_softmax(F, neg_mask)
    n_pos = (y == 1).sum(axis=1)
    vals = n_pos * lse_p - (F[:, 1:] * (y == 1)).sum(axis=1) + lse_n - F[:, 0]
    grads = n_pos[:, None] * sm_p + sm_n
    grads[:, 1:] -= y == 1
    grads[:, 0] -= 1.0
    return vals, grads


def _pairwise_batch(Y, F):
    y = Y[:, 1:]
    f = F[:, 1:]
    diff = f[:, None, :] - f[:, :, None]  # diff[b, i, j] = f_j - f_i
    pair = (y == 1)[:, :, None] & (y == 0)[:, None, :]
    value, slope = logistic_terms(diff, False, 0.0)  # softplus and sigmoid
    vals = (value * pair).sum(axis=(1, 2))
    slope *= pair
    grads = np.zeros_like(F)
    grads[:, 1:] = slope.sum(axis=1) - slope.sum(axis=2)
    return vals, grads


_OWN_KERNELS = {"atl": _atl_batch, "pairwise": _pairwise_batch}


def _stack_losses(kinds, Y, F, gammas, workspace=None):
    """Per-instance values (C, B) and gradients (C, B, K+1) of a cell stack.

    The one dispatch from loss kind to kernel: margin cells share one fused
    call; atl and pairwise cells run their own kernels one cell at a time.
    A stack not sorted by `stack_rank` is sorted here and its results put
    back in the given order.
    """
    plan = _plan(tuple(kinds), tuple(gammas))
    if plan.order is not None:
        order = plan.order
        vals, grads = _stack_losses([kinds[c] for c in order], Y[order], F[order],
                                    [gammas[c] for c in order], workspace)
        inverse = np.argsort(order)
        return vals[inverse], grads[inverse]
    if len(kinds) == 1 and not plan.margin:  # a lone atl or pairwise cell
        vals, grads = _OWN_KERNELS[kinds[0]](Y[0], F[0])
        return vals[None], grads[None]
    ws = Workspace() if workspace is None else workspace
    vals, grads = ws.take("vals", F.shape[:-1]), ws.take("grads", F.shape)
    if plan.margin:
        m = plan.margin
        _margin_losses(plan, Y[:m], F[:m], ws, vals[:m], grads[:m])
    for c in range(plan.margin, len(kinds)):
        vals[c], grads[c] = _OWN_KERNELS[kinds[c]](Y[c], F[c])
    return vals, grads


def _instance_losses(kind, Y, F, gamma):
    """instance_losses of every kind, margin_regularization too, as one cell."""
    vals, grads = _stack_losses([kind], Y[None], F[None], [gamma])
    return vals[0], grads[0]


def instance_losses(kind, Y, F, gamma=0.0):
    """Per-instance values and gradients for a whole batch.

    Y: (B, K+1) binary labels including the none column; F: (B, K+1) scores.
    """
    check_kind(kind)
    return _instance_losses(kind, Y, F, gamma)


def batch_loss(kind, Y, F, gamma=0.0, workspace=None):
    """Mean loss over a batch and the gradient of that mean w.r.t. F.

    With (B, K+1) arrays, one kind and one gamma, returns a float and a
    (B, K+1) gradient. With a (C, B, K+1) cell stack, `kind` and `gamma` are
    sequences of C, one per cell, and it returns the C per-cell means and the
    (C, B, K+1) gradients. A 2-D call runs as a stack of one cell, so each
    cell of a stack comes out exactly as its own 2-D call would give, in any
    cell order; a stack sorted by `stack_rank` skips a sort and a copy. Y
    holds 0/1 ints or the bools `Y == 1`, which give the same numbers and
    spare the kernel a compare. A `workspace` lends its buffers, and the
    gradients are then a view of them.
    """
    F = np.asarray(F, dtype=float)
    if not np.isfinite(F).all():
        raise ValueError("scores must be finite")
    Y = np.asarray(Y)
    one = F.ndim == 2  # a stack of one cell, unwrapped on return
    if one:
        kind, Y, F, gamma = [kind], Y[None], F[None], [gamma]
    kinds, gammas = list(kind), list(gamma)
    if F.ndim != 3 or not len(kinds) == len(gammas) == len(F):
        raise ValueError("a stacked batch needs (C, B, K+1) scores and C kinds "
                         "and gammas")
    for name in kinds:
        check_kind(name)
    vals, grads = _stack_losses(kinds, Y, F, gammas, workspace)
    grads /= F.shape[-2]
    means = np.add.reduce(vals, axis=-1) / F.shape[-2]
    return (float(means[0]), grads[0]) if one else (means, grads)


def batch_ncre(Y, F):
    """Ranking error of every instance in a batch (labels include none column)."""
    y, F = np.asarray(Y)[:, 1:], np.asarray(F, dtype=float)
    f, f0 = F[:, 1:], F[:, :1]
    pen = (y == 1) * (f < f0) + (y == 0) * (f > f0) + 0.5 * (f == f0)
    return pen.sum(axis=1)


# --- per-instance operations -------------------------------------------------


def ncre_error(y, f) -> float:
    """Count reversed rankings between the none score and each pre-defined label.

    Positive labels scored below f0 and negative labels scored above f0 each
    add 1; an exact tie with f0 adds 1/2. The result lies in [0, K].
    """
    Y, F = _pair(y, f, require_finite=False)
    return float(batch_ncre(Y, F)[0])


def _per_instance(kind, doc, takes_gamma=False, name=None):
    """Public one-instance form of a batched loss kind."""

    def with_gamma(y, f, gamma: float) -> LossResult:
        Y, F = _pair(y, f)
        vals, grads = _instance_losses(kind, Y, F, gamma)
        return LossResult(float(vals[0]), grads[0])

    def without_gamma(y, f) -> LossResult:
        return with_gamma(y, f, 0.0)

    loss = with_gamma if takes_gamma else without_gamma
    loss.__name__ = loss.__qualname__ = name or kind
    loss.__doc__ = doc
    return loss


ncrl_plain = _per_instance(
    "ncrl_plain", "Log-sigmoid surrogate of the none-class ranking error.")

margin_regularization = _per_instance(
    "margin_regularization",
    "Average-margin term keeping f0 calibrated against the mean label score.")


def shifted_negative_prob(m_neg: float, gamma: float) -> float:
    """Negative-label probability sigmoid(m_neg) raised by gamma, capped at 1."""
    check_gamma(gamma)
    p = min(float(sigmoid(m_neg)) + gamma, 1.0)
    return max(p, _P_FLOOR)


ncrl_final = _per_instance(
    "ncrl_final",
    """Full training loss: ranking terms plus the average-margin term, with every
    negative probability shifted by gamma (clamped terms contribute nothing).""",
    takes_gamma=True)

ncrl_noreg = _per_instance(
    "ncrl_noreg",
    "Final loss without the average-margin term (shifted ranking terms only).",
    takes_gamma=True)

bce = _per_instance(
    "bce",
    """Independent binary cross entropy over the pre-defined labels.

    The none score f0 is ignored and receives zero gradient; scorers still emit
    it so every loss shares one architecture.
    """)

bce_shifted = _per_instance(
    "bce_shifted",
    "BCE with each negative probability 1 - sigmoid(f_i) shifted by gamma.",
    takes_gamma=True)

atl = _per_instance(
    "atl",
    """Adaptive-thresholding baseline: softmax terms pulling positives above f0
    and f0 above the negatives.""")

pairwise_ranking = _per_instance(
    "pairwise",
    "Logistic pairwise ranking loss over pre-defined labels only.",
    name="pairwise_ranking")


def hamming_error(y, h) -> int:
    """Number of pre-defined labels misclassified by prediction flags h."""
    y = np.asarray(y, dtype=int)
    h = np.asarray(h, dtype=int)
    if y.shape != h.shape:
        raise ValueError("labels and predictions must have equal length")
    return int((y != h).sum())


def ranking_error(y, f) -> float:
    """Reversed (positive, negative) pairs among pre-defined labels, ties 1/2."""
    y = np.asarray(y, dtype=int)
    f = np.asarray(f, dtype=float)
    if f.size != y.size + 1:
        raise ValueError(f"scores must have length K+1={y.size + 1}, got {f.size}")
    scores = f[1:]
    pair = (y == 1)[:, None] & (y == 0)[None, :]
    rev = (scores[:, None] < scores[None, :]) + 0.5 * (scores[:, None] == scores[None, :])
    return float((rev * pair).sum())
