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


def sigmoid(x):
    """Numerically stable logistic function: 1 / (1 + z) for x >= 0 and
    z / (1 + z) below, with z = exp(-|x|), in one division per entry."""
    x = np.asarray(x, dtype=float)
    z = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, z) / (1.0 + z)


def binary_flags(labels) -> np.ndarray:
    """Labels or prediction flags as bools: the one reading of a label value.

    A bool array passes through as it is; numbers equal to 0 or 1 become
    flags, and any other value is refused.
    """
    y = np.asarray(labels)
    if y.dtype == bool:
        return y
    flags = y == 1
    if not (flags | (y == 0)).all():
        raise ValueError("labels must be binary flags")
    return flags


def with_none_flag(pre_labels) -> np.ndarray:
    """Prepend the derived none flag to K pre-defined label flags, as bools."""
    y = binary_flags(pre_labels)
    if y.ndim != 1 or y.size < 1:
        raise ValueError("pre-defined labels must be a nonempty 1-D array")
    return np.concatenate([[not y.any()], y])


def check_gamma(gamma: float) -> float:
    if not 0.0 <= gamma < 1.0:
        raise ValueError(f"shift parameter must lie in [0, 1), got {gamma}")
    return float(gamma)


def check_loss(kind: str, gamma: float) -> None:
    """Refuse an unknown kind, a gamma outside [0, 1), and a nonzero gamma
    for a kind that does not shift, which would ignore it."""
    stack_rank(kind, gamma)


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
# Y is a (B, K+1) bool matrix flagging the positives, none column included,
# as a Dataset holds its labels; `_stack_losses` reads any other label array
# through `binary_flags`, so 0/1 numbers become flags and other values are
# refused. F is (B, K+1) float.
# A cell stack adds a leading axis: (C, B, K+1), one loss kind and gamma per
# cell, with its cells sorted by `stack_rank`; the trainer sorts its stacks
# so, and the kernels refuse any other order. Cores return per-instance values
# (..., B) and gradients (..., B, K+1). The fused margin path forms every
# entry of its cells as a negative, shifting on the contiguous run of shifted
# cells, and then forms the few positives apart and puts them in place; the
# atl kernel runs on its contiguous run of cells. Both write into the
# buffers of a Workspace.


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


def _logistic(z, sign):
    """Logistic terms over oriented margins z and their derivatives, given
    sign -1 on positives and +1 on negatives: -log sigmoid(z) on a positive,
    softplus(z) with slope sigmoid(z) on a negative. Both sigmoids come from
    one exp(-|z|), so neither is formed as one minus the other and precision
    holds at large |z|."""
    value, dz, e, denom, side, sig = np.empty((6,) + np.shape(z))
    zs = np.multiply(z, sign, out=value)
    np.exp(np.negative(np.abs(z, out=e), out=e), out=e)
    np.add(e, 1.0, out=denom)
    # the numerator of sigmoid(zs) is 1 where zs > 0 and e where zs < 0, and
    # e <= 1, so a max against sign(zs) picks it (at zs = 0, e = 1)
    np.maximum(e, np.sign(zs, out=side), out=sig)
    sig /= denom
    np.maximum(zs, 0.0, out=value)
    value += np.log1p(e, out=dz)
    np.multiply(sig, sign, out=dz)
    return value, dz


# Each margin kind sums logistic terms over K + 1 oriented margins with 0/1
# weights: the average margin z_0 = f_0 - mean(f_1..f_K), positive on none
# instances, counts for ncrl_final only, and the K pre-defined columns
# z_i = f_i - a * f_0 (a = 1 ranks each label against the none score, a = 0
# is raw BCE) count for every margin kind, so the columns line up with the
# label and score columns. gamma shifts the negatives of ncrl_final (both
# column kinds), ncrl_noreg and bce_shifted; at gamma = 0 these are the kinds
# they reduce to. (kind, shifted) -> place in a sorted stack, which keeps
# each setting on one run: a = 0 on 0 and 5, the average column on 2-3,
# shifting on 3-5, and the cells with their own kernels last. A shifted cell
# forms every column as a shifted negative, and on 4-5 the average column's
# weight of 0 then clears it.
_RANKS = {("bce", False): 0, ("bce_shifted", False): 0,
          ("ncrl_plain", False): 1, ("ncrl_noreg", False): 1,
          ("ncrl_final", False): 2, ("ncrl_final", True): 3,
          ("ncrl_noreg", True): 4, ("bce_shifted", True): 5,
          ("atl", False): 6, ("pairwise", False): 7}
_SHIFTED_KINDS = frozenset({"ncrl_final", "ncrl_noreg", "bce_shifted"})


def stack_rank(kind: str, gamma: float) -> int:
    """Sort key of a cell in a kind-sorted stack, and the one check of a
    loss setting: refuses an unknown kind, checks a shifted kind's gamma, and
    refuses a nonzero gamma for a kind that does not shift, which would
    ignore it; `_plan` caches the check for a training run's stack."""
    if kind not in LOSS_KINDS:
        raise ValueError(f"unknown loss kind {kind!r}; expected one of {LOSS_KINDS}")
    if kind not in _SHIFTED_KINDS:
        if gamma != 0.0:
            raise ValueError(f"loss kind {kind!r} does not shift; gamma must "
                             f"be 0, got {gamma}")
        return _RANKS[kind, False]
    return _RANKS[kind, check_gamma(gamma) > 0.0]


class _Plan(NamedTuple):
    """Where each setting of a kind-sorted stack applies, and its constants."""

    margin: int = 0  # cells 0..margin-1 take the fused path
    atl: int = 0  # cells margin..atl-1 take the atl kernel, the rest pairwise
    average: slice = slice(0)  # cells whose average column counts
    shifted: int = 0  # cells shifted..margin-1 shift their negatives
    slope: object = None  # a per margin cell, (margin, 1, 1)
    gamma: object = None  # of the shifted cells: a float if shared, else (n, 1, 1)


@functools.lru_cache(maxsize=64)
def _plan(kinds: tuple, gammas: tuple) -> _Plan:
    """Cached, since a training run asks for the same stack every step; the
    arrays are read-only. A stack not sorted by `stack_rank` is refused."""
    ranks = [stack_rank(kind, gamma) for kind, gamma in zip(kinds, gammas)]
    if ranks != sorted(ranks):
        raise ValueError("a cell stack must be sorted by stack_rank, got kinds "
                         f"{list(kinds)} with gammas {list(gammas)}")
    start = [bisect.bisect_left(ranks, rank) for rank in range(8)]
    margin, shifted = start[6], start[3]
    slope = np.array([float(0 < rank < 5) for rank in ranks[:margin]])[:, None, None]
    gamma = np.array(gammas[shifted:margin], dtype=float)[:, None, None]
    for array in (slope, gamma):
        array.flags.writeable = False
    return _Plan(margin, start[7], slice(start[2], start[4]), shifted, slope,
                 float(gamma[0, 0, 0]) if len(set(gamma.flat)) == 1 else gamma)


def _margin_losses(plan, Y, F, ws, vals, grads) -> None:
    """Values into vals (M, B) and gradients into grads (M, B, K+1) of the
    margin cells of a kind-sorted stack, one contiguous run per setting.

    Every entry is first formed as a negative, which most entries are; the
    few positives are then formed apart and put in place. Every sum stays
    along one cell's rows, so each cell's numbers are those it gets alone,
    whatever else the stack holds.
    """
    k = F.shape[-1] - 1
    z, value, kept, e, denom, side = ws.take("float", F.shape, parts=6)
    af0, total, mean, spread = ws.take("small", vals.shape, parts=4)
    avg, cells = plan.average, slice(plan.shifted, plan.margin)
    np.subtract(F, np.multiply(plan.slope, F[..., :1], out=af0[..., None]), out=z)
    if avg.start < avg.stop:
        mean = np.add.reduce(F[avg, :, 1:], axis=-1, out=mean[avg])
        mean /= k
        np.subtract(F[avg, :, 0], mean, out=z[avg, :, 0])
    # every entry as a negative, as _logistic forms it: sigmoid(z) into
    # grads, sigmoid(-z) into side, and softplus(z) into value outside the
    # shifted cells
    np.exp(np.negative(np.abs(z, out=e), out=e), out=e)
    np.add(e, 1.0, out=denom)
    np.maximum(e, np.sign(z, out=side), out=grads)
    grads /= denom
    np.maximum(e, np.negative(side, out=side), out=side)
    side /= denom
    if s := plan.shifted:
        np.maximum(z[:s], 0.0, out=value[:s])
        value[:s] += np.log1p(e[:s], out=kept[:s])
    if cells.start < cells.stop:
        # -log(p) with slope sigmoid(z) * sigmoid(-z) / p, where p is
        # sigmoid(-z) + gamma held in [_P_FLOOR, 1], both clamped to zero
        # where sigmoid(-z) >= 1 - gamma; gamma is a scalar or broadcasts per
        # cell, and `kept` is the 0/1 clamp factor as floats, so it
        # multiplies without a cast
        p, sig_neg, term, dz, kept = (
            a[cells] for a in (denom, side, value, grads, kept))
        np.less(sig_neg, 1.0 - plan.gamma, out=kept)
        np.clip(np.add(sig_neg, plan.gamma, out=p), _P_FLOOR, 1.0, out=p)
        np.negative(np.log(p, out=term), out=term)
        term *= kept
        dz *= sig_neg
        dz /= p
        dz *= kept
    # the positives, apart, from the e and sigmoid(-z) formed above: the
    # term max(-z, 0) + log1p(e) = -log sigmoid(z), as _logistic forms it,
    # and the slope -sigmoid(-z)
    at = np.flatnonzero(Y)
    grads.put(at, np.negative(side.take(at)))
    value.put(at, np.maximum(np.negative(z.take(at)), 0.0) + np.log1p(e.take(at)))
    # 0/1 weights: only the average column can carry a 0. A weight of 0
    # gives each term, finite and >= 0, a +0.0, and each slope a zero of its
    # own sign
    for lo, hi in ((0, avg.start), (avg.stop, plan.margin)):
        if lo < hi:
            value[lo:hi, :, 0] = 0.0
            grads[lo:hi, :, 0] *= 0.0
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


def _atl_losses(Y, F, ws, vals, grads) -> None:
    """Values into vals (A, B) and gradients into grads (A, B, K+1) of a run
    of atl cells: n_pos * lse(f_0, positives) - (sum of the positive scores)
    + lse(f_0, negatives) - f_0 per instance.

    Both masked softmaxes of every cell come from one (2, A, B, K+1) pass,
    and every sum runs along one row of one cell, so each cell's numbers are
    those it gets alone.
    """
    e = ws.take("atl", (2,) + F.shape)
    keep = ws.take("atl_bool", (2,) + F.shape, bool)  # the scores in each softmax
    flags = ws.take("atl_flags", F.shape)
    top, total, (count, picked) = ws.take("atl_row", (2,) + vals.shape, parts=3)
    np.copyto(keep[0], Y)
    np.logical_not(keep[0], out=keep[1])
    keep[..., 0] = True  # f_0 is in both softmaxes
    e.fill(-np.inf)
    np.copyto(e, F, where=keep)
    np.maximum.reduce(e, axis=-1, out=top)
    e -= top[..., None]
    np.exp(e, out=e)
    np.add.reduce(e, axis=-1, out=total)
    e /= total[..., None]  # the two softmaxes
    lse = np.log(total, out=total)
    lse += top
    np.copyto(flags, keep[0])  # 1 on f_0 and the positives; sums of them are exact
    np.add.reduce(flags[..., 1:], axis=-1, out=count)
    np.multiply(count[..., None], e[0], out=grads)
    grads += e[1]
    grads -= flags
    np.add.reduce(np.multiply(F, flags, out=flags)[..., 1:], axis=-1, out=picked)
    np.multiply(count, lse[0], out=vals)
    vals -= picked
    vals += lse[1]
    vals -= F[..., 0]


def _pairwise_batch(Y, F):
    y = Y[:, 1:]
    f = F[:, 1:]
    diff = f[:, None, :] - f[:, :, None]  # diff[b, i, j] = f_j - f_i
    pair = y[:, :, None] & ~y[:, None, :]
    value, slope = _logistic(diff, 1.0)  # softplus and sigmoid
    vals = (value * pair).sum(axis=(1, 2))
    slope *= pair
    grads = np.zeros_like(F)
    grads[:, 1:] = slope.sum(axis=1) - slope.sum(axis=2)
    return vals, grads


def _stack_losses(kinds, Y, F, gammas, workspace=None):
    """Per-instance values (C, B) and gradients (C, B, K+1) of a cell stack.

    The one dispatch from loss kind to kernel: the margin cells share one
    fused call and the atl cells another, each on its contiguous run of the
    stack, which must be sorted by `stack_rank`; pairwise cells run one cell
    at a time. Labels reach the kernels as `binary_flags` reads them.
    """
    plan = _plan(tuple(kinds), tuple(gammas))
    Y = binary_flags(Y)
    if Y.shape != F.shape:  # the margin kernel reads Y by flat index
        raise ValueError(f"labels {Y.shape} and scores {F.shape} differ in shape")
    ws = Workspace() if workspace is None else workspace
    vals, grads = ws.take("vals", F.shape[:-1]), ws.take("grads", F.shape)
    m, a = plan.margin, plan.atl
    if m:
        _margin_losses(plan, Y[:m], F[:m], ws, vals[:m], grads[:m])
    if m < a:
        _atl_losses(Y[m:a], F[m:a], ws, vals[m:a], grads[m:a])
    for c in range(a, len(kinds)):
        vals[c], grads[c] = _pairwise_batch(Y[c], F[c])
    return vals, grads


def instance_losses(kind, Y, F, gamma=0.0):
    """Per-instance values and gradients for a whole batch.

    Y: (B, K+1) binary labels including the none column; F: (B, K+1) scores.
    """
    vals, grads = _stack_losses([kind], Y[None], F[None], [gamma])
    return vals[0], grads[0]


def batch_loss(kind, Y, F, gamma=0.0, workspace=None):
    """Mean loss over a batch and the gradient of that mean w.r.t. F.

    With (B, K+1) arrays, one kind and one gamma, returns a float and a
    (B, K+1) gradient. With a (C, B, K+1) cell stack, `kind` and `gamma` are
    sequences of C, one per cell, sorted by `stack_rank` (a stack in any
    other order is refused), and it returns the C per-cell means and the
    (C, B, K+1) gradients. A 2-D call runs as a stack of one cell, so each
    cell of a stack comes out exactly as its own 2-D call would give. Y has
    the shape of F and holds the bool flags a Dataset holds, or 0/1 numbers,
    which give the same numbers after one compare; any other label value,
    and a Y of another shape, is refused. A `workspace` lends its buffers,
    and the gradients are then a view of them.
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
    vals, grads = _stack_losses(kinds, Y, F, gammas, workspace)
    grads /= F.shape[-2]
    means = np.add.reduce(vals, axis=-1) / F.shape[-2]
    return (float(means[0]), grads[0]) if one else (means, grads)


def batch_ncre(Y, F):
    """Ranking error of every instance in a batch (labels include none column)."""
    y, F = binary_flags(Y)[:, 1:], np.asarray(F, dtype=float)
    f, f0 = F[:, 1:], F[:, :1]
    pen = (y & (f < f0) | ~y & (f > f0)) + 0.5 * (f == f0)
    return pen.sum(axis=1)


# --- per-instance operations -------------------------------------------------


def ncre_error(y, f) -> float:
    """Count reversed rankings between the none score and each pre-defined label.

    Positive labels scored below f0 and negative labels scored above f0 each
    add 1; an exact tie with f0 adds 1/2. The result lies in [0, K].
    """
    Y, F = _pair(y, f, require_finite=False)
    return float(batch_ncre(Y, F)[0])


def _per_instance(kind, doc, name=None):
    """Public one-instance form of a batched loss kind; a kind that shifts
    takes gamma."""

    def with_gamma(y, f, gamma: float) -> LossResult:
        Y, F = _pair(y, f)
        vals, grads = instance_losses(kind, Y, F, gamma)
        return LossResult(float(vals[0]), grads[0])

    def without_gamma(y, f) -> LossResult:
        return with_gamma(y, f, 0.0)

    loss = with_gamma if kind in _SHIFTED_KINDS else without_gamma
    loss.__name__ = loss.__qualname__ = name or kind
    loss.__doc__ = doc
    return loss


ncrl_plain = _per_instance(
    "ncrl_plain", "Log-sigmoid surrogate of the none-class ranking error.")


def margin_regularization(y, f) -> LossResult:
    """Average-margin term keeping f0 calibrated against the mean label score."""
    Y, F = _pair(y, f)
    k = F.shape[1] - 1
    z0 = F[0, :1] - np.add.reduce(F[0, 1:]) / k  # positive on none instances
    value, dz = _logistic(z0, 1.0 - 2.0 * Y[0, 0])
    return LossResult(float(value[0]), np.concatenate([dz, np.full(k, -dz[0] / k)]))


ncrl_final = _per_instance(
    "ncrl_final",
    """Full training loss: ranking terms plus the average-margin term, with every
    negative probability shifted by gamma (clamped terms contribute nothing).""")

ncrl_noreg = _per_instance(
    "ncrl_noreg",
    "Final loss without the average-margin term (shifted ranking terms only).")

bce = _per_instance(
    "bce",
    """Independent binary cross entropy over the pre-defined labels.

    The none score f0 is ignored and receives zero gradient; scorers still emit
    it so every loss shares one architecture.
    """)

bce_shifted = _per_instance(
    "bce_shifted",
    "BCE with each negative probability 1 - sigmoid(f_i) shifted by gamma.")

atl = _per_instance(
    "atl",
    """Adaptive-thresholding baseline: softmax terms pulling positives above f0
    and f0 above the negatives.""")

pairwise_ranking = _per_instance(
    "pairwise",
    "Logistic pairwise ranking loss over pre-defined labels only.",
    name="pairwise_ranking")
