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

import functools
from dataclasses import dataclass

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
# Y is a (B, K+1) binary matrix including the none column; F is (B, K+1) float.
# A cell stack adds a leading axis: (C, B, K+1), one loss kind and gamma per
# cell. Cores return per-instance values (..., B) and gradients (..., B, K+1).


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
    positive = np.asarray(positive, dtype=bool)
    sign = 1.0 - 2.0 * positive  # -1 on positives, whose term is softplus(-z)
    zs = z * sign
    e = np.exp(-np.abs(z))
    up = zs >= 0
    # sigmoid(zs): the numerator is 1 or e, and e <= 1, so a max against the
    # 0/1 flags picks it; sigmoid(-zs) takes the other one
    denom = 1.0 + e
    sig = np.maximum(e, up) / denom
    value = np.maximum(zs, 0.0) + np.log1p(e)
    dz = sig * sign
    shifted = np.asarray(gamma, dtype=float) > 0.0
    if shifted.any():  # tested on gamma alone, often much smaller than z
        shifted = shifted & ~positive
        sig_neg = np.maximum(e, ~up) / denom
        kept = sig_neg < 1.0 - gamma  # not clamped; a 0/1 factor on finite terms
        p = np.maximum(np.minimum(sig_neg + gamma, 1.0), _P_FLOOR)
        value = np.where(shifted, -np.log(p) * kept, value)
        dz = np.where(shifted, sig * sig_neg / p * kept, dz)
    return value, dz


# Each margin kind is a weighted sum of logistic terms over K + 1 oriented
# margins: the average margin z_0 = f_0 - mean(f_1..f_K), positive on none
# instances, and K pre-defined columns z_i = f_i - a * f_0 (a = 1 ranks each
# label against the none score, a = 0 is raw BCE), so the columns line up
# with the label and score columns.
# kind -> (a, (weight, shifted) of the average column, (weight, shifted) of
# the pre-defined columns). Only shifted columns apply gamma to negatives.
_MARGIN_KINDS = {
    "ncrl_plain": (1.0, (0.0, False), (1.0, False)),
    "ncrl_noreg": (1.0, (0.0, False), (1.0, True)),
    "ncrl_final": (1.0, (1.0, True), (1.0, True)),
    "margin_regularization": (1.0, (1.0, False), (0.0, False)),
    "bce": (0.0, (0.0, False), (1.0, False)),
    "bce_shifted": (0.0, (0.0, False), (1.0, True)),
}


@functools.lru_cache(maxsize=64)
def _columns(kinds: tuple, gammas: tuple, k: int):
    """Per-cell slope a (C, 1, 1), column weights and gammas (C, 1, K+1).

    Cached, since a training run asks for the same stack every step; the
    arrays are read-only.
    """
    slopes, weights, shifts = [], [], []
    for kind, gamma in zip(kinds, gammas):
        a, (avg_w, avg_s), (rank_w, rank_s) = _MARGIN_KINDS[kind]
        if avg_s or rank_s:
            gamma = check_gamma(gamma)
        slopes.append(a)
        weights.append([avg_w] + [rank_w] * k)
        shifts.append([gamma if avg_s else 0.0] + [gamma if rank_s else 0.0] * k)
    out = (np.array(slopes)[:, None, None], np.array(weights)[:, None, :],
           np.array(shifts)[:, None, :])
    for array in out:
        array.flags.writeable = False
    return out


def _margin_losses(kinds, Y, F, gammas):
    """Every margin kind of a cell stack through one logistic_terms call."""
    k = F.shape[-1] - 1
    a, weight, gamma = _columns(tuple(kinds), tuple(gammas), k)
    f0, f = F[..., :1], F[..., 1:]
    z = F - a * f0
    z[..., :1] = f0 - f.sum(axis=-1, keepdims=True) / k
    value, dz = logistic_terms(z, Y == 1, gamma)
    value *= weight
    dz *= weight
    # lift dz back to the scores: f_0 takes dz_0 and -a * dz_i from each
    # pre-defined column; dz_0 spreads -dz_0 / k over f_1..f_K
    avg_dz = dz[..., :1]
    grads = dz - avg_dz / k
    grads[..., :1] = avg_dz - a * dz[..., 1:].sum(axis=-1, keepdims=True)
    return value[..., 1:].sum(axis=-1) + value[..., 0], grads


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


def _stack_losses(kinds, Y, F, gammas):
    """Per-instance values (C, B) and gradients (C, B, K+1) of a cell stack.

    The one dispatch from loss kind to kernel: margin cells share one fused
    call; atl and pairwise cells run their own kernels one cell at a time.
    """
    own = [c for c, kind in enumerate(kinds) if kind in _OWN_KERNELS]
    if not own:
        return _margin_losses(kinds, Y, F, gammas)
    if len(kinds) == 1:  # a lone atl or pairwise cell needs no stack buffers
        vals, grads = _OWN_KERNELS[kinds[0]](Y[0], F[0])
        return vals[None], grads[None]
    vals, grads = np.empty(F.shape[:-1]), np.empty(F.shape)
    fused = [c for c in range(len(kinds)) if c not in own]
    if fused:
        vals[fused], grads[fused] = _margin_losses(
            [kinds[c] for c in fused], Y[fused], F[fused], [gammas[c] for c in fused])
    for c in own:
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


def batch_loss(kind, Y, F, gamma=0.0):
    """Mean loss over a batch and the gradient of that mean w.r.t. F.

    With (B, K+1) arrays, one kind and one gamma, returns a float and a
    (B, K+1) gradient. With a (C, B, K+1) cell stack, `kind` and `gamma` are
    sequences of C, one per cell, and it returns the C per-cell means and the
    (C, B, K+1) gradients. A 2-D call runs as a stack of one cell, so each
    cell of a stack comes out exactly as its own 2-D call would give.
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
    vals, grads = _stack_losses(kinds, Y, F, gammas)
    grads /= F.shape[-2]
    means = vals.sum(axis=-1) / F.shape[-2]
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
