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
# Each returns per-instance values (B,) and per-instance gradients (B, K+1).


def logistic_terms(z, positive, gamma):
    """Logistic terms over oriented margins z and their derivatives dz.

    Positive entries give -log sigmoid(z). Negative entries give
    -log(min(sigmoid(-z) + gamma, 1)); terms with sigmoid(-z) >= 1 - gamma are
    clamped to zero value and zero slope. At gamma = 0 negatives are exactly
    softplus(z) with slope sigmoid(z), untouched by the probability floor.
    Both sigmoids come from one exp(-|z|), so neither is formed as one minus
    the other and precision holds at large |z|.
    """
    e = np.exp(-np.abs(z))
    tail = np.log1p(e)
    sig = np.where(z >= 0, 1.0, e) / (1.0 + e)  # sigmoid(z)
    sig_neg = np.where(z >= 0, e, 1.0) / (1.0 + e)  # sigmoid(-z)
    if gamma == 0.0:
        neg_val, neg_dz = np.maximum(z, 0.0) + tail, sig
    else:
        clamped = sig_neg >= 1.0 - gamma
        p = np.maximum(np.minimum(sig_neg + gamma, 1.0), _P_FLOOR)
        neg_val = np.where(clamped, 0.0, -np.log(p))
        neg_dz = np.where(clamped, 0.0, sig * sig_neg / p)
    return (np.where(positive, np.maximum(-z, 0.0) + tail, neg_val),
            np.where(positive, -sig_neg, neg_dz))


# Oriented margins. Each maps (Y, F) to positive flags, margins z of shape
# (B, n), and the linear map lifting dz back to the K+1 scores.


def _rank_margin(Y, F):
    """z_i = f_i - f_0 over the pre-defined labels."""
    def lift(dz):
        return np.concatenate([-dz.sum(axis=1, keepdims=True), dz], axis=1)
    return Y[:, 1:] == 1, F[:, 1:] - F[:, :1], lift


def _average_margin(Y, F):
    """z = f_0 - mean(f_1..f_K), positive on none instances."""
    k = F.shape[1] - 1
    def lift(dz):
        return np.concatenate([dz, np.repeat(-dz / k, k, axis=1)], axis=1)
    return Y[:, :1] == 1, F[:, :1] - F[:, 1:].sum(axis=1, keepdims=True) / k, lift


def _raw_margin(Y, F):
    """z_i = f_i over the pre-defined labels; f_0 takes no part."""
    def lift(dz):
        return np.concatenate([np.zeros_like(dz[:, :1]), dz], axis=1)
    return Y[:, 1:] == 1, F[:, 1:], lift


# Each margin loss is a sum of logistic terms: kind -> ((margin, shifted), ...).
# Only shifted terms apply gamma to their negatives.
_MARGIN_TERMS = {
    "ncrl_plain": ((_rank_margin, False),),
    "ncrl_noreg": ((_rank_margin, True),),
    "ncrl_final": ((_rank_margin, True), (_average_margin, True)),
    "margin_regularization": ((_average_margin, False),),
    "bce": ((_raw_margin, False),),
    "bce_shifted": ((_raw_margin, True),),
}


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
    vals = (softplus(diff) * pair).sum(axis=(1, 2))
    sig = sigmoid(diff) * pair
    grads = np.zeros_like(F)
    grads[:, 1:] = sig.sum(axis=1) - sig.sum(axis=2)
    return vals, grads


def _ncre_batch(Y, F):
    y = Y[:, 1:]
    f = F[:, 1:]
    f0 = F[:, :1]
    pen = (y == 1) * (f < f0) + (y == 0) * (f > f0) + 0.5 * (f == f0)
    return pen.sum(axis=1)


def _instance_losses(kind, Y, F, gamma):
    """instance_losses over every kind, margin_regularization included."""
    if kind == "atl":
        return _atl_batch(Y, F)
    if kind == "pairwise":
        return _pairwise_batch(Y, F)
    vals = grads = 0.0
    for margin, shifted in _MARGIN_TERMS[kind]:
        positive, z, lift = margin(Y, F)
        value, dz = logistic_terms(z, positive,
                                   check_gamma(gamma) if shifted else 0.0)
        vals = vals + value.sum(axis=1)
        grads = grads + lift(dz)
    return vals, grads


def instance_losses(kind, Y, F, gamma=0.0):
    """Per-instance values and gradients for a whole batch.

    Y: (B, K+1) binary labels including the none column; F: (B, K+1) scores.
    """
    if kind not in LOSS_KINDS:
        raise ValueError(f"unknown loss kind {kind!r}; expected one of {LOSS_KINDS}")
    return _instance_losses(kind, Y, F, gamma)


def batch_loss(kind, Y, F, gamma=0.0):
    """Mean loss over a batch and the gradient of that mean w.r.t. F."""
    if not np.isfinite(F).all():
        raise ValueError("scores must be finite")
    vals, grads = instance_losses(kind, Y, F, gamma)
    return float(vals.mean()), grads / len(F)


def batch_ncre(Y, F):
    """Ranking error of every instance in a batch (labels include none column)."""
    return _ncre_batch(np.asarray(Y), np.asarray(F, dtype=float))


# --- per-instance operations -------------------------------------------------


def ncre_error(y, f) -> float:
    """Count reversed rankings between the none score and each pre-defined label.

    Positive labels scored below f0 and negative labels scored above f0 each
    add 1; an exact tie with f0 adds 1/2. The result lies in [0, K].
    """
    Y, F = _pair(y, f, require_finite=False)
    return float(_ncre_batch(Y, F)[0])


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
