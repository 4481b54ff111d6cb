"""Property checks of every loss kind against references written out here.

2-D `batch_loss` runs as a one-cell stack, so comparing it with a stack no
longer tests two code paths. These properties instead pin each kind to the
paper's identities and to a per-instance reference in plain numpy, at score
magnitudes up to 1e3 and down to K = 1, alone and in mixed stacks. The atl
and margin kernels are also pinned bit for bit to references that form
each cell alone as the kernels once did, at score magnitudes up to 1e300;
the margin kernel's pin compares signed zeros too, at exact +0 and -0 scores.
"""

import json
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ncrl_lab import losses
from ncrl_lab.losses import (LOSS_KINDS, Workspace, batch_loss,
                             instance_losses, margin_regularization, sigmoid,
                             stack_rank)
from ncrl_lab.model import (ADAPTIVE_KINDS, LinearScorer, MlpScorer,
                            TrainConfig, scorer_from_dict, scorer_to_dict)

GAMMAS = (0.0, 0.01, 0.05, 0.2)
SHIFT_INVARIANT = ("ncrl_plain", "ncrl_final", "ncrl_noreg", "atl", "pairwise")
SHIFTED = ("ncrl_final", "ncrl_noreg", "bce_shifted")


def taken(kind, gamma):
    """The drawn `gamma` for a kind that shifts, else 0, the only gamma a
    kind that does not shift is given."""
    return gamma if kind in SHIFTED else 0.0


def sorted_cells(kinds, gammas):
    """The drawn cells' kinds and taken gammas, sorted by `stack_rank` as a
    stack must be."""
    cells = sorted(zip(kinds, map(taken, kinds, gammas)),
                   key=lambda cell: stack_rank(*cell))
    return [kind for kind, _ in cells], [gamma for _, gamma in cells]


@st.composite
def batches(draw, max_b=6, max_k=10, cells=None):
    """(Y, F) with Y (..., B, K+1) flags, none column derived, and |F| <= 1e3."""
    lead = () if cells is None else (cells,)
    b = draw(st.integers(1, max_b))
    k = draw(st.integers(1, max_k))
    y = draw(arrays(np.int64, lead + (b, k), elements=st.integers(0, 1)))
    scale = draw(st.sampled_from((1e-3, 1.0, 30.0, 1e3)))
    f = draw(arrays(np.float64, lead + (b, k + 1),
                    elements=st.floats(-1.0, 1.0, allow_nan=False)))
    Y = np.concatenate([(y.max(axis=-1, keepdims=True) == 0), y], axis=-1)
    return Y.astype(np.int64), f * scale


def _sig(x):
    """1 / (1 + exp(-x)); relative precision holds, and exp overflow gives 0."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def _softplus(x):
    """log(1 + exp(x)) in the overflow-free form the pairwise kernel sums."""
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def _positive(z):
    """-log sigmoid(z)."""
    return np.logaddexp(0.0, -z)


def _negative(z, gamma):
    """-log(min(sigmoid(-z) + gamma, 1)), written as -log1p(gamma - sigmoid(z))."""
    if gamma == 0.0:
        return np.logaddexp(0.0, z)
    return -np.log1p(min(gamma - _sig(z), 0.0))


def _terms(y, z, gamma):
    return sum(_positive(zi) if yi else _negative(zi, gamma)
               for yi, zi in zip(y, z))


def reference_value(kind, y_full, f, gamma):
    """One instance's loss, term by term, from the definitions."""
    y0, y, f0, fk = y_full[0], y_full[1:], f[0], f[1:]
    if kind in ("bce", "bce_shifted"):
        return _terms(y, fk, gamma if kind == "bce_shifted" else 0.0)
    if kind in ("ncrl_plain", "ncrl_noreg", "ncrl_final"):
        value = _terms(y, fk - f0, 0.0 if kind == "ncrl_plain" else gamma)
        if kind == "ncrl_final":
            value += _terms([y0], [f0 - fk.mean()], gamma)
        return value
    if kind == "atl":
        pos = np.append(f0, fk[y == 1])
        neg = np.append(f0, fk[y == 0])
        return (sum(np.logaddexp.reduce(pos) - fi for fi in fk[y == 1])
                + np.logaddexp.reduce(neg) - f0)
    assert kind == "pairwise"
    return sum(np.logaddexp(0.0, fk[j] - fk[i])
               for i in np.flatnonzero(y == 1) for j in np.flatnonzero(y == 0))


def reference_margin_regularization(y_full, f):
    """The average-margin term's value and gradient, from the definition."""
    k = f.size - 1
    z0 = f[0] - f[1:].mean()
    if y_full[0]:  # -log sigmoid(z0) on a none instance
        value, dz = _positive(z0), -_sig(-z0)
    else:
        value, dz = _negative(z0, 0.0), _sig(z0)
    return value, np.concatenate([[dz], np.full(k, -dz / k)])


def rounding_floor(F):
    """Absolute rounding that no formula avoids: each margin of scores as
    large as |F| is off by an ulp of |F|, and a term formed from a
    probability near 1 by an ulp of 1; a value sums K + 1 such terms."""
    return 1e-14 * F.shape[-1] * (1.0 + np.abs(F).max())


def assert_matches_reference(kind, Y, F, gamma, value):
    expected = np.mean([reference_value(kind, Y[i], F[i], gamma)
                        for i in range(len(F))])
    assert abs(value - expected) <= 1e-12 * abs(expected) + rounding_floor(F), (
        kind, gamma, value, expected)


class TestAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(batches(), st.sampled_from(LOSS_KINDS), st.sampled_from(GAMMAS))
    def test_2d_batch_loss_is_mean_of_reference(self, batch, kind, gamma):
        Y, F = batch
        gamma = taken(kind, gamma)
        value, grad = batch_loss(kind, Y, F, gamma)
        assert isinstance(value, float) and grad.shape == F.shape
        assert_matches_reference(kind, Y, F, gamma, value)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda c: st.tuples(
        batches(cells=c),
        st.lists(st.sampled_from(LOSS_KINDS), min_size=c, max_size=c),
        st.lists(st.sampled_from(GAMMAS), min_size=c, max_size=c))))
    def test_mixed_stack_cells_match_reference(self, case):
        (Y, F), kinds, gammas = case
        kinds, gammas = sorted_cells(kinds, gammas)
        values, grads = batch_loss(kinds, Y, F, gammas)
        for c, (kind, gamma) in enumerate(zip(kinds, gammas)):
            assert_matches_reference(kind, Y[c], F[c], gamma, values[c])
            value, grad = batch_loss(kind, Y[c], F[c], gamma)
            assert values[c] == value and np.array_equal(grads[c], grad)


    @settings(max_examples=200, deadline=None)
    @given(batches())
    def test_margin_regularization_matches_reference(self, batch):
        Y, F = batch
        for y_full, f in zip(Y, F):
            result = margin_regularization(y_full[1:], f)
            value, grad = reference_margin_regularization(y_full, f)
            floor = rounding_floor(f[None])
            assert abs(result.value - value) <= 1e-12 * abs(value) + floor
            assert np.abs(result.grad - grad).max() <= (
                1e-12 * np.abs(grad).max() + floor)


class TestBoolLabels:
    """Y given as the bools `Y == 1`, as the trainer gathers it, gives the
    numbers 0/1 int labels give, to the bit."""

    @staticmethod
    def assert_same_bits(a, b):
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        assert np.array_equal(a.view(np.int64), b.view(np.int64))

    @settings(max_examples=300, deadline=None)
    @given(batches(), st.sampled_from(LOSS_KINDS), st.sampled_from(GAMMAS))
    def test_2d_batch_loss(self, batch, kind, gamma):
        Y, F = batch
        gamma = taken(kind, gamma)
        value, grad = batch_loss(kind, Y, F, gamma)
        flag_value, flag_grad = batch_loss(kind, Y == 1, F, gamma)
        self.assert_same_bits(flag_value, value)
        self.assert_same_bits(flag_grad, grad)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda c: st.tuples(
        batches(cells=c),
        st.lists(st.sampled_from(LOSS_KINDS), min_size=c, max_size=c),
        st.lists(st.sampled_from(GAMMAS), min_size=c, max_size=c))))
    def test_stacked_batch_loss_with_workspace(self, case):
        (Y, F), kinds, gammas = case
        kinds, gammas = sorted_cells(kinds, gammas)
        values, grads = batch_loss(kinds, Y, F, gammas, Workspace())
        flag_values, flag_grads = batch_loss(kinds, Y == 1, F, gammas,
                                             Workspace())
        self.assert_same_bits(flag_values, values)
        self.assert_same_bits(flag_grads, grads)


def test_labels_other_than_0_1_are_refused():
    # a 2 or a -1 is neither a positive nor a negative flag, so no kernel
    # may read it as either: every kind, 2-D or stacked, refuses it
    F = np.array([[0.3, -0.2, 0.5, 1.0]])
    for bad in (2, -1):
        Y = np.array([[0, 1, bad, 0]])
        for kind in LOSS_KINDS:
            gamma = taken(kind, 0.05)
            for args in ((kind, Y, F, gamma),
                         ([kind] * 2, np.stack([Y] * 2), np.stack([F] * 2),
                          [gamma] * 2)):
                with pytest.raises(ValueError, match="labels must be binary flags"):
                    batch_loss(*args)


def test_labels_of_another_shape_than_the_scores_are_refused():
    # the margin kernel reads labels by flat index into the scores, so one
    # (B, K+1) label matrix given for a whole stack is refused, not broadcast
    F = np.zeros((2, 3, 4))
    Y = np.array([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 1]])
    for kinds in (["bce", "ncrl_plain"], ["atl", "atl"]):
        with pytest.raises(ValueError, match=r"labels \(3, 4\) and scores "
                           r"\(2, 3, 4\) differ in shape"):
            batch_loss(kinds, Y, F, [0.0, 0.0])


def _masked_lse_softmax(F, mask):
    shifted = np.where(mask, F, -np.inf)
    mx = shifted.max(axis=1, keepdims=True)
    ex = np.exp(shifted - mx)
    total = ex.sum(axis=1, keepdims=True)
    return (mx + np.log(total)).ravel(), ex / total


def reference_atl(Y, F):
    """The atl kernel as it ran one cell at a time, with two softmaxes built
    one after the other; the stacked kernel must give its numbers exactly."""
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


@st.composite
def atl_stacks(draw):
    """(Y, F) for 1-3 atl cells, B 1-70 and K 1-30: Y as 0/1 ints with the
    first row of each cell all negative and, from B = 2, the last all
    positive, and finite F up to 1e300 in magnitude."""
    c, b = draw(st.integers(1, 3)), draw(st.integers(1, 70))
    k = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    y = (rng.random((c, b, k)) < draw(st.floats(0.0, 1.0))).astype(np.int64)
    y[:, 0] = 0
    if b > 1:
        y[:, -1] = 1
    Y = np.concatenate([(y.max(axis=-1, keepdims=True) == 0), y], axis=-1)
    scale = draw(st.sampled_from((1e-3, 1.0, 30.0, 1e3, 1e150, 1e300)))
    return Y.astype(np.int64), rng.uniform(-1.0, 1.0, (c, b, k + 1)) * scale


class TestAtlKernel:
    @settings(max_examples=150, deadline=None)
    @given(atl_stacks(), st.booleans(), st.booleans())
    def test_stacked_kernel_equals_one_cell_reference(self, stack, flags,
                                                      with_workspace):
        Y, F = stack
        Y = Y == 1 if flags else Y
        c, b = F.shape[:2]
        means, grads = batch_loss(["atl"] * c, Y, F, [0.0] * c,
                                  Workspace() if with_workspace else None)
        for cell in range(c):
            vals, expected = reference_atl(Y[cell], F[cell])
            assert means[cell] == np.add.reduce(vals) / b
            assert np.array_equal(grads[cell], expected / b)
            one_vals, one_grads = instance_losses("atl", Y[cell], F[cell])
            assert np.array_equal(one_vals, vals)
            assert np.array_equal(one_grads, expected)

    def test_a_run_of_atl_cells_is_one_kernel_call(self, monkeypatch):
        calls = []
        kernel = losses._atl_losses

        def spy(Y, F, *args):
            calls.append(F.shape)
            return kernel(Y, F, *args)

        monkeypatch.setattr(losses, "_atl_losses", spy)
        rng = np.random.default_rng(3)
        y = rng.integers(0, 2, (5, 8, 4))
        Y = np.concatenate([y.max(axis=-1, keepdims=True) == 0, y], axis=-1)
        F = rng.normal(size=(5, 8, 5))
        kinds = ["bce", "ncrl_plain", "ncrl_final", "atl", "atl"]
        gammas = [0.0, 0.0, 0.05, 0.0, 0.0]
        values, grads = batch_loss(kinds, Y, F, gammas, Workspace())
        assert calls == [(2, 8, 5)]
        for c, (kind, gamma) in enumerate(zip(kinds, gammas)):
            value, grad = batch_loss(kind, Y[c], F[c], gamma)
            assert values[c] == value and np.array_equal(grads[c], grad)


MARGIN_KINDS = ("bce", "bce_shifted", "ncrl_plain", "ncrl_noreg", "ncrl_final")


def reference_margin(kind, gamma, Y, F):
    """One margin cell as the fused kernel formed it one cell at a time:
    the logistic term over every entry, the shifted terms copied over the
    negatives through a mask, 0/1 column weights, then the lift back to the
    scores. Per-instance values (B,) and gradients (B, K+1); the stacked
    kernel must give these numbers exactly."""
    k = F.shape[1] - 1
    a = 0.0 if kind in ("bce", "bce_shifted") else 1.0
    z = F - a * F[:, :1]
    if kind == "ncrl_final":
        z[:, 0] = F[:, 0] - np.add.reduce(F[:, 1:], axis=-1) / k
    y = losses.binary_flags(Y)
    sign = np.where(y, -1.0, 1.0)
    zs = z * sign
    e = np.exp(-np.abs(z))
    denom = 1.0 + e
    sig = np.maximum(e, np.sign(zs)) / denom  # sigmoid(zs)
    value = np.maximum(zs, 0.0) + np.log1p(e)
    dz = sig * sign
    if gamma > 0.0:
        sig_neg = np.maximum(e, -np.sign(zs)) / denom  # sigmoid(-zs)
        kept = (sig_neg < 1.0 - gamma).astype(float)
        p = np.maximum(np.minimum(sig_neg + gamma, 1.0), losses._P_FLOOR)
        mask = ~y
        mask[:, 0] &= kind == "ncrl_final"
        value[mask] = (-np.log(p) * kept)[mask]
        dz[mask] = (sig * sig_neg / p * kept)[mask]
    if kind != "ncrl_final":
        value[:, 0] *= 0.0
        dz[:, 0] *= 0.0
    f0 = dz[:, 0] - np.add.reduce(dz[:, 1:], axis=-1) * a
    if kind == "ncrl_final":
        dz[:, 1:] -= dz[:, :1] / k
    dz[:, 0] = f0
    return np.add.reduce(value[:, 1:], axis=-1) + value[:, 0], dz


@st.composite
def margin_stacks(draw):
    """(kinds, gammas, Y, F) for 1-6 margin cells sorted by `stack_rank`, B
    1-70 and K 1-30: a shared or a per-cell gamma, Y as 0/1 ints at label
    densities from 0.02 to 0.95, and finite F up to 1e300 in magnitude with
    some scores exactly +0 and -0."""
    c, b = draw(st.integers(1, 6)), draw(st.integers(1, 70))
    k = draw(st.integers(1, 30))
    kinds = draw(st.lists(st.sampled_from(MARGIN_KINDS), min_size=c, max_size=c))
    gammas = draw(st.sampled_from(GAMMAS).map(lambda g: [g] * c)
                  | st.lists(st.sampled_from(GAMMAS), min_size=c, max_size=c))
    kinds, gammas = sorted_cells(kinds, gammas)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from((0.02, 0.1, 0.3, 0.6, 0.95)))
    y = (rng.random((c, b, k)) < density).astype(np.int64)
    Y = np.concatenate([(y.max(axis=-1, keepdims=True) == 0), y], axis=-1)
    scale = draw(st.sampled_from((1e-3, 1.0, 30.0, 1e3, 1e5, 1e150, 1e300)))
    F = rng.uniform(-1.0, 1.0, (c, b, k + 1)) * scale
    zeros = rng.random(F.shape)
    F[zeros < 0.05] = 0.0
    F[zeros > 0.95] = -0.0
    return kinds, gammas, Y.astype(np.int64), F


class TestMarginKernel:
    @staticmethod
    def assert_same_bits(a, b):
        assert np.array_equal(np.asarray(a).view(np.int64),
                              np.asarray(b).view(np.int64))

    @settings(max_examples=200, deadline=None)
    @given(margin_stacks(), st.booleans(), st.booleans())
    def test_stacked_kernel_equals_one_cell_reference(self, stack, flags,
                                                      with_workspace):
        kinds, gammas, Y, F = stack
        Y = Y == 1 if flags else Y
        b = F.shape[1]
        means, grads = batch_loss(kinds, Y, F, gammas,
                                  Workspace() if with_workspace else None)
        for cell, (kind, gamma) in enumerate(zip(kinds, gammas)):
            vals, expected = reference_margin(kind, gamma, Y[cell], F[cell])
            assert means[cell] == np.add.reduce(vals) / b, (kind, gamma)
            self.assert_same_bits(grads[cell], expected / b)
            one_vals, one_grads = instance_losses(kind, Y[cell], F[cell], gamma)
            self.assert_same_bits(one_vals, vals)
            self.assert_same_bits(one_grads, expected)


class TestIdentities:
    @settings(max_examples=200, deadline=None)
    @given(batches(), st.sampled_from(SHIFT_INVARIANT), st.sampled_from(GAMMAS),
           st.sampled_from((-7.5, 0.25, 3.0)))
    def test_zero_sum_gradient_and_shift_invariance(self, batch, kind, gamma,
                                                    shift):
        Y, F = batch
        gamma = taken(kind, gamma)
        value, grad = batch_loss(kind, Y, F, gamma)
        scale = max(1.0, np.abs(grad).max())
        assert np.abs(grad.sum(axis=1)).max() <= 1e-12 * scale * F.shape[1]
        shifted, _ = batch_loss(kind, Y, F + shift, gamma)
        assert abs(shifted - value) <= (1e-12 * abs(value)
                                        + rounding_floor(F + 8.0))

    @settings(max_examples=150, deadline=None)
    @given(batches())
    def test_gamma_zero_reductions_are_exact(self, batch):
        Y, F = batch
        for shifted, plain in (("ncrl_noreg", "ncrl_plain"),
                               ("bce_shifted", "bce")):
            value_s, grad_s = batch_loss(shifted, Y, F, 0.0)
            value_p, grad_p = batch_loss(plain, Y, F, 0.0)
            assert value_s == value_p
            assert np.array_equal(grad_s, grad_p)

    @settings(max_examples=200, deadline=None)
    @given(batches(), st.sampled_from(GAMMAS[1:]))
    def test_clamped_negatives_are_exact_zeros(self, batch, gamma):
        Y, F = batch
        y = Y[:, 1:]
        for kind, z in (("bce_shifted", F[:, 1:]),
                        ("ncrl_noreg", F[:, 1:] - F[:, :1])):
            # clearly inside the clamp: sigmoid(-z) >= 1 - gamma, with room
            # for the rounding of either sigmoid
            clamped = (y == 0) & (_sig(-z) >= 1.0 - gamma + 1e-9)
            values, _ = instance_losses(kind, Y, F, gamma)
            # a row with no positive label and every negative clamped
            assert (values[clamped.all(axis=1)] == 0.0).all()
            _, grad = batch_loss(kind, Y, F, gamma)
            assert (grad[:, 1:][clamped] == 0.0).all()

    @settings(max_examples=150, deadline=None)
    @given(batches())
    def test_pairwise_is_softplus_and_sigmoid_exactly(self, batch):
        Y, F = batch
        y, f = Y[:, 1:], F[:, 1:]
        diff = f[:, None, :] - f[:, :, None]  # diff[b, i, j] = f_j - f_i
        pair = (y == 1)[:, :, None] & (y == 0)[:, None, :]
        sig = sigmoid(diff) * pair
        expected = np.zeros_like(F)
        expected[:, 1:] = (sig.sum(axis=1) - sig.sum(axis=2)) / len(F)
        value, grad = batch_loss("pairwise", Y, F)
        assert value == (_softplus(diff) * pair).sum(axis=(1, 2)).mean()
        assert np.array_equal(grad, expected)


finite = st.floats(1e-6, 1e3, allow_nan=False, allow_infinity=False)

train_configs = st.builds(
    TrainConfig,
    loss_kind=st.sampled_from(LOSS_KINDS),
    gamma=st.sampled_from(GAMMAS) | st.floats(0.0, 0.99),
    epochs=st.integers(1, 500),
    batch_size=st.integers(1, 4096),
    learning_rate=finite,
    warmup_fraction=st.floats(0.0, 0.99),
    seed=st.integers(0, 2**63 - 1),
    hidden_width=st.integers(0, 64),
    weight_decay=st.just(0.0) | finite,
)


class TestCheckpointRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(train_configs, st.booleans(), st.integers(1, 5), st.integers(1, 6),
           st.integers(0, 2**32 - 1),
           st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    def test_config_echo_and_parameters(self, config, mlp, k, dim, seed,
                                        threshold):
        # the rule of the config's loss kind: null for the adaptive kinds
        threshold = None if config.loss_kind in ADAPTIVE_KINDS else threshold
        rng = np.random.default_rng(seed)
        scorer = (MlpScorer.create(k, dim, 3, rng) if mlp
                  else LinearScorer.create(k, dim, rng))
        payload = scorer_to_dict(scorer, config, threshold)
        assert payload["config"] == asdict(config)
        loaded = json.loads(json.dumps(payload))
        assert TrainConfig(**loaded["config"]) == config
        assert loaded["threshold"] == threshold
        clone = scorer_from_dict(loaded)
        assert type(clone) is type(scorer)
        for key, value in scorer.params.items():
            assert np.array_equal(clone.params[key], value)
