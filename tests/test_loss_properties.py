"""Property checks of every loss kind against references written out here.

2-D `batch_loss` runs as a one-cell stack, so comparing it with a stack no
longer tests two code paths. These properties instead pin each kind to the
paper's identities and to a per-instance reference in plain numpy, at score
magnitudes up to 1e3 and down to K = 1, alone and in mixed stacks.
"""

import json
from dataclasses import asdict

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ncrl_lab.losses import (LOSS_KINDS, Workspace, batch_loss,
                             logistic_terms, sigmoid, softplus)
from ncrl_lab.model import (LinearScorer, MlpScorer, TrainConfig,
                            scorer_from_dict, scorer_to_dict)

GAMMAS = (0.0, 0.01, 0.05, 0.2)
SHIFT_INVARIANT = ("ncrl_plain", "ncrl_final", "ncrl_noreg", "atl", "pairwise")


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
        values, grads = batch_loss(kinds, Y, F, gammas)
        for c, (kind, gamma) in enumerate(zip(kinds, gammas)):
            assert_matches_reference(kind, Y[c], F[c], gamma, values[c])
            value, grad = batch_loss(kind, Y[c], F[c], gamma)
            assert values[c] == value and np.array_equal(grads[c], grad)


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
        values, grads = batch_loss(kinds, Y, F, gammas, Workspace())
        flag_values, flag_grads = batch_loss(kinds, Y == 1, F, gammas,
                                             Workspace())
        self.assert_same_bits(flag_values, values)
        self.assert_same_bits(flag_grads, grads)


class TestIdentities:
    @settings(max_examples=200, deadline=None)
    @given(batches(), st.sampled_from(SHIFT_INVARIANT), st.sampled_from(GAMMAS),
           st.sampled_from((-7.5, 0.25, 3.0)))
    def test_zero_sum_gradient_and_shift_invariance(self, batch, kind, gamma,
                                                    shift):
        Y, F = batch
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
            value, dz = logistic_terms(z, y == 1, gamma)
            assert (value[clamped] == 0.0).all() and (dz[clamped] == 0.0).all()
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
        assert value == (softplus(diff) * pair).sum(axis=(1, 2)).mean()
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
           st.integers(0, 2**32 - 1))
    def test_config_echo_and_parameters(self, config, mlp, k, dim, seed):
        rng = np.random.default_rng(seed)
        scorer = (MlpScorer.create(k, dim, 3, rng) if mlp
                  else LinearScorer.create(k, dim, rng))
        payload = scorer_to_dict(scorer, config)
        assert payload["config"] == asdict(config)
        loaded = json.loads(json.dumps(payload))
        assert TrainConfig(**loaded["config"]) == config
        clone = scorer_from_dict(loaded)
        assert type(clone) is type(scorer)
        for key, value in scorer.params.items():
            assert np.array_equal(clone.params[key], value)
