"""Value, gradient, and invariance checks for the loss functions."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ncrl_lab.losses import (Workspace, atl, batch_loss, bce, bce_shifted,
                             hamming_error, logistic_terms,
                             margin_regularization, margins, ncre_error,
                             ncrl_final, ncrl_noreg, ncrl_plain,
                             pairwise_ranking, ranking_error,
                             shifted_negative_prob, sigmoid, softplus,
                             stack_rank, validate_labels, with_none_flag)

LN2 = math.log(2)

# margin losses: value must not change when every score is shifted, and the
# gradient entries must sum to zero
SHIFT_INVARIANT = [
    lambda y, f: ncrl_plain(y, f),
    lambda y, f: ncrl_final(y, f, 0.05),
    lambda y, f: ncrl_noreg(y, f, 0.05),
    lambda y, f: margin_regularization(y, f),
    lambda y, f: atl(y, f),
]


def random_case(rng, k_max=12):
    k = int(rng.integers(1, k_max))
    y = rng.integers(0, 2, size=k)
    f = rng.normal(0.0, 2.0, size=k + 1)
    return y, f


class TestNcreError:
    def test_perfectly_ranked(self):
        assert ncre_error([1, 0], [0.0, 1.0, -1.0]) == 0.0

    def test_both_reversed(self):
        assert ncre_error([1, 0], [0.0, -1.0, 1.0]) == 2.0

    def test_tie_counts_half(self):
        assert ncre_error([1, 1], [0.0, 0.0, 1.0]) == 0.5

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ncre_error([1, 0], [0.0, 1.0])

    def test_range(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            y, f = random_case(rng)
            err = ncre_error(y, f)
            assert 0.0 <= err <= y.size


class TestNcrlPlain:
    def test_all_zero_scores(self):
        res = ncrl_plain([1, 0], [0.0, 0.0, 0.0])
        assert_allclose(res.value, 2 * LN2, rtol=0, atol=1e-12)
        assert_allclose(res.grad, [0.0, -0.5, 0.5], rtol=0, atol=1e-12)

    def test_hand_value(self):
        res = ncrl_plain([1, 0], [0.0, 2.0, -1.0])
        expected = softplus(-2.0) + softplus(-1.0)
        assert_allclose(res.value, expected, rtol=0, atol=1e-12)
        assert_allclose(res.value, 0.440190, rtol=0, atol=1e-6)

    def test_shift_invariance(self):
        base = ncrl_plain([1, 0], [0.0, 2.0, -1.0]).value
        for c in (-7.5, 0.3, 40.0):
            shifted = ncrl_plain([1, 0], [c, 2.0 + c, -1.0 + c]).value
            assert_allclose(shifted, base, rtol=0, atol=1e-9)

    def test_non_finite_scores_rejected(self):
        with pytest.raises(ValueError):
            ncrl_plain([1, 0], [0.0, np.inf, 0.0])


class TestMarginRegularization:
    def test_zero_average_margin(self):
        res = margin_regularization([0, 0], [0.0, 0.0, 0.0])
        assert_allclose(res.value, LN2, rtol=0, atol=1e-12)

    def test_none_instance_positive_margin(self):
        res = margin_regularization([0, 0], [1.0, 0.0, 0.0])
        assert_allclose(res.value, softplus(-1.0), rtol=0, atol=1e-12)
        assert_allclose(res.value, 0.313262, rtol=0, atol=1e-6)

    def test_labeled_instance_negative_margin(self):
        # average pre-defined score 1 exceeds f0 by 1
        res = margin_regularization([1, 1], [0.0, 1.0, 1.0])
        assert_allclose(res.value, 0.313262, rtol=0, atol=1e-6)


class TestShiftedNegativeProb:
    def test_zero_margin(self):
        assert_allclose(shifted_negative_prob(0.0, 0.05), 0.55,
                        rtol=0, atol=1e-12)

    def test_clamped_at_one(self):
        assert shifted_negative_prob(10.0, 0.05) == 1.0

    def test_no_shift(self):
        assert_allclose(shifted_negative_prob(1.0, 0.0), 0.731059,
                        rtol=0, atol=1e-6)

    def test_gamma_range(self):
        with pytest.raises(ValueError):
            shifted_negative_prob(0.0, 1.0)
        with pytest.raises(ValueError):
            shifted_negative_prob(0.0, -0.01)


class TestNcrlFinal:
    def test_single_label_none_instance(self):
        # i=0 positive term plus the shifted i=1 negative term
        res = ncrl_final([0], [1.0, 0.0], gamma=0.05)
        expected = softplus(-1.0) - math.log(float(sigmoid(1.0)) + 0.05)
        assert_allclose(res.value, expected, rtol=0, atol=1e-12)
        assert_allclose(res.value, 0.5604, rtol=0, atol=1e-4)

    def test_all_zero_scores_no_shift(self):
        res = ncrl_final([1, 1], [0.0, 0.0, 0.0], gamma=0.0)
        assert_allclose(res.value, 3 * LN2, rtol=0, atol=1e-12)

    def test_gamma_zero_decomposition(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            y, f = random_case(rng)
            whole = ncrl_final(y, f, gamma=0.0)
            parts = ncrl_plain(y, f), margin_regularization(y, f)
            assert_allclose(whole.value, parts[0].value + parts[1].value,
                            rtol=0, atol=1e-12)
            assert_allclose(whole.grad, parts[0].grad + parts[1].grad,
                            rtol=0, atol=1e-12)

    def test_noreg_drops_only_the_average_margin_term(self):
        rng = np.random.default_rng(8)
        for gamma in (0.0, 0.05):
            for _ in range(50):
                y, f = random_case(rng)
                gap = ncrl_final(y, f, gamma).value - ncrl_noreg(y, f, gamma).value
                if gamma == 0.0:
                    # unshifted, the ranking terms are exactly the plain loss
                    noreg, plain = ncrl_noreg(y, f, gamma), ncrl_plain(y, f)
                    assert noreg.value == plain.value
                    assert np.array_equal(noreg.grad, plain.grad)
                m0 = float(f[0] - f[1:].mean())
                if with_none_flag(y)[0] == 1:
                    term = float(softplus(-m0))
                else:
                    p = shifted_negative_prob(-m0, gamma)
                    term = 0.0 if sigmoid(-m0) >= 1 - gamma and gamma > 0 else -math.log(p)
                assert_allclose(gap, term, rtol=0, atol=1e-12)


class TestBce:
    def test_all_zero_scores(self):
        res = bce([1, 0], [5.0, 0.0, 0.0])
        assert_allclose(res.value, 2 * LN2, rtol=0, atol=1e-12)

    def test_symmetric_pair(self):
        res = bce([1, 0], [0.0, 2.0, -2.0])
        assert_allclose(res.value, 2 * softplus(-2.0), rtol=0, atol=1e-12)
        assert_allclose(res.value, 0.253856, rtol=0, atol=1e-6)

    def test_saturated_negatives_stable(self):
        res = bce([0, 0], [0.0, -30.0, -30.0])
        assert np.isfinite(res.value)
        assert res.value < 1e-12

    def test_ignores_none_score(self):
        a = bce([1, 0], [0.0, 1.0, -1.0])
        b = bce([1, 0], [99.0, 1.0, -1.0])
        assert a.value == b.value
        assert a.grad[0] == 0.0 and b.grad[0] == 0.0


class TestBceShifted:
    def test_gamma_zero_matches_bce(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            y, f = random_case(rng)
            a, b = bce(y, f), bce_shifted(y, f, gamma=0.0)
            assert a.value == b.value
            assert np.array_equal(a.grad, b.grad)

    def test_shifted_negative(self):
        res = bce_shifted([0], [0.0, 0.0], gamma=0.05)
        assert_allclose(res.value, -math.log(0.55), rtol=0, atol=1e-12)
        assert_allclose(res.value, 0.597837, rtol=0, atol=1e-6)

    def test_easy_negative_clamped(self):
        res = bce_shifted([0], [0.0, -10.0], gamma=0.05)
        assert res.value == 0.0
        assert np.array_equal(res.grad, np.zeros(2))


class TestAtl:
    def test_one_positive_all_zero(self):
        res = atl([1, 0], [0.0, 0.0, 0.0])
        assert_allclose(res.value, 2 * LN2, rtol=0, atol=1e-12)

    def test_none_instance_all_zero(self):
        res = atl([0, 0], [0.0, 0.0, 0.0])
        assert_allclose(res.value, math.log(3), rtol=0, atol=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            y, f = random_case(rng)
            c = float(rng.normal(0, 5))
            assert_allclose(atl(y, f + c).value, atl(y, f).value,
                            rtol=0, atol=1e-9)


class TestPairwiseRanking:
    def test_tied_pair(self):
        res = pairwise_ranking([1, 0], [0.0, 0.0, 0.0])
        assert_allclose(res.value, LN2, rtol=0, atol=1e-12)

    def test_separated_pair(self):
        res = pairwise_ranking([1, 0], [0.0, 3.0, 0.0])
        assert_allclose(res.value, math.log1p(math.exp(-3)), rtol=0, atol=1e-12)
        assert_allclose(res.value, 0.048587, rtol=0, atol=1e-6)

    def test_no_positive_labels(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            f = rng.normal(0, 2, size=4)
            res = pairwise_ranking([0, 0, 0], f)
            assert res.value == 0.0
            assert np.array_equal(res.grad, np.zeros(4))


class TestHammingAndRankingError:
    def test_hamming_values(self):
        assert hamming_error([1, 0], [1, 0]) == 0
        assert hamming_error([1, 0], [0, 1]) == 2
        assert hamming_error([1, 1, 0], [1, 0, 0]) == 1

    def test_hamming_length_mismatch(self):
        with pytest.raises(ValueError):
            hamming_error([1, 0], [1, 0, 0])

    def test_ranking_error_values(self):
        assert ranking_error([1, 0], [0.0, 2.0, 1.0]) == 0.0
        assert ranking_error([1, 0], [0.0, 1.0, 2.0]) == 1.0
        assert ranking_error([1, 0], [0.0, 1.0, 1.0]) == 0.5


class TestSharedInvariants:
    def test_shift_invariance_and_zero_sum(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            y, f = random_case(rng)
            c = float(rng.normal(0, 5))
            for op in SHIFT_INVARIANT:
                base = op(y, f)
                assert_allclose(op(y, f + c).value, base.value,
                                rtol=0, atol=1e-9)
                assert abs(base.grad.sum()) < 1e-9
            # the discrete errors share the invariance
            assert_allclose(ncre_error(y, f + c), ncre_error(y, f),
                            rtol=0, atol=0)
            assert_allclose(ranking_error(y, f + c), ranking_error(y, f),
                            rtol=0, atol=0)

    def test_clamp_deadzone_exact(self):
        # sigmoid(m_neg) >= 1 - gamma: the term must vanish from value and grad
        gamma = 0.05
        y = [0, 1]
        a = ncrl_noreg(y, np.array([5.0, -5.0, 6.0]), gamma)
        b = ncrl_noreg(y, np.array([5.0, -50.0, 6.0]), gamma)
        expected = float(softplus(-1.0))  # only the positive label contributes
        assert a.value == expected and b.value == expected
        assert a.grad[1] == 0.0 and b.grad[1] == 0.0
        # the none term clamps the same way once the mean score towers over f0
        f = np.array([0.0, 10.0, 10.0])
        fin, nor = ncrl_final(y, f, gamma), ncrl_noreg(y, f, gamma)
        assert fin.value == nor.value
        assert np.array_equal(fin.grad, nor.grad)

    def test_margin_identity(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            f = rng.normal(0, 3, size=6)
            f[0] = 0.0  # with f0 at zero the identity is exact in floats
            m = margins(f)
            for i in range(1, 6):
                for j in range(1, 6):
                    assert m.m_pos[i - 1] + m.m_neg[j - 1] == f[i] - f[j]
            assert m.m0_pos == -m.m0_neg
        # in general position one rounding separates the two sides
        for _ in range(50):
            f = rng.normal(0, 3, size=6)
            m = margins(f)
            lhs = m.m_pos[:, None] + m.m_neg[None, :]
            assert_allclose(lhs, f[1:, None] - f[None, 1:], rtol=0, atol=1e-12)

    def test_stability_at_large_scores(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            k = int(rng.integers(1, 8))
            y = rng.integers(0, 2, size=k)
            f = rng.uniform(-1e3, 1e3, size=k + 1)
            for res in (ncrl_plain(y, f), ncrl_final(y, f, 0.05),
                        ncrl_noreg(y, f, 0.05),
                        margin_regularization(y, f), bce(y, f),
                        bce_shifted(y, f, 0.05), atl(y, f),
                        pairwise_ranking(y, f)):
                assert np.isfinite(res.value)
                assert np.isfinite(res.grad).all()
        # unshifted, a far-wrong negative keeps its full unit slope: the
        # probability floor of the shifted branch must not reach it
        _, dz = logistic_terms(np.array([800.0]), np.array([False]), 0.0)
        assert dz[0] == 1.0
        assert ncrl_noreg([0], [0.0, 800.0], 0.0).grad[1] == 1.0


class TestLabelHelpers:
    def test_with_none_flag(self):
        assert np.array_equal(with_none_flag([0, 0]), [1, 0, 0])
        assert np.array_equal(with_none_flag([1, 0]), [0, 1, 0])

    def test_validate_labels(self):
        assert np.array_equal(validate_labels([1, 0, 0]), [1, 0, 0])
        with pytest.raises(ValueError):
            validate_labels([0, 0, 0])  # none flag must be set
        with pytest.raises(ValueError):
            validate_labels([1, 1, 0])  # none flag set alongside a positive
        with pytest.raises(ValueError):
            validate_labels([2, 0, 0])


class TestBatchLoss:
    def test_mean_reduction_matches_instances(self):
        rng = np.random.default_rng(15)
        k = 5
        y = rng.integers(0, 2, size=(8, k))
        none = (y.max(axis=1) == 0).astype(int)
        Y = np.column_stack([none, y])
        F = rng.normal(0, 2, size=(8, k + 1))
        for kind, gamma in (("ncrl_plain", 0.0), ("ncrl_final", 0.05),
                            ("bce", 0.0), ("atl", 0.0), ("pairwise", 0.0)):
            value, grad = batch_loss(kind, Y, F, gamma)
            singles = [ {
                "ncrl_plain": ncrl_plain,
                "bce": bce,
                "atl": atl,
                "pairwise": pairwise_ranking,
            }[kind](y[i], F[i]) if gamma == 0.0 else ncrl_final(y[i], F[i], gamma)
                for i in range(8)]
            assert_allclose(value, np.mean([s.value for s in singles]),
                            rtol=0, atol=1e-12)
            assert_allclose(grad, np.stack([s.grad for s in singles]) / 8,
                            rtol=0, atol=1e-12)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            batch_loss("focal", np.array([[1, 0, 0]]), np.zeros((1, 3)))

    def test_non_finite_batch_rejected(self):
        with pytest.raises(ValueError):
            batch_loss("bce", np.array([[1, 0, 0]]),
                       np.array([[0.0, np.nan, 0.0]]))

    def test_stacked_matches_per_cell_exactly(self):
        # every margin kind at every gamma, plus atl and pairwise, in one
        # (C, B, K+1) stack: each cell must equal its own 2-D call bit for bit,
        # whatever the cell order. The kind-sorted order is the trainer's and
        # runs as given; the others are sorted inside and put back.
        rng = np.random.default_rng(16)
        b, k = 48, 6
        cells = [(kind, gamma)
                 for kind in ("ncrl_plain", "ncrl_final", "ncrl_noreg", "bce",
                              "bce_shifted")
                 for gamma in (0.0, 0.01, 0.05, 0.2)]
        cells[5:5] = [("atl", 0.0), ("pairwise", 0.0)]
        y = rng.integers(0, 2, size=(len(cells), b, k))
        Y = np.concatenate([(y.max(axis=2, keepdims=True) == 0), y], axis=2)
        F = rng.normal(0, 6, size=(len(cells), b, k + 1))
        alone = [batch_loss(kind, Y[c], F[c], gamma)
                 for c, (kind, gamma) in enumerate(cells)]
        for c, (kind, gamma) in enumerate(cells):
            if gamma > 0 and kind in ("ncrl_noreg", "bce_shifted"):
                # scores this wide clamp some negatives to exact zeros
                negatives = alone[c][1][:, 1:][Y[c][:, 1:] == 0]
                assert (negatives == 0.0).any(), (kind, gamma)
        n = len(cells)
        interleaved = [c for pair in zip(range(n // 2), range(n - 1, n // 2 - 1, -1))
                       for c in pair]
        ranked = sorted(range(n), key=lambda c: stack_rank(*cells[c]))
        margin_only = [c for c, (kind, _) in enumerate(cells)
                       if kind not in ("atl", "pairwise")]
        for order in (list(range(n)), interleaved, ranked, ranked[::-1],
                      margin_only, margin_only[::-1], [5, 6], [6, 0, 5]):
            values, grads = batch_loss([cells[c][0] for c in order], Y[order],
                                       F[order], [cells[c][1] for c in order],
                                       workspace=Workspace())
            assert values.shape == (len(order),) and grads.shape == F[order].shape
            for row, c in enumerate(order):
                assert values[row] == alone[c][0], cells[c]
                assert np.array_equal(grads[row], alone[c][1]), cells[c]

    def test_stacked_arguments_checked(self):
        Y, F = np.zeros((2, 1, 3), dtype=int), np.zeros((2, 1, 3))
        Y[:, :, 0] = 1
        with pytest.raises(ValueError, match="stacked"):
            batch_loss(["bce"], Y, F, [0.0])
        with pytest.raises(ValueError, match="unknown loss kind"):
            batch_loss(["bce", "focal"], Y, F, [0.0, 0.0])
        with pytest.raises(ValueError, match="shift parameter"):
            batch_loss(["bce", "ncrl_final"], Y, F, [0.0, 1.5])
