"""Confusion counting, F1 conventions, average precision, ranking error."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ncrl_lab.datagen import Dataset
from ncrl_lab.metrics import (average_precision, confusion, evaluate,
                              gold_flags, mean_average_precision, mean_ncre,
                              micro_f1_flags, micro_macro_f1)
from ncrl_lab.prediction import (adaptive_flags, sweep_global_threshold,
                                 sweep_per_label_thresholds)


def brute_force_ap(scores, gold_flags):
    """Explicit precision-at-rank summation over the score-sorted labels."""
    k = len(gold_flags)
    order = sorted(range(k), key=lambda j: (-scores[j + 1], j))
    hits, total = 0, 0.0
    for rank, j in enumerate(order, start=1):
        if gold_flags[j] == 1:
            hits += 1
            total += hits / rank
    return total / sum(gold_flags)


class TestConfusion:
    def test_perfect_predictions(self):
        gold = np.array([[0, 1, 0], [1, 0, 0], [0, 1, 1]])
        counts = confusion(gold[:, 1:], gold)
        assert counts.fp.sum() == 0 and counts.fn.sum() == 0
        assert counts.tp.tolist() == [2, 1]

    def test_complement_swaps_counts(self):
        gold = np.array([[0, 1, 0]])
        counts = confusion(np.array([[0, 1]]), gold)
        assert counts.tp.tolist() == [0, 0]
        assert counts.fp.tolist() == [0, 1]
        assert counts.fn.tolist() == [1, 0]

    def test_hand_tally(self):
        gold = np.array([[0, 1, 1], [1, 0, 0], [0, 0, 1]])
        preds = np.array([[1, 0], [1, 0], [0, 1]])
        counts = confusion(preds, gold)
        assert counts.tp.tolist() == [1, 1]
        assert counts.fp.tolist() == [1, 0]
        assert counts.fn.tolist() == [0, 1]

    def test_accepts_index_sets(self):
        # the index sets {1, 2} and {} reach confusion as adaptive flags
        gold = np.array([[0, 1, 1], [1, 0, 0]])
        flags = adaptive_flags([[0.0, 1.0, 2.0], [0.0, -1.0, -2.0]])
        counts = confusion(flags, gold)
        assert counts.tp.tolist() == [1, 1]
        assert counts.fp.sum() == 0 and counts.fn.sum() == 0

    def test_rejects_what_is_not_a_flag_matrix(self):
        # only an (n, K) flag matrix is counted, never index sets
        gold = np.array([[0, 1, 0], [1, 0, 0]])
        for preds in ([1, 0], np.zeros((1, 2, 2), dtype=int)):
            with pytest.raises(ValueError, match=r"\(n, K\) flag matrix"):
                confusion(preds, gold)
            with pytest.raises(ValueError, match=r"\(n, K\) flag matrix"):
                micro_f1_flags(preds, gold)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            confusion(np.array([[1, 0]]), np.array([[0, 1, 0], [1, 0, 0]]))

    def test_stacked_flags_give_each_scorers_micro_f1(self):
        # R scorers' flags are counted in one pass, each row as if alone;
        # only micro_f1_flags asked for a stack takes (R, n, K) flags
        rng = np.random.default_rng(21)
        gold = np.zeros((30, 5), dtype=bool)
        gold[np.arange(30), rng.integers(0, 5, 30)] = True
        flags = rng.random((4, 30, 4)) < 0.4
        assert micro_f1_flags(flags, gold, stacked=True) == [
            micro_f1_flags(row, gold) for row in flags]
        for preds in (flags[0], flags[None]):
            with pytest.raises(ValueError, match=r"\(n, K\) flag matrix per scorer"):
                micro_f1_flags(preds, gold, stacked=True)
        with pytest.raises(ValueError, match="must match gold shape"):
            micro_f1_flags(flags[..., :3], gold, stacked=True)


class TestF1:
    def test_perfect(self):
        gold = np.array([[0, 1, 0], [0, 0, 1]])
        micro, macro, precision, recall = micro_macro_f1(
            confusion(gold[:, 1:], gold))
        assert (micro, macro, precision, recall) == (1.0, 1.0, 1.0, 1.0)

    def test_empty_predictions(self):
        gold = np.array([[0, 1, 0], [0, 0, 1]])
        micro, macro, precision, recall = micro_macro_f1(
            confusion(np.zeros((2, 2), dtype=int), gold))
        assert (micro, macro, precision, recall) == (0.0, 0.0, 0.0, 0.0)

    def test_pooled_counts(self):
        # TP=2, FP=1, FN=1 pooled
        gold = np.array([[0, 1, 1], [0, 1, 0]])
        preds = np.array([[1, 1], [0, 1]])
        micro, _, precision, recall = micro_macro_f1(confusion(preds, gold))
        assert precision == pytest.approx(2 / 3)
        assert recall == pytest.approx(2 / 3)
        assert micro == pytest.approx(2 / 3)

    def test_macro_bounds(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            y = rng.integers(0, 2, size=(10, 4))
            gold = np.column_stack([(y.max(axis=1) == 0).astype(int), y])
            preds = rng.integers(0, 2, size=(10, 4))
            _, macro, _, _ = micro_macro_f1(confusion(preds, gold))
            assert 0.0 <= macro <= 1.0


class TestAveragePrecision:
    def test_all_gold_ranked_first(self):
        # labels ranked (1, 3, 2); both gold labels land on perfect prefixes
        ap = average_precision([0.0, 3.0, 1.0, 2.0], [1, 0, 1])
        assert ap == 1.0

    def test_full_gold_set(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            f = rng.normal(0, 2, size=5)
            assert average_precision(f, [1, 1, 1, 1]) == 1.0

    def test_gold_ranked_last(self):
        ap = average_precision([0.0, 3.0, 1.0, 2.0], [0, 1, 0])
        assert ap == pytest.approx(1 / 3)

    def test_tie_broken_by_index(self):
        # labels 1 and 2 tie; label 1 keeps the earlier rank
        ap = average_precision([0.0, 1.0, 1.0], [0, 1])
        assert ap == pytest.approx(1 / 2)

    def test_no_positive_rejected(self):
        with pytest.raises(ValueError):
            average_precision([0.0, 1.0, 2.0], [0, 0])

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            k = int(rng.integers(1, 9))
            y = rng.integers(0, 2, size=k)
            if y.sum() == 0:
                y[int(rng.integers(k))] = 1
            f = rng.normal(0, 2, size=k + 1)
            assert_allclose(average_precision(f, y), brute_force_ap(f, y),
                            rtol=0, atol=1e-12)

    def test_invariant_under_increasing_transform(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            f = rng.normal(0, 2, size=6)
            y = np.array([1, 0, 1, 0, 1])
            g = f.copy()
            g[1:] = 3.0 * g[1:] + 7.0  # strictly increasing reparametrization
            assert average_precision(f, y) == average_precision(g, y)


class TestMeanMetrics:
    def test_mean_ap_excludes_none_instances(self):
        scores = np.array([[0.0, 2.0, 1.0], [0.0, 1.0, 2.0], [0.0, 5.0, 5.0]])
        gold = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        # the all-negative third instance must not contribute
        assert mean_average_precision(scores, gold) == 1.0

    def test_mean_ap_matches_per_instance(self):
        rng = np.random.default_rng(5)
        scores = rng.normal(0, 2, size=(30, 5))
        y = rng.integers(0, 2, size=(30, 4))
        gold = np.column_stack([(y.max(axis=1) == 0).astype(int), y])
        keep = y.sum(axis=1) > 0
        expected = np.mean([average_precision(scores[i], y[i])
                            for i in range(30) if keep[i]])
        assert_allclose(mean_average_precision(scores, gold), expected,
                        rtol=0, atol=1e-12)

    def test_mean_ap_needs_a_qualifier(self):
        with pytest.raises(ValueError):
            mean_average_precision(np.zeros((2, 3)),
                                   np.array([[1, 0, 0], [1, 0, 0]]))

    def test_mean_ncre_perfect(self):
        scores = np.array([[0.0, 1.0, -1.0], [0.0, -1.0, -2.0]])
        gold = np.array([[0, 1, 0], [1, 0, 0]])
        assert mean_ncre(scores, gold) == 0.0

    def test_mean_ncre_fully_reversed(self):
        scores = np.array([[0.0, -1.0, -1.0]])
        gold = np.array([[0, 1, 1]])
        assert mean_ncre(scores, gold) == 2.0

    def test_mean_ncre_mixed(self):
        scores = np.array([[0.0, 1.0, -1.0], [0.0, -1.0, 1.0]])
        gold = np.array([[0, 1, 0], [0, 1, 0]])
        # first instance clean, second fully reversed
        assert mean_ncre(scores, gold) == pytest.approx(1.0)

    def test_scores_must_match_gold_shape(self):
        # narrower scores used to give nan, wider ones and 1-D rows an
        # IndexError
        scores = np.array([[0.0, 1.0, -1.0], [0.0, -1.0, 1.0]])
        gold = np.array([[0, 1, 0], [0, 1, 1]])
        for metric in (mean_average_precision, mean_ncre):
            for bad in (scores[:, :2], np.column_stack([scores, scores[:, 1]]),
                        scores[:1]):
                with pytest.raises(ValueError, match="scores or flags"):
                    metric(bad, gold)
            with pytest.raises(ValueError, match="scores must be"):
                metric(scores[0], gold[0])


def test_labels_other_than_0_1_are_refused():
    # a 2 or a -1 is neither a positive nor a negative flag, so no count,
    # sweep or ranking error may read it as either
    scores = np.array([[0.3, -0.2, 0.5, 1.0], [0.0, 1.0, -1.0, 0.2]])
    gold = np.array([[0, 1, 0, 0], [0, 1, 0, 1]])
    flags = np.array([[1, 0, 0], [0, 1, 1]])
    for bad in (2, -1):
        bad_gold, bad_flags = gold.copy(), flags.copy()
        bad_gold[0, 2] = bad_flags[0, 1] = bad
        for metric, args in (
                (confusion, (flags, bad_gold)), (confusion, (bad_flags, gold)),
                (micro_f1_flags, (flags, bad_gold)),
                (micro_f1_flags, (bad_flags, gold)),
                (mean_average_precision, (scores, bad_gold)),
                (mean_ncre, (scores, bad_gold)),
                (sweep_global_threshold, (scores, bad_gold)),
                (sweep_per_label_thresholds, (scores, bad_gold))):
            with pytest.raises(ValueError, match="labels must be binary flags"):
                metric(*args)


def test_dataset_labels_reach_the_counts_uncopied():
    # gold_flags used to cast a Dataset's bool labels to an int64 copy on
    # every metric call
    data = Dataset(np.zeros((2, 1)), np.array([[0, 1, 0], [1, 0, 0]], bool))
    y = gold_flags(data.labels, (2, 2))
    assert y.dtype == bool
    assert np.shares_memory(y, data.labels)


class TestEvaluate:
    def test_report_consistency(self):
        rng = np.random.default_rng(6)
        scores = rng.normal(0, 2, size=(40, 4))
        y = rng.integers(0, 2, size=(40, 3))
        gold = np.column_stack([(y.max(axis=1) == 0).astype(int), y])
        flags = (scores[:, 1:] > scores[:, :1]).astype(int)
        report = evaluate(scores, gold, flags)
        assert report.micro_f1 == micro_f1_flags(flags, gold)
        assert report.mean_ncre == mean_ncre(scores, gold)
        assert report.mean_ap == mean_average_precision(scores, gold)
        as_dict = report.as_dict()
        assert set(as_dict) == {"micro_f1", "macro_f1", "micro_precision",
                                "micro_recall", "mean_ap", "mean_ncre"}
