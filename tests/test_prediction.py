"""Prediction rules and threshold sweeps against brute-force oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ncrl_lab.losses import ncre_error, sigmoid
from ncrl_lab.metrics import confusion, micro_macro_f1
from ncrl_lab.prediction import (COARSE_GRID, FINE_GRID, adaptive_flags,
                                 global_flags, native_flags,
                                 sweep_global_threshold,
                                 sweep_per_label_thresholds)


def logit(p):
    return math.log(p / (1 - p))


def brute_force_global(scores, gold, grid):
    """Naive loop-based micro-F1 sweep; first (smallest) maximizer wins."""
    best_t, best_f1 = None, -1.0
    for t in grid:
        tp = fp = fn = 0
        for row in range(len(scores)):
            for j in range(1, scores.shape[1]):
                pred = 1 / (1 + math.exp(-scores[row, j])) > t
                actual = gold[row, j] == 1
                tp += pred and actual
                fp += pred and not actual
                fn += (not pred) and actual
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        if f1 > best_f1:
            best_t, best_f1 = float(t), f1
    return best_t, best_f1


def brute_force_per_label(scores, gold, grid):
    k = scores.shape[1] - 1
    out = []
    for j in range(1, k + 1):
        best_t, best_f1 = None, -1.0
        for t in grid:
            tp = fp = fn = 0
            for row in range(len(scores)):
                pred = 1 / (1 + math.exp(-scores[row, j])) > t
                actual = gold[row, j] == 1
                tp += pred and actual
                fp += pred and not actual
                fn += (not pred) and actual
            denom = 2 * tp + fp + fn
            f1 = 2 * tp / denom if denom else 0.0
            if f1 > best_f1:
                best_t, best_f1 = float(t), f1
        out.append(best_t)
    return np.array(out)


def positives(flags):
    """Label indices 1..K that a one-row (1, K) flag matrix predicts."""
    return (np.nonzero(flags[0])[0] + 1).tolist()


def random_scored_set(rng, n=12, k=3):
    scores = rng.normal(0.0, 2.0, size=(n, k + 1))
    y = rng.integers(0, 2, size=(n, k))
    none = (y.max(axis=1) == 0).astype(int)
    return scores, np.column_stack([none, y])


class TestPredictAdaptive:
    def test_positive_above_none(self):
        assert positives(adaptive_flags([[0.0, 1.0, -1.0]])) == [1]

    def test_all_below_is_na(self):
        assert positives(adaptive_flags([[0.0, -1.0, -2.0]])) == []

    def test_tie_predicts_negative(self):
        assert positives(adaptive_flags([[0.0, 0.0, 1.0]])) == [2]

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            f = rng.normal(0, 2, size=(1, 5))
            c = float(rng.normal(0, 10))
            assert np.array_equal(adaptive_flags(f), adaptive_flags(f + c))

    def test_zero_ncre_recovers_gold(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            k = int(rng.integers(1, 8))
            y = rng.integers(0, 2, size=k)
            f = np.zeros(k + 1)
            f[1:] = np.where(y == 1, rng.uniform(0.5, 2, k),
                             -rng.uniform(0.5, 2, k))
            assert ncre_error(y, f) == 0.0
            assert np.array_equal(adaptive_flags(f[None, :])[0], y == 1)


class TestPredictGlobal:
    def test_half_threshold_excludes_zero_scores(self):
        assert positives(global_flags([[9.0, 0.0, 0.0]], 0.5)) == []

    def test_half_threshold_splits(self):
        assert positives(global_flags([[9.0, 2.0, -2.0]], 0.5)) == [1]

    def test_low_threshold_admits_both(self):
        # sigmoid(-2) is about 0.119, above a 0.1 threshold
        assert positives(global_flags([[9.0, 2.0, -2.0]], 0.1)) == [1, 2]

    def test_threshold_range(self):
        for t in (1.0, 0.0, float("nan"), [0.5, 1.0], [0.0, 0.5],
                  [0.5, float("nan")]):
            with pytest.raises(ValueError, match=r"must lie in \(0, 1\)"):
                global_flags([[0.0, 1.0, 2.0]], t)

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            f = rng.normal(0, 2, size=(1, 6))
            low, high = global_flags(f, 0.3), global_flags(f, 0.7)
            assert not (high & ~low).any()


class TestPredictPerLabel:
    """`global_flags` given one threshold per label."""

    def test_uniform_equals_global(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            f = rng.normal(0, 2, size=(1, 5))
            assert np.array_equal(global_flags(f, [0.4] * 4),
                                  global_flags(f, 0.4))

    def test_split_thresholds(self):
        assert positives(global_flags([[9.0, 0.0, 0.0]], [0.4, 0.6])) == [1]

    def test_high_thresholds_empty(self):
        assert positives(global_flags([[0.0, 1.5, 2.0]], [0.99, 0.99])) == []

    def test_length_mismatch(self):
        for thresholds in ([0.5], [0.5, 0.5, 0.5], [[0.5, 0.5]]):
            with pytest.raises(ValueError, match="one threshold per label, 2"):
                global_flags([[0.0, 1.0, 2.0]], thresholds)


class TestNativeFlags:
    def test_none_is_adaptive_and_a_threshold_is_global(self):
        rng = np.random.default_rng(16)
        scores, _ = random_scored_set(rng, n=30, k=4)
        assert np.array_equal(native_flags(scores, None), adaptive_flags(scores))
        for t in (0.3, [0.2, 0.4, 0.6, 0.8]):
            assert np.array_equal(native_flags(scores, t), global_flags(scores, t))


class TestSweepGlobal:
    def test_realizable_optimum(self):
        rng = np.random.default_rng(5)
        scores, _ = random_scored_set(rng, n=30, k=4)
        flags = global_flags(scores, 0.5)
        none = (flags.max(axis=1) == 0).astype(int)
        gold = np.column_stack([none, flags])
        t, f1 = sweep_global_threshold(scores, gold, COARSE_GRID)
        assert f1 == 1.0

    def test_single_point_grid(self):
        rng = np.random.default_rng(6)
        scores, gold = random_scored_set(rng)
        t, _ = sweep_global_threshold(scores, gold, [0.37])
        assert t == 0.37

    def test_hand_case_matches_brute_force(self):
        probs = np.array([[0.9, 0.4], [0.2, 0.9], [0.4, 0.2]])
        scores = np.column_stack([np.zeros(3),
                                  np.vectorize(logit)(probs)])
        gold = np.array([[0, 1, 0], [0, 0, 1], [0, 1, 0]])
        expected = brute_force_global(scores, gold, COARSE_GRID)
        assert sweep_global_threshold(scores, gold, COARSE_GRID) == pytest.approx(expected)

    def test_random_cases_match_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            scores, gold = random_scored_set(rng)
            got = sweep_global_threshold(scores, gold, COARSE_GRID)
            expected = brute_force_global(scores, gold, COARSE_GRID)
            assert got[0] == expected[0]
            assert got[1] == pytest.approx(expected[1], abs=1e-12)

    def test_grid_validation(self):
        rng = np.random.default_rng(8)
        scores, gold = random_scored_set(rng)
        with pytest.raises(ValueError):
            sweep_global_threshold(scores, gold, [])
        with pytest.raises(ValueError):
            sweep_global_threshold(scores, gold, [0.5, 0.4])
        with pytest.raises(ValueError):
            sweep_global_threshold(scores, gold, [0.0, 0.5])


class TestSweepPerLabel:
    def test_realizable_per_label(self):
        rng = np.random.default_rng(9)
        scores, _ = random_scored_set(rng, n=40, k=3)
        flags = global_flags(scores, 0.5)
        none = (flags.max(axis=1) == 0).astype(int)
        gold = np.column_stack([none, flags])
        thresholds = sweep_per_label_thresholds(scores, gold, COARSE_GRID)
        recovered = np.stack([
            (1 / (1 + np.exp(-scores[:, j + 1])) > thresholds[j]).astype(int)
            for j in range(3)], axis=1)
        assert np.array_equal(recovered, flags)

    def test_single_label_reduces_to_global(self):
        rng = np.random.default_rng(10)
        scores, gold = random_scored_set(rng, n=25, k=1)
        thresholds = sweep_per_label_thresholds(scores, gold, COARSE_GRID)
        t, _ = sweep_global_threshold(scores, gold, COARSE_GRID)
        assert thresholds[0] == t

    def test_random_cases_match_brute_force(self):
        rng = np.random.default_rng(11)
        for _ in range(15):
            scores, gold = random_scored_set(rng)
            got = sweep_per_label_thresholds(scores, gold, COARSE_GRID)
            assert np.array_equal(got, brute_force_per_label(scores, gold,
                                                             COARSE_GRID))


def scan_global(scores, gold, grid):
    """One confusion pass per grid threshold, pooled into micro F1."""
    best_t, best_f1 = None, -1.0
    for t in grid:
        f1 = micro_macro_f1(confusion(global_flags(scores, float(t)), gold))[0]
        if f1 > best_f1:
            best_t, best_f1 = float(t), f1
    return best_t, best_f1


def scan_per_label(scores, gold, grid):
    """One confusion pass per grid threshold, scored per label."""
    best_t = np.full(scores.shape[1] - 1, float(grid[0]))
    best_f1 = np.full(scores.shape[1] - 1, -1.0)
    for t in grid:
        counts = confusion(global_flags(scores, float(t)), gold)
        denom = 2 * counts.tp + counts.fp + counts.fn
        f1 = np.where(denom > 0, 2 * counts.tp / np.maximum(denom, 1), 0.0)
        better = f1 > best_f1
        best_t[better] = float(t)
        best_f1[better] = f1[better]
    return best_t


GRIDS = st.one_of(
    st.sampled_from([COARSE_GRID, FINE_GRID, (0.5,), (0.37,)]),
    st.lists(st.floats(0.001, 0.999), min_size=1, max_size=12, unique=True)
    .map(sorted),
)


@st.composite
def swept_sets(draw, rows=None):
    """(scores, gold, grid) with scores on grid logits, at 0 and saturated;
    with `rows`, (rows, n, K+1) scores of that many scorers."""
    grid = draw(GRIDS)
    n, k = draw(st.integers(1, 12)), draw(st.integers(1, 4))
    on_grid = [math.log(t / (1 - t)) for t in grid]
    score = st.one_of(st.floats(-1e3, 1e3), st.sampled_from(on_grid),
                      st.sampled_from([0.0, -1e3, 1e3, -40.0, 40.0]))
    lead = () if rows is None else (rows,)
    scores = draw(arrays(np.float64, lead + (n, k + 1), elements=score))
    y = draw(arrays(np.int64, (n, k), elements=st.integers(0, 1)))
    shape = draw(st.sampled_from(["any", "all_none", "empty_label"]))
    if shape == "all_none":
        y[:] = 0
    elif shape == "empty_label":
        y[:, draw(st.integers(0, k - 1))] = 0
    gold = np.column_stack([(y.max(axis=1) == 0).astype(int), y])
    return scores, gold, grid


class TestSweepExactness:
    """Both sweeps equal a per-threshold confusion scan exactly (==)."""

    @settings(max_examples=300, deadline=None)
    @given(swept_sets())
    def test_global_equals_scan(self, case):
        scores, gold, grid = case
        assert sweep_global_threshold(scores, gold, grid) == \
            scan_global(scores, gold, grid)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda rows: swept_sets(rows=rows)))
    def test_stacked_global_equals_per_row_calls(self, case):
        scores, gold, grid = case
        thresholds, f1s = sweep_global_threshold(scores, gold, grid)
        assert list(zip(thresholds, f1s)) == [
            sweep_global_threshold(row, gold, grid) for row in scores]

    def test_stacked_global_checks_shapes(self):
        gold = np.array([[0, 1], [1, 0]])
        with pytest.raises(ValueError, match="equal instance counts"):
            sweep_global_threshold(np.zeros((2, 3, 2)), gold)
        with pytest.raises(ValueError, match="match gold shape"):
            sweep_global_threshold(np.zeros((2, 2, 3)), gold)
        with pytest.raises(ValueError, match="scores must be"):
            sweep_global_threshold(np.zeros((1, 2, 2, 2)), gold)
        with pytest.raises(ValueError, match="scores must be"):
            sweep_per_label_thresholds(np.zeros((2, 2, 2)), gold)

    @settings(max_examples=300, deadline=None)
    @given(swept_sets())
    def test_per_label_equals_scan(self, case):
        scores, gold, grid = case
        got = sweep_per_label_thresholds(scores, gold, grid)
        assert got.tolist() == scan_per_label(scores, gold, grid).tolist()

    def test_score_on_the_threshold_is_negative(self):
        # sigmoid(0) is exactly 0.5, so t = 0.5 must not flag it
        scores = np.array([[0.0, 0.0], [0.0, 1.0]])
        gold = np.array([[1, 0], [0, 1]])
        assert sweep_global_threshold(scores, gold, (0.5,)) == (0.5, 1.0)
        assert sweep_global_threshold(scores, gold, (0.49, 0.5)) == (0.5, 1.0)
        assert sweep_per_label_thresholds(scores, gold, (0.49, 0.5)).tolist() \
            == [0.5]

    def test_nan_score_flags_nothing(self):
        # sigmoid(NaN) > t is false at every t, as global_flags has it
        scores = np.array([[0.0, np.nan, 2.0], [0.0, 1.0, np.nan]])
        gold = np.array([[0, 1, 1], [0, 1, 0]])
        for grid in (COARSE_GRID, FINE_GRID):
            assert sweep_global_threshold(scores, gold, grid) == \
                scan_global(scores, gold, grid)
            assert sweep_per_label_thresholds(scores, gold, grid).tolist() == \
                scan_per_label(scores, gold, grid).tolist()

    def test_ties_take_the_smallest_threshold(self):
        scores = np.array([[0.0, 5.0], [0.0, -5.0]])
        gold = np.array([[0, 1], [1, 0]])
        assert sweep_global_threshold(scores, gold, FINE_GRID) == (0.1, 1.0)
        assert sweep_per_label_thresholds(scores, gold, FINE_GRID).tolist() \
            == [0.1]


class TestFlagHelpers:
    def test_stacked_adaptive_flags_match_each_row(self):
        rng = np.random.default_rng(14)
        stack = np.stack([random_scored_set(rng)[0] for _ in range(3)])
        flags = adaptive_flags(stack)
        assert flags.shape == stack[..., 1:].shape
        for row, scores in enumerate(stack):
            assert np.array_equal(flags[row], adaptive_flags(scores))
        with pytest.raises(ValueError, match="R scorers"):
            adaptive_flags(stack[None])

    def test_flags_are_bools_with_the_values_of_int_flags(self):
        # the flags used to be int64 0/1, eight bytes per entry, made by a
        # cast that every caller then counted or compared again
        rng = np.random.default_rng(15)
        scores, gold = random_scored_set(rng, n=40, k=5)
        k = scores.shape[1] - 1
        probabilities = sigmoid(scores[:, 1:])
        thresholds = np.linspace(0.2, 0.8, k)
        for flags, expected in (
                (adaptive_flags(scores), scores[:, 1:] > scores[:, :1]),
                (global_flags(scores, 0.3), probabilities > 0.3),
                (global_flags(scores, thresholds), probabilities > thresholds)):
            assert flags.dtype == bool
            assert np.array_equal(flags, expected)
            assert micro_macro_f1(confusion(flags, gold)) == micro_macro_f1(
                confusion(flags.astype(int), gold))

