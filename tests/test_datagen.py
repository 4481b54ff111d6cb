"""Synthetic generation, noise injection, and label bookkeeping."""

import numpy as np
import pytest

from ncrl_lab.datagen import (Dataset, SyntheticConfig, class_prior_report,
                              generate, ground_truth_scores,
                              inject_false_negatives, inject_symmetric_noise,
                              split, strip_none_instances, take)
from ncrl_lab.losses import batch_ncre


def flat_dataset(labels):
    """Dataset with the given (n, K+1) labels and throwaway features."""
    labels = np.asarray(labels)
    rng = np.random.default_rng(0)
    return Dataset(rng.normal(size=(len(labels), 3)), labels)


def none_consistent(data):
    derived = (data.labels[:, 1:].max(axis=1) == 0).astype(int)
    return np.array_equal(data.labels[:, 0], derived)


class TestGenerate:
    def test_deterministic(self):
        cfg = SyntheticConfig(num_labels=10, feature_dim=50, num_instances=5000,
                              seed=3)
        assert generate(cfg) == generate(cfg)

    def test_none_fraction_calibration(self):
        cfg = SyntheticConfig(num_labels=10, feature_dim=50, num_instances=5000,
                              none_fraction_target=0.4, seed=0)
        report = class_prior_report(generate(cfg))
        assert 0.35 <= report["none_fraction"] <= 0.45

    def test_all_none_degenerate(self):
        cfg = SyntheticConfig(num_labels=3, feature_dim=4, num_instances=50,
                              none_fraction_target=1.0,
                              per_label_bias=np.full(3, np.inf), seed=1)
        data = generate(cfg)
        assert (data.labels[:, 0] == 1).all()
        assert (data.labels[:, 1:] == 0).all()

    def test_infeasible_targets_rejected(self):
        with pytest.raises(ValueError):
            generate(SyntheticConfig(num_labels=2, feature_dim=4,
                                     num_instances=10,
                                     none_fraction_target=1.0, seed=0))
        with pytest.raises(ValueError):
            generate(SyntheticConfig(num_labels=2, feature_dim=4,
                                     num_instances=10,
                                     none_fraction_target=0.3,
                                     per_label_bias=np.full(2, np.inf), seed=0))

    def test_bias_vector_validation(self):
        cfg = SyntheticConfig(num_labels=2, feature_dim=4, num_instances=10,
                              per_label_bias=np.array([0.0, -np.inf]), seed=0)
        with pytest.raises(ValueError):
            cfg.validate()
        cfg = SyntheticConfig(num_labels=2, feature_dim=4, num_instances=10,
                              per_label_bias=np.array([0.0]), seed=0)
        with pytest.raises(ValueError):
            cfg.validate()

    def test_separability_witness(self):
        # the hidden scorer itself ranks the noiseless labels perfectly
        cfg = SyntheticConfig(num_labels=6, feature_dim=20, num_instances=500,
                              none_fraction_target=0.3, seed=4)
        data = generate(cfg)
        scores = ground_truth_scores(data)
        assert (batch_ncre(data.labels, scores) == 0).all()

    def test_provenance_required_for_scores(self):
        data = flat_dataset([[1, 0, 0], [0, 1, 0]])
        with pytest.raises(ValueError):
            ground_truth_scores(data)


class TestFalseNegatives:
    def test_rate_zero_identity(self):
        data = flat_dataset([[0, 1, 1], [1, 0, 0], [0, 0, 1]])
        assert inject_false_negatives(data, 0.0, seed=5) == data

    def test_rate_one_empties_labels(self):
        data = flat_dataset([[0, 1, 1], [0, 0, 1]])
        out = inject_false_negatives(data, 1.0, seed=5)
        assert (out.labels[:, 0] == 1).all()
        assert (out.labels[:, 1:] == 0).all()

    def test_flip_count_concentrates(self):
        labels = np.tile([0, 1, 0], (10000, 1))  # exactly 10000 positives
        data = flat_dataset(labels)
        out = inject_false_negatives(data, 0.2, seed=11)
        flipped = 10000 - out.labels[:, 1:].sum()
        assert 1900 <= flipped <= 2100

    def test_never_creates_positives(self):
        rng = np.random.default_rng(6)
        y = rng.integers(0, 2, size=(300, 5))
        none = (y.max(axis=1) == 0).astype(int)
        data = flat_dataset(np.column_stack([none, y]))
        out = inject_false_negatives(data, 0.3, seed=7)
        assert (out.labels[:, 1:] <= data.labels[:, 1:]).all()
        assert none_consistent(out)

    def test_rate_validated(self):
        data = flat_dataset([[1, 0, 0]])
        with pytest.raises(ValueError):
            inject_false_negatives(data, 1.5, seed=0)


class TestSymmetricNoise:
    def test_rate_zero_identity(self):
        data = flat_dataset([[0, 1, 1], [1, 0, 0]])
        assert inject_symmetric_noise(data, 0.0, seed=5) == data

    def test_rate_one_complements(self):
        data = flat_dataset([[0, 1, 0], [1, 0, 0]])
        out = inject_symmetric_noise(data, 1.0, seed=5)
        assert np.array_equal(out.labels[:, 1:], 1 - data.labels[:, 1:])
        assert none_consistent(out)

    def test_flip_fraction(self):
        # 100k label slots; realized flips stay near the rate
        rng = np.random.default_rng(8)
        y = rng.integers(0, 2, size=(10000, 10))
        none = (y.max(axis=1) == 0).astype(int)
        data = flat_dataset(np.column_stack([none, y]))
        out = inject_symmetric_noise(data, 0.1, seed=13)
        flips = int((out.labels[:, 1:] != data.labels[:, 1:]).sum())
        assert abs(flips / 100000 - 0.1) <= 0.01
        assert abs(flips - 10000) <= 3 * np.sqrt(100000 * 0.1 * 0.9)


class TestStripNone:
    def test_strips_and_shrinks(self):
        cfg = SyntheticConfig(num_labels=5, feature_dim=10, num_instances=2000,
                              none_fraction_target=0.4, seed=9)
        data = generate(cfg)
        none_count = int(data.labels[:, 0].sum())
        out = strip_none_instances(data)
        report = class_prior_report(out)
        assert report["none_fraction"] == 0.0
        assert len(out) == len(data) - none_count

    def test_identity_without_none(self):
        data = flat_dataset([[0, 1, 0], [0, 0, 1]])
        assert strip_none_instances(data) == data

    def test_all_none_rejected(self):
        data = flat_dataset([[1, 0, 0], [1, 0, 0]])
        with pytest.raises(ValueError):
            strip_none_instances(data)


class TestPriorReport:
    def test_all_none(self):
        report = class_prior_report(flat_dataset([[1, 0, 0]] * 4))
        assert report["none_fraction"] == 1.0
        assert report["positive_counts"] == [0, 0]
        assert report["imbalance_ratio"] is None

    def test_balanced_hand_case(self):
        report = class_prior_report(flat_dataset(
            [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 1, 1]]))
        assert report["num_instances"] == 4
        assert report["positive_counts"] == [2, 2]
        assert report["positive_rates"] == [0.5, 0.5]
        assert report["none_fraction"] == 0.25
        assert report["imbalance_ratio"] == 1.0

    def test_generated_rates_near_targets(self):
        # per-label offsets push rates apart while the none target still holds
        cfg = SyntheticConfig(num_labels=4, feature_dim=30, num_instances=8000,
                              none_fraction_target=0.5,
                              per_label_bias=np.array([0.0, 0.0, 1.0, 1.0]),
                              seed=10)
        report = class_prior_report(generate(cfg))
        assert abs(report["none_fraction"] - 0.5) <= 0.05
        rates = report["positive_rates"]
        assert rates[0] > rates[2] and rates[1] > rates[3]


class TestDatasetOps:
    def test_split_blocks(self):
        data = flat_dataset([[1, 0, 0]] * 10)
        a, b, c = split(data, 6, 2)
        assert (len(a), len(b), len(c)) == (6, 2, 2)
        with pytest.raises(ValueError):
            split(data, 8, 5)

    def test_take_preserves_provenance(self):
        cfg = SyntheticConfig(num_labels=3, feature_dim=5, num_instances=20,
                              seed=2)
        data = generate(cfg)
        sub = take(data, [0, 3, 5])
        assert sub.provenance is data.provenance
        assert len(sub) == 3

    def test_noise_ops_keep_none_flag_consistent(self):
        cfg = SyntheticConfig(num_labels=5, feature_dim=10, num_instances=500,
                              none_fraction_target=0.3, seed=12)
        data = generate(cfg)
        for out in (inject_false_negatives(data, 0.4, seed=1),
                    inject_symmetric_noise(data, 0.2, seed=2),
                    strip_none_instances(data)):
            assert none_consistent(out)

    def test_validation_rejects_bad_labels(self):
        feats = np.zeros((2, 3))
        with pytest.raises(ValueError, match="row 1"):
            Dataset(feats, np.array([[1, 0, 0], [1, 1, 0]]))
        for bad in ([[1, 0, 2], [1, 0, 0]], [[0, -1, 1], [1, 0, 0]]):
            with pytest.raises(ValueError, match="labels must be binary flags"):
                Dataset(feats, np.array(bad))
        with pytest.raises(ValueError):
            Dataset(np.array([[np.nan, 0, 0], [0, 0, 0]]),
                    np.array([[1, 0, 0], [1, 0, 0]]))
        with pytest.raises(ValueError):
            Dataset(np.zeros((0, 3)), np.zeros((0, 3), dtype=int))
