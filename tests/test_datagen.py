"""Synthetic generation, noise injection, and label bookkeeping."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncrl_lab import datagen
from ncrl_lab.datagen import (PROBE_SIZE, Dataset, SyntheticConfig,
                              class_prior_report,
                              generate, inject_false_negatives,
                              inject_symmetric_noise, split,
                              strip_none_instances, take)
from ncrl_lab.harness.experiments import make_splits
from ncrl_lab.losses import batch_ncre


def ground_truth_scores(data):
    """Score matrix of the generator's hidden scorer, none score pinned at 0.

    Row format (0, w_i . x - b_i): every truly positive label scores above 0
    and every negative one below, so noiseless generated labels have ranking
    error 0 under these scores.
    """
    if not data.provenance or "weights" not in data.provenance:
        raise ValueError("dataset carries no generation provenance")
    margins = data.features @ data.provenance["weights"].T
    scored = margins - data.provenance["thresholds"]
    return np.column_stack([np.zeros(len(data)), scored])


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
        assert all(part.labels.dtype == bool for part in (a, b, c))
        # a slice cannot stand in for a size that is not positive: a
        # negative end would count from the back
        for sizes in ((8, 5), (0, 5), (-2,), (3, -1), (4, 6, 0)):
            with pytest.raises(ValueError):
                split(data, *sizes)

    def test_take_preserves_provenance(self):
        cfg = SyntheticConfig(num_labels=3, feature_dim=5, num_instances=20,
                              seed=2)
        data = generate(cfg)
        sub = take(data, [0, 3, 5])
        assert sub.provenance is data.provenance
        assert len(sub) == 3
        assert sub.labels.dtype == bool

    def test_noise_ops_keep_none_flag_consistent(self):
        cfg = SyntheticConfig(num_labels=5, feature_dim=10, num_instances=500,
                              none_fraction_target=0.3, seed=12)
        data = generate(cfg)
        assert data.labels.dtype == bool
        for out in (inject_false_negatives(data, 0.4, seed=1),
                    inject_symmetric_noise(data, 0.2, seed=2),
                    strip_none_instances(data)):
            assert none_consistent(out)
            assert out.labels.dtype == bool

    def test_validation_rejects_bad_labels(self):
        feats = np.zeros((2, 3))
        with pytest.raises(ValueError, match="row 1"):
            Dataset(feats, np.array([[1, 0, 0], [1, 1, 0]]))
        for bad in ([[1, 0, 2], [1, 0, 0]], [[0, -1, 1], [1, 0, 0]]):
            with pytest.raises(ValueError, match="labels must be binary flags"):
                Dataset(feats, np.array(bad))
        # a fractional flag is refused, not truncated to 0 or 1
        for bad in ([[1, 0.5]], [[0, 1.9]]):
            with pytest.raises(ValueError, match="labels must be binary flags"):
                Dataset(np.zeros((1, 2)), bad)
        with pytest.raises(ValueError):
            Dataset(np.array([[np.nan, 0, 0], [0, 0, 0]]),
                    np.array([[1, 0, 0], [1, 0, 0]]))
        with pytest.raises(ValueError):
            Dataset(np.zeros((0, 3)), np.zeros((0, 3), dtype=int))


BLOCK = 1000  # the generator's row block; n is drawn around its edges


def reference_generate(config):
    """`generate` written out one-shot: the whole probe drawn and scored at
    once, the whole `x @ w.T > thresholds` formed at once, and each noise
    operation's flips set through a mask."""
    config.validate()
    bias = config.bias_vector()
    rngs = map(np.random.default_rng, np.random.SeedSequence(config.seed).spawn(5))
    w_rng, probe_rng, x_rng, fn_rng, sym_rng = rngs
    w = w_rng.standard_normal((config.num_labels, config.feature_dim))
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    base = 0.0
    if np.isfinite(bias).any():
        probe = probe_rng.standard_normal((PROBE_SIZE, config.feature_dim))
        base = float(np.quantile((probe @ w.T - bias).max(axis=1),
                                 config.none_fraction_target))
    x = x_rng.standard_normal((config.num_instances, config.feature_dim))
    thresholds = bias + base
    y = x @ w.T > thresholds
    if config.noise_false_negative_rate > 0:
        rng = np.random.default_rng(int(fn_rng.integers(2**63)))
        y[(rng.random(y.shape) < config.noise_false_negative_rate) & y] = False
    if config.noise_symmetric_rate > 0:
        rng = np.random.default_rng(int(sym_rng.integers(2**63)))
        flips = rng.random(y.shape) < config.noise_symmetric_rate
        y[flips] = ~y[flips]
    return Dataset(x, np.column_stack([~y.any(axis=1), y]),
                   {"config": config, "weights": w, "thresholds": thresholds})


def reference_split(data, *sizes):
    """`split` through `take`: each part a copy of its rows."""
    ends = np.cumsum((0,) + sizes + (len(data) - sum(sizes),))
    return [take(data, np.arange(a, b)) for a, b in zip(ends, ends[1:]) if b > a]


def assert_same_bits(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert np.array_equal(a, b) and a.tobytes() == b.tobytes()


@st.composite
def synthetic_configs(draw):
    k = draw(st.integers(1, 60))
    n = draw(st.sampled_from((1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1,
                              12_345)) | st.integers(1, 3 * BLOCK + 1))
    bias_kind = draw(st.sampled_from(("none", "finite", "sentinel", "all")))
    bias = {"none": None,
            "finite": draw(st.lists(st.floats(-2, 2), min_size=k, max_size=k)),
            "sentinel": [np.inf] + draw(st.lists(st.floats(-2, 2),
                                                 min_size=k - 1, max_size=k - 1)),
            "all": [np.inf] * k}[bias_kind]
    if bias_kind == "sentinel" and k == 1:
        bias, bias_kind = [np.inf], "all"
    target = 1.0 if bias_kind == "all" else draw(st.sampled_from((0.0, 0.3, 0.9)))
    return SyntheticConfig(
        num_labels=k, feature_dim=draw(st.integers(1, 128)), num_instances=n,
        none_fraction_target=target,
        per_label_bias=None if bias is None else np.array(bias),
        noise_false_negative_rate=draw(st.sampled_from((0.0, 0.2))),
        noise_symmetric_rate=draw(st.sampled_from((0.0, 0.05))),
        seed=draw(st.integers(0, 2**32)))


def split_sizes(draw, n):
    """Zero to three explicit part sizes that leave room in n rows."""
    sizes = []
    for _ in range(draw(st.integers(0, 3))):
        if sum(sizes) < n:
            sizes.append(draw(st.integers(1, n - sum(sizes))))
    return tuple(sizes)


class TestRowBlocks:
    @settings(max_examples=60)
    @given(synthetic_configs(), st.data())
    def test_generate_and_split_equal_one_shot_reference(self, config, data):
        got, want = generate(config), reference_generate(config)
        assert_same_bits(got.features, want.features)
        assert_same_bits(got.labels, want.labels)
        for key in ("weights", "thresholds"):
            assert_same_bits(got.provenance[key], want.provenance[key])
        sizes = split_sizes(data.draw, len(got))
        parts, want_parts = split(got, *sizes), reference_split(want, *sizes)
        assert len(parts) == len(want_parts)
        for part, want_part in zip(parts, want_parts):
            assert_same_bits(part.features, want_part.features)
            assert_same_bits(part.labels, want_part.labels)
            assert part.provenance is got.provenance

    def test_split_parts_are_views_of_the_data(self):
        data = generate(SyntheticConfig(num_labels=3, feature_dim=4,
                                        num_instances=2 * BLOCK + 1, seed=1))
        parts = split(data, BLOCK, BLOCK - 1)
        assert [len(part) for part in parts] == [BLOCK, BLOCK - 1, 2]
        for part in parts:
            assert np.shares_memory(part.features, data.features)
            assert np.shares_memory(part.labels, data.labels)

    def test_peak_memory_is_the_data_plus_one_block(self):
        # the no_none_k28 benchmark's data: 5.15 MB of features and labels;
        # what the peak may add is one block of scores (0.22 MB) and the
        # (n, dim) bool of Dataset's finiteness check (0.6 MB). A whole probe
        # and an (n, K) float of scores once read 1.66x the data, and copied
        # split parts 2.02x
        config = SyntheticConfig(num_labels=28, feature_dim=50,
                                 num_instances=12_000,
                                 none_fraction_target=0.35, seed=3)
        assert datagen._ROW_BLOCK == BLOCK
        # a first call imports the numpy modules that load lazily
        generate(SyntheticConfig(num_labels=2, feature_dim=3, num_instances=5))
        for build in (lambda: generate(config), lambda: make_splits(config, 3)):
            tracemalloc.start()
            try:
                built = build()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            parts = [built] if isinstance(built, Dataset) else built
            data_bytes = sum(part.features.nbytes + part.labels.nbytes
                             for part in parts)
            assert data_bytes == 12_000 * (50 * 8 + 29)
            assert peak < 1.2 * data_bytes
