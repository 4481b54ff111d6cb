"""Synthetic multi-label data with a none class, imbalance, and label noise.

Instances are drawn from a hidden linear scorer: label i is positive iff
w_i . x > b_i, where each b_i is a per-label offset plus a shared base
threshold calibrated on a probe sample so the realized none-class fraction
hits its target. A +inf offset is a sentinel that forces a label to be
always negative. The none flag y_0 is always derived from the K pre-defined
flags, including after every noise operation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

PROBE_SIZE = 10000


@dataclass
class SyntheticConfig:
    num_labels: int
    feature_dim: int
    num_instances: int
    none_fraction_target: float = 0.3
    per_label_bias: Optional[np.ndarray] = None
    noise_false_negative_rate: float = 0.0
    noise_symmetric_rate: float = 0.0
    seed: int = 0

    def bias_vector(self) -> np.ndarray:
        if self.per_label_bias is None:
            return np.zeros(self.num_labels)
        b = np.asarray(self.per_label_bias, dtype=float)
        if b.shape != (self.num_labels,):
            raise ValueError(
                f"per_label_bias must have length {self.num_labels}, got shape {b.shape}"
            )
        return b

    def validate(self) -> None:
        if self.num_labels < 1 or self.feature_dim < 1 or self.num_instances < 1:
            raise ValueError("num_labels, feature_dim, num_instances must be >= 1")
        for name in ("none_fraction_target", "noise_false_negative_rate",
                     "noise_symmetric_rate"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        b = self.bias_vector()
        if np.isnan(b).any() or (b == -np.inf).any():
            raise ValueError("per_label_bias entries must be finite or +inf")
        finite = np.isfinite(b)
        if self.none_fraction_target == 1.0 and finite.any():
            raise ValueError(
                "none_fraction_target 1.0 conflicts with finite label biases "
                "(those labels keep a positive rate); use the +inf sentinel"
            )
        if not finite.any() and self.none_fraction_target < 1.0:
            raise ValueError(
                "all label biases are +inf (no label can fire) which conflicts "
                f"with none_fraction_target {self.none_fraction_target}"
            )


@dataclass(eq=False)
class Dataset:
    """Feature matrix paired with full label vectors (none flag at column 0)."""

    features: np.ndarray
    labels: np.ndarray
    provenance: Optional[dict] = field(default=None, repr=False)

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        self.labels = np.asarray(self.labels, dtype=int)
        if self.features.ndim != 2 or self.labels.ndim != 2:
            raise ValueError("features and labels must be 2-D")
        if len(self.features) != len(self.labels):
            raise ValueError("features and labels must have equal row counts")
        if len(self.features) == 0:
            raise ValueError("dataset must be nonempty")
        if self.labels.shape[1] < 2:
            raise ValueError("labels need a none column plus K >= 1 label columns")
        if not np.isfinite(self.features).all():
            raise ValueError("features must be finite")
        if self.labels.min() < 0 or self.labels.max() > 1:
            raise ValueError("labels must be binary flags")
        derived = (self.labels[:, 1:].max(axis=1) == 0).astype(int)
        if not np.array_equal(self.labels[:, 0], derived):
            bad = int(np.nonzero(self.labels[:, 0] != derived)[0][0])
            raise ValueError(f"none flag inconsistent with labels at row {bad}")

    def __len__(self) -> int:
        return len(self.features)

    @property
    def k(self) -> int:
        return self.labels.shape[1] - 1

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def __eq__(self, other) -> bool:
        # provenance is bookkeeping, not data, so it does not affect equality
        return (isinstance(other, Dataset)
                and np.array_equal(self.features, other.features)
                and np.array_equal(self.labels, other.labels))


def _labels_from_flags(y: np.ndarray) -> np.ndarray:
    none = (y.max(axis=1) == 0).astype(int)
    return np.column_stack([none, y])


def _calibrate_base(w: np.ndarray, bias: np.ndarray, target: float,
                    rng: np.random.Generator) -> float:
    """Base threshold whose probe none fraction matches the target quantile."""
    probe = rng.standard_normal((PROBE_SIZE, w.shape[1]))
    shifted = probe @ w.T - bias
    return float(np.quantile(shifted.max(axis=1), target))


def generate(config: SyntheticConfig) -> Dataset:
    """Draw a dataset from a fresh hidden scorer, then apply configured noise."""
    config.validate()
    bias = config.bias_vector()
    ss = np.random.SeedSequence(config.seed)
    w_rng, probe_rng, x_rng, fn_rng, sym_rng = map(np.random.default_rng, ss.spawn(5))

    w = w_rng.standard_normal((config.num_labels, config.feature_dim))
    w /= np.linalg.norm(w, axis=1, keepdims=True)

    if np.isfinite(bias).any():
        base = _calibrate_base(w, bias, config.none_fraction_target, probe_rng)
    else:
        base = 0.0  # every label is disabled by the sentinel; threshold moot

    x = x_rng.standard_normal((config.num_instances, config.feature_dim))
    thresholds = bias + base
    y = (x @ w.T > thresholds).astype(int)
    data = Dataset(
        features=x,
        labels=_labels_from_flags(y),
        provenance={"config": config, "weights": w, "thresholds": thresholds},
    )
    if config.noise_false_negative_rate > 0:
        data = inject_false_negatives(
            data, config.noise_false_negative_rate,
            int(fn_rng.integers(2**63)),
        )
    if config.noise_symmetric_rate > 0:
        data = inject_symmetric_noise(
            data, config.noise_symmetric_rate,
            int(sym_rng.integers(2**63)),
        )
    return data


def ground_truth_scores(data: Dataset) -> np.ndarray:
    """Score matrix of the hidden scorer with the none score pinned at zero.

    Row format (0, w_i . x - b_i): every truly positive label scores above 0
    and every negative one below, so the generator's own noiseless output has
    ncre_error 0 under these scores.
    """
    if not data.provenance or "weights" not in data.provenance:
        raise ValueError("dataset carries no generation provenance")
    margins = data.features @ data.provenance["weights"].T
    scored = margins - data.provenance["thresholds"]
    return np.column_stack([np.zeros(len(data)), scored])


def _check_rate(rate: float) -> float:
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"noise rate must lie in [0, 1], got {rate}")
    return float(rate)


def inject_false_negatives(data: Dataset, rate: float, seed: int) -> Dataset:
    """Flip each positive pre-defined label to negative with the given rate."""
    _check_rate(rate)
    rng = np.random.default_rng(seed)
    y = data.labels[:, 1:].copy()
    flips = (rng.random(y.shape) < rate) & (y == 1)
    y[flips] = 0
    return Dataset(data.features, _labels_from_flags(y), data.provenance)


def inject_symmetric_noise(data: Dataset, rate: float, seed: int) -> Dataset:
    """Flip each pre-defined label with the given rate regardless of polarity."""
    _check_rate(rate)
    rng = np.random.default_rng(seed)
    y = data.labels[:, 1:].copy()
    flips = rng.random(y.shape) < rate
    y[flips] = 1 - y[flips]
    return Dataset(data.features, _labels_from_flags(y), data.provenance)


def strip_none_instances(data: Dataset) -> Dataset:
    """Drop every instance whose labels are all negative."""
    keep = data.labels[:, 0] == 0
    if not keep.any():
        raise ValueError("stripping none-class instances would empty the dataset")
    return take(data, np.nonzero(keep)[0])


def take(data: Dataset, indices) -> Dataset:
    """Dataset restricted to the given instance rows, provenance preserved."""
    idx = np.asarray(indices, dtype=int)
    return Dataset(data.features[idx], data.labels[idx], data.provenance)


def split(data: Dataset, *sizes: int) -> list[Dataset]:
    """Cut the dataset into consecutive row blocks of the given sizes.

    A trailing block takes whatever remains after the explicit sizes.
    """
    if sum(sizes) > len(data):
        raise ValueError(f"split sizes {sizes} exceed dataset size {len(data)}")
    parts, start = [], 0
    for size in sizes:
        parts.append(take(data, np.arange(start, start + size)))
        start += size
    if start < len(data):
        parts.append(take(data, np.arange(start, len(data))))
    return parts


def class_prior_report(data: Dataset) -> dict:
    """Realized label statistics: counts, rates, none fraction, imbalance ratio."""
    counts = data.labels[:, 1:].sum(axis=0)
    rates = counts / len(data)
    if counts.max() == 0:
        ratio = None
    elif counts.min() == 0:
        ratio = float("inf")
    else:
        ratio = float(rates.max() / rates.min())
    return {
        "num_instances": len(data),
        "positive_counts": [int(c) for c in counts],
        "positive_rates": [float(r) for r in rates],
        "none_fraction": float((data.labels[:, 0] == 1).mean()),
        "imbalance_ratio": ratio,
    }
