"""Synthetic multi-label data with a none class, imbalance, and label noise.

Instances are drawn from a hidden linear scorer: label i is positive iff
w_i . x > b_i, where each b_i is a per-label offset plus a shared base
threshold calibrated on a probe sample so the realized none-class fraction
hits its target. A +inf offset is a sentinel that forces a label to be
always negative. The none flag y_0 is always derived from the K pre-defined
flags, including after every noise operation.

The probe and the labels are scored in row blocks of `_ROW_BLOCK` rows, so
no score array grows with the probe or the dataset: generating costs the
dataset's own arrays plus one block's scores. The bits are those of scoring
every row at once, since blocked draws of one generator continue one stream
and a row of `x @ w.T` does not depend on the rows beside it. `split`
returns views of the dataset's rows, not copies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .losses import binary_flags

PROBE_SIZE = 10000
_ROW_BLOCK = 1000  # divides PROBE_SIZE


def check_seed(seed: int) -> None:
    """Refuse a negative seed by name; numpy's own error names no value."""
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")


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
        check_seed(self.seed)
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
    """Feature matrix paired with full label vectors (none flag at column 0).

    `labels` is an (n, K+1) bool array flagging the positives, read through
    `losses.binary_flags`: bools are kept as they are, numbers equal to 0 or
    1 become flags, and any other value is refused.
    """

    features: np.ndarray
    labels: np.ndarray
    provenance: Optional[dict] = field(default=None, repr=False)

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        self.labels = binary_flags(self.labels)
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
        derived = ~self.labels[:, 1:].any(axis=1)
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
    return np.column_stack([~y.any(axis=1), y])


def _calibrate_base(w: np.ndarray, bias: np.ndarray, target: float,
                    rng: np.random.Generator) -> float:
    """Base threshold whose probe none fraction matches the target quantile.

    The probe is drawn and scored one row block at a time; only each row's
    max score is kept."""
    maxima = [(rng.standard_normal((_ROW_BLOCK, w.shape[1])) @ w.T - bias).max(axis=1)
              for _ in range(PROBE_SIZE // _ROW_BLOCK)]
    return float(np.quantile(np.concatenate(maxima), target))


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
    labels = np.empty((len(x), config.num_labels + 1), dtype=bool)
    for a in range(0, len(x), _ROW_BLOCK):
        labels[a:a + _ROW_BLOCK, 1:] = x[a:a + _ROW_BLOCK] @ w.T > thresholds
    np.logical_not(labels[:, 1:].any(axis=1), out=labels[:, 0])
    data = Dataset(
        features=x,
        labels=labels,
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


def _with_flips(data: Dataset, rate: float, seed: int, flip) -> Dataset:
    """The dataset with its pre-defined labels replaced by `flip(y, drawn)`,
    where `drawn` marks each label with the given rate."""
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"noise rate must lie in [0, 1], got {rate}")
    y = data.labels[:, 1:]
    drawn = np.random.default_rng(seed).random(y.shape) < rate
    return Dataset(data.features, _labels_from_flags(flip(y, drawn)),
                   data.provenance)


def inject_false_negatives(data: Dataset, rate: float, seed: int) -> Dataset:
    """Flip each positive pre-defined label to negative with the given rate."""
    return _with_flips(data, rate, seed, lambda y, drawn: y & ~drawn)


def inject_symmetric_noise(data: Dataset, rate: float, seed: int) -> Dataset:
    """Flip each pre-defined label with the given rate regardless of polarity."""
    return _with_flips(data, rate, seed, np.logical_xor)


def strip_none_instances(data: Dataset) -> Dataset:
    """Drop every instance whose labels are all negative."""
    keep = ~data.labels[:, 0]
    if not keep.any():
        raise ValueError("stripping none-class instances would empty the dataset")
    return take(data, np.nonzero(keep)[0])


def take(data: Dataset, indices) -> Dataset:
    """Dataset restricted to the given instance rows, provenance preserved."""
    idx = np.asarray(indices, dtype=int)
    return Dataset(data.features[idx], data.labels[idx], data.provenance)


def split(data: Dataset, *sizes: int) -> list[Dataset]:
    """Cut the dataset into consecutive row blocks of the given sizes.

    A trailing block takes whatever remains after the explicit sizes. The
    parts are views of the dataset's arrays, not copies, so a write through
    one part would change the dataset and the other parts; nothing in the
    package writes through a dataset's arrays.
    """
    ends = np.cumsum((0, *sizes))
    if min(sizes, default=1) < 1 or ends[-1] > len(data):
        raise ValueError(f"split sizes {sizes} must be positive and sum to at "
                         f"most the dataset size {len(data)}")
    if ends[-1] < len(data):
        ends = np.append(ends, len(data))
    return [Dataset(data.features[a:b], data.labels[a:b], data.provenance)
            for a, b in zip(ends, ends[1:])]


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
        "none_fraction": float(data.labels[:, 0].mean()),
        "imbalance_ratio": ratio,
    }
