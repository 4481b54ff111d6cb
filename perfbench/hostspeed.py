"""How fast the shared host runs right now, from a fixed reference workload.

Other tenants of the host slow every process on it by 30-70% for phases
that last from seconds to minutes, longer than a benchmark run, so the
median job of a run moves with the phase the run fell in, not with the
code. `HostSpeed.sample()` times a fixed reference unit, one epoch of a
small linear model with a logistic margin loss on constant inputs (the
shape of the package's training loop, written here in plain numpy), and
returns the median of several units. The runner samples right before and
right after each timed part and divides the part's time by the mean of the
two samples: the part's time in reference units, which a slow phase moves
far less than the time itself (README, Noise). It is reported in seconds of
a quiet host by multiplying by `QUIET_UNIT_S`.

The reference work is the benchmark's own and never calls `ncrl_lab`, so a
change to the package cannot move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# a sample's median unit time when the reference machine (README, Noise) is
# quiet; a fixed scale, so only the ratio to a run's samples varies
QUIET_UNIT_S = 1.4e-3

# units per sample, and the reference model's shape: the train and dev
# blocks of `ablation_k10` (n=3000, dim 50, K=10) at batch 64
UNITS = 8
N, DEV, DIM, K, BATCH = 2400, 450, 50, 10, 64


class HostSpeed:
    """Times a fixed reference unit; each sample is the median of `UNITS`."""

    def __init__(self):
        rng = np.random.default_rng(12345)
        self._x = rng.standard_normal((N, DIM))
        self._y = rng.random((N, K)) < 0.3
        self._dev = rng.standard_normal((DEV, DIM))
        self._w0 = 0.1 * rng.standard_normal((K + 1, DIM))
        self.samples = []

    def _unit(self) -> float:
        """One epoch: forward, margin loss gradient, backward, momentum step."""
        w = self._w0.copy()
        velocity = np.zeros_like(w)
        for start in range(0, N, BATCH):
            xb = self._x[start:start + BATCH]
            scores = xb @ w.T
            margin = np.maximum(scores[:, 1:] - scores[:, :1], -30.0)
            prob = 1.0 / (1.0 + np.exp(-margin))
            grad = np.where(self._y[start:start + BATCH], prob - 1.0, prob)
            d_scores = np.concatenate([-grad.sum(axis=1, keepdims=True), grad], axis=1)
            velocity = 0.9 * velocity + 0.1 * (d_scores.T @ xb) / len(xb)
            w -= 0.01 * velocity / (np.abs(velocity) + 1e-8)
        return float((self._dev @ w.T).max())

    def sample(self) -> float:
        """Run `UNITS` units now; return (and keep) their median seconds."""
        times = []
        for _ in range(UNITS):
            started = time.perf_counter()
            self._unit()
            times.append(time.perf_counter() - started)
        value = statistics.median(times)
        self.samples.append(value)
        return value


def quiet_seconds(seconds: float, before: float, after: float) -> float:
    """`seconds` measured between samples `before` and `after`, in quiet-host seconds."""
    return seconds * QUIET_UNIT_S / ((before + after) / 2)
