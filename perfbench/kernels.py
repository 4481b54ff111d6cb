"""Per-call timings of the training step's kernels, through public calls only.

The table is the reference for work on the loss kernel and the optimizer:
every loss kind through `batch_loss` at the (B, K) shapes the suites use,
scorer forward+backward, and one `Adam.step` at each workload's parameter
shapes. Each entry is the median over blocks of the mean per-call time.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from ncrl_lab.losses import LOSS_KINDS, batch_loss
from ncrl_lab.model import Adam, LinearScorer, MlpScorer

LOSS_SHAPES = ((64, 10), (128, 10), (64, 28))
SHIFTED_KINDS = frozenset({"ncrl_final", "ncrl_noreg", "bce_shifted"})
KERNEL_GAMMA = 0.05
DIM = 50


def _per_call_us(fn, blocks: int, block_s: float) -> float:
    fn()  # first call outside the timing
    calls = 1
    started = time.perf_counter()
    while time.perf_counter() - started < block_s / 4:
        fn()
        calls += 1
    per_block = max(1, int(calls * 4))
    samples = []
    for _ in range(blocks):
        started = time.perf_counter()
        for _ in range(per_block):
            fn()
        samples.append((time.perf_counter() - started) / per_block * 1e6)
    return statistics.median(samples)


def _labels(rng, b: int, k: int) -> np.ndarray:
    """(b, K+1) flags with about a third none instances."""
    y = (rng.random((b, k)) < 0.1).astype(int)
    y[rng.random(b) < 1 / 3] = 0
    return np.concatenate([(y.max(axis=1) == 0)[:, None].astype(int), y], axis=1)


def kernel_table(seed: int, blocks: int = 5, block_s: float = 0.01) -> dict:
    """{metric name: per-call microseconds}."""
    rng = np.random.default_rng(seed)
    table = {}
    for b, k in LOSS_SHAPES:
        y = _labels(rng, b, k)
        f = rng.normal(0.0, 2.0, size=(b, k + 1))
        for kind in LOSS_KINDS:
            gamma = KERNEL_GAMMA if kind in SHIFTED_KINDS else 0.0
            table[f"kernel.{kind}.B{b}K{k}.us"] = _per_call_us(
                lambda kind=kind, gamma=gamma, y=y, f=f: batch_loss(kind, y, f, gamma),
                blocks, block_s)

    x10 = rng.normal(size=(64, DIM))
    linear = LinearScorer.create(10, DIM, rng)
    d10 = rng.normal(size=(64, 11))
    table["kernel.linear_fwd_bwd.B64K10.us"] = _per_call_us(
        lambda: (linear.forward(x10), linear.backward(x10, d10)), blocks, block_s)

    mlp = MlpScorer.create(28, DIM, 64, rng)
    d28 = rng.normal(size=(64, 29))
    table["kernel.mlp_fwd_bwd.B64K28H64.us"] = _per_call_us(
        lambda: (mlp.forward(x10), mlp.backward(x10, d28)), blocks, block_s)

    # weight decay as each workload trains: only no_none_k28 uses it
    for label, scorer, decay in (
            ("linear_K10", linear, 0.0),
            ("linear_K28", LinearScorer.create(28, DIM, rng), 0.015),
            ("mlp_K28H64", mlp, 0.0)):
        params = {key: value.copy() for key, value in scorer.params.items()}
        grads = {key: rng.normal(size=value.shape) * 1e-3
                 for key, value in params.items()}
        optimizer = Adam(params)
        table[f"kernel.adam.{label}.us"] = _per_call_us(
            lambda o=optimizer, p=params, g=grads, d=decay: o.step(p, g, 1e-3, d),
            blocks, block_s)
    return table
