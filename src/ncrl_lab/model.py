"""Trainable scorers emitting K+1 scores, with manual backpropagation.

Both scorers keep their parameters in a plain dict of arrays so the optimizer
and checkpointing code treat them uniformly. Training uses an adaptive-moment
optimizer with a linear-warmup, linear-decay learning-rate schedule and keeps
the checkpoint with the best dev micro F1 under the loss's native prediction
rule (adaptive thresholding for margin-based losses, a swept global threshold
for the others). `train` takes a list of configs and trains the cells that
share their settings as one stacked model, whose parameters carry a leading
cell axis; every cell comes out as if trained alone.
"""

from __future__ import annotations

import math
import time
from dataclasses import astuple, dataclass, field, replace

import numpy as np

from .datagen import Dataset
from .losses import LOSS_KINDS, batch_loss, check_gamma, instance_losses
from .metrics import micro_f1_flags
from .prediction import COARSE_GRID, adaptive_flags, sweep_global_threshold

# loss kinds whose native prediction rule compares each label against f_0
ADAPTIVE_KINDS = frozenset({"ncrl_plain", "ncrl_final", "ncrl_noreg", "atl"})


@dataclass
class TrainConfig:
    loss_kind: str
    gamma: float = 0.0
    epochs: int = 50
    batch_size: int = 128
    learning_rate: float = 1e-2
    warmup_fraction: float = 0.1
    seed: int = 0
    hidden_width: int = 0  # 0 trains a linear scorer, > 0 a one-hidden-layer one
    weight_decay: float = 0.0

    def validate(self) -> None:
        if self.loss_kind not in LOSS_KINDS:
            raise ValueError(
                f"unknown loss kind {self.loss_kind!r}; expected one of {LOSS_KINDS}"
            )
        check_gamma(self.gamma)
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must lie in [0, 1)")
        if self.hidden_width < 0:
            raise ValueError("hidden_width must be nonnegative")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be nonnegative")


@dataclass
class TrainHistory:
    train_loss: list = field(default_factory=list)
    dev_metric: list = field(default_factory=list)
    best_epoch: int = 0
    seconds: float = 0.0  # this cell's even share of its stack's training time


@dataclass
class TrainResult:
    """One cell's outcome; unpacks to (scorer, history).

    A diverged cell carries its FloatingPointError and raises it on unpacking.
    """

    scorer: object
    history: TrainHistory
    error: FloatingPointError | None = None

    def __iter__(self):
        if self.error is not None:
            raise self.error
        return iter((self.scorer, self.history))


class _Scorer:
    """Parameter layout shared by the scorers.

    Every parameter may carry a leading cell axis. A stacked scorer holds C
    cells and maps (C, B, d) features to (C, B, K+1) scores with one batched
    matmul per layer; each cell's arithmetic is that of its own scorer.
    """

    @classmethod
    def stack(cls, scorers):
        """A stacked scorer holding copies of the given scorers' parameters."""
        return cls(**{key: np.stack([s.params[key] for s in scorers])
                      for key in scorers[0].params})

    def cell(self, c: int):
        """Cell c of a stacked scorer as a one-cell scorer viewing its arrays.

        Unchecked: a cell may hold non-finite values until training drops it.
        """
        view = object.__new__(type(self))
        view.params = {key: value[c] for key, value in self.params.items()}
        return view

    def _check_finite(self) -> None:
        if not all(np.isfinite(p).all() for p in self.params.values()):
            raise ValueError("parameters must be finite")


class LinearScorer(_Scorer):
    """Affine map from features to K+1 scores."""

    kind = "linear"

    def __init__(self, weights, bias):
        self.params = {
            "weights": np.asarray(weights, dtype=float),
            "bias": np.asarray(bias, dtype=float),
        }
        w, b = self.params["weights"], self.params["bias"]
        if w.ndim not in (2, 3) or b.shape != w.shape[:-1]:
            raise ValueError("weights must be (K+1, d), or (C, K+1, d) for a "
                             "cell stack, with a matching bias")
        self._check_finite()

    @classmethod
    def create(cls, k: int, dim: int, rng: np.random.Generator):
        return cls(rng.standard_normal((k + 1, dim)) / math.sqrt(dim),
                   np.zeros(k + 1))

    @property
    def dim(self) -> int:
        return self.params["weights"].shape[-1]

    @property
    def k(self) -> int:
        return self.params["weights"].shape[-2] - 1

    def forward(self, x: np.ndarray) -> np.ndarray:
        w, b = self.params["weights"], self.params["bias"]
        return x @ w.swapaxes(-1, -2) + b[..., None, :]

    def backward(self, x: np.ndarray, d_scores: np.ndarray) -> dict:
        return {"weights": d_scores.swapaxes(-1, -2) @ x,
                "bias": d_scores.sum(axis=-2)}


class MlpScorer(_Scorer):
    """One-hidden-layer rectifier network emitting K+1 scores."""

    kind = "mlp"

    def __init__(self, w1, b1, w2, b2):
        self.params = {
            "w1": np.asarray(w1, dtype=float),
            "b1": np.asarray(b1, dtype=float),
            "w2": np.asarray(w2, dtype=float),
            "b2": np.asarray(b2, dtype=float),
        }
        w1, b1, w2, b2 = self.params.values()
        if (w1.ndim not in (2, 3) or w2.shape[:-2] != w1.shape[:-2]
                or w2.ndim != w1.ndim or w2.shape[-1] != w1.shape[-2]
                or b1.shape != w1.shape[:-1] or b2.shape != w2.shape[:-1]):
            raise ValueError(
                "MLP parameters must be w1 (H, d), b1 (H,), w2 (K+1, H) and "
                "b2 (K+1,), or all four with one leading cell axis; got "
                f"{w1.shape}, {b1.shape}, {w2.shape}, {b2.shape}")
        if w1.shape[-2] < 1:
            raise ValueError("hidden width must be >= 1")
        self._check_finite()

    @classmethod
    def create(cls, k: int, dim: int, hidden: int, rng: np.random.Generator):
        return cls(
            rng.standard_normal((hidden, dim)) / math.sqrt(dim),
            np.zeros(hidden),
            rng.standard_normal((k + 1, hidden)) / math.sqrt(hidden),
            np.zeros(k + 1),
        )

    @property
    def dim(self) -> int:
        return self.params["w1"].shape[-1]

    @property
    def k(self) -> int:
        return self.params["w2"].shape[-2] - 1

    def _hidden_pre(self, x: np.ndarray) -> np.ndarray:
        return x @ self.params["w1"].swapaxes(-1, -2) + self.params["b1"][..., None, :]

    def forward(self, x: np.ndarray) -> np.ndarray:
        hidden = np.maximum(self._hidden_pre(x), 0.0)
        return (hidden @ self.params["w2"].swapaxes(-1, -2)
                + self.params["b2"][..., None, :])

    def backward(self, x: np.ndarray, d_scores: np.ndarray) -> dict:
        pre = self._hidden_pre(x)
        hidden = np.maximum(pre, 0.0)
        d_hidden = (d_scores @ self.params["w2"]) * (pre > 0)
        return {
            "w1": d_hidden.swapaxes(-1, -2) @ x,
            "b1": d_hidden.sum(axis=-2),
            "w2": d_scores.swapaxes(-1, -2) @ hidden,
            "b2": d_scores.sum(axis=-2),
        }


def forward(scorer, features) -> np.ndarray:
    """Score a single feature vector."""
    x = np.asarray(features, dtype=float)
    if x.ndim != 1 or x.size != scorer.dim:
        raise ValueError(f"features must be a vector of length {scorer.dim}")
    return scorer.forward(x[None, :])[0]


class Adam:
    """Adaptive-moment optimizer over a dict of parameter arrays."""

    def __init__(self, params: dict, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0

    def step(self, params: dict, grads: dict, lr: float,
             weight_decay: float = 0.0) -> None:
        self.t += 1
        c1 = 1 - self.beta1 ** self.t
        c2 = 1 - self.beta2 ** self.t
        for key, g in grads.items():
            m = self.m[key]
            v = self.v[key]
            m *= self.beta1
            m += (1 - self.beta1) * g
            v *= self.beta2
            v += (1 - self.beta2) * g * g
            params[key] -= lr * (m / c1) / (np.sqrt(v / c2) + self.eps)
            if weight_decay:
                # decoupled decay; anchors the score level that shift-invariant
                # losses leave unconstrained
                params[key] -= lr * weight_decay * params[key]


def learning_rate_at(step: int, total_steps: int, peak: float,
                     warmup_fraction: float) -> float:
    """Linear warmup to the peak, then linear decay to zero (0-indexed steps)."""
    warmup = int(warmup_fraction * total_steps)
    if step < warmup:
        return peak * (step + 1) / warmup
    return peak * (total_steps - step) / (total_steps - warmup)


def native_dev_metric(scorer, dev: Dataset, loss_kind: str) -> float:
    """Dev micro F1 under the loss's own prediction rule."""
    scores = scorer.forward(dev.features)
    if loss_kind in ADAPTIVE_KINDS:
        return micro_f1_flags(adaptive_flags(scores), dev.labels)
    return sweep_global_threshold(scores, dev.labels, COARSE_GRID)[1]


def _snapshot(params: dict) -> dict:
    return {k: v.copy() for k, v in params.items()}


def _stack_key(config: TrainConfig, scorer) -> tuple:
    """What cells must share to train as one stack: every setting but the
    loss kind, gamma and seed, and the scorer's kind and shapes."""
    shared = astuple(replace(config, loss_kind="", gamma=0.0, seed=0))
    return shared, scorer.kind, tuple(v.shape for v in scorer.params.values())


def train(data: Dataset, dev: Dataset, configs, scorers=None) -> list:
    """Mini-batch training of one cell per config; one TrainResult per config.

    Cells whose configs differ only in loss kind, gamma and seed train as one
    stacked model: each step runs one forward, one batch_loss, one backward
    and one Adam step for the whole stack. Each cell keeps its own init and
    shuffle streams (drawn from its seed), its best-dev checkpoint and its
    divergence, so its parameters are bit-identical to training it alone. A
    cell whose scores or loss stop being finite leaves the stack at that step
    and its result carries the FloatingPointError; the others train on.
    `scorers` optionally gives a scorer (or None) per config; a given scorer
    is trained in place and ends at its best-dev checkpoint.
    """
    if scorers is None:
        scorers = [None] * len(configs)
    if len(scorers) != len(configs):
        raise ValueError("need one scorer (or None) per config")
    if data.dim != dev.dim or data.k != dev.k:
        raise ValueError("train and dev sets must share feature and label dims")
    cells = []
    for config, scorer in zip(configs, scorers):
        config.validate()
        init_rng, shuffle_rng = map(
            np.random.default_rng, np.random.SeedSequence(config.seed).spawn(2)
        )
        if scorer is None:
            if config.hidden_width > 0:
                scorer = MlpScorer.create(data.k, data.dim, config.hidden_width,
                                          init_rng)
            else:
                scorer = LinearScorer.create(data.k, data.dim, init_rng)
        elif scorer.dim != data.dim or scorer.k != data.k:
            raise ValueError("scorer dimensions do not match the data")
        cells.append((config, scorer, shuffle_rng))
    stacks: dict = {}
    for i, (config, scorer, _) in enumerate(cells):
        stacks.setdefault(_stack_key(config, scorer), []).append(i)
    results = [None] * len(cells)
    for members in stacks.values():
        stack_results = _train_stack(data, dev, [cells[i] for i in members])
        for i, result in zip(members, stack_results):
            results[i] = result
    return results


def _train_stack(data: Dataset, dev: Dataset, cells: list) -> list:
    """Train (config, scorer, shuffle_rng) cells that share a _stack_key."""
    started = time.perf_counter()
    config = cells[0][0]  # the settings every cell of the stack shares
    stack = type(cells[0][1]).stack([scorer for _, scorer, _ in cells])
    optimizer = Adam(stack.params)
    live = list(range(len(cells)))  # the cell each stack row trains
    kinds = [cell[0].loss_kind for cell in cells]
    gammas = [cell[0].gamma for cell in cells]
    histories = [TrainHistory() for _ in cells]
    errors = [None] * len(cells)
    best_metric = [-1.0] * len(cells)
    best_params = [_snapshot(scorer.params) for _, scorer, _ in cells]

    def drop(bad: np.ndarray, message: str, *arrays) -> list:
        """Take the flagged rows out of the stack and out of `arrays`."""
        for row in np.flatnonzero(bad):
            errors[live[row]] = FloatingPointError(message)
        keep = ~bad
        for state in (stack.params, optimizer.m, optimizer.v):
            for key in state:
                state[key] = state[key][keep]
        for rows in (live, kinds, gammas):
            rows[:] = [r for r, k in zip(rows, keep) if k]
        return [array[keep] for array in arrays]

    n = len(data)
    steps_per_epoch = math.ceil(n / config.batch_size)
    total_steps = config.epochs * steps_per_epoch
    step = 0
    for epoch in range(config.epochs):
        orders = np.stack([cells[c][2].permutation(n) for c in live])
        loss_sum = np.zeros(len(live))
        for start in range(0, n, config.batch_size):
            idx = orders[:, start:start + config.batch_size]
            x, y = data.features[idx], data.labels[idx]
            scores = stack.forward(x)
            if not np.isfinite(scores).all():
                orders, loss_sum, x, y, scores = drop(
                    ~np.isfinite(scores).all(axis=(1, 2)),
                    f"training diverged at step {step}",
                    orders, loss_sum, x, y, scores)
                if not live:
                    break
            values, d_scores = batch_loss(kinds, y, scores, gammas)
            if not np.isfinite(values).all():
                orders, loss_sum, x, values, d_scores = drop(
                    ~np.isfinite(values),
                    f"training loss diverged at step {step}",
                    orders, loss_sum, x, values, d_scores)
                if not live:
                    break
            loss_sum += values * idx.shape[1]
            lr = learning_rate_at(step, total_steps, config.learning_rate,
                                  config.warmup_fraction)
            optimizer.step(stack.params, stack.backward(x, d_scores), lr,
                           config.weight_decay)
            step += 1
        if not live:
            break
        for row, c in enumerate(live):
            history = histories[c]
            history.train_loss.append(float(loss_sum[row] / n))
            view = stack.cell(row)
            metric = native_dev_metric(view, dev, kinds[row])
            history.dev_metric.append(metric)
            if metric > best_metric[c]:
                best_metric[c] = metric
                best_params[c] = _snapshot(view.params)
                history.best_epoch = epoch
    share = (time.perf_counter() - started) / len(cells)
    results = []
    for (_, scorer, _), history, error, best in zip(cells, histories, errors,
                                                    best_params):
        history.seconds = share
        if error is None:
            for key, value in best.items():
                scorer.params[key][...] = value
        results.append(TrainResult(scorer, history, error))
    return results


def grad_check(loss_kind: str, gamma: float = 0.0, k: int = 10,
               trials: int = 100, seed: int = 0, fd_step: float = 1e-5) -> float:
    """Worst mismatch between analytic gradients and central finite differences.

    Relative error per coordinate, falling back to absolute error where the
    finite-difference magnitude drops below 1e-8. The first two trials pin the
    all-negative and all-positive label patterns; the rest are random.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    eye = np.eye(k + 1)
    worst = 0.0
    for trial in range(trials):
        y = rng.integers(0, 2, size=k)
        if trial == 0:
            y[:] = 0
        elif trial == 1:
            y[:] = 1
        f = rng.normal(0.0, 1.5, size=k + 1)
        full = np.concatenate([[1 - y.max()], y])

        _, analytic = instance_losses(loss_kind, full[None, :], f[None, :], gamma)
        probes = np.concatenate([f + fd_step * eye, f - fd_step * eye])
        values, _ = instance_losses(
            loss_kind, np.tile(full, (2 * (k + 1), 1)), probes, gamma
        )
        fd = (values[:k + 1] - values[k + 1:]) / (2 * fd_step)
        gap = np.abs(analytic[0] - fd)
        denom = np.abs(fd)
        err = np.where(denom >= 1e-8, gap / np.maximum(denom, 1e-300), gap)
        worst = max(worst, float(err.max()))
    return worst


def scorer_to_dict(scorer, config: TrainConfig | None = None) -> dict:
    """Flat JSON-ready checkpoint: kind, shapes, row-major arrays, config echo."""
    out = {
        "kind": scorer.kind,
        "k": scorer.k,
        "dim": scorer.dim,
        "params": {key: value.tolist() for key, value in scorer.params.items()},
    }
    if config is not None:
        out["config"] = {
            "loss_kind": config.loss_kind,
            "gamma": config.gamma,
            "epochs": config.epochs,
            "batch_size": config.batch_size,
            "learning_rate": config.learning_rate,
            "warmup_fraction": config.warmup_fraction,
            "seed": config.seed,
            "hidden_width": config.hidden_width,
            "weight_decay": config.weight_decay,
        }
    return out


def scorer_from_dict(payload: dict):
    kind = payload.get("kind")
    params = payload.get("params", {})
    if kind == "linear":
        scorer = LinearScorer(params["weights"], params["bias"])
    elif kind == "mlp":
        scorer = MlpScorer(params["w1"], params["b1"], params["w2"], params["b2"])
    else:
        raise ValueError(f"unknown scorer kind {kind!r}")
    if next(iter(scorer.params.values())).ndim != 2:
        raise ValueError("a checkpoint holds one scorer, not a cell stack")
    return scorer
