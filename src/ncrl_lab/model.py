"""Trainable scorers emitting K+1 scores, with manual backpropagation.

Both scorers name their parameter arrays in a dict, which checkpoints save.
Training uses an adaptive-moment optimizer with a linear-warmup, linear-decay
learning-rate schedule and keeps the checkpoint with the best dev micro F1
under the loss's native prediction rule (adaptive thresholding for
margin-based losses, a swept global threshold for the others) and, for a
swept rule, that epoch's threshold. That threshold, None for adaptive, is
the cell's rule: a checkpoint saves it next to the parameters, and
`prediction.native_flags` applies it. `train` takes a list of configs, with
one data set for all or one per config, and trains the cells that share
their settings as one stacked model: one flat (C, P) array holds its
parameters, a row per cell, with the cells sorted by loss kind
(`stack_rank`, the order the loss kernels take) and then by training set.
At each epoch end the rows that share a dev set are scored together by
one stacked `native_dev_metric` call. Every cell comes out as if trained
alone. Labels reach the loss kernel as the bool flags a Dataset holds.
"""

from __future__ import annotations

import math
from dataclasses import asdict, astuple, dataclass, field, replace

import numpy as np

from .datagen import Dataset, check_seed
from .losses import (LOSS_KINDS, Workspace, batch_loss, check_loss,
                     instance_losses, stack_rank, with_none_flag)
from .metrics import micro_f1_flags
from .prediction import adaptive_flags, sweep_global_threshold

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
        check_loss(self.loss_kind, self.gamma)
        check_seed(self.seed)
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if not math.isfinite(self.learning_rate) or self.learning_rate <= 0:
            raise ValueError("learning_rate must be finite and positive, got "
                             f"{self.learning_rate}")
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must lie in [0, 1)")
        if self.hidden_width < 0:
            raise ValueError("hidden_width must be nonnegative")
        if not math.isfinite(self.weight_decay) or self.weight_decay < 0:
            raise ValueError("weight_decay must be finite and nonnegative, got "
                             f"{self.weight_decay}")


@dataclass
class TrainHistory:
    train_loss: list = field(default_factory=list)
    dev_metric: list = field(default_factory=list)
    best_epoch: int = 0
    # the global threshold swept on dev at best_epoch; None for ADAPTIVE_KINDS
    threshold: float | None = None


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

    The constructors take one scorer's parameters; `stack` builds a stacked
    scorer, whose parameters carry a leading cell axis. It holds C cells and
    maps (C, B, d) features to (C, B, K+1) scores with one batched matmul per
    layer; each cell's arithmetic is that of its own scorer. It keeps a
    cell's parameters in one row of a (C, P) array `flat`, which its
    `params` view, so a cell's state is a row to step, copy or drop.
    `backward` writes into the arrays of a dict `out` if given. `forward`
    keeps what `backward` can reuse in a dict `acts` that the caller passes
    to both, so nothing of one call stays on the scorer.
    """

    @classmethod
    def stack(cls, scorers):
        """A stacked scorer holding copies of the given scorers' parameters."""
        new = object.__new__(cls)
        new.flat = np.stack([np.concatenate(list(s.params.values()), axis=None)
                             for s in scorers])
        new.params = _views(new.flat, {k: v.shape for k, v in scorers[0].params.items()})
        return new

    def cell(self, c):
        """Cell c of a stacked scorer as a one-cell scorer viewing its arrays;
        a slice of cells gives a stacked scorer viewing their rows, and an
        index array one holding copies of them. Unchecked: a cell may hold
        non-finite values until training drops it."""
        view = object.__new__(type(self))
        view.params = {key: value[c] for key, value in self.params.items()}
        return view

    def _check_finite(self) -> None:
        for key, value in self.params.items():
            if not np.isfinite(value).all():
                raise ValueError(f"parameter {key!r} must be finite")


class LinearScorer(_Scorer):
    """Affine map from features to K+1 scores."""

    kind = "linear"

    def __init__(self, weights, bias):
        self.params = {
            "weights": np.asarray(weights, dtype=float),
            "bias": np.asarray(bias, dtype=float),
        }
        w, b = self.params["weights"], self.params["bias"]
        if w.ndim != 2 or b.shape != w.shape[:1]:
            raise ValueError("linear parameters must be weights (K+1, d) and "
                             f"bias (K+1,); got {w.shape} and {b.shape}")
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

    def forward(self, x: np.ndarray, acts=None) -> np.ndarray:
        w, b = self.params["weights"], self.params["bias"]
        return x @ w.swapaxes(-1, -2) + b[..., None, :]

    def backward(self, x: np.ndarray, d_scores: np.ndarray, out=None,
                 acts=None) -> dict:
        out = out or dict.fromkeys(self.params)
        return {"weights": np.matmul(d_scores.swapaxes(-1, -2), x, out=out["weights"]),
                "bias": d_scores.sum(axis=-2, out=out["bias"])}


class MlpScorer(_Scorer):
    """One-hidden-layer rectifier network emitting K+1 scores.

    `forward` with a dict `acts` keeps its hidden layer there under
    "hidden", and `backward` with that dict takes the layer and its
    rectifier mask from it, so a training step forms the first layer once;
    without it, `backward` forms the layer again from x.
    """

    kind = "mlp"

    def __init__(self, w1, b1, w2, b2):
        self.params = {
            "w1": np.asarray(w1, dtype=float),
            "b1": np.asarray(b1, dtype=float),
            "w2": np.asarray(w2, dtype=float),
            "b2": np.asarray(b2, dtype=float),
        }
        w1, b1, w2, b2 = self.params.values()
        if (w1.ndim != 2 or w2.ndim != 2 or w2.shape[1] != w1.shape[0]
                or b1.shape != w1.shape[:1] or b2.shape != w2.shape[:1]):
            raise ValueError(
                "MLP parameters must be w1 (H, d), b1 (H,), w2 (K+1, H) and "
                f"b2 (K+1,); got {w1.shape}, {b1.shape}, {w2.shape}, {b2.shape}")
        if w1.shape[0] < 1:
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

    def _hidden(self, x: np.ndarray) -> np.ndarray:
        """The first layer: gemm, bias add and rectifier."""
        hidden = x @ self.params["w1"].swapaxes(-1, -2)
        hidden += self.params["b1"][..., None, :]
        return np.maximum(hidden, 0.0, out=hidden)

    def forward(self, x: np.ndarray, acts=None) -> np.ndarray:
        hidden = self._hidden(x)
        if acts is not None:
            acts["hidden"] = hidden
        scores = hidden @ self.params["w2"].swapaxes(-1, -2)
        scores += self.params["b2"][..., None, :]
        return scores

    def backward(self, x: np.ndarray, d_scores: np.ndarray, out=None,
                 acts=None) -> dict:
        out = out or dict.fromkeys(self.params)
        hidden = self._hidden(x) if acts is None else acts["hidden"]
        # hidden > 0 exactly where the pre-activation is
        d_hidden = d_scores @ self.params["w2"]
        d_hidden *= hidden > 0
        return {
            "w1": np.matmul(d_hidden.swapaxes(-1, -2), x, out=out["w1"]),
            "b1": d_hidden.sum(axis=-2, out=out["b1"]),
            "w2": np.matmul(d_scores.swapaxes(-1, -2), hidden, out=out["w2"]),
            "b2": d_scores.sum(axis=-2, out=out["b2"]),
        }


def _views(flat: np.ndarray, shapes: dict) -> dict:
    """Per-key views of the rows of a (C, P) array, shaped (C, *shape)."""
    ends = np.cumsum([math.prod(shape) for shape in shapes.values()])
    return {key: flat[:, end - math.prod(shape):end].reshape((len(flat),) + shape)
            for (key, shape), end in zip(shapes.items(), ends)}


class Adam:
    """Adaptive-moment optimizer over a dict of parameter arrays; each key
    costs a dozen whole-array passes into kept scratch, so the trainer hands
    it one key: a stack's (C, P) flat parameters, a row per cell."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: dict):
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0
        self._scratch = {}

    def step(self, params: dict, grads: dict, lr,
             weight_decay: float = 0.0) -> None:
        """One update; lr is a scalar or one rate per cell of a stack."""
        self.t += 1
        c1, c2 = 1 - self.beta1 ** self.t, 1 - self.beta2 ** self.t
        per_cell = np.ndim(lr) > 0
        for key, g in grads.items():
            m, v, p = self.m[key], self.v[key], params[key]
            if self._scratch.get(key, g).shape != (2,) + g.shape:
                self._scratch[key] = np.empty((2,) + g.shape)
            a, b = self._scratch[key]
            m *= self.beta1
            m += np.multiply(g, 1 - self.beta1, out=a)
            v *= self.beta2
            v += np.multiply(np.multiply(g, 1 - self.beta2, out=a), g, out=a)
            rate = np.reshape(lr, (-1,) + (1,) * (g.ndim - 1)) if per_cell else lr
            # p -= rate * (m / c1) / (sqrt(v / c2) + eps)
            np.sqrt(np.divide(v, c2, out=a), out=a)
            a += self.eps
            p -= np.divide(np.multiply(rate, np.divide(m, c1, out=b), out=b), a, out=b)
            if weight_decay:
                # decoupled decay; anchors the score level that shift-invariant
                # losses leave unconstrained
                p -= np.multiply(rate * weight_decay, p, out=b)


def learning_rate_at(step: int, total_steps: int, peak: float,
                     warmup_fraction: float) -> float:
    """Linear warmup to the peak, then linear decay to zero (0-indexed steps)."""
    warmup = int(warmup_fraction * total_steps)
    if step < warmup:
        return peak * (step + 1) / warmup
    return peak * (total_steps - step) / (total_steps - warmup)


def native_dev_metric(scorer, dev: Dataset, loss_kinds) -> list:
    """(dev micro F1, threshold) of each cell of a stacked scorer of R cells,
    given their R loss kinds, under each loss's own prediction rule:
    adaptive thresholding for ADAPTIVE_KINDS, with threshold None, and the
    best coarse global threshold for the others.

    Each pair is what its cell alone gives, from one forward over the dev
    features: the adaptive cells share one `adaptive_flags` call and one
    stacked `micro_f1_flags` count, the others one stacked sweep.
    """
    scores = scorer.forward(dev.features)
    # every row's adaptive F1, which is the metric of the adaptive rows
    picks = [(f1, None) for f1 in micro_f1_flags(adaptive_flags(scores),
                                                 dev.labels, stacked=True)]
    swept = [row for row, kind in enumerate(loss_kinds) if kind not in ADAPTIVE_KINDS]
    if swept:
        thresholds, f1s = sweep_global_threshold(scores[swept], dev.labels)
        for row, t, f1 in zip(swept, thresholds, f1s):
            picks[row] = f1, t
    return picks


def _stack_key(config: TrainConfig, scorer) -> tuple:
    """What cells must share to train as one stack: every setting but the
    loss kind, gamma and seed, and the scorer's kind and shapes."""
    shared = astuple(replace(config, loss_kind="", gamma=0.0, seed=0))
    return shared, scorer.kind, tuple(v.shape for v in scorer.params.values())


def _per_config(sets, count: int, name: str) -> list:
    """One Dataset per config: a single Dataset serves them all."""
    if isinstance(sets, Dataset):
        return [sets] * count
    sets = list(sets)
    if len(sets) != count:
        raise ValueError(f"need one {name} set per config, got {len(sets)} "
                         f"for {count} configs")
    return sets


def train(data, dev, configs, scorers=None) -> list:
    """Mini-batch training of one cell per config; one TrainResult per config.

    `data` and `dev` are each a Dataset shared by every config, or a list
    with one Dataset per config. Cells whose configs differ only in loss
    kind, gamma and seed train as one stacked model, whatever their data:
    the cells advance in lockstep by step index, and each step runs one
    forward, one batch_loss and one backward per run of adjacent cells with
    one batch length (the whole stack on most steps), writing gradients in
    place, then one Adam step for the whole stack. Each step gathers its
    labels straight from its training set's bool flags, the form the loss
    kernel takes. Each cell keeps its own init and shuffle streams (drawn
    from its seed), epoch length, learning-rate schedule, dev evaluation,
    best-dev checkpoint and divergence, so its parameters are bit-identical
    to training it alone; the cells ending an epoch on one step are scored
    on dev with one stacked `native_dev_metric` call per dev set.
    A cell leaves the stack at the end of the step that runs its last epoch,
    or of the step on which its scores or loss stop being finite: a diverged
    cell's gradient on that step is zeroed, it records no epoch on it, and
    its result carries the FloatingPointError while the others train on.
    `scorers` optionally gives a scorer (or None) per config; a given scorer
    is trained in place and ends at its best-dev checkpoint.
    """
    if scorers is None:
        scorers = [None] * len(configs)
    if len(scorers) != len(configs):
        raise ValueError("need one scorer (or None) per config")
    datas = _per_config(data, len(configs), "training")
    devs = _per_config(dev, len(configs), "dev")
    cells = []
    for config, scorer, data, dev in zip(configs, scorers, datas, devs):
        if data.dim != dev.dim or data.k != dev.k:
            raise ValueError("train and dev sets must share feature and label dims")
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
        cells.append((config, scorer, shuffle_rng, data, dev))
    stacks: dict = {}
    for i, (config, scorer, *_) in enumerate(cells):
        stacks.setdefault(_stack_key(config, scorer), []).append(i)
    results = [None] * len(cells)
    for members in stacks.values():
        # the loss kernel takes its cells sorted by kind, and within a kind
        # the cells that share a training set become adjacent stack rows
        first: dict = {}
        members.sort(key=lambda i: (stack_rank(configs[i].loss_kind, configs[i].gamma),
                                    first.setdefault(id(datas[i]), len(first))))
        for i, result in zip(members, _train_stack([cells[i] for i in members])):
            results[i] = result
    return results


@dataclass
class _Feed:
    """A training set and the adjacent stack rows whose cells train on it."""

    data: Dataset
    rows: int  # live stack rows in the block
    steps: int  # batches per epoch
    orders: np.ndarray | None = None  # this epoch's shuffle of each row's cell


def _train_stack(cells: list) -> list:
    """Train (config, scorer, shuffle_rng, data, dev) cells that share a
    _stack_key, sorted by `stack_rank`; each run of adjacent cells on one
    training set is fed as one block of rows. Parameters, gradients and Adam
    moments are (C, P) arrays, a row per live cell. A row leaves at the end
    of the step that ran its cell's last epoch or on which the cell diverged;
    a diverged row's gradient is zeroed, so the shared Adam step stays finite,
    and it records no epoch on that step."""
    config = cells[0][0]  # the settings every cell of the stack shares
    size = config.batch_size
    stack = type(cells[0][1]).stack([cell[1] for cell in cells])
    shapes = {key: value.shape[1:] for key, value in stack.params.items()}
    grads = np.empty_like(stack.flat)
    grad_views = _views(grads, shapes)
    optimizer = Adam({"flat": stack.flat})
    workspace = Workspace()
    live = list(range(len(cells)))  # the cell each stack row trains
    kinds, gammas = [c[0].loss_kind for c in cells], [c[0].gamma for c in cells]
    histories = [TrainHistory() for _ in cells]
    errors, best_metric = [None] * len(cells), [-1.0] * len(cells)
    best = stack.flat.copy()  # row c: cell c's parameters at its best dev epoch
    feeds: list = []
    for cell in cells:
        if feeds and feeds[-1].data is cell[3]:
            feeds[-1].rows += 1
        else:
            feeds.append(_Feed(cell[3], 1, math.ceil(len(cell[3]) / size)))
    loss_sum = np.zeros(len(cells))
    step = 0
    while live:
        # a cell starting an epoch reshuffles; adjacent feeds with one batch
        # length form a run of rows, and lengths differ only where a cell is
        # on its short last batch
        runs = []  # (first row, features, labels) of each run
        lo = 0
        for feed in feeds:
            at = step % feed.steps
            if at == 0:
                feed.orders = np.stack([cells[c][2].permutation(len(feed.data))
                                        for c in live[lo:lo + feed.rows]])
                loss_sum[lo:lo + feed.rows] = 0.0
            idx = feed.orders[:, at * size:(at + 1) * size]
            if not runs or runs[-1][1][0].shape[1] != idx.shape[1]:
                runs.append((lo, [], []))
            runs[-1][1].append(feed.data.features.take(idx, axis=0))
            runs[-1][2].append(feed.data.labels.take(idx, axis=0))
            lo += feed.rows
        failed = {}  # stack row -> divergence message
        for lo, xs, ys in runs:
            x, y = (xs[0], ys[0]) if len(xs) == 1 else map(np.concatenate, (xs, ys))
            _piece_step(stack, lo, x, y, kinds, gammas, step, failed, loss_sum,
                        grad_views, workspace)
        for row, message in failed.items():
            errors[live[row]] = FloatingPointError(message)
            grads[row] = 0.0
        # one schedule per feed; a scalar rate when the feeds share one
        counts = [feed.rows for feed in feeds]
        totals = [config.epochs * feed.steps for feed in feeds]
        lr = [learning_rate_at(step, total, config.learning_rate,
                               config.warmup_fraction) for total in totals]
        lr = lr[0] if len(set(totals)) == 1 else np.repeat(lr, counts)
        optimizer.step({"flat": stack.flat}, {"flat": grads}, lr, config.weight_decay)
        step += 1
        # a cell ending an epoch records it, with the rows that share a dev
        # set scored in one pass
        ending: dict = {}  # id of a dev set -> the rows ending an epoch on it
        lo = 0
        for feed in feeds:
            if step % feed.steps == 0:
                for row in range(lo, lo + feed.rows):
                    if row not in failed:
                        histories[live[row]].train_loss.append(
                            float(loss_sum[row] / len(feed.data)))
                        ending.setdefault(id(cells[live[row]][4]), []).append(row)
            lo += feed.rows
        for rows in ending.values():
            picks = native_dev_metric(stack.cell(np.array(rows)),
                                      cells[live[rows[0]]][4],
                                      [kinds[row] for row in rows])
            for row, (metric, threshold) in zip(rows, picks):
                c = live[row]
                history = histories[c]
                history.dev_metric.append(metric)
                if metric > best_metric[c]:
                    best_metric[c] = metric
                    best[c] = stack.flat[row]
                    history.best_epoch = len(history.dev_metric) - 1
                    history.threshold = threshold
        # the one exit: rows that ran their last epoch or diverged leave
        if failed or step in totals:
            keep = np.repeat([step != total for total in totals], counts)
            keep[list(failed)] = False
            stack.flat, grads = stack.flat[keep], grads[keep]
            stack.params, grad_views = _views(stack.flat, shapes), _views(grads, shapes)
            optimizer.m["flat"] = optimizer.m["flat"][keep]
            optimizer.v["flat"] = optimizer.v["flat"][keep]
            for feed, block in zip(feeds, np.split(keep, np.cumsum(counts))):
                feed.rows, feed.orders = int(block.sum()), feed.orders[block]
            feeds = [feed for feed in feeds if feed.rows]
            live, kinds, gammas = ([r for r, k in zip(rows, keep) if k]
                                   for rows in (live, kinds, gammas))
            loss_sum = loss_sum[keep]
    best_params = _views(best, shapes)
    for c, (cell, error) in enumerate(zip(cells, errors)):
        if error is None:
            for key, value in cell[1].params.items():
                value[...] = best_params[key][c]
    return [TrainResult(cell[1], history, error)
            for cell, history, error in zip(cells, histories, errors)]


def _piece_step(stack, first, x, y, kinds, gammas, step, failed, loss_sum,
                grads, workspace) -> None:
    """Forward, loss and backward for the len(x) stack rows from `first` on:
    adds each row's batch loss to `loss_sum` and writes its gradients in place
    into `grads`. A row whose scores or loss are not finite goes to `failed`,
    and the step zeroes its gradient row; its scores are zeroed so the other
    rows still share one batch_loss call."""
    if len(x) < len(kinds):  # a part of the stack: view its rows
        rows = slice(first, first + len(x))
        stack, grads = stack.cell(rows), {k: v[rows] for k, v in grads.items()}
        kinds, gammas, loss_sum = kinds[rows], gammas[rows], loss_sum[rows]
    acts = {}  # the forward's hidden layer, for the backward
    scores = stack.forward(x, acts=acts)
    try:  # batch_loss refuses non-finite scores, so they are sought only then
        values, d_scores = batch_loss(kinds, y, scores, gammas, workspace)
    except ValueError:
        bad = ~np.isfinite(scores).all(axis=(1, 2))
        if not bad.any():
            raise
        failed.update(dict.fromkeys((np.flatnonzero(bad) + first).tolist(),
                                    f"training diverged at step {step}"))
        scores[bad] = 0.0  # zero scores give a finite loss
        values, d_scores = batch_loss(kinds, y, scores, gammas, workspace)
    ok = np.isfinite(values)
    if not ok.all():
        failed.update(dict.fromkeys((np.flatnonzero(~ok) + first).tolist(),
                                    f"training loss diverged at step {step}"))
    loss_sum += values * x.shape[1]
    stack.backward(x, d_scores, out=grads, acts=acts)


def grad_check(loss_kind: str, gamma: float = 0.0, k: int = 10,
               trials: int = 100, seed: int = 0) -> float:
    """Worst mismatch between analytic gradients and central finite differences.

    Relative error per coordinate, falling back to absolute error where the
    finite-difference magnitude drops below 1e-8. The first two trials pin the
    all-negative and all-positive label patterns; the rest are random.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    check_loss(loss_kind, gamma)
    check_seed(seed)
    rng = np.random.default_rng(seed)
    fd_step = 1e-5
    eye = np.eye(k + 1)
    worst = 0.0
    for trial in range(trials):
        y = rng.integers(0, 2, size=k)
        if trial == 0:
            y[:] = 0
        elif trial == 1:
            y[:] = 1
        f = rng.normal(0.0, 1.5, size=k + 1)
        # row 0 scores f itself, the rest its central-difference probes
        points = np.concatenate([f[None, :], f + fd_step * eye, f - fd_step * eye])
        values, grads = instance_losses(
            loss_kind, np.tile(with_none_flag(y), (len(points), 1)), points, gamma)
        fd = (values[1:k + 2] - values[k + 2:]) / (2 * fd_step)
        gap = np.abs(grads[0] - fd)
        denom = np.abs(fd)
        err = np.where(denom >= 1e-8, gap / np.maximum(denom, 1e-300), gap)
        worst = max(worst, float(err.max()))
    return worst


def scorer_to_dict(scorer, config: TrainConfig, threshold) -> dict:
    """Flat JSON-ready checkpoint: kind, shapes, row-major arrays, config
    echo, and the cell's prediction rule as its `TrainHistory.threshold`
    (null for adaptive)."""
    return {
        "kind": scorer.kind,
        "k": scorer.k,
        "dim": scorer.dim,
        "params": {key: value.tolist() for key, value in scorer.params.items()},
        "config": asdict(config),
        "threshold": threshold,
    }


_CHECKPOINT_KINDS = {"linear": ("weights", "bias"), "mlp": ("w1", "b1", "w2", "b2")}


def scorer_from_dict(payload: dict):
    """The scorer a `scorer_to_dict` checkpoint holds.

    A malformed checkpoint raises ValueError naming the missing or ill-typed
    key, as does a `k` or `dim` that differs from the parameter shapes. A
    `threshold` must be null or a number in (0, 1); a checkpoint may lack it.
    When the config echo names a known loss kind, the threshold must be null
    for an ADAPTIVE_KINDS kind and a number for any other.
    """
    if not isinstance(payload, dict):
        raise ValueError("checkpoint must be a JSON object, got "
                         f"{type(payload).__name__}")
    kind = payload.get("kind")
    if not isinstance(kind, str) or kind not in _CHECKPOINT_KINDS:
        raise ValueError(f"unknown scorer kind {kind!r}")
    params = payload.get("params", {})
    if not isinstance(params, dict):
        raise ValueError("checkpoint key 'params' must be an object, got "
                         f"{type(params).__name__}")
    arrays = []
    for key in _CHECKPOINT_KINDS[kind]:
        if key not in params:
            raise ValueError(f"checkpoint params lack {key!r}")
        try:
            value = np.asarray(params[key])
            numeric = value.dtype.kind in "iuf"
        except ValueError:  # ragged nested lists
            numeric = False
        if not numeric:
            raise ValueError(f"checkpoint param {key!r} must be a numeric array")
        arrays.append(value)
    scorer = (LinearScorer if kind == "linear" else MlpScorer)(*arrays)
    for key, actual in (("k", scorer.k), ("dim", scorer.dim)):
        if key not in payload:
            raise ValueError(f"checkpoint lacks {key!r}")
        value = payload[key]
        if type(value) is not int:  # bool is an int subclass; refuse it too
            raise ValueError(f"checkpoint key {key!r} must be an int, got "
                             f"{type(value).__name__}")
        if value != actual:
            raise ValueError(f"checkpoint has {key}={value} but its parameters "
                             f"have {key}={actual}")
    t = payload.get("threshold")
    if t is not None and not (type(t) is float and 0.0 < t < 1.0):
        raise ValueError("checkpoint key 'threshold' must be null or a number "
                         f"in (0, 1), got {t!r}")
    config = payload.get("config")
    loss = config.get("loss_kind") if isinstance(config, dict) else None
    if ("threshold" in payload and loss in LOSS_KINDS
            and (t is None) != (loss in ADAPTIVE_KINDS)):
        rule = "null" if t else "a number"
        raise ValueError(f"checkpoint key 'threshold' must be {rule} for its "
                         f"loss_kind {loss!r}, got {t or 'null'}")
    return scorer
