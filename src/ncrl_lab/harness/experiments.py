"""Prebuilt experiment suites over synthetic data.

Every suite trains one scorer per (variant, seed) cell on a per-seed split,
evaluates on the test block with the loss's native prediction rule, and
emits ResultRows. A swept cell is scored at the global threshold that
training picked on dev at its best epoch; only the no-none study, which
scores an adaptive kind under both rules, sweeps dev again. All of a seed's
cells go to one `train` call, which trains the cells that share their
settings as one stacked model, even when their splits differ (the no-none
study's full and stripped regimes); each cell's rows are identical to
training it alone, and row order follows the configs.
A row holds no wall time, so the same config and seeds give the same rows.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from ..datagen import (SyntheticConfig, generate, inject_false_negatives,
                       inject_symmetric_noise, split, strip_none_instances)
from ..metrics import MetricsReport, evaluate, micro_f1_flags
from ..model import TrainConfig, train
from ..prediction import native_flags, sweep_global_threshold
from .dataio import ResultRow
from .seeds import derive_seed

METRIC_NAMES = tuple(f.name for f in fields(MetricsReport))

TRAIN_FRACTION = 0.7
DEV_FRACTION = 0.15


@dataclass
class ExperimentConfig:
    kind: str
    synth: SyntheticConfig
    train_configs: list
    seeds: list

    def validate(self) -> None:
        if not self.seeds:
            raise ValueError("need at least one seed")
        if not self.train_configs:
            raise ValueError("need at least one training configuration")
        check_distinct(self.seeds, "seed {}".format)
        check_distinct([(tc.loss_kind, tc.gamma) for tc in self.train_configs],
                       lambda pair: "loss {}:{}".format(*pair))
        self.synth.validate()
        for tc in self.train_configs:
            tc.validate()


def check_distinct(values, describe) -> None:
    """Refuse a value given twice, named by `describe`: a repeated seed or
    (loss, gamma) pair would train one cell twice and count it twice in the
    summaries."""
    seen = set()
    for value in values:
        if value in seen:
            raise ValueError(f"{describe(value)} given twice")
        seen.add(value)


def thread_cap() -> int:
    """Always 1: suites run in one thread. Kept for perfbench/run.py's record."""
    return 1


def make_splits(synth: SyntheticConfig, seed: int):
    """Per-seed train/dev/test blocks; configured noise lands on train only."""
    clean = replace(synth, seed=derive_seed(seed, "data"),
                    noise_false_negative_rate=0.0, noise_symmetric_rate=0.0)
    data = generate(clean)
    n_train = max(1, int(TRAIN_FRACTION * len(data)))
    n_dev = max(1, int(DEV_FRACTION * len(data)))
    if n_train + n_dev >= len(data):
        raise ValueError(
            f"num_instances {len(data)} too small for a train/dev/test split"
        )
    train_part, dev_part, test_part = split(data, n_train, n_dev)
    if synth.noise_false_negative_rate > 0:
        train_part = inject_false_negatives(
            train_part, synth.noise_false_negative_rate,
            derive_seed(seed, "noise-fn"))
    if synth.noise_symmetric_rate > 0:
        train_part = inject_symmetric_noise(
            train_part, synth.noise_symmetric_rate,
            derive_seed(seed, "noise-sym"))
    return train_part, dev_part, test_part


def _error_row(experiment: str, tc: TrainConfig, seed: int) -> ResultRow:
    return ResultRow(experiment, tc.loss_kind, tc.gamma, seed, "train",
                     "error", 1.0)


def run_cell(experiment: str, tc: TrainConfig, seed: int, splits,
             result) -> list:
    """Measure one trained (variant, seed) cell on the test block, flagged
    at its best dev epoch's swept threshold, or adaptively if it has none."""
    if result.error is not None:
        return [_error_row(experiment, tc, seed)]
    test_part = splits[2]
    test_scores = result.scorer.forward(test_part.features)
    flags = native_flags(test_scores, result.history.threshold)
    stats = evaluate(test_scores, test_part.labels, flags).as_dict()
    return [ResultRow(experiment, tc.loss_kind, tc.gamma, seed, "test",
                      name, stats[name]) for name in METRIC_NAMES]


def summarize(rows: list, experiment: str) -> list:
    """Mean and std rows over seeds per (loss, gamma, metric), in row order."""
    groups: dict = {}  # insertion-ordered, so groups keep row order
    for row in rows:
        if row.metric == "error" or row.seed == "all":
            continue
        groups.setdefault((row.loss, row.gamma, row.metric), []).append(row)
    out = []
    for (loss, gamma, metric), cells in groups.items():
        values = np.array([r.value for r in cells])
        std = float(values.std(ddof=1)) if len(values) > 1 else 0.0
        out.append(ResultRow(experiment, loss, gamma, "all", "test",
                             f"{metric}_mean", float(values.mean())))
        out.append(ResultRow(experiment, loss, gamma, "all", "test",
                             f"{metric}_std", std))
    return out


def run_compare(config: ExperimentConfig) -> list:
    """Train every configured loss on the same per-seed data; emit summaries."""
    config.validate()
    rows: list = []
    for seed in config.seeds:
        splits = make_splits(config.synth, seed)
        configs = [replace(tc, seed=derive_seed(seed, "train", tc.loss_kind,
                                                tc.gamma))
                   for tc in config.train_configs]
        results = train(splits[0], splits[1], configs)
        for tc, result in zip(config.train_configs, results):
            rows.extend(run_cell(config.kind, tc, seed, splits, result))
    rows.extend(summarize(rows, config.kind))
    return rows


# the six ablation variants: full loss, no margin regularization, no margin
# shifting, neither, and the two BCE baselines
_ABLATION_TABLE = (
    ("ncrl_final", "base"),
    ("ncrl_noreg", "base"),
    ("ncrl_final", 0.0),
    ("ncrl_plain", 0.0),
    ("bce", 0.0),
    ("bce_shifted", "base"),
)


def ablation_variants(base: TrainConfig) -> list:
    """The distinct variants of the table: at gamma 0 the unshifted full loss
    is the full loss, and comes once."""
    variants: dict = {}
    for kind, gamma in _ABLATION_TABLE:
        gamma = base.gamma if gamma == "base" else gamma
        variants.setdefault((kind, gamma), replace(base, loss_kind=kind, gamma=gamma))
    return list(variants.values())


def run_ablation(config: ExperimentConfig) -> list:
    """Six-variant component ablation built from the first training config."""
    config.validate()
    expanded = replace(
        config, train_configs=ablation_variants(config.train_configs[0])
    )
    return run_compare(expanded)


def run_gamma_sweep(config: ExperimentConfig, gammas) -> list:
    """Full loss trained at each shift value; plot-ready rows."""
    config.validate()
    if len(gammas) == 0:
        raise ValueError("need at least one gamma value")
    base = config.train_configs[0]
    variants = [replace(base, loss_kind="ncrl_final", gamma=float(g))
                for g in gammas]
    return run_compare(replace(config, train_configs=variants))


def _no_none_cell(base: TrainConfig, regime: str, parts, seed: int,
                  result) -> list:
    """Score one trained regime cell with both prediction rules."""
    experiment = f"no_none_{regime}"
    if result.error is not None:
        return [_error_row(experiment, base, seed)]
    _, dev_part, test_part = parts
    scorer = result.scorer
    test_scores = scorer.forward(test_part.features)
    # the coarse grid, as training's dev sweep
    t, _ = sweep_global_threshold(scorer.forward(dev_part.features), dev_part.labels)
    f1s = {rule: micro_f1_flags(native_flags(test_scores, threshold),
                                test_part.labels)
           for rule, threshold in (("adaptive", None), ("swept", t))}
    return [ResultRow(experiment, base.loss_kind, base.gamma, seed, "test",
                      f"micro_f1_{rule}", float(f1))
            for rule, f1 in f1s.items()]


def run_no_none_study(config: ExperimentConfig) -> list:
    """Train on full vs none-stripped data, score with both prediction rules.

    The stripped regime removes none-class instances from train, dev, and
    test, reproducing corpora where every instance has at least one label.
    Both regimes of a seed go to one `train` call with their own splits, so
    they train as one stacked model that steps in lockstep until the smaller
    split's cell has run its epochs. A diverged cell becomes an `error` row.
    """
    config.validate()
    base = config.train_configs[0]
    rows: list = []
    for seed in config.seeds:
        full = make_splits(config.synth, seed)
        stripped = tuple(strip_none_instances(part) for part in full)
        regimes = (("full", full), ("stripped", stripped))
        configs = [replace(base, seed=derive_seed(seed, "train", regime,
                                                  base.loss_kind))
                   for regime, _ in regimes]
        results = train([parts[0] for _, parts in regimes],
                        [parts[1] for _, parts in regimes], configs)
        for (regime, parts), result in zip(regimes, results):
            rows.extend(_no_none_cell(base, regime, parts, seed, result))
    return rows
