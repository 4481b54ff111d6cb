"""The benchmark's three workloads: inputs, one batch job, and output checks.

Every workload is built from the benchmark's `--seed` alone; the package sees
only the generated configs and files. One job is one batch run of the
workload: a whole suite (`ablation_k10`, `no_none_k28`) or a CLI session
(`cli_mlp_k28`). Repeating a job with the same inputs must reproduce its
results exactly, which the runner checks.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from ncrl_lab.datagen import SyntheticConfig, strip_none_instances
from ncrl_lab.harness import cli, experiments
from ncrl_lab.model import TrainConfig
from ncrl_lab.prediction import FINE_GRID

# Sizes per workload. "full" is the benchmark; "tiny" only keeps the smoke
# test fast. A suite run covers `seeds` experiment seeds, one seed per job,
# so a run repeats every seed's job many times; averaging quality over
# several seeds keeps it steady across --seed values. Fewer epochs lost the
# paper's trends on some seeds.
SIZES = {
    "ablation_k10": {
        "full": dict(n=3000, epochs=20, seeds=4),
        "tiny": dict(n=400, epochs=2, seeds=2),
    },
    "no_none_k28": {
        "full": dict(n=12000, epochs=10, seeds=4),
        "tiny": dict(n=600, epochs=2, seeds=2),
    },
    "cli_mlp_k28": {
        "full": dict(n=12000, epochs=4, trials=1000, iters=5000),
        "tiny": dict(n=400, epochs=1, trials=50, iters=200),
    },
}

CONSISTENCY_GAP_TOL = 1e-9
SUMMARY_TOL = 1e-12


def experiment_seeds(seed: int, count: int) -> list:
    """Disjoint experiment-seed blocks: --seed s owns s*count .. s*count+count-1."""
    return [seed * count + i for i in range(count)]


def _per_seed_configs(kind: str, synth, base, seed: int, count: int) -> list:
    return [experiments.ExperimentConfig(kind, synth, [base], [s])
            for s in experiment_seeds(seed, count)]


def f1_reference(pred_flags, gold_flags):
    """(micro F1, macro F1) written out in numpy, independent of ncrl_lab.metrics.

    gold_flags is (n, K+1) with the none column first; a label with no
    positives and no predictions scores F1 = 0, as in the package.
    """
    p = np.asarray(pred_flags, dtype=bool)
    y = np.asarray(gold_flags, dtype=bool)[:, 1:]
    tp = (p & y).sum(axis=0)
    fp = (p & ~y).sum(axis=0)
    fn = (~p & y).sum(axis=0)
    denom = 2 * tp + fp + fn
    per_label = np.where(denom > 0, 2 * tp / np.maximum(denom, 1), 0.0)
    pooled = 2 * tp.sum() + fp.sum() + fn.sum()
    micro = 2 * tp.sum() / pooled if pooled else 0.0
    return float(micro), float(per_label.mean())


def _is_f1(value) -> bool:
    return isinstance(value, float) and math.isfinite(value) and 0.0 <= value <= 1.0


@dataclass
class JobResult:
    """What one job produced, plus the failures its checks found."""

    outputs: object
    attempted: int
    parts: dict  # seconds per sequential part of the job; see run.job_time
    failures: list = field(default_factory=list)
    quality: dict = field(default_factory=dict)  # micro_f1, macro_f1, trend_win_rate
    signature: object = None  # equal across jobs when results repeat exactly


def _row_signature(rows) -> tuple:
    """Every result field except the wall-clock `seconds`."""
    return tuple((r.experiment, r.loss, r.gamma, r.seed, r.split, r.metric, r.value)
                 for r in rows)


# --------------------------------------------------------------------------
# suites


def _ablation_setup(seed: int, size: dict, workdir: str):
    synth = SyntheticConfig(num_labels=10, feature_dim=50,
                            num_instances=size["n"], none_fraction_target=0.3,
                            noise_false_negative_rate=0.2)
    base = TrainConfig("ncrl_final", gamma=0.05, epochs=size["epochs"],
                       batch_size=64, learning_rate=0.03)
    return _per_seed_configs("ablation", synth, base, seed, size["seeds"])


def _ablation_job(config, between):
    started = time.perf_counter()
    rows = experiments.run_ablation(config)
    return rows, time.perf_counter() - started


def _ablation_check(config, outputs) -> JobResult:
    rows, seconds = outputs
    variants = [(tc.loss_kind, tc.gamma) for tc in
                experiments.ablation_variants(config.train_configs[0])]
    per_seed = [r for r in rows if r.seed != "all"]
    result = JobResult(rows, len(variants) * len(config.seeds),
                       {"suite": seconds},
                       signature=_row_signature(rows))
    cells = {}
    for row in per_seed:
        cells.setdefault((row.loss, row.gamma, row.seed), {})[row.metric] = row.value
    micro, macro = [], []
    for seed in config.seeds:
        for loss, gamma in variants:
            got = cells.get((loss, gamma, seed))
            where = f"{loss}@{gamma} seed {seed}"
            if got is None:
                result.failures.append(f"{where}: cell missing")
            elif "error" in got:
                result.failures.append(f"{where}: error row")
            elif set(got) != set(experiments.METRIC_NAMES):
                result.failures.append(f"{where}: metrics {sorted(got)}")
            elif not (_is_f1(got["micro_f1"]) and _is_f1(got["macro_f1"])):
                result.failures.append(f"{where}: F1 out of range {got}")
            else:
                micro.append(got["micro_f1"])
                macro.append(got["macro_f1"])
    for row in rows:
        if row.seed != "all" or not row.metric.endswith("_mean"):
            continue
        values = [r.value for r in per_seed if (r.loss, r.gamma) == (row.loss, row.gamma)
                  and r.metric == row.metric[:-len("_mean")]]
        if not values or abs(float(np.mean(values)) - row.value) > SUMMARY_TOL:
            result.failures.append(f"summary {row.loss}@{row.gamma} {row.metric} "
                                   f"{row.value} != mean of {values}")
    if result.failures:
        return result
    # the paper's margin-shifting effect: gamma > 0 beats gamma = 0 on macro F1
    base_gamma = config.train_configs[0].gamma
    wins = [cells[("ncrl_final", base_gamma, s)]["macro_f1"]
            > cells[("ncrl_final", 0.0, s)]["macro_f1"] for s in config.seeds]
    result.quality = dict(micro_f1=float(np.mean(micro)),
                          macro_f1=float(np.mean(macro)),
                          trend_win_rate=float(np.mean(wins)))
    return result


def _ablation_steps(config) -> dict:
    n_train = int(experiments.TRAIN_FRACTION * config.synth.num_instances)
    tc = config.train_configs[0]
    cells = len(experiments.ablation_variants(tc)) * len(config.seeds)
    return {"suite": cells * tc.epochs * math.ceil(n_train / tc.batch_size)}


def _no_none_setup(seed: int, size: dict, workdir: str):
    synth = SyntheticConfig(num_labels=28, feature_dim=50,
                            num_instances=size["n"], none_fraction_target=0.35)
    base = TrainConfig("ncrl_final", gamma=0.01, epochs=size["epochs"],
                       batch_size=64, learning_rate=0.03, weight_decay=0.015)
    return _per_seed_configs("no_none", synth, base, seed, size["seeds"])


def _no_none_job(config, between):
    """Run the study, keeping each test prediction it scores by micro F1.

    The study's rows carry only micro F1; macro F1 of the same predictions
    is computed from the kept flags after the job. Keeping a reference costs
    a list append per scored prediction.
    """
    scored = []
    original = experiments.micro_f1_flags

    def keep(pred_flags, gold):
        scored.append((pred_flags, gold))
        return original(pred_flags, gold)

    experiments.micro_f1_flags = keep
    try:
        started = time.perf_counter()
        rows = experiments.run_no_none_study(config)
        seconds = time.perf_counter() - started
    finally:
        experiments.micro_f1_flags = original
    return rows, scored, seconds


def _no_none_check(config, outputs) -> JobResult:
    rows, scored, seconds = outputs
    result = JobResult(rows, 2 * len(config.seeds), {"suite": seconds},
                       signature=_row_signature(rows))
    expected = [(f"no_none_{regime}", seed, metric)
                for seed in config.seeds for regime in ("full", "stripped")
                for metric in ("micro_f1_adaptive", "micro_f1_swept")]
    got = [(r.experiment, r.seed, r.metric) for r in rows]
    if got != expected or len(scored) != len(rows):
        result.failures.append(f"rows {got} != expected {expected}")
        return result
    macro = []
    for row, (flags, gold) in zip(rows, scored):
        ref_micro, ref_macro = f1_reference(flags, gold)
        if not _is_f1(row.value) or abs(ref_micro - row.value) > SUMMARY_TOL:
            result.failures.append(f"{row.experiment} seed {row.seed} {row.metric}: "
                                   f"{row.value} vs reference {ref_micro}")
        macro.append(ref_macro)
    if result.failures:
        return result
    value = {(r.experiment, r.seed, r.metric): r.value for r in rows}
    # sweeping a global threshold recovers what f0 cannot learn without
    # none instances: swept F1 >= adaptive F1 on the stripped regime
    wins = [value[("no_none_stripped", s, "micro_f1_swept")]
            >= value[("no_none_stripped", s, "micro_f1_adaptive")]
            for s in config.seeds]
    result.quality = dict(micro_f1=float(np.mean([r.value for r in rows])),
                          macro_f1=float(np.mean(macro)),
                          trend_win_rate=float(np.mean(wins)))
    return result


def _no_none_steps(config) -> dict:
    """Optimizer steps of one job; the stripped split sizes differ per seed."""
    tc = config.train_configs[0]
    steps = 0
    for seed in config.seeds:
        full_train = experiments.make_splits(config.synth, seed)[0]
        for part in (full_train, strip_none_instances(full_train)):
            steps += tc.epochs * math.ceil(len(part) / tc.batch_size)
    return {"suite": steps}


# --------------------------------------------------------------------------
# CLI session


@dataclass
class CliInputs:
    data: str
    model: str
    session: list  # (subcommand, argv) run in order by one job
    n: int
    epochs: int


def run_cli(argv: list):
    """Run one in-process `ncrl-lab` call; (exit code, parsed JSON stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    try:
        payload = json.loads(out.getvalue()) if code == 0 else None
    except json.JSONDecodeError:
        payload = None
    return code, payload


def _cli_setup(seed: int, size: dict, workdir: str) -> list:
    data = os.path.join(workdir, "data.jsonl")
    model_path = os.path.join(workdir, "model.json")
    code, payload = run_cli([
        "gen-data", "--k", "28", "--dim", "50", "--n", str(size["n"]),
        "--none-fraction", "0.35", "--seed", str(seed), "--out", data])
    if code != 0 or payload is None or payload.get("num_instances") != size["n"]:
        raise RuntimeError(f"gen-data failed: exit {code}, output {payload}")
    session = [
        ("train", ["train", "--data", data, "--loss", "atl", "--hidden", "64",
                   "--epochs", str(size["epochs"]), "--batch-size", "64",
                   "--seed", str(seed), "--out", model_path]),
        ("eval", ["eval", "--model", model_path, "--data", data,
                  "--rule", "adaptive"]),
        ("sweep", ["sweep", "--model", model_path, "--data", data,
                   "--grid", "fine", "--per-label"]),
        ("consistency", ["consistency", "--trials", str(size["trials"]),
                         "--k", "5", "--iters", str(size["iters"]),
                         "--seed", str(seed)]),
    ]
    return [CliInputs(data, model_path, session, size["n"], size["epochs"])]


def _cli_job(inputs: CliInputs, between):
    """Run the session; ({subcommand: (exit code, JSON)}, {subcommand: seconds}).

    `between()` runs between two subcommands, outside their timed regions.
    """
    outputs, seconds = {}, {}
    for index, (name, argv) in enumerate(inputs.session):
        if index:
            between()
        started = time.perf_counter()
        outputs[name] = run_cli(argv)
        seconds[name] = time.perf_counter() - started
    return outputs, seconds


def _cli_check(inputs: CliInputs, job_outputs) -> JobResult:
    outputs, seconds = job_outputs
    result = JobResult(outputs, len(inputs.session), seconds,
                       signature=json.dumps(outputs, sort_keys=True))
    for name, (code, payload) in outputs.items():
        if code != 0 or payload is None:
            result.failures.append(f"{name}: exit code {code}")
    if result.failures:
        return result
    train, ev = outputs["train"][1], outputs["eval"][1]
    sweep, cons = outputs["sweep"][1], outputs["consistency"][1]
    if not _is_f1(train.get("best_dev_micro_f1")):
        result.failures.append(f"train: best dev F1 {train}")
    if not (_is_f1(ev.get("micro_f1")) and _is_f1(ev.get("macro_f1"))):
        result.failures.append(f"eval: F1 out of range {ev}")
    thresholds = sweep.get("thresholds", [])
    if len(thresholds) != 28 or not set(thresholds) <= set(FINE_GRID):
        result.failures.append(f"sweep: thresholds {thresholds}")
    if (cons.get("sign_agreement_rate") != 1.0
            or not cons.get("ncre_risk_gap", 1.0) < CONSISTENCY_GAP_TOL):
        result.failures.append(f"consistency: {cons}")
    if result.failures:
        return result
    # the paper's consistency result: recovered minimizers rank every
    # decided label on the Bayes-optimal side of f0
    result.quality = dict(micro_f1=ev["micro_f1"], macro_f1=ev["macro_f1"],
                          trend_win_rate=cons["sign_agreement_rate"])
    return result


def cli_reference_check(inputs: CliInputs, outputs: dict) -> list:
    """Recompute `eval`'s F1 from the checkpoint and JSONL with plain numpy."""
    with open(inputs.model, encoding="utf-8") as handle:
        params = json.load(handle)["params"]
    features, gold = [], []
    with open(inputs.data, encoding="utf-8") as handle:
        for line in handle:
            obj = json.loads(line)
            features.append(obj["features"])
            flags = np.zeros(obj["k"] + 1, dtype=int)
            flags[obj["labels"]] = 1
            flags[0] = int(not obj["labels"])
            gold.append(flags)
    x = np.asarray(features)
    hidden = np.maximum(x @ np.asarray(params["w1"]).T + params["b1"], 0.0)
    scores = hidden @ np.asarray(params["w2"]).T + params["b2"]
    micro, macro = f1_reference(scores[:, 1:] > scores[:, :1], np.asarray(gold))
    ev = outputs["eval"][1]
    failures = []
    for name, ref in (("micro_f1", micro), ("macro_f1", macro)):
        if abs(ev[name] - ref) > SUMMARY_TOL:
            failures.append(f"eval {name} {ev[name]} != reference {ref}")
    return failures


def _cli_steps(inputs: CliInputs) -> dict:
    n_train = inputs.n - max(1, int(0.15 * inputs.n))  # `train`'s dev tail split
    return {"train": inputs.epochs * math.ceil(n_train / 64)}


@dataclass(frozen=True)
class Workload:
    name: str
    setup: object  # (seed, size dict, workdir) -> [inputs of one job]
    job: object  # (inputs, between) -> outputs; between() runs between timed parts
    check: object  # (inputs, outputs) -> JobResult
    steps: object  # inputs -> {part: optimizer steps it runs}
    reference_check: object = None  # (inputs, outputs) -> failures, run once


REGISTRY = {
    "ablation_k10": Workload("ablation_k10", _ablation_setup, _ablation_job,
                             _ablation_check, _ablation_steps),
    "no_none_k28": Workload("no_none_k28", _no_none_setup, _no_none_job,
                            _no_none_check, _no_none_steps),
    "cli_mlp_k28": Workload("cli_mlp_k28", _cli_setup, _cli_job, _cli_check,
                            _cli_steps, cli_reference_check),
}
