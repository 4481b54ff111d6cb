"""Acceptance gate: one test per headline guarantee of the package.

Each test pins a frozen configuration and asserts both the quality bar and
the runtime budget, so `pytest -v tests/test_acceptance.py` prints one
pass/fail line per guarantee.
"""

import math
import time

import numpy as np
import pytest

from ncrl_lab.consistency import run_consistency_experiment
from ncrl_lab.datagen import SyntheticConfig, class_prior_report, generate, split
from ncrl_lab.harness.experiments import (ExperimentConfig, run_compare,
                                          run_no_none_study)
from ncrl_lab.losses import (atl, margin_regularization, ncre_error,
                             ncrl_final, ncrl_noreg, ncrl_plain,
                             pairwise_ranking)
from ncrl_lab.metrics import average_precision, evaluate, micro_f1_flags
from ncrl_lab.model import TrainConfig, grad_check, train
from ncrl_lab.prediction import (adaptive_flags, global_flags,
                                 sweep_global_threshold,
                                 sweep_per_label_thresholds)

LN2 = math.log(2)


def random_case(rng, k_max):
    k = int(rng.integers(1, k_max))
    y = rng.integers(0, 2, size=k)
    f = rng.normal(0.0, 2.0, size=k + 1)
    return y, f


def per_seed(rows, metric, split_name="test", **match):
    out = {}
    for row in rows:
        if row.seed == "all" or row.metric != metric:
            continue
        if row.split != split_name:
            continue
        if all(getattr(row, key) == value for key, value in match.items()):
            out[row.seed] = row.value
    return out


def test_c1_gradient_oracle():
    started = time.perf_counter()
    cases = [("ncrl_plain", 0.0), ("ncrl_final", 0.0), ("ncrl_final", 0.01),
             ("ncrl_final", 0.05), ("ncrl_noreg", 0.05), ("bce", 0.0),
             ("bce_shifted", 0.05), ("atl", 0.0), ("pairwise", 0.0)]
    worst = 0.0
    for kind, gamma in cases:
        for k in (3, 10, 30):
            err = grad_check(kind, gamma=gamma, k=k, trials=100, seed=0)
            worst = max(worst, err)
    elapsed = time.perf_counter() - started
    assert worst < 1e-4, f"max relative gradient error {worst}"
    assert elapsed < 10.0, f"gradient oracle took {elapsed:.1f}s"


def test_c2_threshold_consistency():
    started = time.perf_counter()
    report = run_consistency_experiment(trials=1000, k=5, seed=7)
    elapsed = time.perf_counter() - started
    assert report.sign_agreement_rate == 1.0
    assert report.max_margin_deviation < 1e-3
    assert report.ncre_risk_gap < 1e-9
    assert elapsed < 60.0, f"consistency experiment took {elapsed:.1f}s"


def test_c3_decomposition_and_invariance():
    started = time.perf_counter()
    rng = np.random.default_rng(0)

    for _ in range(1000):
        y, f = random_case(rng, k_max=21)
        whole = ncrl_final(y, f, 0.0)
        plain = ncrl_plain(y, f)
        reg = margin_regularization(y, f)
        assert abs(whole.value - (plain.value + reg.value)) <= 1e-12
        np.testing.assert_allclose(whole.grad, plain.grad + reg.grad,
                                   rtol=0.0, atol=1e-12)

    margin_ops = [lambda y, f: ncrl_plain(y, f),
                  lambda y, f: ncrl_final(y, f, 0.05),
                  lambda y, f: ncrl_noreg(y, f, 0.05),
                  lambda y, f: margin_regularization(y, f),
                  lambda y, f: atl(y, f),
                  lambda y, f: pairwise_ranking(y, f)]
    for _ in range(200):
        y, f = random_case(rng, k_max=12)
        shift = float(rng.normal(0.0, 5.0))
        for op in margin_ops:
            base = op(y, f)
            shifted = op(y, f + shift)
            assert abs(base.value - shifted.value) < 1e-9
            assert abs(float(base.grad.sum())) < 1e-9

    # negative margin far past the shifted-probability ceiling contributes
    # exactly zero loss and gradient
    y = np.array([0, 1])
    hot = ncrl_noreg(y, np.array([0.0, -5.0, 25.0]), 0.05)
    ref = ncrl_noreg(y, np.array([0.0, -50.0, 25.0]), 0.05)
    assert hot.value == ref.value
    assert hot.grad[1] == 0.0 and ref.grad[1] == 0.0

    # positive and negative margins recombine into pairwise differences:
    # bit-exact when the reference score is zero, 1e-12 in general position
    for _ in range(200):
        k = int(rng.integers(1, 12))
        f = rng.normal(0.0, 2.0, size=k + 1)
        f[0] = 0.0
        pos, neg = f[1:] - f[0], f[0] - f[1:]
        assert np.array_equal(pos[:, None] + neg[None, :],
                              f[1:, None] - f[None, 1:])
        f0 = float(rng.normal(0.0, 2.0))
        pos, neg = f[1:] - f0, f0 - f[1:]
        np.testing.assert_allclose(pos[:, None] + neg[None, :],
                                   f[1:, None] - f[None, 1:],
                                   rtol=0.0, atol=1e-12)

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"invariance suite took {elapsed:.1f}s"


def test_c4_separable_learning():
    started = time.perf_counter()
    data = generate(SyntheticConfig(num_labels=10, feature_dim=50,
                                    num_instances=7000,
                                    none_fraction_target=0.4, seed=3))
    train_part, dev_part, test_part = split(data, 5000, 1000)
    config = TrainConfig("ncrl_plain", epochs=200, batch_size=32,
                         learning_rate=0.1, seed=0)
    scorer, history = train(train_part, dev_part, [config])[0]
    scores = scorer.forward(test_part.features)
    report = evaluate(scores, test_part.labels, adaptive_flags(scores))
    elapsed = time.perf_counter() - started
    assert history.train_loss[-1] < 0.05
    assert report.micro_f1 >= 0.95
    assert report.mean_ncre <= 0.05
    assert elapsed < 60.0, f"separable training took {elapsed:.1f}s"


def test_c5_noise_robustness_trend():
    started = time.perf_counter()
    synth = SyntheticConfig(num_labels=10, feature_dim=50, num_instances=3000,
                            none_fraction_target=0.3,
                            noise_false_negative_rate=0.2, seed=0)
    base = dict(epochs=60, batch_size=64, learning_rate=0.03)
    config = ExperimentConfig(
        "noise_fn", synth,
        [TrainConfig("ncrl_final", gamma=0.05, **base),
         TrainConfig("ncrl_final", gamma=0.0, **base)],
        seeds=[0, 1, 2, 3, 4])
    rows = run_compare(config)
    shifted = per_seed(rows, "macro_f1", gamma=0.05)
    plain = per_seed(rows, "macro_f1", gamma=0.0)
    assert sorted(shifted) == sorted(plain) == [0, 1, 2, 3, 4]
    wins = sum(shifted[s] > plain[s] for s in shifted)
    elapsed = time.perf_counter() - started
    assert wins >= 4, f"shifted won only {wins}/5 seeds"
    assert elapsed < 300.0, f"noise trend took {elapsed:.1f}s"


def test_c6_imbalance_trend():
    started = time.perf_counter()
    bias = (-0.268567,) * 5 + (0.776229,) * 5
    synth = SyntheticConfig(num_labels=10, feature_dim=50,
                            num_instances=60000, none_fraction_target=0.55,
                            per_label_bias=bias, noise_symmetric_rate=0.06,
                            seed=0)
    # regime check: last five labels are rare (about 1% positive rate) before
    # the label noise is applied
    clean = generate(SyntheticConfig(num_labels=10, feature_dim=50,
                                     num_instances=60000,
                                     none_fraction_target=0.55,
                                     per_label_bias=bias, seed=0))
    rates = class_prior_report(clean)["positive_rates"]
    assert all(rate < 0.02 for rate in rates[5:])
    assert all(rate > 0.05 for rate in rates[:5])

    base = dict(gamma=0.05, epochs=30, batch_size=128, learning_rate=0.03)
    config = ExperimentConfig(
        "imbalance", synth,
        [TrainConfig("ncrl_final", **base), TrainConfig("ncrl_noreg", **base)],
        seeds=[0, 1, 2, 3, 4])
    rows = run_compare(config)
    whole = per_seed(rows, "macro_f1", loss="ncrl_final")
    ablated = per_seed(rows, "macro_f1", loss="ncrl_noreg")
    wins = sum(whole[s] > ablated[s] for s in whole)
    elapsed = time.perf_counter() - started
    assert wins >= 4, f"full loss won only {wins}/5 seeds"
    assert elapsed < 300.0, f"imbalance trend took {elapsed:.1f}s"


def test_c7_no_none_study():
    started = time.perf_counter()
    synth = SyntheticConfig(num_labels=28, feature_dim=50,
                            num_instances=12000, none_fraction_target=0.35,
                            seed=0)
    config = ExperimentConfig(
        "no_none", synth,
        [TrainConfig("ncrl_final", gamma=0.01, epochs=60, batch_size=64,
                     learning_rate=0.03, weight_decay=0.015)],
        seeds=[0, 1, 2, 3, 4])
    rows = run_no_none_study(config)

    def pairs(experiment):
        swept = per_seed(rows, "micro_f1_swept", experiment=experiment)
        adaptive = per_seed(rows, "micro_f1_adaptive", experiment=experiment)
        assert sorted(swept) == sorted(adaptive) == [0, 1, 2, 3, 4]
        return swept, adaptive

    swept, adaptive = pairs("no_none_stripped")
    stripped_wins = sum(swept[s] >= adaptive[s] for s in swept)
    swept, adaptive = pairs("no_none_full")
    full_ok = sum(adaptive[s] >= swept[s] - 0.02 for s in swept)
    elapsed = time.perf_counter() - started
    assert stripped_wins >= 4, f"sweeping won only {stripped_wins}/5 stripped"
    assert full_ok >= 4, f"adaptive held up on only {full_ok}/5 full"
    assert elapsed < 300.0, f"no-none study took {elapsed:.1f}s"


def test_c8_metric_oracles():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        k = int(rng.integers(2, 9))
        scores = rng.normal(size=k + 1)
        flags = rng.integers(0, 2, size=k)
        if flags.sum() == 0:
            flags[int(rng.integers(k))] = 1
        order = sorted(range(1, k + 1),
                       key=lambda i: (-scores[i], i))
        hits, running = 0, []
        for rank, label in enumerate(order, start=1):
            if flags[label - 1]:
                hits += 1
                running.append(hits / rank)
        reference = sum(running) / int(flags.sum())
        assert abs(average_precision(scores, flags) - reference) <= 1e-12

    # threshold sweeps against exhaustive enumeration on a hand case with
    # gold sets {1}, {2}, and a none instance
    probs = np.array([[0.9, 0.4], [0.2, 0.9], [0.4, 0.2]])
    scores = np.column_stack([np.zeros(3), np.log(probs / (1 - probs))])
    gold = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    grid = [round(0.1 * i, 1) for i in range(1, 10)]

    best_t, best_f1 = None, -1.0
    for t in grid:
        f1 = micro_f1_flags(global_flags(scores, t), gold)
        if f1 > best_f1:
            best_t, best_f1 = t, f1
    assert sweep_global_threshold(scores, gold, grid) == (best_t, best_f1)

    per_label = sweep_per_label_thresholds(scores, gold, grid)
    for j in range(2):
        gold_j = gold[:, j + 1].astype(bool)
        choice, top = None, -1.0
        for t in grid:
            f1 = _binary_f1(global_flags(scores, t)[:, j].astype(bool),
                            gold_j)
            if f1 > top:
                choice, top = t, f1
        assert per_label[j] == choice


def _binary_f1(pred, gold):
    tp = int(np.sum(pred & gold))
    fp = int(np.sum(pred & ~gold))
    fn = int(np.sum(~pred & gold))
    return 0.0 if tp == 0 else 2 * tp / (2 * tp + fp + fn)


def test_c9_unit_values():
    assert abs(ncrl_plain([1, 0], np.zeros(3)).value - 2 * LN2) < 1e-9
    assert abs(atl([1, 0], np.zeros(3)).value - 2 * LN2) < 1e-9
    assert abs(atl([0, 0], np.zeros(3)).value - math.log(3)) < 1e-9
    assert abs(ncre_error([1], np.zeros(2)) - 0.5) < 1e-9
