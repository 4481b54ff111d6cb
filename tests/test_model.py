"""Scorers, training loop, optimizer schedule, and gradient checking."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ncrl_lab.datagen import (Dataset, SyntheticConfig, generate, split,
                              strip_none_instances, take)
from ncrl_lab.harness.experiments import (ExperimentConfig, _no_none_cell,
                                          make_splits, run_no_none_study)
from ncrl_lab.harness.seeds import derive_seed
from ncrl_lab.losses import LOSS_KINDS, ncrl_final
from ncrl_lab.metrics import mean_ncre, micro_f1_flags
from ncrl_lab.model import (ADAPTIVE_KINDS, Adam, LinearScorer, MlpScorer,
                            TrainConfig, forward, grad_check,
                            learning_rate_at, native_dev_metric,
                            scorer_from_dict, scorer_to_dict, train)
from ncrl_lab.prediction import (COARSE_GRID, adaptive_flags,
                                 sweep_global_threshold)


def separable_splits(num_labels=10, feature_dim=50, n=7000, seed=3):
    data = generate(SyntheticConfig(num_labels=num_labels,
                                    feature_dim=feature_dim, num_instances=n,
                                    none_fraction_target=0.4, seed=seed))
    return split(data, 5000, 1000)


class TestForward:
    def test_zero_parameters(self):
        scorer = LinearScorer(np.zeros((3, 4)), np.zeros(3))
        assert np.array_equal(forward(scorer, np.ones(4)), np.zeros(3))

    def test_hand_set_one_dim(self):
        scorer = LinearScorer(np.array([[0.5], [-2.0]]), np.array([1.0, 3.0]))
        assert_allclose(forward(scorer, [2.0]), [2.0, -1.0], rtol=0, atol=0)

    def test_purity(self):
        rng = np.random.default_rng(0)
        scorer = LinearScorer.create(4, 6, rng)
        x = rng.normal(size=6)
        assert np.array_equal(forward(scorer, x), forward(scorer, x))

    def test_dimension_mismatch(self):
        scorer = LinearScorer(np.zeros((3, 4)), np.zeros(3))
        with pytest.raises(ValueError):
            forward(scorer, np.ones(5))

    def test_mlp_backward_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        scorer = MlpScorer.create(k=3, dim=5, hidden=7, rng=rng)
        x = rng.normal(size=(4, 5))
        proj = rng.normal(size=(4, 4))  # random linear functional of the scores
        grads = scorer.backward(x, proj)
        h = 1e-6
        for key, g in grads.items():
            flat = scorer.params[key].ravel()
            for idx in range(0, flat.size, max(1, flat.size // 5)):
                orig = flat[idx]
                flat[idx] = orig + h
                up = float((scorer.forward(x) * proj).sum())
                flat[idx] = orig - h
                down = float((scorer.forward(x) * proj).sum())
                flat[idx] = orig
                assert_allclose(g.ravel()[idx], (up - down) / (2 * h),
                                rtol=1e-4, atol=1e-6)


class TestTrain:
    def test_separable_learning(self):
        train_part, dev_part, test_part = separable_splits()
        cfg = TrainConfig("ncrl_plain", epochs=200, batch_size=32,
                          learning_rate=0.1, seed=0)
        scorer, history = train(train_part, dev_part, [cfg])[0]
        assert history.train_loss[-1] < 0.05
        assert history.dev_metric[history.best_epoch] >= 0.95
        scores = scorer.forward(test_part.features)
        assert micro_f1_flags(adaptive_flags(scores), test_part.labels) >= 0.95
        assert mean_ncre(scores, test_part.labels) <= 0.05

    def test_epoch_bounds(self):
        train_part, dev_part, _ = separable_splits(num_labels=3, feature_dim=5,
                                                   n=7000, seed=1)
        with pytest.raises(ValueError):
            TrainConfig("ncrl_plain", epochs=0).validate()
        _, history = train(train_part, dev_part,
                           [TrainConfig("ncrl_plain", epochs=1, batch_size=256,
                                        learning_rate=0.05, seed=0)])[0]
        assert len(history.train_loss) == 1
        assert len(history.dev_metric) == 1

    def test_deterministic_parameters(self):
        train_part, dev_part, _ = separable_splits(num_labels=4, feature_dim=8,
                                                   n=7000, seed=2)
        cfg = TrainConfig("ncrl_final", gamma=0.05, epochs=3, batch_size=128,
                          learning_rate=0.05, seed=9)
        a, _ = train(train_part, dev_part, [cfg])[0]
        b, _ = train(train_part, dev_part, [cfg])[0]
        for key in a.params:
            assert np.array_equal(a.params[key], b.params[key])

    def test_loss_non_increasing_after_warmup(self):
        data = generate(SyntheticConfig(num_labels=6, feature_dim=30,
                                        num_instances=2500,
                                        none_fraction_target=0.4, seed=5))
        train_part, dev_part = split(data, 2000)
        _, history = train(train_part, dev_part,
                           [TrainConfig("ncrl_plain", epochs=30, batch_size=64,
                                        learning_rate=0.05, seed=0)])[0]
        after_warmup = np.array(history.train_loss[3:])  # warmup spans 3 epochs
        assert (np.diff(after_warmup) <= 1e-3).all()

    def test_bce_never_touches_none_row(self):
        train_part, dev_part, _ = separable_splits(num_labels=4, feature_dim=8,
                                                   n=7000, seed=2)
        scorer = LinearScorer.create(4, 8, np.random.default_rng(3))
        w0 = scorer.params["weights"][0].copy()
        train(train_part, dev_part,
              [TrainConfig("bce", epochs=3, batch_size=128, learning_rate=0.05,
                           seed=0)], scorers=[scorer])
        assert np.array_equal(scorer.params["weights"][0], w0)
        assert scorer.params["bias"][0] == 0.0

    def test_divergence_reports_step(self):
        train_part, dev_part, _ = separable_splits(num_labels=3, feature_dim=5,
                                                   n=7000, seed=1)
        cfg = TrainConfig("ncrl_plain", epochs=2, batch_size=512,
                          learning_rate=1e160, hidden_width=4, seed=0)
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError,
                                                       match="step"):
            _scorer, _history = train(train_part, dev_part, [cfg])[0]

    def test_dimension_mismatch_rejected(self):
        a = generate(SyntheticConfig(num_labels=3, feature_dim=5,
                                     num_instances=50, seed=0))
        b = generate(SyntheticConfig(num_labels=3, feature_dim=6,
                                     num_instances=50, seed=0))
        with pytest.raises(ValueError):
            train(a, b, [TrainConfig("bce", epochs=1)])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig("nonsense").validate()
        with pytest.raises(ValueError):
            TrainConfig("bce", learning_rate=0.0).validate()
        with pytest.raises(ValueError):
            TrainConfig("bce", warmup_fraction=1.0).validate()
        with pytest.raises(ValueError):
            TrainConfig("bce", weight_decay=-0.1).validate()
        with pytest.raises(ValueError):
            TrainConfig("ncrl_final", gamma=1.0).validate()

    def test_non_finite_rates_rejected(self):
        # a NaN rate used to pass and surface as "diverged at step 1"
        for key in ("learning_rate", "weight_decay"):
            for value in (math.nan, math.inf):
                with pytest.raises(ValueError, match=f"{key} must be finite"):
                    TrainConfig("bce", **{key: value}).validate()


class TestStackedTraining:
    def test_stack_matches_one_cell_training(self):
        # margin kinds, atl and pairwise share the linear stack; two MLP cells
        # form a second stack; the ncrl_plain cell in the middle diverges part
        # way through its first epoch and must not disturb the others
        data = generate(SyntheticConfig(num_labels=4, feature_dim=6,
                                        num_instances=900,
                                        none_fraction_target=0.3, seed=4))
        train_part, dev_part = split(data, 700)
        train_part.features[350, 0] = 1e6
        shared = dict(epochs=3, batch_size=64, learning_rate=0.05)
        configs = [
            TrainConfig("ncrl_final", gamma=0.05, seed=1, **shared),
            TrainConfig("atl", seed=2, **shared),
            TrainConfig("bce_shifted", gamma=0.2, seed=3, **shared),
            TrainConfig("ncrl_plain", seed=4, **shared),
            TrainConfig("pairwise", seed=5, **shared),
            TrainConfig("ncrl_noreg", gamma=0.01, seed=6, **shared),
            TrainConfig("bce", seed=7, **shared),
            TrainConfig("ncrl_final", gamma=0.01, seed=8, hidden_width=5,
                        **shared),
            TrainConfig("atl", seed=9, hidden_width=5, **shared),
        ]

        def scorers():
            # feature 0 reaches 1e6 on one training row, which overflows this
            # scorer's scores when its shuffle reaches that row
            weights = np.full((5, 6), 0.1)
            weights[1, 0] = 1e303
            return [None] * 3 + [LinearScorer(weights, np.zeros(5))] + [None] * 5

        with np.errstate(over="ignore", invalid="ignore"):
            stacked = train(train_part, dev_part, configs, scorers=scorers())
        for config, scorer, result in zip(configs, scorers(), stacked):
            with np.errstate(over="ignore", invalid="ignore"):
                alone, = train(train_part, dev_part, [config], scorers=[scorer])
            if config.loss_kind == "ncrl_plain":
                assert result.error is not None and alone.error is not None
                assert str(result.error) == str(alone.error)
                assert str(result.error) != "training diverged at step 0"
                with pytest.raises(FloatingPointError, match="diverged at step"):
                    _scorer, _history = result
                continue
            assert result.error is None
            for key, value in alone.scorer.params.items():
                assert np.array_equal(result.scorer.params[key], value), config
            assert result.history.train_loss == alone.history.train_loss
            assert result.history.dev_metric == alone.history.dev_metric
            assert result.history.best_epoch == alone.history.best_epoch

    def test_uneven_stack_matches_one_cell_training(self):
        # every cell has its own training set, some their own dev set: sizes
        # that batches of 32 do not divide, one set smaller than a batch, two
        # sets whose 6-step epochs end on the same step with last batches of
        # 10 and 20 rows, and a cell that diverges part way through its first
        # epoch; margin kinds and atl share the stack, two MLP cells another
        data = generate(SyntheticConfig(num_labels=4, feature_dim=6,
                                        num_instances=1500,
                                        none_fraction_target=0.3, seed=6))
        rows = np.random.default_rng(0).permutation(len(data))
        a, b, c, d, e, dev_a, dev_b = (
            take(data, rows[lo:hi]) for lo, hi in
            ((0, 300), (300, 470), (470, 490), (490, 670), (670, 920),
             (920, 1100), (1100, 1250)))
        e.features[130, 0] = 1e6
        shared = dict(epochs=3, batch_size=32, learning_rate=0.05)
        cells = [
            (TrainConfig("ncrl_final", gamma=0.05, seed=1, **shared), a, dev_a),
            (TrainConfig("bce_shifted", gamma=0.2, seed=2, **shared), b, dev_b),
            (TrainConfig("atl", seed=3, **shared), a, dev_b),
            (TrainConfig("ncrl_noreg", gamma=0.01, seed=4, **shared), c, dev_a),
            (TrainConfig("ncrl_plain", seed=5, **shared), e, dev_a),
            (TrainConfig("bce", seed=6, **shared), d, dev_b),
            (TrainConfig("atl", seed=7, hidden_width=5, **shared), c, dev_a),
            (TrainConfig("ncrl_final", gamma=0.01, seed=8, hidden_width=5,
                         **shared), b, dev_b),
        ]
        configs = [config for config, _, _ in cells]

        def scorers():
            # feature 0 reaches 1e6 on one row of set e, which overflows this
            # scorer's scores when its shuffle reaches that row
            weights = np.full((5, 6), 0.1)
            weights[1, 0] = 1e303
            return [None] * 4 + [LinearScorer(weights, np.zeros(5))] + [None] * 3

        with np.errstate(over="ignore", invalid="ignore"):
            stacked = train([cell[1] for cell in cells],
                            [cell[2] for cell in cells], configs,
                            scorers=scorers())
        for (config, part, dev), scorer, result in zip(cells, scorers(),
                                                        stacked):
            with np.errstate(over="ignore", invalid="ignore"):
                alone, = train(part, dev, [config], scorers=[scorer])
            if part is e:
                assert result.error is not None and alone.error is not None
                assert str(result.error) == str(alone.error)
                assert str(result.error) != "training diverged at step 0"
                assert result.history.train_loss == []
                continue
            assert result.error is None
            assert len(result.history.train_loss) == 3
            for key, value in alone.scorer.params.items():
                assert np.array_equal(result.scorer.params[key], value), config
            assert result.history.train_loss == alone.history.train_loss
            assert result.history.dev_metric == alone.history.dev_metric
            assert result.history.best_epoch == alone.history.best_epoch

    def test_loss_divergence_leaves_other_cells_alone(self):
        # biases near +-1e308 keep one cell's scores finite but overflow its
        # margins, so its loss, not its scores, stops being finite
        data = generate(SyntheticConfig(num_labels=4, feature_dim=6,
                                        num_instances=500,
                                        none_fraction_target=0.3, seed=5))
        train_part, dev_part = split(data, 400)
        shared = dict(epochs=2, batch_size=64, learning_rate=0.05)
        configs = [TrainConfig("ncrl_final", gamma=0.05, seed=1, **shared),
                   TrainConfig("ncrl_plain", seed=2, **shared),
                   TrainConfig("atl", seed=3, **shared),
                   TrainConfig("bce_shifted", gamma=0.2, seed=4, **shared)]

        def scorers():
            bias = np.full(5, 1e308)
            bias[0] = -1e308
            return [None, LinearScorer(np.full((5, 6), 0.1), bias), None, None]

        # one shared training set; then uneven sets, where a set smaller than
        # a batch gives the first step two batch lengths, and the diverging
        # cell sits in the second run of rows, which spans two training sets
        uneven = [take(train_part, np.arange(40)), train_part,
                  take(train_part, np.arange(100, 400)), train_part]
        for datas in ([train_part] * 4, uneven):
            with np.errstate(over="ignore", invalid="ignore"):
                stacked = train(datas, dev_part, configs, scorers=scorers())
            for config, part, scorer, result in zip(configs, datas, scorers(),
                                                    stacked):
                with np.errstate(over="ignore", invalid="ignore"):
                    alone, = train(part, dev_part, [config], scorers=[scorer])
                if config.loss_kind == "ncrl_plain":
                    assert re.fullmatch(r"training loss diverged at step \d+",
                                        str(result.error))
                    assert str(alone.error) == str(result.error)
                    continue
                assert result.error is None
                for key, value in alone.scorer.params.items():
                    assert np.array_equal(result.scorer.params[key], value), config
                assert result.history.train_loss == alone.history.train_loss
                assert result.history.dev_metric == alone.history.dev_metric

    def test_per_config_sets_checked(self):
        data = generate(SyntheticConfig(num_labels=3, feature_dim=5,
                                        num_instances=60, seed=0))
        other = generate(SyntheticConfig(num_labels=3, feature_dim=4,
                                         num_instances=60, seed=0))
        configs = [TrainConfig("bce", epochs=1), TrainConfig("atl", epochs=1)]
        with pytest.raises(ValueError, match="one training set per config"):
            train([data], data, configs)
        with pytest.raises(ValueError, match="one dev set per config"):
            train(data, [data] * 3, configs)
        with pytest.raises(ValueError, match="share feature and label dims"):
            train([data, other], data, configs)

    def test_no_none_study_matches_one_train_call_per_regime(self):
        base = TrainConfig("ncrl_final", gamma=0.01, epochs=3, batch_size=32,
                           learning_rate=0.03, weight_decay=0.015)
        config = ExperimentConfig(
            "no_none", SyntheticConfig(num_labels=4, feature_dim=6,
                                       num_instances=700,
                                       none_fraction_target=0.4),
            [base], seeds=[0, 1])
        expected = []
        for seed in config.seeds:
            full = make_splits(config.synth, seed)
            stripped = tuple(strip_none_instances(part) for part in full)
            for regime, parts in (("full", full), ("stripped", stripped)):
                cfg = replace(base, seed=derive_seed(seed, "train", regime,
                                                     base.loss_kind))
                result, = train(parts[0], parts[1], [cfg])
                expected.extend(_no_none_cell(base, regime, parts, seed,
                                              result))

        def fields(rows):
            return [(r.experiment, r.loss, r.gamma, r.seed, r.split, r.metric,
                     r.value) for r in rows]

        assert fields(run_no_none_study(config)) == fields(expected)

    def test_stacked_scorer_cells(self):
        rng = np.random.default_rng(8)
        for cells in ([LinearScorer.create(3, 4, rng) for _ in range(3)],
                      [MlpScorer.create(3, 4, 5, rng) for _ in range(3)]):
            stack = type(cells[0]).stack(cells)
            assert (stack.k, stack.dim) == (3, 4)
            # every parameter is a view of the one (C, P) array
            assert stack.flat.shape == (3, sum(v[0].size for v in stack.params.values()))
            assert all(np.shares_memory(v, stack.flat) for v in stack.params.values())
            x = rng.normal(size=(3, 7, 4))
            d = rng.normal(size=(3, 7, 4))
            scores, grads = stack.forward(x), stack.backward(x, d)
            for c, cell in enumerate(cells):
                assert np.array_equal(scores[c], cell.forward(x[c]))
                for key, grad in cell.backward(x[c], d[c]).items():
                    assert np.array_equal(grads[key][c], grad)
                for key, value in stack.cell(c).params.items():
                    assert np.array_equal(value, cell.params[key])


class TestStackedDevMetric:
    """A stacked native_dev_metric gives each row what the one-cell rules,
    written out here, give its cell."""

    @staticmethod
    def reference(scorer, dev, kind):
        scores = scorer.forward(dev.features)
        if kind in ADAPTIVE_KINDS:
            return micro_f1_flags(adaptive_flags(scores), dev.labels)
        return sweep_global_threshold(scores, dev.labels, COARSE_GRID)[1]

    @pytest.mark.parametrize("k", [1, 4])
    @pytest.mark.parametrize("hidden", [0, 5])
    @pytest.mark.parametrize("all_none", [False, True])
    def test_matches_per_row_reference(self, k, hidden, all_none):
        rng = np.random.default_rng(10 * k + hidden)
        dev = generate(SyntheticConfig(num_labels=k, feature_dim=6,
                                       num_instances=80,
                                       none_fraction_target=0.3, seed=k))
        if all_none:
            none = np.zeros_like(dev.labels)
            none[:, 0] = 1
            dev = Dataset(dev.features, none)
        kinds = list(LOSS_KINDS) + ["bce", "atl"]
        cells = [MlpScorer.create(k, 6, hidden, rng) if hidden
                 else LinearScorer.create(k, 6, rng) for _ in kinds]
        for cell in cells:  # spread the scores over both sides of f_0 and t
            for value in cell.params.values():
                value += rng.normal(size=value.shape)
        stack = type(cells[0]).stack(cells)
        expected = [self.reference(cell, dev, kind)
                    for cell, kind in zip(cells, kinds)]
        assert native_dev_metric(stack, dev, kinds) == expected
        for cell, kind, metric in zip(cells, kinds, expected):
            assert native_dev_metric(cell, dev, kind) == metric
        # rows gathered from the stack, as the trainer scores a dev set's
        # rows: mixed rules, global only, adaptive only
        for rows in ([1, 4, 5, 6], [3, 4], [0, 8]):
            got = native_dev_metric(stack.cell(np.array(rows)), dev,
                                    [kinds[row] for row in rows])
            assert got == [expected[row] for row in rows]


class TestGradCheck:
    def test_plain_small(self):
        assert grad_check("ncrl_plain", k=10, trials=100, seed=0) < 1e-4

    def test_atl_wide(self):
        assert grad_check("atl", k=30, trials=100, seed=0) < 1e-4

    def test_clamped_coordinate(self):
        # label 1 sits in the shift deadzone and the none term is clamped too,
        # so the analytic zero must match a finite-difference zero
        y, f, gamma = [0, 1], np.array([0.0, -5.0, 25.0]), 0.05
        res = ncrl_final(y, f, gamma)
        assert res.grad[1] == 0.0
        h = 1e-5
        up = ncrl_final(y, f + h * np.eye(3)[1], gamma).value
        down = ncrl_final(y, f - h * np.eye(3)[1], gamma).value
        assert (up - down) / (2 * h) == 0.0

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            grad_check("bce", trials=0)

    def test_label_count_validated(self):
        # k = 0 used to end in numpy's "zero-size array to reduction
        # operation maximum", k = -1 in "negative dimensions are not allowed"
        for k in (0, -1):
            with pytest.raises(ValueError, match=f"k must be >= 1, got {k}"):
                grad_check("ncrl_plain", k=k)


class TestSchedule:
    def test_warmup_then_decay(self):
        lrs = [learning_rate_at(s, 100, 1.0, 0.1) for s in range(100)]
        assert lrs[9] == pytest.approx(1.0)  # end of warmup hits the peak
        assert (np.diff(lrs[:10]) > 0).all()
        assert (np.diff(lrs[10:]) < 0).all()
        assert lrs[99] == pytest.approx(1.0 / 90)

    def test_adam_update_is_bounded(self):
        params = {"w": np.array([0.0])}
        opt = Adam(params)
        opt.step(params, {"w": np.array([1e6])}, lr=0.1)
        assert abs(params["w"][0]) <= 0.1 + 1e-12

    def test_per_cell_rate_matches_scalar_steps(self):
        # per-key stacked arrays, the trainer's one-key flat (C, P) layout
        # and each cell alone all step to the same bits, under one scalar
        # rate and under a rate per cell, with decoupled decay
        rng = np.random.default_rng(9)
        for lr in (np.array([0.1, 0.02, 0.003]), 0.02):
            rates = np.broadcast_to(lr, 3)
            stacked = {"w": rng.normal(size=(3, 4, 5)), "b": rng.normal(size=(3, 4))}
            flat = {"flat": np.concatenate([stacked["w"].reshape(3, -1),
                                            stacked["b"]], axis=1)}
            cells = [{key: value[c].copy() for key, value in stacked.items()}
                     for c in range(3)]
            optimizer, flat_optimizer = Adam(stacked), Adam(flat)
            alone = [Adam(cell) for cell in cells]
            for _ in range(4):
                grads = {key: rng.normal(size=value.shape)
                         for key, value in stacked.items()}
                optimizer.step(stacked, grads, lr, weight_decay=0.01)
                flat_grads = np.concatenate([grads["w"].reshape(3, -1), grads["b"]],
                                            axis=1)
                flat_optimizer.step(flat, {"flat": flat_grads}, lr, weight_decay=0.01)
                for c, (cell, cell_optimizer) in enumerate(zip(cells, alone)):
                    cell_optimizer.step(cell, {key: g[c] for key, g in grads.items()},
                                        float(rates[c]), weight_decay=0.01)
            assert np.array_equal(flat["flat"][:, :20].reshape(3, 4, 5), stacked["w"])
            assert np.array_equal(flat["flat"][:, 20:], stacked["b"])
            for c, cell in enumerate(cells):
                for key, value in cell.items():
                    assert np.array_equal(stacked[key][c], value)

    def test_decoupled_weight_decay_shrinks_parameters(self):
        params = {"w": np.array([10.0])}
        opt = Adam(params)
        opt.step(params, {"w": np.array([0.0])}, lr=0.1, weight_decay=0.5)
        assert params["w"][0] == pytest.approx(10.0 * (1 - 0.1 * 0.5))


class TestCheckpoints:
    def test_linear_round_trip(self):
        scorer = LinearScorer.create(3, 4, np.random.default_rng(5))
        clone = scorer_from_dict(scorer_to_dict(scorer))
        for key in scorer.params:
            assert np.array_equal(clone.params[key], scorer.params[key])

    def test_mlp_round_trip_with_config(self):
        scorer = MlpScorer.create(3, 4, 6, np.random.default_rng(6))
        payload = scorer_to_dict(scorer, TrainConfig("atl", hidden_width=6))
        clone = scorer_from_dict(payload)
        assert payload["config"]["loss_kind"] == "atl"
        for key in scorer.params:
            assert np.array_equal(clone.params[key], scorer.params[key])

    def test_mlp_shapes_must_agree(self):
        rng = np.random.default_rng(7)
        good = MlpScorer.create(3, 4, 6, rng).params
        for key, bad in (("w1", np.zeros((5, 4))), ("b1", np.zeros(5)),
                         ("w2", np.zeros((4, 5))), ("b2", np.zeros(3)),
                         ("w2", np.zeros((2, 4, 6)))):
            with pytest.raises(ValueError, match="MLP parameters"):
                MlpScorer(**{**good, key: bad})
        stacked = {key: np.stack([value, value]) for key, value in good.items()}
        assert MlpScorer(**stacked).k == 3
        with pytest.raises(ValueError, match="MLP parameters"):
            MlpScorer(**{**stacked, "b2": np.zeros((3, 4))})

    def test_stacked_checkpoint_rejected(self):
        stack = LinearScorer.stack([LinearScorer(np.zeros((3, 4)), np.zeros(3))] * 2)
        with pytest.raises(ValueError, match="not a cell stack"):
            scorer_from_dict(scorer_to_dict(stack))

    def test_header_must_match_parameters(self):
        good = scorer_to_dict(LinearScorer.create(3, 4, np.random.default_rng(1)))
        cases = (
            ({"k": 99, "dim": 1}, "checkpoint has k=99 but its parameters have k=3"),
            ({"dim": 1}, "checkpoint has dim=1 but its parameters have dim=4"),
            ({"k": True}, "checkpoint key 'k' must be an int, got bool"),
            ({"dim": 4.0}, "checkpoint key 'dim' must be an int, got float"),
        )
        for edit, message in cases:
            with pytest.raises(ValueError, match=message):
                scorer_from_dict({**good, **edit})
        for key in ("k", "dim"):
            without = {name: v for name, v in good.items() if name != key}
            with pytest.raises(ValueError, match=f"checkpoint lacks '{key}'"):
                scorer_from_dict(without)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            scorer_from_dict({"kind": "transformer", "params": {}})
