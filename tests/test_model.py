"""Scorers, training loop, optimizer schedule, and gradient checking."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from ncrl_lab import model
from ncrl_lab.datagen import (Dataset, SyntheticConfig, generate, split,
                              strip_none_instances, take)
from ncrl_lab.harness.experiments import (ExperimentConfig, _no_none_cell,
                                          make_splits, run_no_none_study)
from ncrl_lab.harness.seeds import derive_seed
from ncrl_lab.losses import LOSS_KINDS, batch_loss, ncrl_final, stack_rank
from ncrl_lab.metrics import mean_ncre, micro_f1_flags
from ncrl_lab.model import (ADAPTIVE_KINDS, Adam, LinearScorer, MlpScorer,
                            TrainConfig, grad_check,
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
        assert np.array_equal(scorer.forward(np.ones((2, 4))), np.zeros((2, 3)))

    def test_hand_set_one_dim(self):
        scorer = LinearScorer(np.array([[0.5], [-2.0]]), np.array([1.0, 3.0]))
        assert_allclose(scorer.forward(np.array([[2.0]])), [[2.0, -1.0]],
                        rtol=0, atol=0)

    def test_purity(self):
        rng = np.random.default_rng(0)
        scorer = LinearScorer.create(4, 6, rng)
        x = rng.normal(size=(3, 6))
        assert np.array_equal(scorer.forward(x), scorer.forward(x))

    def test_dimension_mismatch(self):
        scorer = LinearScorer(np.zeros((3, 4)), np.zeros(3))
        with pytest.raises(ValueError):
            scorer.forward(np.ones((1, 5)))

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

    @pytest.mark.parametrize("hidden", [0, 5])
    def test_history_keeps_the_best_epochs_dev_threshold(self, hidden):
        # a swept cell's threshold is the coarse sweep of its returned
        # (best-epoch) scorer on dev; an adaptive cell sweeps none
        data = generate(SyntheticConfig(num_labels=4, feature_dim=6,
                                        num_instances=900,
                                        none_fraction_target=0.3, seed=6))
        train_part, dev_part = split(data, 700)
        configs = [TrainConfig(kind, gamma=gamma, epochs=4, batch_size=64,
                               learning_rate=0.05, hidden_width=hidden, seed=s)
                   for s, (kind, gamma) in enumerate(
                       [("bce", 0.0), ("bce_shifted", 0.05), ("pairwise", 0.0),
                        ("atl", 0.0), ("ncrl_final", 0.05)])]
        for config, (scorer, history) in zip(configs, train(train_part, dev_part,
                                                            configs)):
            if config.loss_kind in ADAPTIVE_KINDS:
                assert history.threshold is None
                continue
            t, f1 = sweep_global_threshold(scorer.forward(dev_part.features),
                                           dev_part.labels, COARSE_GRID)
            assert history.threshold == t
            assert history.dev_metric[history.best_epoch] == f1

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


_SHIFTED = ("ncrl_final", "ncrl_noreg", "bce_shifted")
_POOL = generate(SyntheticConfig(num_labels=3, feature_dim=4, num_instances=520,
                                 none_fraction_target=0.3, seed=11))


@st.composite
def cell_sets(draw):
    """(configs, training sets, dev sets, diverging flags), one of each per
    cell: 1-6 cells of any kind, gamma and scorer on 1-4 training sets whose
    sizes the batch size does not divide, and on two dev sets."""
    batch = draw(st.sampled_from((8, 16)))
    sizes = [batch * draw(st.integers(1, 5)) + draw(st.integers(1, batch - 1))
             for _ in range(draw(st.integers(1, 4)))]
    starts = np.cumsum([120] + sizes)
    sets = [take(_POOL, range(lo, hi)) for lo, hi in zip(starts, starts[1:])]
    devs = [take(_POOL, range(0, 70)), take(_POOL, range(70, 120))]
    epochs = draw(st.integers(1, 3))
    configs, data, dev, diverge = [], [], [], []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(LOSS_KINDS))
        gamma = draw(st.sampled_from((0.0, 0.01, 0.2))) if kind in _SHIFTED else 0.0
        hidden = draw(st.sampled_from((0, 3)))
        configs.append(TrainConfig(kind, gamma=gamma, epochs=epochs,
                                   batch_size=batch, learning_rate=0.05,
                                   seed=draw(st.integers(0, 3)),
                                   hidden_width=hidden))
        data.append(draw(st.sampled_from(sets)))
        dev.append(draw(st.sampled_from(devs)))
        diverge.append(hidden == 0 and draw(st.integers(0, 5)) == 0)
    return configs, data, dev, diverge


def _train_cells(configs, data, dev, diverge, cells):
    """`train` on the given cells only, in the given order; a diverging cell
    gets a linear scorer whose scores overflow on a feature above 1.8."""
    scorers = []
    for c in cells:
        weights = None
        if diverge[c]:
            weights = np.full((data[c].k + 1, data[c].dim), 0.1)
            weights[1, 0] = 1e308
        scorers.append(None if weights is None
                       else LinearScorer(weights, np.zeros(data[c].k + 1)))
    with np.errstate(over="ignore", invalid="ignore"):
        results = train([data[c] for c in cells], [dev[c] for c in cells],
                        [configs[c] for c in cells], scorers=scorers)
    return dict(zip(cells, results))


def _outcome(result):
    """A cell's result as comparable values, floats as int64 bits."""
    if result.error is not None:
        return ("error", str(result.error))
    history = result.history
    return ({name: value.view(np.int64).tolist()
             for name, value in result.scorer.params.items()},
            np.array(history.train_loss).view(np.int64).tolist(),
            np.array(history.dev_metric).view(np.int64).tolist(),
            history.best_epoch, history.threshold)


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
            assert result.history.threshold == alone.history.threshold

    @settings(max_examples=40)
    @given(cell_sets(), st.data())
    def test_any_cell_set_trains_alike_in_any_calls(self, case, choices):
        # one call, a random partition into calls and a shuffled order give
        # each cell the same parameters, history and error text
        configs, data, dev, diverge = case
        cells = list(range(len(configs)))
        whole = _train_cells(configs, data, dev, diverge, cells)
        shuffled = _train_cells(configs, data, dev, diverge,
                                choices.draw(st.permutations(cells)))
        groups = choices.draw(st.lists(st.integers(0, 2), min_size=len(cells),
                                       max_size=len(cells)))
        parts = {}
        for group in set(groups):
            parts.update(_train_cells(configs, data, dev, diverge,
                                      [c for c in cells if groups[c] == group]))
        for c in cells:
            expected = _outcome(whole[c])
            assert _outcome(shuffled[c]) == expected, configs[c]
            assert _outcome(parts[c]) == expected, configs[c]

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
            assert result.history.threshold == alone.history.threshold

    def test_loss_divergence_leaves_other_cells_alone(self, monkeypatch):
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

        # one shared training set; then uneven sets, where atl's set, smaller
        # than a batch, gives the first step two batch lengths, and the
        # diverging ncrl_plain cell shares its run of rows with ncrl_final,
        # which trains on another set with full batches
        uneven = [take(train_part, np.arange(100, 400)), train_part,
                  take(train_part, np.arange(40)), train_part]
        calls = []  # (kinds, whether every cell's loss is finite) per call
        kernel = model.batch_loss

        def spy(kinds, Y, F, gammas, workspace=None):
            values, grads = kernel(kinds, Y, F, gammas, workspace)
            calls.append((list(kinds), bool(np.isfinite(values).all())))
            return values, grads

        monkeypatch.setattr(model, "batch_loss", spy)
        for datas in ([train_part] * 4, uneven):
            calls.clear()
            with np.errstate(over="ignore", invalid="ignore"):
                stacked = train(datas, dev_part, configs, scorers=scorers())
            diverging = [kinds for kinds, finite in calls if not finite]
            assert len(diverging) == 1
            assert {"ncrl_plain", "ncrl_final"} <= set(diverging[0])
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

    def test_divergence_on_an_epochs_last_step_records_no_epoch(self):
        # set s has 28 rows, two 16-row batches an epoch; a bias of 1e308
        # gives each of its two rows whose label 1 is negative a finite loss
        # near 1e308, and the batch that holds both an infinite mean; cell
        # seed 3's shuffles first put them together in step 9's short batch,
        # the last of its fifth and final epoch, where the ncrl_final cell
        # on s also ends; the atl and bce cells train on
        data = generate(SyntheticConfig(num_labels=4, feature_dim=6,
                                        num_instances=400,
                                        none_fraction_target=0.3, seed=8))
        labels = data.labels[:28].copy()
        labels[:, :2] = [False, True]
        labels[:2, 1:3] = [False, True]
        s = Dataset(data.features[:28], labels)
        t, u, dev = (take(data, range(lo, hi))
                     for lo, hi in ((28, 128), (128, 168), (200, 400)))
        shared = dict(epochs=5, batch_size=16, learning_rate=0.05)
        cells = [(TrainConfig("ncrl_plain", seed=3, **shared), s),
                 (TrainConfig("ncrl_final", gamma=0.05, seed=1, **shared), s),
                 (TrainConfig("atl", seed=2, **shared), t),
                 (TrainConfig("bce", seed=4, **shared), u)]

        def scorers():
            bias = np.zeros(5)
            bias[1] = 1e308
            return [LinearScorer(np.full((5, 6), 0.1), bias), None, None, None]

        with np.errstate(over="ignore", invalid="ignore"):
            stacked = train([part for _, part in cells], dev,
                            [config for config, _ in cells], scorers=scorers())
            alone = [train(part, dev, [config], scorers=[scorer])[0]
                     for (config, part), scorer in zip(cells, scorers())]
        assert str(stacked[0].error) == "training loss diverged at step 9"
        assert len(stacked[0].history.train_loss) == 4
        assert len(stacked[0].history.dev_metric) == 4
        for result, expected in zip(stacked, alone):
            assert _outcome(result) == _outcome(expected)
            assert result.history.train_loss == expected.history.train_loss
            assert result.history.dev_metric == expected.history.dev_metric
        assert [result.error is None for result in stacked] == [False] + [True] * 3

    def test_mixed_kinds_over_two_sets_reach_the_kernel_sorted(self,
                                                               monkeypatch):
        # kinds alternate across two training sets of unequal size: the
        # trainer sorts the stack by stack_rank, so set a feeds two blocks of
        # rows, and every cell still trains as it does alone
        data = generate(SyntheticConfig(num_labels=4, feature_dim=6,
                                        num_instances=700,
                                        none_fraction_target=0.3, seed=7))
        a, b, dev = (take(data, range(lo, hi))
                     for lo, hi in ((0, 300), (300, 530), (530, 700)))
        shared = dict(epochs=2, batch_size=64, learning_rate=0.05)
        cells = [(TrainConfig("ncrl_final", gamma=0.05, seed=1, **shared), a),
                 (TrainConfig("bce", seed=2, **shared), b),
                 (TrainConfig("bce", seed=3, **shared), a),
                 (TrainConfig("ncrl_plain", seed=4, **shared), b)]
        alone = [train(part, dev, [config])[0] for config, part in cells]
        calls = []
        kernel = model.batch_loss

        def spy(kinds, Y, F, gammas, workspace=None):
            calls.append([stack_rank(*cell) for cell in zip(kinds, gammas)])
            return kernel(kinds, Y, F, gammas, workspace)

        monkeypatch.setattr(model, "batch_loss", spy)
        stacked = train([part for _, part in cells], dev,
                        [config for config, _ in cells])
        assert max(map(len, calls)) == 4
        assert all(ranks == sorted(ranks) for ranks in calls)
        for result, expected in zip(stacked, alone):
            assert _outcome(result) == _outcome(expected)

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
        assert run_no_none_study(config) == expected

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


def recomputing_backward(scorer, x, d_scores, out=None, acts=None):
    """MlpScorer.backward as it was before it reused the forward's hidden
    layer: it ignores `acts` and forms the first layer again from x."""
    out = out or dict.fromkeys(scorer.params)
    w1, b1, w2, _ = scorer.params.values()
    pre = x @ w1.swapaxes(-1, -2) + b1[..., None, :]
    hidden = np.maximum(pre, 0.0)
    d_hidden = (d_scores @ w2) * (pre > 0)
    return {
        "w1": np.matmul(d_hidden.swapaxes(-1, -2), x, out=out["w1"]),
        "b1": d_hidden.sum(axis=-2, out=out["b1"]),
        "w2": np.matmul(d_scores.swapaxes(-1, -2), hidden, out=out["w2"]),
        "b2": d_scores.sum(axis=-2, out=out["b2"]),
    }


class TestMlpStep:
    """A training step's backward reuses its forward's hidden layer."""

    @staticmethod
    def splits():
        data = generate(SyntheticConfig(num_labels=5, feature_dim=7,
                                        num_instances=430,
                                        none_fraction_target=0.3, seed=6))
        return split(data, 300)  # 300 rows: batches of 64 end on one of 44

    def test_a_step_forms_the_first_layer_once(self, monkeypatch):
        calls = dict.fromkeys(("_hidden", "forward", "backward"), 0)

        def counting(name):
            original = getattr(MlpScorer, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return counted

        for name in calls:
            monkeypatch.setattr(MlpScorer, name, counting(name))
        train_part, dev_part = self.splits()
        train(train_part, dev_part,
              [TrainConfig("atl", hidden_width=6, epochs=2, batch_size=64)])
        steps = 2 * math.ceil(len(train_part) / 64)
        assert calls["backward"] == steps
        # every step's forward and each epoch's dev forward, and no backward
        assert calls["forward"] == steps + 2
        assert calls["_hidden"] == calls["forward"]

    @pytest.mark.parametrize("configs", [
        [TrainConfig("atl", hidden_width=6, epochs=3, batch_size=64, seed=1)],
        [TrainConfig("atl", hidden_width=6, epochs=3, batch_size=64, seed=2),
         TrainConfig("ncrl_final", gamma=0.05, hidden_width=6, epochs=3,
                     batch_size=64, seed=3)],
    ])
    def test_training_matches_a_recomputing_backward(self, configs,
                                                     monkeypatch):
        train_part, dev_part = self.splits()
        reused = train(train_part, dev_part, configs)
        monkeypatch.setattr(MlpScorer, "backward", recomputing_backward)
        recomputed = train(train_part, dev_part, configs)
        for (scorer, history), (expected, expected_history) in zip(reused,
                                                                   recomputed):
            for key, value in expected.params.items():
                assert np.array_equal(scorer.params[key], value)
            assert history.train_loss == expected_history.train_loss
            assert history.dev_metric == expected_history.dev_metric
            assert history.best_epoch == expected_history.best_epoch

    def test_backward_with_and_without_acts_matches_reference(self):
        rng = np.random.default_rng(12)
        for scorer in (MlpScorer.create(4, 6, 9, rng),
                       MlpScorer.stack([MlpScorer.create(4, 6, 9, rng)
                                        for _ in range(3)])):
            lead = scorer.params["w1"].shape[:-2]
            x = rng.normal(size=lead + (11, 6))
            d = rng.normal(size=lead + (11, 5))
            expected = recomputing_backward(scorer, x, d)
            acts = {}
            scores = scorer.forward(x, acts=acts)
            for grads in (scorer.backward(x, d),
                          scorer.backward(x, d, acts=acts)):
                for key, value in expected.items():
                    assert np.array_equal(grads[key], value)
            # the dict is the caller's: the scorer keeps nothing of the call
            assert set(vars(scorer)) == {"params"} | (
                {"flat"} if lead else set())
            assert np.array_equal(scores, scorer.forward(x))


class TestStackedDevMetric:
    """A stacked native_dev_metric gives each row what the one-cell rules,
    written out here, give its cell."""

    @staticmethod
    def reference(scorer, dev, kind):
        """(F1, threshold) of one cell; adaptive cells sweep no threshold."""
        scores = scorer.forward(dev.features)
        if kind in ADAPTIVE_KINDS:
            return micro_f1_flags(adaptive_flags(scores), dev.labels), None
        t, f1 = sweep_global_threshold(scores, dev.labels, COARSE_GRID)
        return f1, t

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
        for cell, kind, pick in zip(cells, kinds, expected):
            one = type(cell).stack([cell])
            assert native_dev_metric(one, dev, [kind]) == [pick]
            assert (pick[1] is None) == (kind in ADAPTIVE_KINDS)
        # rows gathered from the stack, as the trainer scores a dev set's
        # rows: mixed rules, global only, adaptive only
        for rows in ([1, 4, 5, 6], [3, 4], [0, 8]):
            got = native_dev_metric(stack.cell(np.array(rows)), dev,
                                    [kinds[row] for row in rows])
            assert got == [expected[row] for row in rows]


def reference_train(config, data, dev, scorer=None):
    """One cell trained alone in plain 2-D numpy, with the schedule, Adam
    with decoupled decay and the strict-`>` best-dev rule written out here;
    dev scores come from TestStackedDevMetric.reference and the batch loss
    from batch_loss, which their own tests pin.

    Returns (params, train losses, dev metrics, best epoch, threshold,
    error text or None), params at the best dev epoch or, for a diverged
    cell, as they started; `train` must give each cell exactly these.
    """
    init_rng, shuffle_rng = map(np.random.default_rng,
                                np.random.SeedSequence(config.seed).spawn(2))
    if scorer is None:
        scorer = (MlpScorer.create(data.k, data.dim, config.hidden_width, init_rng)
                  if config.hidden_width
                  else LinearScorer.create(data.k, data.dim, init_rng))
    start = {key: value.copy() for key, value in scorer.params.items()}
    cell = type(scorer)(*(value.copy() for value in start.values()))
    params = cell.params  # stepped in place, so cell.forward reads them
    first = {key: np.zeros_like(p) for key, p in params.items()}  # Adam moments
    second = {key: np.zeros_like(p) for key, p in params.items()}
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    n, size = len(data), config.batch_size
    steps = math.ceil(n / size)
    total = config.epochs * steps
    warmup = int(config.warmup_fraction * total)
    train_loss, dev_metric, best_epoch, threshold, error = [], [], 0, None, None
    best, best_metric = start, -1.0
    for step in range(total):
        at = step % steps
        if at == 0:
            order, loss_sum = shuffle_rng.permutation(n), 0.0
        idx = order[at * size:(at + 1) * size]
        x, y = data.features[idx], data.labels[idx]
        if config.hidden_width:
            w1, b1, w2, b2 = params.values()
            hidden = np.maximum(x @ w1.T + b1, 0.0)
            scores = hidden @ w2.T + b2
        else:
            scores = x @ params["weights"].T + params["bias"]
        if not np.isfinite(scores).all():
            error = f"training diverged at step {step}"
            break
        value, d = batch_loss(config.loss_kind, y, scores, config.gamma)
        if not np.isfinite(value):
            error = f"training loss diverged at step {step}"
            break
        loss_sum += value * len(x)
        if config.hidden_width:
            d_hidden = (d @ w2) * (hidden > 0)
            grads = {"w1": d_hidden.T @ x, "b1": d_hidden.sum(axis=0),
                     "w2": d.T @ hidden, "b2": d.sum(axis=0)}
        else:
            grads = {"weights": d.T @ x, "bias": d.sum(axis=0)}
        # linear warmup to the peak, then linear decay to zero
        if step < warmup:
            lr = config.learning_rate * (step + 1) / warmup
        else:
            lr = config.learning_rate * (total - step) / (total - warmup)
        c1, c2 = 1 - beta1 ** (step + 1), 1 - beta2 ** (step + 1)
        for key, g in grads.items():
            m, v, p = first[key], second[key], params[key]
            m[...] = beta1 * m + (1 - beta1) * g
            v[...] = beta2 * v + (1 - beta2) * g * g
            p -= lr * (m / c1) / (np.sqrt(v / c2) + eps)
            if config.weight_decay:
                p -= lr * config.weight_decay * p
        if (step + 1) % steps == 0:
            train_loss.append(float(loss_sum / n))
            metric, t = TestStackedDevMetric.reference(cell, dev, config.loss_kind)
            dev_metric.append(metric)
            if metric > best_metric:
                best_metric = metric
                best = {key: p.copy() for key, p in params.items()}
                best_epoch, threshold = len(dev_metric) - 1, t
    return (start if error else best, train_loss, dev_metric, best_epoch,
            threshold, error)


def _bits(params, train_loss, dev_metric, best_epoch, threshold, error):
    """A cell's outcome with every float as its int64 bits."""
    return ({key: np.asarray(p).view(np.int64).tolist() for key, p in params.items()},
            np.array(train_loss, dtype=float).view(np.int64).tolist(),
            np.array(dev_metric, dtype=float).view(np.int64).tolist(),
            best_epoch, threshold, error)


@st.composite
def reference_cases(draw):
    """(configs, training sets, dev sets, scorers) of one stack: 1-7 cells
    over 1-3 training sets of uneven size, and one cell whose 1e308
    score bias gives two rows of its own set a loss near 1e308 each, so it
    diverges on the first step that batches both."""
    k, dim = draw(st.integers(2, 4)), draw(st.integers(2, 6))
    sizes = draw(st.lists(st.integers(5, 80), min_size=1, max_size=3))
    dev_sizes = draw(st.lists(st.integers(10, 40), min_size=1, max_size=2))
    odd = draw(st.integers(8, 40))  # the diverging cell's set
    data = generate(SyntheticConfig(
        num_labels=k, feature_dim=dim, none_fraction_target=0.3,
        num_instances=sum(sizes) + sum(dev_sizes) + odd,
        seed=draw(st.integers(0, 50))))
    *sets, odd_set = split(data, *sizes, *dev_sizes)
    sets, devs = sets[:len(sizes)], sets[len(sizes):]
    labels = odd_set.labels.copy()
    labels[:, :2] = [False, True]
    labels[:2, 1:3] = [False, True]
    sets.append(Dataset(odd_set.features, labels))
    shared = dict(epochs=draw(st.sampled_from([3, 2, 1])),
                  batch_size=draw(st.integers(3, 32)),
                  learning_rate=draw(st.sampled_from([0.01, 0.05, 0.3])),
                  warmup_fraction=draw(st.sampled_from([0.0, 0.1, 0.4])),
                  hidden_width=draw(st.sampled_from([0, 0, 3])),
                  weight_decay=draw(st.sampled_from([0.0, 0.01, 0.2])))
    cells = draw(st.lists(st.tuples(
        st.sampled_from(LOSS_KINDS), st.sampled_from([0.0, 0.01, 0.05, 0.2]),
        st.integers(0, len(sizes) - 1)), min_size=1, max_size=7))
    odd_at = draw(st.integers(0, len(cells)))
    cells.insert(odd_at, (draw(st.sampled_from(LOSS_KINDS)), 0.05, len(sizes)))
    shifted = ("ncrl_final", "ncrl_noreg", "bce_shifted")
    configs = [TrainConfig(kind, gamma=gamma if kind in shifted else 0.0,
                           seed=draw(st.integers(0, 3)), **shared)
               for kind, gamma, _ in cells]
    dev_of = [draw(st.integers(0, len(devs) - 1)) for _ in cells]

    def scorers():
        rng = np.random.default_rng(0)
        scorer = (MlpScorer.create(k, dim, shared["hidden_width"], rng)
                  if shared["hidden_width"] else LinearScorer.create(k, dim, rng))
        list(scorer.params.values())[-1][1] = 1e308
        return [scorer if c == odd_at else None for c in range(len(cells))]

    return (configs, [sets[s] for _, _, s in cells], [devs[d] for d in dev_of],
            scorers)


class TestReferenceTrainer:
    """`train` gives every cell of a stack what reference_train gives it
    alone, bit for bit: parameters, train losses, dev metrics, best epoch,
    threshold and error text."""

    @settings(max_examples=150)
    @given(reference_cases())
    def test_every_cell_matches_the_reference(self, case):
        configs, sets, devs, scorers = case
        with np.errstate(over="ignore", invalid="ignore"):
            stacked = train(sets, devs, configs, scorers=scorers())
            expected = [reference_train(*cell) for cell in zip(
                configs, sets, devs, scorers())]
        for config, result, reference in zip(configs, stacked, expected):
            history = result.history
            assert _bits(result.scorer.params, history.train_loss,
                         history.dev_metric, history.best_epoch,
                         history.threshold,
                         None if result.error is None else str(result.error)
                         ) == _bits(*reference), config


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
        payload = scorer_to_dict(scorer, TrainConfig("bce"), 0.3)
        assert payload["threshold"] == 0.3
        clone = scorer_from_dict(payload)
        for key in scorer.params:
            assert np.array_equal(clone.params[key], scorer.params[key])

    def test_mlp_round_trip_with_config(self):
        scorer = MlpScorer.create(3, 4, 6, np.random.default_rng(6))
        payload = scorer_to_dict(scorer, TrainConfig("atl", hidden_width=6), None)
        clone = scorer_from_dict(payload)
        assert payload["config"]["loss_kind"] == "atl"
        assert payload["threshold"] is None
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
        # a stack is built by MlpScorer.stack; the constructor takes one scorer
        stacked = {key: np.stack([value, value]) for key, value in good.items()}
        with pytest.raises(ValueError, match="MLP parameters"):
            MlpScorer(**stacked)
        assert MlpScorer.stack([MlpScorer(**good)] * 2).k == 3

    def test_stacked_checkpoint_rejected(self):
        stack = LinearScorer.stack([LinearScorer(np.zeros((3, 4)), np.zeros(3))] * 2)
        with pytest.raises(ValueError, match=r"linear parameters must be "
                           r"weights \(K\+1, d\) and bias \(K\+1,\); got "
                           r"\(2, 3, 4\) and \(2, 3\)"):
            scorer_from_dict(scorer_to_dict(stack, TrainConfig("bce"), None))

    def test_header_must_match_parameters(self):
        good = scorer_to_dict(LinearScorer.create(3, 4, np.random.default_rng(1)),
                              TrainConfig("bce"), 0.4)
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

    def test_threshold_must_be_null_or_a_probability(self):
        # the threshold is the cell's prediction rule; a checkpoint written
        # before it was saved lacks the key and still loads
        good = scorer_to_dict(LinearScorer.create(3, 4, np.random.default_rng(1)),
                              TrainConfig("bce"), 0.4)
        for value in (0.4, 0.01, 0.99):
            scorer_from_dict({**good, "threshold": value})
        scorer_from_dict({key: v for key, v in good.items() if key != "threshold"})
        for value in (True, False, "0.3", 1.5, 1.0, 0.0, -0.2, 1, 0,
                      float("nan"), [0.5], {"t": 0.5}):
            with pytest.raises(ValueError, match="checkpoint key 'threshold' "
                               r"must be null or a number in \(0, 1\), got "):
                scorer_from_dict({**good, "threshold": value})

    def test_threshold_must_be_the_rule_of_the_configs_loss_kind(self):
        # an edited bce checkpoint with a null threshold used to evaluate
        # adaptively, and an ncrl_final one with a number globally
        scorer = LinearScorer.create(3, 4, np.random.default_rng(1))
        for kind in LOSS_KINDS:
            adaptive = kind in ADAPTIVE_KINDS
            good = scorer_to_dict(scorer, TrainConfig(kind),
                                  None if adaptive else 0.4)
            scorer_from_dict(good)
            message = ("checkpoint key 'threshold' must be "
                       + (f"null for its loss_kind '{kind}', got 0.5" if adaptive
                          else f"a number for its loss_kind '{kind}', got null"))
            with pytest.raises(ValueError, match=re.escape(message)):
                scorer_from_dict({**good, "threshold": 0.5 if adaptive else None})
            # a checkpoint without the key, or a config echo that names no
            # known kind, is not checked against it
            scorer_from_dict({key: v for key, v in good.items()
                              if key != "threshold"})
            for config in ({}, {"loss_kind": "lasso"}, {"loss_kind": [kind]},
                           [kind], None):
                for value in (None, 0.5):
                    scorer_from_dict({**good, "config": config,
                                      "threshold": value})

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            scorer_from_dict({"kind": "transformer", "params": {}})
