"""IO formats, seeding, experiment suites, featurizer, and the CLI."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ncrl_lab.datagen import SyntheticConfig, generate
from ncrl_lab.harness.cli import main
from ncrl_lab.harness.dataio import (CSV_HEADER, ResultRow, load_dataset,
                                     read_config_file, read_results_csv,
                                     save_dataset, write_results_csv)
from ncrl_lab.harness.experiments import (ExperimentConfig, ablation_variants,
                                          make_splits, run_ablation,
                                          run_compare, run_no_none_study,
                                          summarize)
from ncrl_lab.harness.featurizer import hashing_featurizer
from ncrl_lab.harness.seeds import derive_seed, substream
from ncrl_lab.model import TrainConfig


def tiny_synth(**overrides):
    base = dict(num_labels=3, feature_dim=6, num_instances=400,
                none_fraction_target=0.3, seed=0)
    base.update(overrides)
    return SyntheticConfig(**base)


def tiny_train(kind="ncrl_plain", **overrides):
    base = dict(gamma=0.0, epochs=2, batch_size=64, learning_rate=0.05)
    base.update(overrides)
    return TrainConfig(kind, **base)


def rows_without_seconds(rows):
    return [(r.experiment, r.loss, r.gamma, r.seed, r.split, r.metric, r.value)
            for r in rows]


class TestSeeds:
    def test_derive_seed_is_stable(self):
        assert derive_seed(7, "data") == derive_seed(7, "data")
        assert derive_seed(7, "data") != derive_seed(8, "data")
        assert derive_seed(7, "data") != derive_seed(7, "noise")
        assert derive_seed(7, "train", "bce", 0.05) != derive_seed(7, "train",
                                                                   "bce", 0.0)

    def test_substream_reproducible(self):
        a = substream(3, "x").normal(size=4)
        b = substream(3, "x").normal(size=4)
        assert np.array_equal(a, b)


class TestDatasetIo:
    def test_round_trip(self, tmp_path):
        data = generate(tiny_synth(num_instances=50))
        path = tmp_path / "data.jsonl"
        save_dataset(data, str(path))
        assert load_dataset(str(path)) == data

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match="no instances"):
            load_dataset(str(path))

    def test_malformed_json_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"features": [1.0], "labels": [], "k": 2}\n{oops\n')
        with pytest.raises(ValueError, match=":2:"):
            load_dataset(str(path))

    def test_none_flag_contradiction(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"features": [1.0], "labels": [], "k": 2, "none": false}\n')
        with pytest.raises(ValueError, match="y0-consistency"):
            load_dataset(str(path))

    def test_label_index_zero_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"features": [1.0], "labels": [0], "k": 2}\n')
        with pytest.raises(ValueError, match="y0-consistency"):
            load_dataset(str(path))

    def test_json_booleans_rejected(self, tmp_path):
        # bool is an int subclass in Python; true must not pass as index 1
        path = tmp_path / "bad.jsonl"
        path.write_text('{"features": [0.1, 0.2], "labels": [true], "k": 1}\n')
        with pytest.raises(ValueError, match=":1: labels must be"):
            load_dataset(str(path))
        path.write_text('{"features": [0.1, 0.2], "labels": [], "k": true}\n')
        with pytest.raises(ValueError, match=":1: k must be"):
            load_dataset(str(path))

    def test_feature_values_checked_per_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = '{"features": [0.1, 0.2], "labels": [1], "k": 1}\n'
        for bad in ("[true, 0.2]", '["a", 0.2]', "[null, 0.2]", "[[0.1], 0.2]",
                    "[NaN, 0.2]", "[Infinity, 0.2]", "[1" + "0" * 400 + ", 0.2]"):
            path.write_text(good + '{"features": %s, "labels": [], "k": 1}\n' % bad)
            with pytest.raises(ValueError, match=":2: features must be"):
                load_dataset(str(path))
        path.write_text('{"features": [1, -2], "labels": [1], "k": 1}\n')
        assert load_dataset(str(path)).features.tolist() == [[1.0, -2.0]]

    def test_none_flag_must_be_boolean(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        for flag in ('"false"', "0", "null"):
            path.write_text('{"features": [1.0], "labels": [1], "k": 2, '
                            '"none": %s}\n' % flag)
            with pytest.raises(ValueError, match=':1: "none" must be a JSON boolean'):
                load_dataset(str(path))
        path.write_text('{"features": [1.0], "labels": [1], "k": 2, "none": false}\n')
        assert load_dataset(str(path)).labels.tolist() == [[0, 1, 0]]

    def test_bad_feature_exits_1_with_location(self, tmp_path, capsys):
        data = tmp_path / "data.jsonl"
        data.write_text('{"features": [0.1, 0.2], "labels": [1], "k": 1}\n'
                        '{"features": [true, 0.2], "labels": [], "k": 1}\n')
        assert main(["train", "--data", str(data), "--loss", "bce", "--out",
                     str(tmp_path / "m.json")]) == 1
        assert f"{data}:2: features must be numbers" in capsys.readouterr().err

    def test_inconsistent_dims(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"features": [1.0], "labels": [1], "k": 2}\n'
                        '{"features": [1.0], "labels": [1], "k": 3}\n')
        with pytest.raises(ValueError, match="k changed"):
            load_dataset(str(path))
        path.write_text('{"features": [1.0], "labels": [1], "k": 2}\n'
                        '{"features": [1.0, 2.0], "labels": [1], "k": 2}\n')
        with pytest.raises(ValueError, match="feature length"):
            load_dataset(str(path))

    def test_duplicate_labels(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"features": [1.0], "labels": [1, 1], "k": 2}\n')
        with pytest.raises(ValueError, match="duplicate"):
            load_dataset(str(path))

    def test_atomic_write_needs_directory(self, tmp_path):
        data = generate(tiny_synth(num_instances=5))
        target = tmp_path / "missing" / "data.jsonl"
        with pytest.raises(OSError):
            save_dataset(data, str(target))
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []  # no stray temp files either


class TestResultsCsv:
    def test_round_trip_and_header(self, tmp_path):
        rows = [ResultRow("exp", "bce", 0.0, 3, "test", "micro_f1", 0.5, 1.25),
                ResultRow("exp", "bce", 0.0, "all", "test", "micro_f1_mean",
                          0.5, 2.5)]
        path = tmp_path / "rows.csv"
        write_results_csv(rows, str(path))
        text = path.read_text()
        assert text.splitlines()[0] == ",".join(CSV_HEADER)
        assert read_results_csv(str(path)) == rows

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(ValueError, match="header"):
            read_results_csv(str(path))


class TestConfigFile:
    def test_parsing(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\nk = 4\n\nnone_fraction = 0.4  # inline\n")
        assert read_config_file(str(path)) == {"k": "4",
                                               "none_fraction": "0.4"}

    def test_missing_equals(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("k 4\n")
        with pytest.raises(ValueError, match="key = value"):
            read_config_file(str(path))


class TestExperimentSuites:
    def test_compare_row_structure(self):
        config = ExperimentConfig(
            "compare", tiny_synth(),
            [tiny_train("ncrl_plain"), tiny_train("bce"),
             tiny_train("ncrl_final", gamma=0.05)],
            seeds=[0, 1, 2, 3, 4])
        rows = run_compare(config)
        per_seed = [r for r in rows if r.seed != "all"]
        summary = [r for r in rows if r.seed == "all"]
        # 3 losses x 5 seeds x 6 metrics, then mean and std rows per variant
        assert len(per_seed) == 3 * 5 * 6
        assert len(summary) == 3 * 6 * 2
        micro_means = [r for r in summary if r.metric == "micro_f1_mean"]
        assert len(micro_means) == 3

    def test_compare_deterministic_modulo_seconds(self):
        config = ExperimentConfig(
            "compare", tiny_synth(), [tiny_train("bce")], seeds=[0, 1])
        first = rows_without_seconds(run_compare(config))
        second = rows_without_seconds(run_compare(config))
        assert first == second

    def test_summary_statistics(self):
        rows = [ResultRow("e", "bce", 0.0, s, "test", "micro_f1", v, 0.0)
                for s, v in enumerate([0.2, 0.4, 0.6])]
        out = summarize(rows, "e")
        mean = next(r for r in out if r.metric == "micro_f1_mean")
        std = next(r for r in out if r.metric == "micro_f1_std")
        assert mean.value == pytest.approx(0.4)
        assert std.value == pytest.approx(np.std([0.2, 0.4, 0.6], ddof=1))
        assert mean.seed == "all"

    def test_noise_lands_on_train_only(self):
        noisy = tiny_synth(noise_false_negative_rate=0.5, num_instances=600)
        clean = tiny_synth(num_instances=600)
        train_n, dev_n, test_n = make_splits(noisy, seed=4)
        train_c, dev_c, test_c = make_splits(clean, seed=4)
        assert dev_n == dev_c and test_n == test_c
        assert not np.array_equal(train_n.labels, train_c.labels)
        assert np.array_equal(train_n.features, train_c.features)

    def test_divergent_cell_becomes_error_row(self):
        config = ExperimentConfig(
            "compare", tiny_synth(),
            [tiny_train("ncrl_plain", learning_rate=1e160, hidden_width=4,
                        batch_size=512)],
            seeds=[0])
        with np.errstate(over="ignore"):
            rows = run_compare(config)
        errors = [r for r in rows if r.metric == "error"]
        assert len(errors) == 1 and errors[0].value == 1.0
        assert not any(r.seed == "all" for r in rows)

    def test_ablation_covers_six_variants(self):
        variants = ablation_variants(tiny_train("ncrl_final", gamma=0.05))
        assert [(v.loss_kind, v.gamma) for v in variants] == [
            ("ncrl_final", 0.05), ("ncrl_noreg", 0.05), ("ncrl_final", 0.0),
            ("ncrl_plain", 0.0), ("bce", 0.0), ("bce_shifted", 0.05)]
        config = ExperimentConfig(
            "ablation", tiny_synth(),
            [tiny_train("ncrl_final", gamma=0.05)], seeds=[0])
        rows = run_ablation(config)
        cells = {(r.loss, r.gamma) for r in rows if r.seed != "all"}
        assert len(cells) == 6

    def test_no_none_study_row_count(self):
        config = ExperimentConfig(
            "no_none", tiny_synth(none_fraction_target=0.4),
            [tiny_train("ncrl_plain")], seeds=[0, 1, 2])
        rows = run_no_none_study(config)
        assert len(rows) == 4 * 3
        stripped = [r for r in rows if r.experiment == "no_none_stripped"]
        assert {r.metric for r in stripped} == {"micro_f1_adaptive",
                                                "micro_f1_swept"}

    def test_no_none_divergent_cell_becomes_error_row(self):
        config = ExperimentConfig(
            "no_none", tiny_synth(num_instances=600),
            [tiny_train("ncrl_plain", learning_rate=1e160, hidden_width=4,
                        epochs=3)], seeds=[0])
        with np.errstate(over="ignore", invalid="ignore"):
            rows = run_no_none_study(config)
        assert [(r.experiment, r.split, r.metric, r.value) for r in rows] == [
            ("no_none_full", "train", "error", 1.0),
            ("no_none_stripped", "train", "error", 1.0)]

    def test_stacked_cells_keep_row_order_and_seconds(self):
        # the two gamma variants share a stack; each cell's seconds carries an
        # even share of the stack's training time
        config = ExperimentConfig(
            "compare", tiny_synth(),
            [tiny_train("ncrl_final", gamma=0.05), tiny_train("atl"),
             tiny_train("ncrl_final", gamma=0.0)], seeds=[3])
        rows = [r for r in run_compare(config) if r.seed != "all"]
        assert [(r.loss, r.gamma) for r in rows[::6]] == [
            ("ncrl_final", 0.05), ("atl", 0.0), ("ncrl_final", 0.0)]
        assert all(r.seconds > 0 for r in rows)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig("x", tiny_synth(), [tiny_train()], []).validate()
        with pytest.raises(ValueError):
            ExperimentConfig("x", tiny_synth(), [], [0]).validate()


class TestFeaturizer:
    def test_empty_text_is_zero(self):
        out = hashing_featurizer(["", "words here"], dim=32)
        assert np.array_equal(out[0], np.zeros(32))
        assert np.linalg.norm(out[1]) == pytest.approx(1.0)

    def test_same_text_same_row(self):
        out = hashing_featurizer(["alpha beta gamma"] * 2, dim=64, seed=3)
        assert np.array_equal(out[0], out[1])

    def test_disjoint_vocabularies_nearly_orthogonal(self):
        words_a = " ".join(f"left{i}" for i in range(40))
        words_b = " ".join(f"right{i}" for i in range(40))
        out = hashing_featurizer([words_a, words_b], dim=4096, seed=1)
        assert abs(float(out[0] @ out[1])) < 0.1

    def test_dim_validated(self):
        with pytest.raises(ValueError):
            hashing_featurizer(["text"], dim=0)


class TestCli:
    def test_gen_train_eval_sweep(self, tmp_path, capsys):
        data = str(tmp_path / "data.jsonl")
        model = str(tmp_path / "model.json")
        assert main(["gen-data", "--k", "3", "--dim", "5", "--n", "80",
                     "--seed", "1", "--out", data]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["num_instances"] == 80

        assert main(["train", "--data", data, "--loss", "ncrl_final",
                     "--gamma", "0.05", "--epochs", "2", "--batch-size", "32",
                     "--lr", "0.05", "--out", model]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert "final_train_loss" in summary

        assert main(["eval", "--model", model, "--data", data,
                     "--rule", "adaptive"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert 0.0 <= stats["micro_f1"] <= 1.0

        assert main(["eval", "--model", model, "--data", data, "--rule",
                     "global", "--threshold", "0.4"]) == 0
        capsys.readouterr()
        assert main(["sweep", "--model", model, "--data", data,
                     "--grid", "coarse"]) == 0
        swept = json.loads(capsys.readouterr().out)
        assert swept["threshold"] in [round(0.1 * i, 1) for i in range(1, 10)]

        assert main(["eval", "--model", model, "--data", data, "--rule",
                     "per-label", "--thresholds", "0.5,0.5"]) == 1
        assert "one threshold per label, 3 total" in capsys.readouterr().err

    def test_checkpoint_must_match_data(self, tmp_path, capsys):
        data, other = str(tmp_path / "data.jsonl"), str(tmp_path / "other.jsonl")
        model = str(tmp_path / "model.json")
        assert main(["gen-data", "--k", "3", "--dim", "5", "--n", "80",
                     "--out", data]) == 0
        assert main(["gen-data", "--k", "4", "--dim", "6", "--n", "80",
                     "--out", other]) == 0
        assert main(["train", "--data", data, "--loss", "bce", "--epochs",
                     "1", "--out", model]) == 0
        capsys.readouterr()
        for argv in (["eval", "--model", model, "--data", other],
                     ["sweep", "--model", model, "--data", other]):
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert f"checkpoint {model} has k=3, dim=5" in err
            assert f"data {other} has k=4, dim=6" in err

    def test_grad_check_command(self, capsys):
        assert main(["grad-check", "--loss", "ncrl_final", "--gamma", "0.05",
                     "--k", "3,5", "--trials", "25", "--seed", "1"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] is True
        assert report["max_rel_error"] < 1e-4

    def test_consistency_command(self, capsys):
        assert main(["consistency", "--trials", "30", "--k", "3",
                     "--seed", "7"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["sign_agreement_rate"] == 1.0

    def test_compare_command(self, tmp_path, capsys):
        out = str(tmp_path / "rows.csv")
        assert main(["compare", "--k", "3", "--dim", "5", "--n", "300",
                     "--losses", "ncrl_plain,bce", "--seeds", "0,1",
                     "--epochs", "2", "--batch-size", "64", "--lr", "0.05",
                     "--out", out]) == 0
        capsys.readouterr()
        rows = read_results_csv(out)
        assert len([r for r in rows if r.seed != "all"]) == 2 * 2 * 6

    def test_ablate_gamma_sweep(self, tmp_path, capsys):
        out = str(tmp_path / "sweep.csv")
        assert main(["ablate", "--k", "3", "--dim", "5", "--n", "300",
                     "--seeds", "0", "--epochs", "2", "--batch-size", "64",
                     "--lr", "0.05", "--sweep-gamma", "0.0,0.05",
                     "--out", out]) == 0
        capsys.readouterr()
        rows = read_results_csv(out)
        assert {r.gamma for r in rows} == {0.0, 0.05}
        assert {r.loss for r in rows} == {"ncrl_final"}

    def test_config_file_supplies_flags(self, tmp_path, capsys):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("k = 4\ndim = 6\nn = 50\nseed = 2\n")
        out = str(tmp_path / "data.jsonl")
        assert main(["gen-data", "--config", str(cfg), "--out", out]) == 0
        capsys.readouterr()
        assert load_dataset(out).k == 4

    def test_config_numbers_stay_values(self, tmp_path, capsys):
        # "0" and "1" are boolean words only for store_true flags: gamma = 0
        # must train at 0, and epochs = 1 must not become a bare --epochs
        cfg = tmp_path / "ablate.cfg"
        cfg.write_text("k = 3\ndim = 5\nn = 300\nseeds = 0\nepochs = 1\n"
                       "batch_size = 64\nlr = 0.05\ngamma = 0\n")
        out = str(tmp_path / "rows.csv")
        assert main(["ablate", "--config", str(cfg), "--out", out]) == 0
        capsys.readouterr()
        assert {r.gamma for r in read_results_csv(out)} == {0.0}
        cfg.write_text("grid = fine\nper_label = yes\n")
        data, model = str(tmp_path / "data.jsonl"), str(tmp_path / "m.json")
        assert main(["gen-data", "--k", "3", "--dim", "5", "--n", "80",
                     "--out", data]) == 0
        assert main(["train", "--data", data, "--loss", "bce", "--epochs",
                     "1", "--out", model]) == 0
        capsys.readouterr()
        assert main(["sweep", "--config", str(cfg), "--model", model,
                     "--data", data]) == 0
        assert len(json.loads(capsys.readouterr().out)["thresholds"]) == 3

    def test_runtime_failure_leaves_no_file(self, tmp_path, capsys):
        out = tmp_path / "data.jsonl"
        # none target 1.0 conflicts with finite biases: usage is fine but the
        # run fails, so nothing may be written
        rc = main(["gen-data", "--k", "2", "--dim", "4", "--n", "10",
                   "--none-fraction", "1.0", "--out", str(out)])
        assert rc == 1
        assert not out.exists()
        assert "error" in capsys.readouterr().err

    def test_unknown_subcommand_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ncrl_lab", "frobnicate"],
            capture_output=True, text=True)
        assert proc.returncode == 2
        assert "usage" in proc.stderr.lower()

    def test_missing_required_flag_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ncrl_lab", "gen-data"],
            capture_output=True, text=True)
        assert proc.returncode == 2


class TestBenchmarkTracePoints:
    def test_trace_points_exist(self):
        # perfbench/tracing.py patches each traced name through its owner's
        # __dict__; a renamed or moved name breaks the traced benchmark run
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        assert tracing.TRACE_POINTS
        for owner, attr, _span in tracing.TRACE_POINTS:
            assert attr in owner.__dict__, (owner, attr)
            assert callable(owner.__dict__[attr]), (owner, attr)
