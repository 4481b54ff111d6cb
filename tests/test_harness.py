"""IO formats, seeding, experiment suites, featurizer, and the CLI."""

import importlib.util
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ncrl_lab.datagen import SyntheticConfig, generate
from ncrl_lab.harness import cli
from ncrl_lab.harness.cli import main
from ncrl_lab.harness.dataio import (CSV_HEADER, ResultRow,
                                     _atomic_text_write, load_dataset,
                                     read_config_file, read_results_csv,
                                     save_dataset, save_json,
                                     write_results_csv)
from ncrl_lab.harness.experiments import (ExperimentConfig, ablation_variants,
                                          make_splits, run_ablation,
                                          run_compare, run_gamma_sweep,
                                          run_no_none_study, summarize)
from ncrl_lab.harness.featurizer import hashing_featurizer
from ncrl_lab.harness.seeds import derive_seed, substream
from ncrl_lab.model import MlpScorer, TrainConfig, scorer_to_dict


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


def traced_peak(fn, *args) -> int:
    """Peak bytes allocated while `fn(*args)` runs, its result included."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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

    # tracemalloc counts numpy buffers too; a whole-file copy of the text on
    # save, or of the values as Python floats on load, exceeds these bounds
    def test_save_streams_lines(self, tmp_path):
        data = generate(tiny_synth(num_labels=10, feature_dim=20,
                                   num_instances=3000))
        path = str(tmp_path / "data.jsonl")
        peak = traced_peak(save_dataset, data, path)
        assert peak < 0.5 * os.path.getsize(path)

    def test_load_streams_lines(self, tmp_path):
        path = str(tmp_path / "data.jsonl")
        save_dataset(generate(tiny_synth(num_labels=10, feature_dim=20,
                                         num_instances=3000)), path)
        assert traced_peak(load_dataset, path) < 2 * os.path.getsize(path)

    def test_write_failing_midway_leaves_no_file(self, tmp_path):
        def lines():
            yield "first line\n"
            raise ValueError("line two cannot be formed")

        target = tmp_path / "data.jsonl"
        with pytest.raises(ValueError, match="line two"):
            _atomic_text_write(str(target), lines())
        assert list(tmp_path.iterdir()) == []

    def test_written_files_follow_the_umask(self, tmp_path):
        # the temp file behind each atomic write is created 0600; the output
        # must get the mode open() would give it, 0o666 less the umask
        data = generate(tiny_synth(num_instances=5))
        row = ResultRow("exp", "bce", 0.0, 3, "test", "micro_f1", 0.5, 1.25)
        writers = {
            "data.jsonl": lambda path: save_dataset(data, path),
            "model.json": lambda path: save_json(scorer_to_dict(
                MlpScorer.create(3, 6, 4, np.random.default_rng(0))), path),
            "report.json": lambda path: save_json({"micro_f1": 0.5}, path),
            "rows.csv": lambda path: write_results_csv([row], path),
        }
        for umask in (0o022, 0o007):
            old = os.umask(umask)
            try:
                for name, write in writers.items():
                    path = tmp_path / f"{umask:o}-{name}"
                    write(str(path))
                    assert path.stat().st_mode & 0o777 == 0o666 & ~umask, name
            finally:
                os.umask(old)

    def test_non_utf8_byte_exits_1_naming_its_line(self, tmp_path, capsys):
        # text mode decodes whole chunks, so the bad line lies far past the
        # first chunk; lines end in \r\n and \r, read as universal newlines
        line = b'{"features": [0.1, 0.2], "labels": [1], "k": 1}'
        path = tmp_path / "data.jsonl"
        path.write_bytes((line + b"\r\n") * 300 + line + b"\r"
                         + b'{"features": [0.1\xff, 0.2], "labels": [], "k": 1}\n'
                         + line + b"\n")
        message = (f"{path}:302: not UTF-8 text (0xff at byte 18 of the line: "
                   "invalid start byte)")
        with pytest.raises(ValueError) as info:
            load_dataset(str(path))
        assert str(info.value) == message
        assert main(["train", "--data", str(path), "--loss", "bce", "--out",
                     str(tmp_path / "m.json")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_atomic_write_needs_directory(self, tmp_path):
        # the error used to name the temp file, not the target
        data = generate(tiny_synth(num_instances=5))
        target = tmp_path / "missing" / "data.jsonl"
        with pytest.raises(OSError, match=f"^{re.escape(str(target))}: "):
            save_dataset(data, str(target))
        assert not target.exists()
        with pytest.raises(OSError, match=f"^{re.escape(str(tmp_path))}: "):
            save_dataset(data, str(tmp_path))
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

    def test_bad_rows_are_located(self, tmp_path):
        # these used to raise bare unpacking and conversion errors, and a
        # byte that is not UTF-8 a bare UnicodeDecodeError with no path
        header = ",".join(CSV_HEADER).encode() + b"\n"
        good = b"exp,bce,0.0,3,test,micro_f1,0.5,1.25\n"
        path = tmp_path / "rows.csv"
        cases = (
            (b"exp,bce,0.0,3,test\n", "3: expected 8 fields, got 5"),
            (b"exp,bce,0.0,3,test,micro_f1,abc,1.25\n",
             "3: value must be a number, got 'abc'"),
            (b"exp,bce,0.0,1.5,test,micro_f1,0.5,1.25\n",
             "3: seed must be an integer or 'all', got '1.5'"),
            (b"exp,bce,0.0,3,te\xffst,micro_f1,0.5,1.25\n",
             "3: not UTF-8 text (0xff at byte 17 of the line: "
             "invalid start byte)"),
        )
        for bad, message in cases:
            path.write_bytes(header + good + bad + good)
            with pytest.raises(ValueError) as info:
                read_results_csv(str(path))
            assert str(info.value) == f"{path}:{message}"


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

    def test_empty_and_repeated_keys_exit_1_with_location(self, tmp_path, capsys):
        # an empty key used to splice in a bare "--" that hid the given
        # flags from argparse; a repeated key silently kept the last value
        data, model = str(tmp_path / "d.jsonl"), str(tmp_path / "m.json")
        cfg = tmp_path / "train.cfg"
        for body, message in (("epochs = 1\n = 5\n", "2: empty key before '='"),
                              ("epochs = 1\nepochs = 2\n",
                               "2: key 'epochs' given twice")):
            cfg.write_text(body)
            rc = main(["train", "--config", str(cfg), "--data", data,
                       "--loss", "bce", "--out", model])
            assert rc == 1
            assert capsys.readouterr().err == f"error: {cfg}:{message}\n"
            assert not (tmp_path / "m.json").exists()

    def test_non_utf8_byte_exits_1_naming_its_line(self, tmp_path, capsys):
        cfg = tmp_path / "train.cfg"
        cfg.write_bytes("epochs = 1\r\n# café\r\n".encode()
                        + b"seed = 1\xe9\nlr = 0.1\n")
        model = tmp_path / "m.json"
        assert main(["train", "--config", str(cfg), "--data",
                     str(tmp_path / "d.jsonl"), "--loss", "bce", "--out",
                     str(model)]) == 1
        assert capsys.readouterr().err == (
            f"error: {cfg}:3: not UTF-8 text (0xe9 at byte 9 of the line: "
            "invalid continuation byte)\n")
        assert not model.exists()


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

    def test_repeated_seed_or_loss_refused(self):
        # repeats used to train one cell twice and summarize it as two
        with pytest.raises(ValueError, match="^seed 3 given twice$"):
            ExperimentConfig("x", tiny_synth(), [tiny_train()],
                             [3, 1, 3]).validate()
        configs = [tiny_train("bce"), tiny_train("ncrl_final", gamma=0.05),
                   tiny_train("ncrl_final", gamma=0.05, epochs=3)]
        with pytest.raises(ValueError,
                           match="^loss ncrl_final:0.05 given twice$"):
            run_compare(ExperimentConfig("x", tiny_synth(), configs, [0]))
        with pytest.raises(ValueError, match="^loss ncrl_final:0.1 given twice$"):
            run_gamma_sweep(ExperimentConfig("x", tiny_synth(), [tiny_train()],
                                             [0]), [0.1, 0.2, 0.1])

    def test_ablation_at_gamma_zero_trains_each_variant_once(self):
        # at gamma 0 the unshifted full loss is the full loss itself
        variants = ablation_variants(tiny_train("ncrl_final", gamma=0.0))
        assert [(v.loss_kind, v.gamma) for v in variants] == [
            ("ncrl_final", 0.0), ("ncrl_noreg", 0.0), ("ncrl_plain", 0.0),
            ("bce", 0.0), ("bce_shifted", 0.0)]


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

    def test_malformed_checkpoint_exits_1_naming_the_key(self, tmp_path, capsys):
        data, model = str(tmp_path / "data.jsonl"), str(tmp_path / "model.json")
        assert main(["gen-data", "--k", "3", "--dim", "5", "--n", "40",
                     "--out", data]) == 0
        mlp = scorer_to_dict(MlpScorer.create(3, 5, 4, np.random.default_rng(0)))
        without_w2 = {**mlp, "params": {k: v for k, v in mlp["params"].items()
                                        if k != "w2"}}
        cases = (
            ([], "checkpoint must be a JSON object, got list"),
            ({"kind": "linear", "params": [1, 2]},
             "checkpoint key 'params' must be an object, got list"),
            (without_w2, "checkpoint params lack 'w2'"),
            ({**mlp, "params": {**mlp["params"], "b1": "abc"}},
             "checkpoint param 'b1' must be a numeric array"),
            ({**mlp, "params": {**mlp["params"], "w1": [[1.0], [1.0, 2.0]]}},
             "checkpoint param 'w1' must be a numeric array"),
            ({"kind": ["mlp"]}, "unknown scorer kind ['mlp']"),
        )
        for payload, message in cases:
            Path(model).write_text(json.dumps(payload))
            for command in ("eval", "sweep"):
                capsys.readouterr()
                assert main([command, "--model", model, "--data", data]) == 1
                assert capsys.readouterr().err == f"error: {model}: {message}\n"
        Path(model).write_text("{")
        assert main(["sweep", "--model", model, "--data", data]) == 1
        assert capsys.readouterr().err.startswith(f"error: {model}: Expecting")

    def test_non_utf8_checkpoint_exits_1_naming_its_line(self, tmp_path, capsys):
        # this used to print the decoder's byte offset with no line
        data, model = str(tmp_path / "data.jsonl"), tmp_path / "model.json"
        assert main(["gen-data", "--k", "3", "--dim", "5", "--n", "40",
                     "--out", data]) == 0
        model.write_bytes(b'{\n  "kind": "linear",\n  "params": "\xff"\n}\n')
        for command in ("eval", "sweep"):
            capsys.readouterr()
            assert main([command, "--model", str(model), "--data", data]) == 1
            assert capsys.readouterr().err == (
                f"error: {model}:3: not UTF-8 text (0xff at byte 14 of the "
                "line: invalid start byte)\n")

    def test_checkpoint_header_must_match_parameters(self, tmp_path, capsys):
        data, model = str(tmp_path / "data.jsonl"), str(tmp_path / "model.json")
        assert main(["gen-data", "--k", "3", "--dim", "5", "--n", "40",
                     "--out", data]) == 0
        assert main(["train", "--data", data, "--loss", "bce", "--epochs",
                     "1", "--out", model]) == 0
        edited = {**json.loads(Path(model).read_text()), "k": 99, "dim": 1}
        Path(model).write_text(json.dumps(edited))
        for command in ("eval", "sweep"):
            capsys.readouterr()
            assert main([command, "--model", model, "--data", data]) == 1
            assert capsys.readouterr().err == (
                f"error: {model}: checkpoint has k=99 but its parameters "
                "have k=3\n")

    def test_non_finite_hyperparameters_exit_1(self, tmp_path, capsys):
        data, model = str(tmp_path / "data.jsonl"), str(tmp_path / "model.json")
        assert main(["gen-data", "--k", "3", "--dim", "5", "--n", "40",
                     "--out", data]) == 0
        for flag, value, message in (("--lr", "nan", "learning_rate"),
                                     ("--lr", "inf", "learning_rate"),
                                     ("--weight-decay", "nan", "weight_decay")):
            capsys.readouterr()
            assert main(["train", "--data", data, "--loss", "bce", "--epochs",
                         "1", flag, value, "--out", model]) == 1
            assert capsys.readouterr().err.startswith(
                f"error: {message} must be finite")
        for value, message in (("nan", "step must be finite"),
                               ("1e308", "non-finite margins")):
            with np.errstate(over="ignore", invalid="ignore"):
                assert main(["consistency", "--trials", "20", "--iters", "50",
                             "--step", value]) == 1
            assert message in capsys.readouterr().err

    def test_grad_check_command(self, capsys):
        assert main(["grad-check", "--loss", "ncrl_final", "--gamma", "0.05",
                     "--k", "3,5", "--trials", "25", "--seed", "1"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] is True
        assert report["max_rel_error"] < 1e-4

    def test_grad_check_label_count_exits_1(self, capsys):
        for k in ("0", "-1"):
            assert main(["grad-check", "--loss", "ncrl_plain", "--k", k,
                         "--trials", "3"]) == 1
            assert capsys.readouterr().err == f"error: k must be >= 1, got {k}\n"

    def test_empty_comma_list_is_usage_error(self, tmp_path, capsys):
        # an empty --k used to run no check and report "pass": true, and an
        # empty --sweep-gamma used to run the six-variant ablation instead
        out = tmp_path / "rows.csv"
        for argv in (["grad-check", "--loss", "ncrl_plain", "--k", ""],
                     ["grad-check", "--loss", "ncrl_plain", "--k", " , "],
                     ["ablate", "--k", "3", "--dim", "5", "--n", "300",
                      "--seeds", "0", "--epochs", "1", "--sweep-gamma", "",
                      "--out", str(out)],
                     ["compare", "--losses", "bce", "--seeds", "",
                      "--out", str(out)],
                     ["compare", "--losses", ",", "--out", str(out)],
                     ["eval", "--model", "m.json", "--data", "d.jsonl",
                      "--rule", "per-label", "--thresholds", ""]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2, argv
            assert "at least one value" in capsys.readouterr().err, argv
        assert not out.exists()

    def test_repeated_list_value_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        for argv, message in (
                (["compare", "--losses", "ncrl_final,ncrl_final",
                  "--seeds", "0,0"], "argument --losses: loss ncrl_final:0.0"),
                (["compare", "--losses", "bce", "--seeds", "0,1,0"],
                 "argument --seeds: seed 0"),
                (["compare", "--losses", "ncrl_final:0.05,bce,ncrl_final:0.050"],
                 "argument --losses: loss ncrl_final:0.05"),
                (["ablate", "--seeds", "2,2"], "argument --seeds: seed 2"),
                (["ablate", "--sweep-gamma", "0.1,0.2,0.10"],
                 "argument --sweep-gamma: gamma 0.1")):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--out", str(out)])
            assert exc.value.code == 2, argv
            assert f"{message} given twice" in capsys.readouterr().err, argv
        assert not out.exists()

    def test_bad_out_path_exits_1_before_the_work(self, tmp_path, capsys,
                                                  monkeypatch):
        # a missing directory or a directory as --out used to fail only after
        # the work, in an error naming a temp file
        data = tmp_path / "data.jsonl"
        save_dataset(generate(tiny_synth(num_instances=40)), str(data))

        def work(*args, **kwargs):
            raise AssertionError("the work ran before --out was checked")

        for name in ("generate", "train", "run_compare"):
            monkeypatch.setattr(cli, name, work)
        for out, reason in ((tmp_path / "missing" / "out", "no directory"),
                            (tmp_path, "is a directory")):
            for argv in (["gen-data", "--k", "3", "--dim", "4", "--n", "40"],
                         ["train", "--data", str(data), "--loss", "bce"],
                         ["compare", "--losses", "bce", "--seeds", "0"]):
                assert main(argv + ["--out", str(out)]) == 1, argv
                err = capsys.readouterr().err
                assert err.startswith(f"error: {out}: {reason}"), err
        assert list(tmp_path.iterdir()) == [data]

    def test_consistency_overflow_prints_one_error_line(self):
        # numpy's overflow warnings used to precede the error line
        proc = subprocess.run(
            [sys.executable, "-m", "ncrl_lab", "consistency", "--trials", "3",
             "--k", "5", "--step", "1e308", "--iters", "3"],
            capture_output=True, text=True)
        assert proc.returncode == 1
        assert proc.stderr == "error: non-finite margins at iteration 1\n"

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

    def test_repeated_config_exits_1_naming_both(self, tmp_path, capsys):
        first, second = tmp_path / "a.cfg", tmp_path / "b.cfg"
        first.write_text("k = 4\n")
        second.write_text("dim = 3\n")
        out = tmp_path / "data.jsonl"
        assert main(["gen-data", "--config", str(first), "--n", "20",
                     f"--config={second}", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(first) in err and str(second) in err
        assert not out.exists()

    def test_config_value_starting_with_minus_stays_a_value(self, tmp_path, capsys):
        # "-1e-05" is no plain negative number to argparse, which took it for
        # a flag when the config entry became two tokens
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("k = 2\ndim = 3\nn = 40\nbias = -1e-05,0.5\n")
        out = str(tmp_path / "data.jsonl")
        assert main(["gen-data", "--config", str(cfg), "--out", out]) == 0
        capsys.readouterr()
        assert load_dataset(out).k == 2

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
