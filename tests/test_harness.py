"""IO formats, seeding, experiment suites, and the CLI."""

import argparse
import csv
import importlib.util
import json
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ncrl_lab.datagen import (Dataset, SyntheticConfig, generate,
                              inject_false_negatives, inject_symmetric_noise,
                              strip_none_instances)
from ncrl_lab.harness import cli, dataio
from ncrl_lab.harness.cli import main
from ncrl_lab.harness.dataio import (CSV_HEADER, ResultRow,
                                     _atomic_text_write, load_dataset,
                                     load_json, read_config_file,
                                     save_dataset, save_json,
                                     write_results_csv)
from ncrl_lab.harness.experiments import (METRIC_NAMES, ExperimentConfig,
                                          ablation_variants, make_splits,
                                          run_ablation, run_cell, run_compare,
                                          run_gamma_sweep, run_no_none_study,
                                          summarize)
from ncrl_lab.harness.seeds import derive_seed
from ncrl_lab.metrics import evaluate
from ncrl_lab.model import (ADAPTIVE_KINDS, MlpScorer, TrainConfig,
                            scorer_to_dict, train)
from ncrl_lab.prediction import (COARSE_GRID, adaptive_flags, global_flags,
                                 sweep_global_threshold)


def tiny_synth(**overrides):
    base = dict(num_labels=3, feature_dim=6, num_instances=400,
                none_fraction_target=0.3, seed=0)
    base.update(overrides)
    return SyntheticConfig(**base)


def tiny_train(kind="ncrl_plain", **overrides):
    base = dict(gamma=0.0, epochs=2, batch_size=64, learning_rate=0.05)
    base.update(overrides)
    return TrainConfig(kind, **base)


def read_results_csv(path):
    """The ResultRows of a results CSV whose header is CSV_HEADER."""
    with open(path, newline="", encoding="utf-8") as handle:
        header, *records = csv.reader(handle)
    assert tuple(header) == CSV_HEADER
    return [ResultRow(e, loss, float(g), s if s == "all" else int(s), split, m,
                      float(v))
            for e, loss, g, s, split, m, v in records]


def load_error(path) -> str:
    """The message of the error loading `path` raises."""
    with pytest.raises(ValueError) as info:
        load_dataset(str(path))
    return str(info.value)


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


LINE = '{"features": [0.5, -1.25, 3.0], "labels": [1], "k": 2}'


class TestDatasetIo:
    def test_round_trip(self, tmp_path):
        data = generate(tiny_synth(num_instances=50))
        path = tmp_path / "data.jsonl"
        save_dataset(data, str(path))
        assert load_dataset(str(path)) == data

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        for text in ("", " \n\n\t\n\r\n" * 10):
            path.write_text(text)
            assert load_error(path) == f"{path}: no instances"

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
        # refused at the first line that changes, though the lines after it
        # keep the change
        path = tmp_path / "bad.jsonl"
        for changed, message in (
                ('{"features": [1.0, 2.0, 3.0], "labels": [], "k": 3}',
                 "k changed from 2 to 3"),
                ('{"features": [1.0, 2.0], "labels": [], "k": 2}',
                 "feature length 2 != 3")):
            path.write_text(f"{LINE}\n" * 3 + "\n" + f"{changed}\n" * 2)
            assert load_error(path) == f"{path}:5: {message}"

    def test_first_refused_line_wins(self, tmp_path):
        # the parse stops at a refused line, whatever the lines after it hold
        path = tmp_path / "bad.jsonl"
        for later in ('{"features": [1.0], "labels": [], "k": 2}',
                      LINE.replace("0.5", "0.\udcff5"),
                      LINE.replace("3.0", "NaN")):
            text = f"{LINE}\n" * 3 + "{oops\n" + f"{later}\n" + f"{LINE}\n" * 3
            path.write_bytes(text.encode("utf-8", "surrogateescape"))
            assert load_error(path) == (
                f"{path}:4: malformed JSON (Expecting property name enclosed "
                "in double quotes)")

    def test_lines_count_blanks_and_every_ending(self, tmp_path):
        # universal newlines: \r\n and \r end a line as \n does
        path = tmp_path / "data.jsonl"
        head = (f"{LINE}\r\n" + "\r\n" + " \t\r" + LINE.replace("0.5", "1.5")
                + "\r" + "\r" + LINE.replace("0.5", "2.5") + "\n" + "\n")
        path.write_text(head, newline="")
        assert load_dataset(str(path)).features.tolist() == [
            [0.5, -1.25, 3.0], [1.5, -1.25, 3.0], [2.5, -1.25, 3.0]]
        for bad, message in (
                ('{"features": [1.0, 2.0, 3.0], "labels": [3], "k": 2}',
                 "y0-consistency violated; label indices must lie in 1..2 "
                 "(the none class is derived, never listed)"),
                ("[1, 2]", "expected a JSON object"),
                (LINE.replace("0.5", "0.\udcff5"), "not UTF-8 text (0xff at "
                 "byte 17 of the line: invalid start byte)"),
                (LINE.replace("3.0", "NaN"), "features must be finite numbers")):
            path.write_bytes((head + bad + "\r\n" + LINE).encode(
                "utf-8", "surrogateescape"))
            assert load_error(path) == f"{path}:8: {message}"

    def test_load_forks_nothing(self, tmp_path, monkeypatch):
        # a load is parsed here, in one pass
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("a load forked"))
        path = tmp_path / "data.jsonl"
        path.write_text("".join(
            '{"features": [%d.5, -1.0], "labels": [%s], "k": 2}\n'
            % (i, "2" if i % 3 else "") for i in range(30)))
        assert load_dataset(str(path)) == Dataset(
            np.array([[i + 0.5, -1.0] for i in range(30)]),
            np.array([[0, 0, 1] if i % 3 else [1, 0, 0] for i in range(30)]))

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

    def test_bad_byte_is_located_without_a_rescan(self, tmp_path):
        # the line of a bad byte used to be found by reading the whole file
        # again as a list of lines, which held about 2.4 times the file
        path = tmp_path / "data.jsonl"
        save_dataset(generate(tiny_synth(num_labels=10, feature_dim=20,
                                         num_instances=3000)), str(path))
        lines = path.read_bytes().splitlines(True)
        lines[-2] = lines[-2].replace(b"[", b"[\xff", 1)
        path.write_bytes(b"".join(lines))
        del lines

        def load():
            with pytest.raises(ValueError) as info:
                load_dataset(str(path))
            assert str(info.value) == (
                f"{path}:2999: not UTF-8 text (0xff at byte 15 of the line: "
                "invalid start byte)")

        assert traced_peak(load) < os.path.getsize(path)

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
        row = ResultRow("exp", "bce", 0.0, 3, "test", "micro_f1", 0.5)
        writers = {
            "data.jsonl": lambda path: save_dataset(data, path),
            "model.json": lambda path: save_json(scorer_to_dict(
                MlpScorer.create(3, 6, 4, np.random.default_rng(0)),
                TrainConfig("atl", hidden_width=4), None), path),
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
        # the bad line lies far past the first 8 KiB of the file and is
        # located where it is read; lines end in \r\n and \r, read as
        # universal newlines
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
        rows = [ResultRow("exp", "bce", 0.0, 3, "test", "micro_f1", 0.5),
                ResultRow("exp", "bce", 0.0, "all", "test", "micro_f1_mean",
                          0.5)]
        path = tmp_path / "rows.csv"
        write_results_csv(rows, str(path))
        text = path.read_text()
        assert text.splitlines()[0] == ",".join(CSV_HEADER)
        assert read_results_csv(str(path)) == rows


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

    def test_refused_line_before_a_bad_byte_is_reported(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_bytes(b"epochs = 1\nlr 0.1\nseed = 1\xe9\n")
        with pytest.raises(ValueError) as info:
            read_config_file(str(path))
        assert str(info.value) == f"{path}:2: expected key = value"


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

    def test_nothing_writes_through_a_datasets_arrays(self, tmp_path,
                                                      monkeypatch, capsys):
        # split parts are views of one dataset's arrays, so a write through
        # one part would change the others: on read-only views every step
        # must run and give what it gives on writable arrays
        def read_only(data):
            features, labels = data.features.view(), data.labels.view()
            features.flags.writeable = labels.flags.writeable = False
            return Dataset(features, labels, data.provenance)

        synth = tiny_synth(num_labels=4)
        configs = [tiny_train("ncrl_final", gamma=0.05, seed=1),
                   tiny_train("ncrl_plain", seed=2)]
        source = str(tmp_path / "source.jsonl")
        save_dataset(generate(synth), source)

        def outputs(prepare, name):
            splits = [prepare(part) for part in make_splits(synth, 0)]
            train_part = splits[0]
            results = train(train_part, splits[1], configs)
            checkpoints = [scorer_to_dict(result.scorer, config,
                                          result.history.threshold)
                           for config, result in zip(configs, results)]
            rows = [row for config, result in zip(configs, results)
                    for row in run_cell("frozen", config, 0, splits, result)]
            derived = [inject_false_negatives(train_part, 0.3, seed=5),
                       inject_symmetric_noise(train_part, 0.1, seed=6),
                       strip_none_instances(train_part)]
            saved = tmp_path / f"{name}.jsonl"
            save_dataset(train_part, str(saved))
            monkeypatch.setattr(cli, "load_dataset",
                                lambda path: prepare(load_dataset(path)))
            model = tmp_path / f"{name}.json"
            capsys.readouterr()
            assert main(["train", "--data", source, "--loss", "ncrl_final",
                         "--epochs", "2", "--seed", "1",
                         "--out", str(model)]) == 0
            report = json.loads(capsys.readouterr().out)
            return (train_part.features.flags.writeable, checkpoints, rows,
                    [(d.features.tolist(), d.labels.tolist()) for d in derived],
                    saved.read_bytes(), model.read_text(),
                    {k: v for k, v in report.items() if k != "out"})

        frozen = outputs(read_only, "frozen")
        writable = outputs(lambda data: data, "writable")
        assert (frozen[0], writable[0]) == (False, True)
        assert frozen[1:] == writable[1:]

    def test_compare_deterministic(self):
        config = ExperimentConfig(
            "compare", tiny_synth(), [tiny_train("bce")], seeds=[0, 1])
        assert run_compare(config) == run_compare(config)

    def test_compare_rows_match_a_test_time_dev_sweep(self):
        # the reference sweeps dev again on each swept cell's best-epoch
        # scorer; the threshold training kept at that epoch must match it
        kinds = [("bce", 0.0), ("bce_shifted", 0.05), ("pairwise", 0.0),
                 ("atl", 0.0), ("ncrl_final", 0.05)]
        for hidden, decay in ((0, 0.0), (4, 0.01)):
            tcs = [tiny_train(kind, gamma=gamma, epochs=4, hidden_width=hidden,
                              weight_decay=decay) for kind, gamma in kinds]
            config = ExperimentConfig("compare", tiny_synth(), tcs, [0, 1])
            expected = []
            for seed in config.seeds:
                _, dev_part, test_part = splits = make_splits(config.synth, seed)
                configs = [replace(tc, seed=derive_seed(seed, "train",
                                                        tc.loss_kind, tc.gamma))
                           for tc in tcs]
                for tc, (scorer, _) in zip(tcs, train(splits[0], dev_part,
                                                      configs)):
                    scores = scorer.forward(test_part.features)
                    if tc.loss_kind in ADAPTIVE_KINDS:
                        flags = adaptive_flags(scores)
                    else:
                        t, _ = sweep_global_threshold(
                            scorer.forward(dev_part.features), dev_part.labels,
                            COARSE_GRID)
                        flags = global_flags(scores, t)
                    stats = evaluate(scores, test_part.labels, flags).as_dict()
                    expected.extend(
                        ResultRow("compare", tc.loss_kind, tc.gamma, seed,
                                  "test", name, stats[name])
                        for name in METRIC_NAMES)
            expected.extend(summarize(expected, "compare"))
            assert run_compare(config) == expected

    def test_summary_statistics(self):
        rows = [ResultRow("e", "bce", 0.0, s, "test", "micro_f1", v)
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

    def test_stacked_cells_keep_row_order(self):
        # the two gamma variants share a stack; rows follow the configs
        config = ExperimentConfig(
            "compare", tiny_synth(),
            [tiny_train("ncrl_final", gamma=0.05), tiny_train("atl"),
             tiny_train("ncrl_final", gamma=0.0)], seeds=[3])
        rows = [r for r in run_compare(config) if r.seed != "all"]
        assert [(r.loss, r.gamma) for r in rows[::6]] == [
            ("ncrl_final", 0.05), ("atl", 0.0), ("ncrl_final", 0.0)]

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
        # so must a dev set agree with its training set
        assert main(["train", "--data", data, "--dev", other, "--loss", "bce",
                     "--epochs", "1", "--out", model]) == 1
        assert capsys.readouterr().err == (
            f"error: train data {data} has k=3, dim=5 but dev data {other} "
            "has k=4, dim=6\n")

    def test_malformed_checkpoint_exits_1_naming_the_key(self, tmp_path, capsys):
        data, model = str(tmp_path / "data.jsonl"), str(tmp_path / "model.json")
        assert main(["gen-data", "--k", "3", "--dim", "5", "--n", "40",
                     "--out", data]) == 0
        mlp = scorer_to_dict(MlpScorer.create(3, 5, 4, np.random.default_rng(0)),
                             TrainConfig("atl", hidden_width=4), None)
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
            ({**mlp, "threshold": True}, "checkpoint key 'threshold' must be "
             "null or a number in (0, 1), got True"),
        )
        for payload, message in cases:
            Path(model).write_text(json.dumps(payload))
            for command in ("eval", "sweep"):
                capsys.readouterr()
                assert main([command, "--model", model, "--data", data]) == 1
                assert capsys.readouterr().err == f"error: {model}: {message}\n"
        Path(model).write_text("{")
        assert main(["sweep", "--model", model, "--data", data]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: {model}:1: malformed JSON (Expecting")

    def test_malformed_json_checkpoint_exits_1_naming_its_line(self, tmp_path,
                                                               capsys):
        # this used to print the decoder's line, column and char offset
        data, model = str(tmp_path / "data.jsonl"), tmp_path / "m.json"
        assert main(["gen-data", "--k", "3", "--dim", "5", "--n", "40",
                     "--out", data]) == 0
        model.write_text('{\n  "a": ,')
        capsys.readouterr()
        assert main(["eval", "--model", str(model), "--data", data]) == 1
        assert capsys.readouterr().err == (
            f"error: {model}:2: malformed JSON (Expecting value)\n")

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

    def test_checkpoint_reports_its_first_refused_line(self, tmp_path):
        # every byte used to be checked before the parse, so a bad byte on a
        # later line hid the malformed line before it
        model = tmp_path / "model.json"
        bad_byte = (":2: not UTF-8 text (0xff at byte 9 of the line: invalid "
                    "start byte)")
        cases = ((b'{\n  "a": ,\n  "b": "\xff"\n}\n',
                  ":2: malformed JSON (Expecting value)"),
                 (b'{\n  "b": "\xff",\n  "a": ,\n}\n', bad_byte),
                 # on one line the byte comes first, as in every reader
                 (b'{\n  "b": "\xff", "a": ,\n}\n', bad_byte))
        for text, message in cases:
            model.write_bytes(text)
            with pytest.raises(ValueError) as info:
                load_json(str(model))
            assert str(info.value) == f"{model}{message}"
        model.write_bytes(b'{"b": "\xff"}')
        with pytest.raises(ValueError, match=f"^{re.escape(str(model))}:1: "):
            load_json(str(model))

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

    def test_seed_flag_of_compare_and_ablate_is_usage_error(self, tmp_path,
                                                            capsys):
        # --seed set the synthetic seed, which each of --seeds replaces with
        # its own, so it had no effect; nor may it stand for --seeds
        out = tmp_path / "rows.csv"
        for argv in (["compare", "--losses", "bce", "--seed", "5"],
                     ["compare", "--losses", "bce", "--seeds", "0",
                      "--seed", "5"],
                     ["ablate", "--seed", "5"]):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--out", str(out)])
            assert exc.value.code == 2, argv
            assert "unrecognized arguments: --seed 5" in \
                capsys.readouterr().err, argv
        assert not out.exists()

    def test_abbreviated_flag_is_usage_error(self, tmp_path, capsys):
        # a prefix used to stand for the flag it began, so gen-data --see 3
        # ran as --seed 3 and grad-check --gam 0.05 as --gamma 0.05
        out = str(tmp_path / "out")
        for argv, flag in (
                (["gen-data", "--see", "3", "--out", out], "--see 3"),
                (["train", "--data", "d.jsonl", "--loss", "bce", "--out", out,
                  "--epoch", "2"], "--epoch 2"),
                (["eval", "--model", "m.json", "--data", "d.jsonl", "--rul",
                  "global"], "--rul global"),
                (["grad-check", "--loss", "bce", "--gam", "0.05"], "--gam 0.05"),
                (["consistency", "--tri", "5"], "--tri 5"),
                (["sweep", "--model", "m.json", "--data", "d.jsonl", "--per"],
                 "--per"),
                (["compare", "--losses", "bce", "--out", out, "--no-none"],
                 "--no-none"),
                (["ablate", "--out", out, "--sweep", "0.1"], "--sweep 0.1")):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2, argv
            assert f"unrecognized arguments: {flag}\n" in \
                capsys.readouterr().err, argv
        assert not os.path.exists(out)

    def test_negative_seed_exits_1_naming_it(self, tmp_path, capsys):
        # numpy's own error, "expected non-negative integer", named no flag
        data, out = str(tmp_path / "data.jsonl"), str(tmp_path / "out")
        assert main(["gen-data", "--k", "3", "--dim", "5", "--n", "40",
                     "--out", data]) == 0
        for argv, seed in (
                (["gen-data", "--k", "3", "--dim", "5", "--n", "40",
                  "--seed", "-5", "--out", out], -5),
                (["train", "--data", data, "--loss", "bce", "--epochs", "1",
                  "--seed", "-1", "--out", out], -1),
                (["consistency", "--trials", "5", "--iters", "10",
                  "--seed", "-1"], -1),
                (["grad-check", "--loss", "bce", "--trials", "3",
                  "--seed", "-1"], -1)):
            capsys.readouterr()
            assert main(argv) == 1, argv
            assert capsys.readouterr().err == \
                f"error: seed must be nonnegative, got {seed}\n", argv
        assert not os.path.exists(out)
        # the seeds of a suite go through derive_seed, which maps any int
        rows = run_compare(ExperimentConfig("compare", tiny_synth(
            num_instances=100), [tiny_train(epochs=1)], seeds=[-1]))
        assert {r.seed for r in rows} == {-1, "all"}

    def test_gamma_of_a_kind_that_does_not_shift_exits_1(self, tmp_path,
                                                          capsys):
        # each of these used to run with gamma ignored; compare trained plain
        # bce twice and reported the copies as two losses
        data, out = str(tmp_path / "data.jsonl"), str(tmp_path / "out")
        assert main(["gen-data", "--k", "3", "--dim", "5", "--n", "40",
                     "--out", data]) == 0
        for argv, kind, gamma in (
                (["train", "--data", data, "--loss", "bce", "--gamma", "0.5",
                  "--epochs", "1", "--out", out], "bce", 0.5),
                (["grad-check", "--loss", "atl", "--gamma", "0.3",
                  "--trials", "3"], "atl", 0.3),
                (["compare", "--k", "3", "--dim", "5", "--n", "100",
                  "--losses", "bce:0.3,bce", "--seeds", "0", "--epochs", "1",
                  "--out", out], "bce", 0.3)):
            capsys.readouterr()
            assert main(argv) == 1, argv
            assert capsys.readouterr().err == (
                f"error: loss kind {kind!r} does not shift; gamma must be 0, "
                f"got {gamma}\n"), argv
        assert not os.path.exists(out)

    def test_empty_comma_list_is_usage_error(self, tmp_path, capsys):
        # an empty --k used to run no check and report "pass": true, and an
        # empty --sweep-gamma used to run the six-variant ablation instead;
        # an empty entry used to be skipped, so --losses ,atl trained atl
        # alone, --seeds 0,,1 ran two seeds, and a later --thresholds or
        # --bias value moved one label to the left
        out = tmp_path / "rows.csv"
        config = tmp_path / "run.cfg"
        config.write_text("losses = ,atl\n")
        for argv, flag in (
                (["grad-check", "--loss", "ncrl_plain", "--k", ""], "--k"),
                (["grad-check", "--loss", "ncrl_plain", "--k", " , "], "--k"),
                (["ablate", "--k", "3", "--dim", "5", "--n", "300",
                  "--seeds", "0", "--epochs", "1", "--sweep-gamma", "",
                  "--out", str(out)], "--sweep-gamma"),
                (["compare", "--losses", "bce", "--seeds", "",
                  "--out", str(out)], "--seeds"),
                (["compare", "--losses", ",", "--out", str(out)], "--losses"),
                (["eval", "--model", "m.json", "--data", "d.jsonl",
                  "--rule", "per-label", "--thresholds", ""], "--thresholds"),
                (["compare", "--losses", ",atl", "--out", str(out)], "--losses"),
                (["compare", "--losses", "bce", "--seeds", "0,,1",
                  "--out", str(out)], "--seeds"),
                (["compare", "--config", str(config), "--out", str(out)],
                 "--losses"),
                (["eval", "--model", "m.json", "--data", "d.jsonl",
                  "--rule", "per-label", "--thresholds", "0.5,,0.5,0.5,0.5"],
                 "--thresholds"),
                (["gen-data", "--k", "4", "--bias", "0,,0,0,0",
                  "--out", str(out)], "--bias")):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2, argv
            err = capsys.readouterr().err
            assert "at least one value" in err, argv
            assert f"argument {flag}: need a comma list" in err, argv
        assert not out.exists()

    def test_threshold_flag_the_rule_does_not_read_is_usage_error(self, tmp_path,
                                                                  capsys):
        # eval --rule adaptive --threshold 0.3 used to exit 0 and ignore it
        data, model = str(tmp_path / "data.jsonl"), str(tmp_path / "model.json")
        assert main(["gen-data", "--k", "3", "--dim", "5", "--n", "80",
                     "--out", data]) == 0
        assert main(["train", "--data", data, "--loss", "bce", "--epochs",
                     "1", "--out", model]) == 0
        scored = ["eval", "--model", model, "--data", data]
        for rule, flag, value in (("adaptive", "--threshold", "0.3"),
                                  ("per-label", "--threshold", "0.3"),
                                  ("adaptive", "--thresholds", "0.5,0.5,0.5"),
                                  ("global", "--thresholds", "0.5,0.5,0.5")):
            capsys.readouterr()
            with pytest.raises(SystemExit) as exc:
                main(scored + ["--rule", rule, flag, value])
            assert exc.value.code == 2, (rule, flag)
            assert (f"argument {flag}: --rule {rule} does not read it"
                    in capsys.readouterr().err), (rule, flag)
        # --rule global with no --threshold still reads 0.5
        reports = []
        for extra in ([], ["--threshold", "0.5"]):
            capsys.readouterr()
            assert main(scored + ["--rule", "global"] + extra) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]

    def test_per_label_without_thresholds_is_usage_error(self, capsys):
        # eval --rule per-label with no --thresholds used to exit 1, after
        # reading the checkpoint and the data
        scored = ["eval", "--model", "m.json", "--data", "d.jsonl"]
        with pytest.raises(SystemExit) as exc:
            main(scored + ["--rule", "per-label"])
        assert exc.value.code == 2
        assert ("argument --thresholds: --rule per-label requires it"
                in capsys.readouterr().err)
        # with no --rule the checkpoint's rule reads neither threshold flag
        for flag, value, rule in (("--threshold", "0.3", "global"),
                                  ("--thresholds", "0.5,0.5", "per-label")):
            with pytest.raises(SystemExit) as exc:
                main(scored + [flag, value])
            assert exc.value.code == 2, flag
            assert (f"argument {flag}: needs --rule {rule}"
                    in capsys.readouterr().err), flag

    def test_eval_with_no_rule_flags_by_the_checkpoints_rule(self, tmp_path,
                                                             capsys):
        # eval used to flag every checkpoint adaptively unless given --rule,
        # so a bce model scored far below the dev F1 its training reported
        paths = {name: str(tmp_path / f"{name}.jsonl")
                 for name in ("data", "dev", "test")}
        for seed, (name, n) in enumerate((("data", 400), ("dev", 120),
                                          ("test", 120))):
            assert main(["gen-data", "--k", "4", "--dim", "6", "--n", str(n),
                         "--seed", str(seed), "--out", paths[name]]) == 0
        data, dev, test = (load_dataset(paths[name])
                           for name in ("data", "dev", "test"))
        for kind, gamma in (("bce", "0"), ("bce_shifted", "0.05"), ("atl", "0"),
                            ("ncrl_final", "0.05")):
            model = str(tmp_path / f"{kind}.json")
            assert main(["train", "--data", paths["data"], "--dev", paths["dev"],
                         "--loss", kind, "--gamma", gamma, "--epochs", "3",
                         "--batch-size", "32", "--seed", "1", "--out", model]) == 0
            checkpoint = json.loads(Path(model).read_text())
            config = TrainConfig(**checkpoint["config"])
            result = train(data, dev, [config])[0]
            assert checkpoint["threshold"] == result.history.threshold
            assert (checkpoint["threshold"] is None) == (kind in ADAPTIVE_KINDS)
            rows = run_cell("eval", config, 0, (data, dev, test), result)
            scored = ["eval", "--model", model, "--data", paths["test"]]
            capsys.readouterr()
            assert main(scored) == 0
            printed = capsys.readouterr().out
            report = json.loads(printed)
            assert ({name: report[name] for name in METRIC_NAMES}
                    == {row.metric: row.value for row in rows}), kind
            # the same bytes as the checkpoint's rule given by hand
            own = (["--rule", "adaptive"] if kind in ADAPTIVE_KINDS else
                   ["--rule", "global", "--threshold", str(checkpoint["threshold"])])
            assert main(scored + own) == 0
            assert capsys.readouterr().out == printed, kind
        # a checkpoint saved before it carried its threshold names no rule
        assert main(scored + ["--rule", "adaptive"]) == 0
        adaptive = capsys.readouterr().out
        Path(model).write_text(json.dumps(
            {key: v for key, v in checkpoint.items() if key != "threshold"}))
        assert main(scored) == 1
        assert capsys.readouterr().err == (
            f"error: {model}: checkpoint names no rule; pass --rule\n")
        assert main(scored + ["--rule", "adaptive"]) == 0
        assert capsys.readouterr().out == adaptive
        for value, shown in ((True, "True"), ("0.3", "'0.3'"), (1.5, "1.5")):
            Path(model).write_text(json.dumps({**checkpoint, "threshold": value}))
            for rule in ([], ["--rule", "adaptive"]):
                assert main(scored + rule) == 1
                assert capsys.readouterr().err == (
                    f"error: {model}: checkpoint key 'threshold' must be null "
                    f"or a number in (0, 1), got {shown}\n"), (value, rule)

    def test_eval_prints_the_threshold_it_flagged_at(self, tmp_path, capsys):
        # eval used to print its rule but not the threshold, so a default
        # eval's global threshold could only be read from the checkpoint
        data = str(tmp_path / "data.jsonl")
        assert main(["gen-data", "--k", "4", "--dim", "6", "--n", "200",
                     "--seed", "0", "--out", data]) == 0
        for kind, gamma in (("bce", "0"), ("ncrl_final", "0.05")):
            model = str(tmp_path / f"{kind}.json")
            assert main(["train", "--data", data, "--loss", kind, "--gamma",
                         gamma, "--epochs", "1", "--seed", "1",
                         "--out", model]) == 0
            own = json.loads(Path(model).read_text())["threshold"]
            for rule, shown in (([], own),
                                (["--rule", "adaptive"], None),
                                (["--rule", "global"], 0.5),
                                (["--rule", "global", "--threshold", "0.4"], 0.4),
                                (["--rule", "per-label", "--thresholds",
                                  "0.3,0.4,0.5,0.6"], [0.3, 0.4, 0.5, 0.6])):
                capsys.readouterr()
                assert main(["eval", "--model", model, "--data", data]
                            + rule) == 0, (kind, rule)
                report = json.loads(capsys.readouterr().out)
                assert "threshold" in report, (kind, rule)
                assert report["threshold"] == shown, (kind, rule)
            assert (own is None) == (kind in ADAPTIVE_KINDS)

    def test_eval_refuses_a_threshold_its_loss_kind_contradicts(self,
                                                                 tmp_path,
                                                                 capsys):
        # an edited bce checkpoint with a null threshold used to evaluate
        # adaptively with exit 0, and an ncrl_final one with 0.5 globally
        data = str(tmp_path / "data.jsonl")
        assert main(["gen-data", "--k", "4", "--dim", "6", "--n", "200",
                     "--seed", "0", "--out", data]) == 0
        for kind, gamma, edit, shown in (("bce", "0", None, "a number"),
                                         ("ncrl_final", "0.05", 0.5, "null")):
            model = str(tmp_path / f"{kind}.json")
            assert main(["train", "--data", data, "--loss", kind, "--gamma",
                         gamma, "--epochs", "1", "--seed", "1",
                         "--out", model]) == 0
            checkpoint = json.loads(Path(model).read_text())
            Path(model).write_text(json.dumps({**checkpoint, "threshold": edit}))
            capsys.readouterr()
            for rule in ([], ["--rule", "adaptive"], ["--rule", "global"]):
                assert main(["eval", "--model", model, "--data", data]
                            + rule) == 1, (kind, rule)
                assert capsys.readouterr().err == (
                    f"error: {model}: checkpoint key 'threshold' must be "
                    f"{shown} for its loss_kind '{kind}', got "
                    f"{'null' if edit is None else edit}\n"), (kind, rule)

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

    def test_suite_flag_the_suite_does_not_read_is_usage_error(
            self, tmp_path, capsys, monkeypatch):
        # the no-none study trains one loss and a gamma sweep sets every
        # gamma: each used to exit 0, dropping bce or never reading --gamma
        def work(*args, **kwargs):
            raise AssertionError("the suite ran with a flag it does not read")

        for name in ("run_no_none_study", "run_gamma_sweep"):
            monkeypatch.setattr(cli, name, work)
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("gamma = 0.3\n")
        out = tmp_path / "rows.csv"
        for argv, message in (
                (["compare", "--no-none-study", "--losses",
                  "ncrl_final:0.05,bce"],
                 "argument --losses: --no-none-study trains one loss, got 2"),
                (["ablate", "--gamma", "0.3", "--sweep-gamma", "0.0,0.05"],
                 "argument --gamma: --sweep-gamma does not read it"),
                (["ablate", "--config", str(cfg), "--sweep-gamma", "0.0"],
                 "argument --gamma: --sweep-gamma does not read it")):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--out", str(out)])
            assert exc.value.code == 2, argv
            assert f"error: {message}\n" in capsys.readouterr().err, argv
        assert not out.exists()

    def test_ablation_gamma_defaults_to_0_05(self, tmp_path, capsys,
                                             monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "run_ablation",
                            lambda config: seen.append(config) or [])
        out = str(tmp_path / "rows.csv")
        for gamma in ([], ["--gamma", "0"], ["--gamma", "0.2"]):
            assert main(["ablate", *gamma, "--out", out]) == 0
        capsys.readouterr()
        assert [c.train_configs[0].gamma for c in seen] == [0.05, 0.0, 0.2]

    def test_switch_table_lists_every_store_true_flag(self):
        # --config reads boolean words for these flags from the table; the
        # package no longer walks the parser, so this test does
        subparsers, = [action for action in cli.build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction)]
        found = {name: {flag for action in sub._actions
                        if isinstance(action, argparse._StoreTrueAction)
                        for flag in action.option_strings}
                 for name, sub in subparsers.choices.items()}
        assert cli._SWITCHES == {name: flags for name, flags in found.items()
                                 if flags}

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

    def test_out_no_file_can_take_exits_1_before_the_work(self, tmp_path,
                                                          capsys, monkeypatch):
        # an empty --out and one ending in a separator used to pass the
        # check; the work ran, and then renaming its temp file failed
        work_dir = tmp_path / "work"
        work_dir.mkdir()
        data = work_dir / "data.jsonl"
        save_dataset(generate(tiny_synth(num_instances=40)), str(data))
        monkeypatch.chdir(work_dir)

        def work(*args, **kwargs):
            raise AssertionError("the work ran before --out was checked")

        for name in ("generate", "train", "run_compare"):
            monkeypatch.setattr(cli, name, work)
        for out, message in (
                ("", "'': an empty path is not an output file"),
                ("newdir" + os.sep, f"newdir{os.sep}: ends in a path "
                 "separator, not an output file"),
                (str(work_dir / "newdir") + os.sep, f"{work_dir}{os.sep}newdir"
                 f"{os.sep}: ends in a path separator, not an output file")):
            for argv in (["gen-data", "--k", "3", "--dim", "4", "--n", "40"],
                         ["train", "--data", str(data), "--loss", "bce"],
                         ["compare", "--losses", "bce", "--seeds", "0"]):
                assert main(argv + ["--out", out]) == 1, argv
                assert capsys.readouterr().err == f"error: {message}\n"
        assert list(work_dir.iterdir()) == [data]
        assert list(tmp_path.iterdir()) == [work_dir]

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

    def test_sizes_too_big_for_memory_exit_1(self, tmp_path, capsys):
        # numpy's MemoryError used to end these in a traceback; each size
        # is far past any address space, so the allocation fails at once
        huge = str(10**15)
        data = tmp_path / "data.jsonl"
        assert main(["gen-data", "--k", "3", "--dim", "4", "--n", "40",
                     "--out", str(data)]) == 0
        capsys.readouterr()
        out = str(tmp_path / "out")
        for argv in (["gen-data", "--k", huge, "--dim", "3", "--n", "10",
                      "--out", out],
                     ["gen-data", "--n", huge, "--out", out],
                     ["consistency", "--trials", huge, "--k", "2"],
                     ["train", "--data", str(data), "--loss", "bce",
                      "--hidden", huge, "--out", out]):
            assert main(argv) == 1, argv
            captured = capsys.readouterr()
            assert captured.err.startswith("error: Unable to allocate "), argv
            assert captured.out == ""
        assert not os.path.exists(out)

    def test_huge_k_in_data_exits_1_naming_its_line(self, tmp_path, capsys):
        # the label matrix cannot be allocated; numpy's MemoryError used to
        # end the CLI in a traceback
        data = tmp_path / "data.jsonl"
        line = '\n{"features": [1.0, 2.0], "labels": [1], "k": %d}\n' % 10**15
        for rows in (1, 3):
            data.write_text(line * rows)
            assert main(["train", "--data", str(data), "--loss", "bce", "--out",
                         str(tmp_path / "m.json")]) == 1
            assert capsys.readouterr().err == (
                f"error: {data}:2: k = {10**15} is too large; no memory for a "
                f"{rows} x {10**15 + 1} label matrix\n")

    def test_rows_do_not_depend_on_the_hash_seed(self, tmp_path):
        # two fresh interpreters with different string hashing must write
        # the same bytes
        tables = []
        for hash_seed in ("0", "1"):
            out = tmp_path / f"rows{hash_seed}.csv"
            proc = subprocess.run(
                [sys.executable, "-m", "ncrl_lab", "compare", "--k", "3",
                 "--dim", "4", "--n", "60", "--losses", "ncrl_final:0.05,bce",
                 "--seeds", "0,1", "--epochs", "2", "--out", str(out)],
                capture_output=True, text=True,
                env={**os.environ, "PYTHONHASHSEED": hash_seed})
            assert proc.returncode == 0, proc.stderr
            tables.append(out.read_bytes())
        assert tables[0] == tables[1] and tables[0].count(b"\n") > 20

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
