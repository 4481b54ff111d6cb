"""The one-pass load's values and located errors.

A load parses its file line by line in this process and forks nothing
(every test here fails on a fork). The error is that of the first line in
file order refused, for its bytes, its content or a non-finite value, at
its absolute line, with blank lines counted. The test names are those of a
loader that once cut a file into byte ranges, one per CPU; the bad lines
still sit where the cuts of three or four ranges fell.
"""

import os
import re
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncrl_lab.datagen import SyntheticConfig, generate
from ncrl_lab.harness import dataio
from ncrl_lab.harness.dataio import load_dataset, save_dataset

LINE = '{"features": [0.5, -1.25, 3.0], "labels": [1], "k": 2}'
WIDTH = len(LINE) + 8  # room for the bad lines below, padded to one width


@pytest.fixture(autouse=True)
def no_fork(monkeypatch):
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("a load forked"))


def outcome(path):
    """('ok', features as int64 bits, labels) or ('error', message)."""
    try:
        data = load_dataset(str(path))
    except ValueError as exc:
        return ("error", str(exc))
    return ("ok", data.features.view(np.int64).tolist(), data.labels.tolist())


def error_of(path):
    result = outcome(path)
    assert result[0] == "error"
    return result[1]


def write_lines(path, lines):
    """Write lines padded to one width, so any line can be swapped for a bad
    one without moving the others; a lone surrogate writes its byte."""
    encoded = [line.encode("utf-8", "surrogateescape") for line in lines]
    assert max(map(len, encoded)) <= WIDTH
    path.write_bytes(b"".join(line.ljust(WIDTH) + b"\n" for line in encoded))


class TestSameDataset:
    def test_bit_identical_for_1_2_3_7_ranges(self, tmp_path):
        # the saved rows, with every line ending and blank lines between
        data = generate(SyntheticConfig(num_labels=4, feature_dim=5,
                                        num_instances=60, seed=3))
        source = tmp_path / "source.jsonl"
        save_dataset(data, str(source))
        endings = [b"\n", b"\r\n", b"\n\n", b"\r", b"\r\n\r\n", b"\n \t\n",
                   b"\r\r\n"]
        lines = source.read_bytes().splitlines()
        path = tmp_path / "data.jsonl"
        path.write_bytes(b"".join(line + endings[i % len(endings)]
                                  for i, line in enumerate(lines)))
        assert outcome(path) == ("ok", data.features.view(np.int64).tolist(),
                                 data.labels.tolist())

    def test_no_cut_without_newline(self, tmp_path):
        # universal newlines read \r endings as lines
        path = tmp_path / "data.jsonl"
        path.write_bytes((LINE.encode() + b"\r") * 20)
        data = load_dataset(str(path))
        assert data.features.tolist() == [[0.5, -1.25, 3.0]] * 20
        assert data.labels.tolist() == [[0, 1, 0]] * 20

    def test_memory_bound_holds_with_ranges(self, tmp_path):
        # the bound of test_harness's test_load_streams_lines, for a load
        # refused by a NaN on its last line: the finite check runs over
        # every row parsed before it
        path = tmp_path / "data.jsonl"
        save_dataset(generate(SyntheticConfig(num_labels=10, feature_dim=20,
                                              num_instances=3000,
                                              none_fraction_target=0.3)),
                     str(path))
        lines = path.read_bytes().splitlines(True)
        lines[-1] = re.sub(rb"\[[^,]*,", b"[NaN,", lines[-1], count=1)
        path.write_bytes(b"".join(lines))
        del lines
        tracemalloc.start()
        try:
            message = error_of(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert message == f"{path}:3000: features must be finite numbers"
        assert peak < 2 * os.path.getsize(path)

    @settings(max_examples=30)
    @given(st.data())
    def test_any_file_loads_as_one_pass(self, tmp_path_factory, data):
        # good lines with bad ones, refused for each reason, inserted after
        # the first, and every line ending: the first bad line in file
        # order is the error, at its line counting the blank ones
        good = {LINE: ([0.5, -1.25, 3.0], [0, 1, 0]),
                '{"features": [1, 2, 3], "labels": [], "k": 2}':
                    ([1.0, 2.0, 3.0], [1, 0, 0])}
        bad = {'{oops': "malformed JSON (Expecting property name enclosed "
                        "in double quotes)",
               '{"features": [1.0, 2.0], "labels": [], "k": 2}':
                   "feature length 2 != 3",
               '{"features": [1.0, 2.0, 3.0], "labels": [], "k": 3}':
                   "k changed from 2 to 3",
               '{"features": [NaN, 2.0, 3.0], "labels": [], "k": 2}':
                   "features must be finite numbers",
               '{"features": [1.0, 2.0, 3.0], "labels": [5], "k": 2}':
                   "y0-consistency violated; label indices must lie in 1..2 "
                   "(the none class is derived, never listed)",
               '{"features": [1.0, 2.0, 3.0], "labels": [], "k": 2, "x": "\udcff"}':
                   "not UTF-8 text (0xff at byte 59 of the line: invalid "
                   "start byte)",
               '{"features": [1.0, 2.0, 3.0], "labels": [], "k": 2, "x": "\udce2\udc82"}':
                   "not UTF-8 text (0xe2 at byte 59 of the line: invalid "
                   "continuation byte)"}
        endings = {b"\n": 1, b"\r\n": 1, b"\r": 1, b"\n\n": 2, b"\r\n\r\n": 2}
        lines = data.draw(st.lists(st.sampled_from(sorted(good)), min_size=1,
                                   max_size=400))
        for _ in range(data.draw(st.integers(0, 3))):
            lines.insert(data.draw(st.integers(1, len(lines))),
                         data.draw(st.sampled_from(sorted(bad))))
        ends = [data.draw(st.sampled_from(sorted(endings))) for _ in lines]
        path = tmp_path_factory.mktemp("load") / "data.jsonl"
        path.write_bytes(b"".join(
            line.encode("utf-8", "surrogateescape") + end
            for line, end in zip(lines, ends)))
        line_no = 1
        for line, end in zip(lines, ends):
            if line in bad:
                assert outcome(path) == ("error", f"{path}:{line_no}: {bad[line]}")
                return
            line_no += endings[end]
        assert outcome(path) == (
            "ok", np.array([good[line][0] for line in lines]).view(
                np.int64).tolist(), [good[line][1] for line in lines])


class TestSameErrors:
    def test_first_range_error_wins(self, tmp_path):
        path = tmp_path / "data.jsonl"
        lines = [LINE] * 30
        lines[4] = "{oops"
        lines[12] = '{"features": [1.0], "labels": [], "k": 2}'
        write_lines(path, lines)
        assert error_of(path) == f"{path}:5: malformed JSON (Expecting " \
                                 "property name enclosed in double quotes)"

    def test_error_in_third_range_has_its_absolute_line(self, tmp_path):
        path = tmp_path / "data.jsonl"
        lines = [LINE] * 30
        lines[22] = '{"features": [1.0, 2.0, 3.0], "labels": [3], "k": 2}'
        write_lines(path, lines)
        assert error_of(path).startswith(f"{path}:23: y0-consistency violated")

    @pytest.mark.parametrize("changed, message", [
        ('{"features": [1.0, 2.0, 3.0], "labels": [], "k": 3}',
         "k changed from 2 to 3"),
        ('{"features": [1.0, 2.0], "labels": [], "k": 2}',
         "feature length 2 != 3"),
    ])
    def test_change_at_a_range_start_is_located_there(self, tmp_path, changed,
                                                      message):
        # the line after the change keeps it, and is not the one reported
        path = tmp_path / "data.jsonl"
        lines = [LINE] * 30
        lines[10] = lines[11] = changed
        write_lines(path, lines)
        assert error_of(path) == f"{path}:11: {message}"

    def test_blank_lines_shift_later_ranges(self, tmp_path):
        path = tmp_path / "data.jsonl"
        lines = [LINE, "", "", LINE, ""] * 8
        lines[31] = "[1, 2]"
        write_lines(path, lines)
        assert error_of(path) == f"{path}:32: expected a JSON object"

    def test_non_utf8_byte_in_a_later_range(self, tmp_path):
        path = tmp_path / "data.jsonl"
        lines = [LINE] * 30
        lines[21] = LINE.replace("0.5", "0.\udcff5")
        write_lines(path, lines)
        assert error_of(path) == (
            f"{path}:22: not UTF-8 text (0xff at byte 17 of the line: "
            "invalid start byte)")

    def test_refused_line_before_a_bad_byte_in_its_chunk_wins(self, tmp_path):
        # line 200 is refused and line 201 holds a bad byte, both in one
        # 8 KiB block of the file; the earlier line is the one reported
        path = tmp_path / "data.jsonl"
        lines = [LINE] * 400
        start = 199 * (WIDTH + 1)
        assert start // 8192 == (start + 2 * WIDTH + 1) // 8192
        lines[199] = "{oops"
        lines[200] = LINE.replace("0.5", "0.\udcff5")
        write_lines(path, lines)
        assert error_of(path) == (
            f"{path}:200: malformed JSON (Expecting property name enclosed "
            "in double quotes)")

    def test_nan_in_a_later_range(self, tmp_path):
        path = tmp_path / "data.jsonl"
        lines = [LINE] * 30
        lines[15] = LINE.replace("3.0", "NaN")
        lines[22] = LINE.replace("0.5", "Infinity")
        write_lines(path, lines)
        assert error_of(path) == f"{path}:16: features must be finite numbers"

    @pytest.mark.parametrize("nan_rows", [1, 3])
    @pytest.mark.parametrize("late", [False, True])
    def test_nan_before_a_malformed_line_wins(self, tmp_path, nan_rows, late):
        # non-finite values are checked once the parse stops, and the first
        # NaN row must still win over the later line that stopped it, soon
        # after or late in the file
        path = tmp_path / "data.jsonl"
        lines = [LINE] * 30
        lines[1:1 + nan_rows] = [LINE.replace("3.0", "NaN")] * nan_rows
        lines[20 if late else 4] = "{oops"
        write_lines(path, lines)
        assert error_of(path) == f"{path}:2: features must be finite numbers"

    def test_all_blank_file(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text(" \n\n\t\n\r\n" * 10)
        assert error_of(path) == f"{path}: no instances"

    def test_huge_k_is_located(self, tmp_path):
        # the label matrix cannot be allocated; numpy's MemoryError used to
        # end the CLI in a traceback
        path = tmp_path / "data.jsonl"
        lines = ["", '{"features": [1.0, 2.0], "labels": [1], "k": %d}' % 10**15]
        write_lines(path, lines * 3)
        assert error_of(path) == (
            f"{path}:2: k = {10**15} is too large; no memory for a 3 x "
            f"{10**15 + 1} label matrix")


class TestChildren:
    def test_interrupt_in_own_range_reaps_children(self, tmp_path,
                                                   monkeypatch):
        # an interrupted load leaves no child and no file behind
        path = tmp_path / "data.jsonl"
        write_lines(path, [LINE] * 40)

        def interrupted(obj):
            raise KeyboardInterrupt

        monkeypatch.setattr(dataio, "_parse_instance", interrupted)
        with pytest.raises(KeyboardInterrupt):
            load_dataset(str(path))
        assert os.listdir(tmp_path) == ["data.jsonl"]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_fork_warning_is_silenced(self, tmp_path):
        # a load with other threads running warns of nothing
        path = tmp_path / "data.jsonl"
        write_lines(path, [LINE] * 20)
        release = threading.Event()
        worker = threading.Thread(target=release.wait)
        worker.start()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert len(load_dataset(str(path))) == 20
        finally:
            release.set()
            worker.join(timeout=10)
        assert not worker.is_alive()
