"""Loading a dataset whatever the CPU count and range size.

A load once cut a large file into byte ranges, one per usable CPU, parsed
in forked children; the cases keep the names of that loader. A load now
parses in one pass in this process, and the tests check that the settings
which split a save change nothing: under a lowered range size and any CPU
count, every load gives the values and the error text of a one-CPU load at
the absolute line, and forks no child. The bad lines go where the cuts of
`count` ranges fell (`range_starts`). A lowered range size gives small
files twins, so a test that loads one file more than once removes the twin
before each load.
"""

import contextlib
import os
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


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def cpus(monkeypatch):
    """`cpus(n)` sets the CPU count the harness sees to n and the range size
    to one byte, the settings under which a save of n rows or more is cut
    into n blocks."""
    def force(count):
        monkeypatch.setattr(dataio, "MIN_RANGE_BYTES", 1)
        monkeypatch.setattr(dataio, "_usable_cpus", lambda: count)
    return force


def parse_each_time(path):
    """Remove the twin an earlier load of `path` wrote, so that the next
    load parses it: with the range size lowered, small files get twins."""
    with contextlib.suppress(FileNotFoundError):
        os.remove(f"{path}{dataio.TWIN_SUFFIX}")


def outcome(path):
    """('ok', features as int64 bits, labels) or ('error', message), from a
    parse of `path`."""
    parse_each_time(path)
    try:
        data = load_dataset(str(path))
    except ValueError as exc:
        result = ("error", str(exc))
    else:
        result = ("ok", data.features.view(np.int64).tolist(),
                  data.labels.tolist())
    no_child_left()
    return result


def range_starts(lines, count):
    """The 1-based line each of `count` equal ranges of `lines` equal-width
    lines starts at."""
    return [1 + i * lines // count for i in range(count)]


def write_lines(path, lines):
    """Write lines padded to one width, so any line can be swapped for a bad
    one without moving the others; a lone surrogate writes its byte."""
    encoded = [line.encode("utf-8", "surrogateescape") for line in lines]
    assert max(map(len, encoded)) <= WIDTH
    path.write_bytes(b"".join(line.ljust(WIDTH) + b"\n" for line in encoded))


def split_error(path, cpus, count):
    """The error of loading `path` under `count` CPUs, checked to equal the
    one-CPU error."""
    cpus(1)
    expected = outcome(path)
    cpus(count)
    assert expected[0] == "error"
    assert outcome(path) == expected
    return expected[1]


class TestSameDataset:
    def test_bit_identical_for_1_2_3_7_ranges(self, tmp_path, cpus):
        source = tmp_path / "source.jsonl"
        save_dataset(generate(SyntheticConfig(num_labels=4, feature_dim=5,
                                              num_instances=60, seed=3)),
                     str(source))
        endings = [b"\n", b"\r\n", b"\n\n", b"\r", b"\r\n\r\n", b"\n \t\n",
                   b"\r\r\n"]
        lines = source.read_bytes().splitlines()
        path = tmp_path / "data.jsonl"
        path.write_bytes(b"".join(line + endings[i % len(endings)]
                                  for i, line in enumerate(lines)))
        cpus(1)
        reference = outcome(path)
        assert reference[0] == "ok" and len(reference[2]) == 60
        for count in (2, 3, 7):
            cpus(count)
            assert outcome(path) == reference

    def test_no_cut_without_newline(self, tmp_path, cpus):
        # universal newlines read \r endings as lines
        path = tmp_path / "data.jsonl"
        path.write_bytes((LINE.encode() + b"\r") * 20)
        cpus(4)
        assert len(load_dataset(str(path))) == 20
        no_child_left()

    def test_memory_bound_holds_with_ranges(self, tmp_path, cpus):
        # the bound of test_harness's test_load_streams_lines, under the
        # settings that split a save
        path = str(tmp_path / "data.jsonl")
        save_dataset(generate(SyntheticConfig(num_labels=10, feature_dim=20,
                                              num_instances=3000,
                                              none_fraction_target=0.3)), path)
        for count in (2, 7):
            cpus(count)
            parse_each_time(path)
            tracemalloc.start()
            try:
                load_dataset(path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2 * os.path.getsize(path)
            no_child_left()

    @settings(max_examples=30)
    @given(st.data())
    def test_any_file_loads_as_one_pass(self, tmp_path_factory, data):
        # lines that pass and lines refused for each reason, with every line
        # ending; a bad byte may follow a refused line closely
        good = [LINE, '{"features": [1, 2, 3], "labels": [], "k": 2}']
        bad = ['{oops', '{"features": [1.0, 2.0], "labels": [], "k": 2}',
               '{"features": [1.0, 2.0, 3.0], "labels": [], "k": 3}',
               '{"features": [NaN, 2.0, 3.0], "labels": [], "k": 2}',
               '{"features": [1.0, 2.0, 3.0], "labels": [5], "k": 2}',
               '{"features": [1.0, 2.0, 3.0], "labels": [], "k": 2, "x": "\udcff"}',
               '{"features": [1.0, 2.0, 3.0], "labels": [], "k": 2, "x": "\udce2\udc82"}',
               ""]
        count = data.draw(st.integers(1, 400))
        lines = [data.draw(st.sampled_from(good)) for _ in range(count)]
        for _ in range(data.draw(st.integers(0, 3))):
            lines[data.draw(st.integers(0, count - 1))] = data.draw(
                st.sampled_from(bad))
        endings = st.sampled_from([b"\n", b"\r\n", b"\r", b"\n\n", b"\r\n\r\n"])
        path = tmp_path_factory.mktemp("load") / "data.jsonl"
        path.write_bytes(b"".join(
            line.encode("utf-8", "surrogateescape") + data.draw(endings)
            for line in lines))
        expected = outcome(path)  # default settings: no twin, one save block
        size = data.draw(st.sampled_from([1, 64, 5000]))
        count = data.draw(st.integers(2, 7))
        saved = dataio.MIN_RANGE_BYTES, dataio._usable_cpus
        dataio.MIN_RANGE_BYTES, dataio._usable_cpus = size, lambda: count
        try:
            assert outcome(path) == expected
        finally:
            dataio.MIN_RANGE_BYTES, dataio._usable_cpus = saved


class TestSameErrors:
    def test_first_range_error_wins(self, tmp_path, cpus):
        path = tmp_path / "data.jsonl"
        lines = [LINE] * 30
        starts = range_starts(len(lines), 3)
        lines[starts[0] + 3] = "{oops"
        lines[starts[1] + 1] = '{"features": [1.0], "labels": [], "k": 2}'
        write_lines(path, lines)
        message = split_error(path, cpus, 3)
        assert message == f"{path}:{starts[0] + 4}: malformed JSON (Expecting " \
                          "property name enclosed in double quotes)"

    def test_error_in_third_range_has_its_absolute_line(self, tmp_path, cpus):
        path = tmp_path / "data.jsonl"
        lines = [LINE] * 30
        line = range_starts(len(lines), 3)[2] + 2
        lines[line - 1] = '{"features": [1.0, 2.0, 3.0], "labels": [3], "k": 2}'
        write_lines(path, lines)
        assert split_error(path, cpus, 3).startswith(
            f"{path}:{line}: y0-consistency violated")

    @pytest.mark.parametrize("changed, message", [
        ('{"features": [1.0, 2.0, 3.0], "labels": [], "k": 3}',
         "k changed from 2 to 3"),
        ('{"features": [1.0, 2.0], "labels": [], "k": 2}',
         "feature length 2 != 3"),
    ])
    def test_change_at_a_range_start_is_located_there(self, tmp_path, cpus,
                                                      changed, message):
        # the line after the change keeps it, and is not the one reported
        path = tmp_path / "data.jsonl"
        lines = [LINE] * 30
        starts = range_starts(len(lines), 3)
        lines[starts[1] - 1] = changed
        lines[starts[1]] = changed
        write_lines(path, lines)
        assert split_error(path, cpus, 3) == f"{path}:{starts[1]}: {message}"

    def test_blank_lines_shift_later_ranges(self, tmp_path, cpus):
        path = tmp_path / "data.jsonl"
        lines = [LINE, "", "", LINE, ""] * 8
        starts = range_starts(len(lines), 4)
        lines[starts[3]] = "[1, 2]"
        write_lines(path, lines)
        assert split_error(path, cpus, 4) == \
            f"{path}:{starts[3] + 1}: expected a JSON object"

    def test_non_utf8_byte_in_a_later_range(self, tmp_path, cpus):
        path = tmp_path / "data.jsonl"
        lines = [LINE] * 30
        starts = range_starts(len(lines), 3)
        lines[starts[2]] = LINE.replace("0.5", "0.\udcff5")
        write_lines(path, lines)
        assert split_error(path, cpus, 3) == (
            f"{path}:{starts[2] + 1}: not UTF-8 text (0xff at byte 17 of the "
            "line: invalid start byte)")

    def test_refused_line_before_a_bad_byte_in_its_chunk_wins(self, tmp_path,
                                                              cpus):
        # the line just before the middle is refused and the one just after
        # it holds a bad byte, both in one 8 KiB block of the file; the
        # earlier line is the one reported
        path = tmp_path / "data.jsonl"
        lines = [LINE] * 400
        second = range_starts(len(lines), 2)[1]
        cut = (second - 1) * (WIDTH + 1)
        assert cut % 8192 and cut // 8192 == (cut + WIDTH) // 8192
        lines[second - 2] = "{oops"
        lines[second - 1] = LINE.replace("0.5", "0.\udcff5")
        write_lines(path, lines)
        assert split_error(path, cpus, 2) == (
            f"{path}:{second - 1}: malformed JSON (Expecting property name "
            "enclosed in double quotes)")

    def test_nan_in_a_later_range(self, tmp_path, cpus):
        path = tmp_path / "data.jsonl"
        lines = [LINE] * 30
        starts = range_starts(len(lines), 3)
        lines[starts[1] + 4] = LINE.replace("3.0", "NaN")
        lines[starts[2] + 1] = LINE.replace("0.5", "Infinity")
        write_lines(path, lines)
        assert split_error(path, cpus, 3) == \
            f"{path}:{starts[1] + 5}: features must be finite numbers"

    @pytest.mark.parametrize("count", [1, 3])
    @pytest.mark.parametrize("later_range", [False, True])
    def test_nan_before_a_malformed_line_wins(self, tmp_path, cpus, count,
                                              later_range):
        # non-finite values are checked once the parse stops, and a NaN row
        # must still win over the later line that stopped it
        path = tmp_path / "data.jsonl"
        lines = [LINE] * 30
        lines[1] = LINE.replace("3.0", "NaN")
        lines[range_starts(len(lines), 3)[1] if later_range else 3] = "{oops"
        write_lines(path, lines)
        cpus(count)
        assert outcome(path) == (
            "error", f"{path}:2: features must be finite numbers")

    def test_all_blank_file(self, tmp_path, cpus):
        path = tmp_path / "data.jsonl"
        path.write_text(" \n\n\t\n\r\n" * 10)
        assert split_error(path, cpus, 3) == f"{path}: no instances"

    def test_huge_k_is_located(self, tmp_path, cpus):
        # the label matrix cannot be allocated; numpy's MemoryError used to
        # end the CLI in a traceback
        path = tmp_path / "data.jsonl"
        lines = ["", '{"features": [1.0, 2.0], "labels": [1], "k": %d}' % 10**15]
        write_lines(path, lines * 3)
        assert split_error(path, cpus, 2) == (
            f"{path}:2: k = {10**15} is too large; no memory for a 3 x "
            f"{10**15 + 1} label matrix")


class TestChildren:
    def test_interrupt_in_own_range_reaps_children(self, tmp_path, cpus,
                                                   monkeypatch):
        path = tmp_path / "data.jsonl"
        write_lines(path, [LINE] * 40)

        def interrupted(obj):
            raise KeyboardInterrupt

        monkeypatch.setattr(dataio, "_parse_instance", interrupted)
        cpus(3)
        with pytest.raises(KeyboardInterrupt):
            load_dataset(str(path))
        no_child_left()

    def test_fork_warning_is_silenced(self, tmp_path, cpus):
        # a load with other threads running warns of nothing
        path = tmp_path / "data.jsonl"
        write_lines(path, [LINE] * 20)
        cpus(2)
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
        no_child_left()
