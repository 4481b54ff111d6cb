"""Saving a dataset as row blocks formatted in forked children.

The tests force several blocks on small datasets by lowering the block size
(`MIN_RANGE_BYTES`) and setting the CPU count the writer sees. Every save
must write the bytes of a one-pass save and leave no child process behind;
a failed save leaves no file.
"""

import errno
import io
import json
import os
import re
import signal
import threading
import time
import tracemalloc
import warnings

import pytest

from ncrl_lab.datagen import SyntheticConfig, generate, take
from ncrl_lab.harness import dataio
from ncrl_lab.harness.dataio import save_dataset

# 1100 rows, so a block of up to three holds more than one chunk of rows
DATA = generate(SyntheticConfig(num_labels=5, feature_dim=4, num_instances=1100,
                                none_fraction_target=0.3, seed=2))


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def cpus(monkeypatch):
    """`cpus(n)` lets the writer cut any dataset of n rows or more into n
    blocks."""
    def force(count):
        monkeypatch.setattr(dataio, "MIN_RANGE_BYTES", 1)
        monkeypatch.setattr(dataio, "_usable_cpus", lambda: count)
    return force


def one_pass_text(data) -> bytes:
    """The file as `json.dumps` of each row's dict gives it."""
    return "".join(json.dumps({
        "features": [float(v) for v in data.features[row]],
        "labels": [int(i) for i in range(1, data.k + 1) if data.labels[row, i]],
        "k": data.k}) + "\n" for row in range(len(data))).encode()


def saved_bytes(path):
    save_dataset(DATA, str(path))
    no_child_left()
    return path.read_bytes()


def assert_nothing_left(tmp_path):
    no_child_left()
    assert list(tmp_path.iterdir()) == []  # no output and no .part file


class TestSameFile:
    def test_bytes_of_one_pass_for_1_2_3_7_blocks(self, tmp_path, cpus):
        expected = one_pass_text(DATA)
        for count in (1, 2, 3, 7):
            cpus(count)
            assert len(dataio._row_blocks(DATA)) == count
            assert saved_bytes(tmp_path / f"{count}.jsonl") == expected

    def test_blocks_follow_the_save_size_rule(self, monkeypatch):
        # the text is estimated as the first line's length times the rows,
        # and cut into up to one block per CPU of at least MIN_RANGE_BYTES
        monkeypatch.setattr(dataio, "_usable_cpus", lambda: 8)
        assert dataio._row_blocks(DATA) == [(0, 1100)]  # under 2 MiB
        first = len(one_pass_text(DATA).split(b"\n")[0]) + 1
        monkeypatch.setattr(dataio, "MIN_RANGE_BYTES", first * 550 + 1)
        assert dataio._row_blocks(DATA) == [(0, 1100)]
        monkeypatch.setattr(dataio, "MIN_RANGE_BYTES", first * 550)
        assert dataio._row_blocks(DATA) == [(0, 550), (550, 1100)]
        monkeypatch.setattr(dataio, "MIN_RANGE_BYTES", 1)
        blocks = dataio._row_blocks(DATA)
        assert len(blocks) == 8 and blocks[0][0] == 0 and blocks[-1][1] == 1100
        assert all(end == start for (_, end), (start, _) in zip(blocks, blocks[1:]))
        assert dataio._row_blocks(take(DATA, range(5))) == [
            (i, i + 1) for i in range(5)]  # never an empty block
        monkeypatch.delattr(os, "fork")
        assert dataio._row_blocks(DATA) == [(0, 1100)]

    def test_file_mode_follows_the_umask(self, tmp_path, cpus):
        cpus(3)
        for umask in (0o022, 0o007):
            old = os.umask(umask)
            try:
                path = tmp_path / f"{umask:o}.jsonl"
                saved_bytes(path)
            finally:
                os.umask(old)
            assert path.stat().st_mode & 0o777 == 0o666 & ~umask

    def test_memory_bound_holds_with_blocks(self, tmp_path, cpus):
        # the bound of test_harness's test_save_streams_lines: the children's
        # text is copied here in bounded chunks, never held whole
        data = generate(SyntheticConfig(num_labels=10, feature_dim=20,
                                        num_instances=3000,
                                        none_fraction_target=0.3))
        path = str(tmp_path / "data.jsonl")
        for count in (2, 7):
            cpus(count)
            tracemalloc.start()
            try:
                save_dataset(data, path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 0.5 * os.path.getsize(path)
            no_child_left()

    def test_fork_warning_is_silenced(self, tmp_path, cpus):
        # Python 3.12+ warns when a process with other threads forks; the
        # message below is the one the filter must match
        assert re.match(dataio._FORK_WARNING,
                        "This process (pid=123) is multi-threaded, use of "
                        "fork() may lead to deadlocks in the child.")
        cpus(2)
        release = threading.Event()
        worker = threading.Thread(target=release.wait)
        worker.start()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert saved_bytes(tmp_path / "data.jsonl") == one_pass_text(DATA)
        finally:
            release.set()
            worker.join(timeout=10)
        assert not worker.is_alive()


class TestChildren:
    def test_killed_child_block_is_formatted_here(self, tmp_path, cpus,
                                                  monkeypatch):
        parent = os.getpid()
        text = dataio._dataset_text

        def dies_mid_block(data, lo, hi):
            for index, chunk in enumerate(text(data, lo, hi)):
                if os.getpid() != parent and index == 1:
                    os.kill(os.getpid(), signal.SIGKILL)
                yield chunk

        monkeypatch.setattr(dataio, "_dataset_text", dies_mid_block)
        for count in (2, 3):
            cpus(count)
            path = tmp_path / f"{count}.jsonl"
            assert saved_bytes(path) == one_pass_text(DATA)

    @pytest.mark.parametrize("cut", ["header", "half", "last byte"])
    def test_child_dying_mid_send_is_formatted_here(self, tmp_path, cpus,
                                                    monkeypatch, cut):
        # what a child sent before it died is taken back out of the file
        send = dataio._send_text

        def part_of_a_send(pipe, data, block):
            buffer = io.BytesIO()
            send(buffer, data, block)
            sent = buffer.getvalue()
            pipe.write(sent[:{"header": 5, "half": len(sent) // 2,
                              "last byte": len(sent) - 1}[cut]])
            pipe.flush()
            os._exit(0)

        monkeypatch.setattr(dataio, "_send_text", part_of_a_send)
        for count in (2, 3):
            cpus(count)
            path = tmp_path / f"{count}.jsonl"
            assert saved_bytes(path) == one_pass_text(DATA)

    def test_failed_fork_block_is_formatted_here(self, tmp_path, cpus,
                                                 monkeypatch):
        # the fork for the second block fails, as it does at the process
        # limit; the third block's child still sends its text
        fork, calls = os.fork, []

        def fails_once():
            calls.append(1)
            if len(calls) == 1:
                raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
            return fork()

        monkeypatch.setattr(os, "fork", fails_once)
        cpus(3)
        assert saved_bytes(tmp_path / "data.jsonl") == one_pass_text(DATA)
        assert len(calls) == 2  # one fork per block after the first

    @pytest.mark.parametrize("error", [KeyboardInterrupt, OSError])
    def test_failure_in_own_block_leaves_nothing(self, tmp_path, cpus,
                                                 monkeypatch, error):
        parent = os.getpid()
        text = dataio._dataset_text

        def fails_here(data, lo, hi):
            for index, chunk in enumerate(text(data, lo, hi)):
                if os.getpid() == parent and index == 1:
                    raise error("stopped in the first block")
                yield chunk

        monkeypatch.setattr(dataio, "_dataset_text", fails_here)
        cpus(3)
        with pytest.raises(error, match="first block"):
            save_dataset(DATA, str(tmp_path / "data.jsonl"))
        assert_nothing_left(tmp_path)

    def test_interrupt_does_not_wait_for_children(self, tmp_path, cpus,
                                                  monkeypatch):
        # the children still forming their blocks are killed, not awaited
        parent = os.getpid()
        text = dataio._dataset_text

        def slow_in_children(data, lo, hi):
            if os.getpid() != parent:
                time.sleep(30)
            elif lo == 0 and hi > 1:
                raise KeyboardInterrupt
            yield from text(data, lo, hi)

        monkeypatch.setattr(dataio, "_dataset_text", slow_in_children)
        cpus(3)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            save_dataset(DATA, str(tmp_path / "data.jsonl"))
        assert time.monotonic() - start < 10
        assert_nothing_left(tmp_path)

    def test_interrupt_while_copying_leaves_nothing(self, tmp_path, cpus,
                                                    monkeypatch):
        copy = dataio._copy_text

        def interrupted(pipe, handle):
            handle.write(pipe.read(100))
            raise KeyboardInterrupt

        monkeypatch.setattr(dataio, "_copy_text", interrupted)
        cpus(4)
        with pytest.raises(KeyboardInterrupt):
            save_dataset(DATA, str(tmp_path / "data.jsonl"))
        assert_nothing_left(tmp_path)
        monkeypatch.setattr(dataio, "_copy_text", copy)
        assert saved_bytes(tmp_path / "data.jsonl") == one_pass_text(DATA)

    def test_bad_target_forks_nothing(self, tmp_path, cpus):
        cpus(3)
        with pytest.raises(FileNotFoundError):
            save_dataset(DATA, str(tmp_path / "missing" / "data.jsonl"))
        with pytest.raises(IsADirectoryError):
            save_dataset(DATA, str(tmp_path))
        assert_nothing_left(tmp_path)
