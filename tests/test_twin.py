"""A large dataset file's binary twin.

A load that finds a twin whose format number and sha256 match the file's
bytes reads it instead of parsing, and gives what a parse gives; any other
twin is parsed over, and no twin ever fails a load or changes its error.
Most tests lower the twin size rule, so that small files get twins.
"""

import errno
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ncrl_lab
from ncrl_lab.datagen import SyntheticConfig, generate
from ncrl_lab.harness import dataio
from ncrl_lab.harness.dataio import TWIN_SUFFIX, load_dataset, save_dataset

SRC = os.path.dirname(os.path.dirname(os.path.abspath(ncrl_lab.__file__)))

# blank lines, \r\n endings, -0.0, a subnormal, ints and a none row
MIXED = (b'{"features": [0.5, -0.0, 5e-324], "labels": [2], "k": 3}\r\n'
         b"\n \t\r\n"
         b'{"features": [1, -2, 1e308], "labels": [], "k": 3}\n'
         b'{"features": [0.1, 0.2, 0.3], "labels": [3, 1], "k": 3}\r\n')
ALL_NONE = b"".join(b'{"features": [%d.25, -1.5], "labels": [], "k": 4}\n' % i
                    for i in range(6))
K_ONE = b"".join(b'{"features": [%d.5], "labels": [%s], "k": 1}\n'
                 % (i, b"1" if i % 2 else b"") for i in range(7))


@pytest.fixture
def twins(monkeypatch):
    """Give every nonempty file a twin."""
    monkeypatch.setattr(dataio, "TWIN_MIN_BYTES", 1)


def twin_of(path):
    return f"{path}{TWIN_SUFFIX}"


def loaded(data):
    """Everything a load gives, the features as int64 bits."""
    return (data.features.dtype, data.features.shape,
            data.features.view(np.int64).tolist(), data.labels.dtype,
            data.labels.tolist(), data.provenance)


def refuse_parse(path):
    raise AssertionError(f"{path} was parsed, not read from its twin")


def from_twin(path):
    """Load `path`, which must be read from its twin."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dataio, "_parse_dataset", refuse_parse)
        return load_dataset(str(path))


def parses(monkeypatch):
    """The list of paths parsed from now on, each appended as it is."""
    calls = []
    parse = dataio._parse_dataset
    monkeypatch.setattr(dataio, "_parse_dataset",
                        lambda path: calls.append(path) or parse(path))
    return calls


def error_of(path):
    with pytest.raises(ValueError) as info:
        load_dataset(str(path))
    return str(info.value)


class TestTwinLoad:
    @pytest.mark.parametrize("text", [MIXED, ALL_NONE, K_ONE],
                             ids=["blank-lines-crlf", "all-none", "k1"])
    def test_twin_gives_the_parse_bit_for_bit(self, tmp_path, twins, text):
        path = tmp_path / "data.jsonl"
        path.write_bytes(text)
        parsed = load_dataset(str(path))
        assert os.path.isfile(twin_of(path))
        assert loaded(from_twin(path)) == loaded(parsed)
        assert parsed.provenance == {"source": str(path)}

    def test_generated_dataset_round_trips_through_its_twin(self, tmp_path,
                                                            twins):
        data = generate(SyntheticConfig(num_labels=6, feature_dim=5,
                                        num_instances=300,
                                        none_fraction_target=0.3, seed=8))
        path = tmp_path / "data.jsonl"
        save_dataset(data, str(path))
        assert not os.path.exists(twin_of(path))  # saving writes no twin
        parsed = load_dataset(str(path))
        assert loaded(from_twin(path)) == loaded(parsed)
        assert from_twin(path) == data
        assert from_twin(path).labels.dtype == parsed.labels.dtype == bool

    def test_edited_file_is_parsed_again(self, tmp_path, twins):
        path = tmp_path / "data.jsonl"
        path.write_bytes(MIXED)
        load_dataset(str(path))
        path.write_bytes(MIXED.replace(b"0.5", b"0.7"))  # same size
        edited = load_dataset(str(path))
        assert edited.features[0, 0] == 0.7
        assert loaded(from_twin(path)) == loaded(edited)  # written again

    @pytest.mark.parametrize("bad, reason", [
        (b"{oops", "malformed JSON (Expecting property name enclosed in "
                   "double quotes)"),
        (b'{"features": [0.1, 0.2, 0.3], "labels": [4], "k": 3}',
         "y0-consistency violated"),
        (b'{"features": [0.1, 0.2, \xff], "labels": [], "k": 3}',
         "not UTF-8 text (0xff at byte 25 of the line: invalid start byte)"),
    ])
    def test_bad_edit_reports_the_error_of_a_parse(self, tmp_path, twins,
                                                   bad, reason):
        path = tmp_path / "data.jsonl"
        path.write_bytes(MIXED)
        load_dataset(str(path))
        lines = MIXED.split(b"\n")
        lines[2] = bad
        path.write_bytes(b"\n".join(lines))
        with_twin = error_of(path)
        assert with_twin.startswith(f"{path}:3: {reason}")
        os.remove(twin_of(path))
        assert error_of(path) == with_twin

    def test_failed_parse_writes_no_twin(self, tmp_path, twins):
        path = tmp_path / "data.jsonl"
        path.write_bytes(MIXED + b'{"features": [NaN, 0, 0], "labels": [], "k": 3}\n')
        assert error_of(path) == f"{path}:6: features must be finite numbers"
        assert os.listdir(tmp_path) == ["data.jsonl"]

    def test_format_number_change_parses_again(self, tmp_path, twins,
                                               monkeypatch):
        path = tmp_path / "data.jsonl"
        path.write_bytes(MIXED)
        parsed = load_dataset(str(path))
        monkeypatch.setattr(dataio, "TWIN_FORMAT", dataio.TWIN_FORMAT + 1)
        calls = parses(monkeypatch)
        assert loaded(load_dataset(str(path))) == loaded(parsed)
        assert calls == [str(path)]
        assert loaded(from_twin(path)) == loaded(parsed)  # the new format's

    def test_file_under_the_size_rule_gets_no_twin(self, tmp_path,
                                                   monkeypatch):
        path = tmp_path / "data.jsonl"
        path.write_bytes(ALL_NONE)
        monkeypatch.setattr(dataio, "TWIN_MIN_BYTES", len(ALL_NONE) + 1)
        load_dataset(str(path))
        assert os.listdir(tmp_path) == ["data.jsonl"]
        monkeypatch.setattr(dataio, "TWIN_MIN_BYTES", len(ALL_NONE))
        load_dataset(str(path))
        assert os.path.isfile(twin_of(path))

    def test_small_file_reads_no_twin(self, tmp_path, monkeypatch):
        # a twin left next to a file under the size rule is not read
        path = tmp_path / "data.jsonl"
        path.write_bytes(K_ONE)
        monkeypatch.setattr(dataio, "TWIN_MIN_BYTES", 1)
        parsed = load_dataset(str(path))
        monkeypatch.setattr(dataio, "TWIN_MIN_BYTES", len(K_ONE) + 1)
        calls = parses(monkeypatch)
        assert loaded(load_dataset(str(path))) == loaded(parsed)
        assert calls == [str(path)]


class TestTwinNeverFailsALoad:
    @settings(max_examples=200)
    @given(st.data())
    def test_damaged_twin_gives_the_parse(self, tmp_path_factory, data):
        # any twin, a truncated one, one with bytes inserted, overwritten or
        # removed (so garbage, or failing a CRC), loads as the parse does
        path = tmp_path_factory.mktemp("twin") / "data.jsonl"
        path.write_bytes(data.draw(st.sampled_from([MIXED, ALL_NONE, K_ONE])))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dataio, "TWIN_MIN_BYTES", 1)
            expected = loaded(load_dataset(str(path)))
            with open(twin_of(path), "rb") as handle:
                twin = bytearray(handle.read())
            kind = data.draw(st.sampled_from(
                ["truncate", "insert", "overwrite", "remove"]))
            at = data.draw(st.integers(0, len(twin) - 1))
            if kind == "truncate":
                del twin[at:]
            elif kind == "insert":
                twin[at:at] = data.draw(st.binary(min_size=1, max_size=8))
            elif kind == "remove":
                del twin[at:at + data.draw(st.integers(1, 64))]
            else:
                for _ in range(data.draw(st.integers(1, 4))):
                    twin[data.draw(st.integers(0, len(twin) - 1))] = \
                        data.draw(st.integers(0, 255))
            with open(twin_of(path), "wb") as handle:
                handle.write(twin)
            assert loaded(load_dataset(str(path))) == expected
            assert loaded(from_twin(path)) == expected  # whole again

    def test_twin_of_another_file_is_parsed_over(self, tmp_path, twins):
        first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
        first.write_bytes(MIXED)
        second.write_bytes(ALL_NONE)
        load_dataset(str(first))
        os.replace(twin_of(first), twin_of(second))
        assert loaded(load_dataset(str(second))) == loaded(from_twin(second))
        assert len(from_twin(second)) == 6

    @pytest.mark.parametrize("failure", ["read-only directory", "disk full",
                                         "directory in the way"])
    def test_failed_twin_write_still_loads(self, tmp_path, twins, monkeypatch,
                                           failure):
        path = tmp_path / "data.jsonl"
        path.write_bytes(MIXED)
        copy = tmp_path / "copy" / "data.jsonl"
        copy.parent.mkdir()
        copy.write_bytes(MIXED)
        expected = loaded(load_dataset(str(copy)))
        if failure == "disk full":
            def short_write(handle, **arrays):
                handle.write(b"PK\x03\x04 a part")
                raise OSError(errno.ENOSPC, "No space left on device")
            monkeypatch.setattr(np, "savez", short_write)
        elif failure == "directory in the way":
            os.mkdir(twin_of(path))
        elif os.geteuid() == 0:
            # permission bits do not stop root from writing; fail the temp
            # file as a read-only directory fails it
            def read_only(*args, **kwargs):
                raise PermissionError(errno.EACCES, "Permission denied")
            monkeypatch.setattr(dataio.tempfile, "mkstemp", read_only)
        before = sorted(os.listdir(tmp_path))
        if failure == "read-only directory":
            tmp_path.chmod(0o555)
        try:
            got = load_dataset(str(path))
        finally:
            tmp_path.chmod(0o755)
        assert loaded(got)[:-1] == expected[:-1]
        assert got.provenance == {"source": str(path)}
        assert sorted(os.listdir(tmp_path)) == before  # no twin, no .part file


def test_fresh_interpreter_reads_the_twin(tmp_path):
    # a file of at least TWIN_MIN_BYTES, under the loader's own rule,
    # loaded in a child whose json.loads refuses every line: it loads from
    # the twin this process wrote, and fails once the twin is gone
    path = tmp_path / "data.jsonl"
    save_dataset(generate(SyntheticConfig(num_labels=10, feature_dim=40,
                                          num_instances=5000, seed=4)),
                 str(path))
    assert path.stat().st_size >= dataio.TWIN_MIN_BYTES
    parsed = load_dataset(str(path))
    script = (
        "import hashlib, json, sys\n"
        "def refuse(*args, **kwargs):\n"
        "    raise RuntimeError('json.loads was called')\n"
        "json.loads = refuse\n"
        "from ncrl_lab.harness.dataio import load_dataset\n"
        "data = load_dataset(sys.argv[1])\n"
        "print(json.dumps([str(data.features.dtype), data.features.shape,\n"
        "                  hashlib.sha256(data.features).hexdigest(),\n"
        "                  str(data.labels.dtype), data.labels.shape,\n"
        "                  hashlib.sha256(data.labels).hexdigest(),\n"
        "                  data.provenance]))\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")]))}

    def child():
        return subprocess.run([sys.executable, "-c", script, str(path)],
                              capture_output=True, text=True, env=env,
                              timeout=120)

    proc = child()
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [
        "float64", list(parsed.features.shape),
        hashlib.sha256(parsed.features).hexdigest(),
        str(parsed.labels.dtype), list(parsed.labels.shape),
        hashlib.sha256(parsed.labels).hexdigest(), {"source": str(path)}]
    os.remove(twin_of(path))
    proc = child()
    assert proc.returncode != 0 and "json.loads was called" in proc.stderr
