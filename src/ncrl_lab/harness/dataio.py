"""File formats: JSONL datasets, JSON reports, CSV results, config files.

Datasets are one JSON object per line, `{"features": [...], "labels":
[positive indices 1..K], "k": K}`; the none flag is derived on load, never
stored. Datasets stream: saving formats a bounded chunk of rows at a time
and writes it as soon as it is formed, and loading reads the file in one
pass in this process, appending each line's checked features to a growing
float64 buffer, so neither holds a whole-file copy of the text or of the
values as Python objects.

A dataset is saved as up to one row block per usable CPU, each of at least
`MIN_RANGE_BYTES` of estimated text: this process forks a child for each
block after the first, formats and writes the first block, then copies
each child's text, sent back through a pipe, in file order; a block whose
fork failed or whose child died is formatted here. The bytes written are
those of one pass.

A regular file of at least `TWIN_MIN_BYTES` gets a binary twin, the
file's path plus `TWIN_SUFFIX` (`data.jsonl.twin.npz`), after a successful
parse: an npz file, read without pickle, holding the parsed features and
the Dataset's bool label flags as they are, the file's sha256 and
`TWIN_FORMAT`. A later load reads the twin when its format number and
sha256 match the file's current bytes, and parses the file in every other
case, rewriting the twin. The twin is written through `_atomic_write`, and
a failed write is skipped, so it is only ever a whole copy: it never fails
a load nor changes a value or an error, and deleting it is always safe.

Every reader follows one rule: the first line in file order that is
refused, for a byte that is not UTF-8 or for its content, is reported as
`path:line: reason`. Files are decoded with `surrogateescape`, so
decoding never fails, and each line is checked for an escaped byte where
it is parsed. A dataset row with a non-finite value is refused at its line
too. All writers go through a temp file plus atomic rename so failed runs
leave no partial outputs.
"""

from __future__ import annotations

import array
import contextlib
import csv
import hashlib
import io
import json
import os
import signal
import sys
import tempfile
import warnings
from dataclasses import dataclass, fields

import numpy as np

from ..datagen import Dataset

# A dataset is saved as row blocks of at least this much estimated text,
# one per usable CPU, so one under twice this size is written in one pass.
MIN_RANGE_BYTES = 1 << 20

# Rows are formatted in chunks of this many lines, about 0.3 MiB of text at
# K=28 and 50 features, and a child's text is copied in chunks of this many
# bytes, so the text held in this process stays bounded.
_CHUNK_ROWS = 256
_COPY_BYTES = 1 << 16

# A regular dataset file of at least this size gets a twin, its path plus
# this suffix. Bump the format number with any change to what a JSONL file
# loads as, its values or its errors, so that older twins are parsed again.
TWIN_MIN_BYTES = 2 << 20
TWIN_SUFFIX = ".twin.npz"
TWIN_FORMAT = 1

_FORK_WARNING = (r"This process \(pid=\d+\) is multi-threaded, use of fork\(\) "
                 r"may lead to deadlocks in the child")


@dataclass
class ResultRow:
    """One measurement: a metric value for an (experiment, loss, seed) cell."""

    experiment: str
    loss: str
    gamma: float
    seed: object  # per-seed rows carry the int seed, summary rows "all"
    split: str
    metric: str
    value: float


CSV_HEADER = tuple(f.name for f in fields(ResultRow))


def check_output_path(path: str) -> None:
    """Refuse, naming `path`, an output path that no file can take: an empty
    one, one ending in a path separator, a directory, or one whose directory
    does not exist; the CLI checks its --out before any work."""
    if not path:
        raise ValueError("'': an empty path is not an output file")
    if path.endswith(tuple(filter(None, (os.sep, os.altsep)))):
        raise ValueError(f"{path}: ends in a path separator, not an output file")
    if os.path.isdir(path):
        raise IsADirectoryError(f"{path}: is a directory, not an output file")
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory):
        raise FileNotFoundError(f"{path}: no directory {directory} to write into")


def _atomic_write(path: str, write) -> None:
    """Call `write(handle)` with a binary file that then becomes `path`; a
    failure part way, in a write or in forming the text, leaves no file. The
    file gets the mode `open` would give it, 0o666 less the umask."""
    check_output_path(path)
    directory = os.path.dirname(os.path.abspath(path))
    umask = os.umask(0)  # read by setting it, then put back at once
    os.umask(umask)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".part")  # mode 0600
    try:
        with os.fdopen(fd, "wb") as handle:
            write(handle)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _atomic_text_write(path: str, chunks) -> None:
    """Write the strings of the iterable `chunks` to `path` as UTF-8 as they
    come, through `_atomic_write`."""
    _atomic_write(path, lambda handle: handle.writelines(
        chunk.encode("utf-8") for chunk in chunks))


def _parse_instance(obj: dict):
    """(features, labels, k) of one decoded line; errors name no location."""
    if not isinstance(obj, dict):
        raise ValueError("expected a JSON object")
    for key in ("features", "labels", "k"):
        if key not in obj:
            raise ValueError(f"missing required key {key!r}")
    k = obj["k"]
    # JSON true/false load as bool, a subclass of int; neither is an index
    if isinstance(k, bool) or not isinstance(k, int) or k < 1:
        raise ValueError("k must be a positive integer")
    features = obj["features"]
    if not isinstance(features, list) or not features:
        raise ValueError("features must be a nonempty list")
    # bool is a type of its own here, so JSON true/false fail as well
    types = set(map(type, features))
    if not types <= {int, float}:
        raise ValueError("features must be numbers")
    if int in types and any(abs(v) > sys.float_info.max for v in features):
        raise ValueError("features must be finite numbers")
    labels = obj["labels"]
    if not isinstance(labels, list) or any(
            isinstance(i, bool) or not isinstance(i, int) for i in labels):
        raise ValueError("labels must be a list of integer indices")
    if any(i < 1 or i > k for i in labels):
        raise ValueError(
            f"y0-consistency violated; label indices must lie in 1..{k} "
            "(the none class is derived, never listed)"
        )
    if len(set(labels)) != len(labels):
        raise ValueError("duplicate label indices")
    if "none" in obj and not isinstance(obj["none"], bool):
        raise ValueError("\"none\" must be a JSON boolean")
    if "none" in obj and obj["none"] != (len(labels) == 0):
        raise ValueError("y0-consistency violated; \"none\" flag contradicts labels")
    return features, labels, k


def _check_utf8(line: str) -> None:
    """Refuse a line read with `surrogateescape` that holds a byte that is
    not UTF-8, naming the byte and its place in the line."""
    if line.isascii():
        return
    raw = line.encode("utf-8", "surrogateescape")
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as bad:
        raise ValueError(f"not UTF-8 text (0x{raw[bad.start]:02x} at byte "
                         f"{bad.start + 1} of the line: {bad.reason})") from bad


def _lines(lines, path: str):
    """Numbered lines; one holding a byte that is not UTF-8 is refused as
    `path:line`."""
    for line_no, line in enumerate(lines, start=1):
        try:
            _check_utf8(line)
        except ValueError as exc:
            raise ValueError(f"{path}:{line_no}: {exc}") from exc.__cause__
        yield line_no, line


def _parse_lines(handle, path: str):
    """(row-major features, label indices, label counts, (line, k, feature
    length) of the first instance) of the lines of the text stream
    `handle`, read from `path`. The first line refused, for its bytes, its
    content or a non-finite value, is raised as `path:line: reason`."""
    values = array.array("d")  # row-major features, grown line by line
    labels, counts = array.array("q"), array.array("q")
    line_nos = array.array("q")
    first = error = None
    for line_no, line in enumerate(handle, start=1):
        text = line.strip()
        if not text:
            continue
        # the location is formatted only when a line is refused
        try:
            _check_utf8(line)
            feats, line_labels, k = _parse_instance(json.loads(text))
            if first is None:
                first = (line_no, k, len(feats))
            elif k != first[1]:
                raise ValueError(f"k changed from {first[1]} to {k}")
            elif len(feats) != first[2]:
                raise ValueError(f"feature length {len(feats)} != {first[2]}")
        except json.JSONDecodeError as exc:
            error = (line_no, f"malformed JSON ({exc.msg})", exc)
            break
        except ValueError as exc:
            error = (line_no, str(exc), exc)
            break
        values.extend(feats)
        labels.extend(line_labels)
        counts.append(len(line_labels))
        line_nos.append(line_no)
    # JSON NaN and Infinity parse as floats; every row added lies before a
    # refused line, so a non-finite row is the earlier one and wins
    if counts:
        finite = np.isfinite(np.frombuffer(values, dtype=float).reshape(
            len(counts), first[2])).all(axis=1)
        if not finite.all():
            error = (line_nos[np.argmin(finite)],
                     "features must be finite numbers", None)
    if error:
        line_no, message, cause = error
        raise ValueError(f"{path}:{line_no}: {message}") from cause
    if not counts:
        raise ValueError(f"{path}: no instances")
    return values, labels, counts, first


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):  # not on every platform
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fork(data: Dataset, block):
    """(pid, the read end of its pipe) of a forked child that sends the text
    of rows `block` of `data` through the write end by `_send_text` and
    leaves; None if fork fails."""
    read_fd, write_fd = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns that fork() in a process with other threads
            # may deadlock the child on a lock one of them held. Here those
            # are numpy's BLAS workers (OpenBLAS stops its own around a
            # fork). A child runs only `_send_text`: `repr` and numpy's
            # nonzero, searchsorted and tolist, none of which calls BLAS,
            # with every module imported, and leaves by os._exit, so it
            # takes no lock those threads use.
            warnings.filterwarnings("ignore", _FORK_WARNING, DeprecationWarning)
            pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid == 0:
        # never return into the caller, nor flush its stdio or open files,
        # nor run its cleanup or atexit handlers
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "wb") as pipe:
                _send_text(pipe, data, block)
        finally:
            os._exit(0)
    os.close(write_fd)
    return pid, os.fdopen(read_fd, "rb")


def _dataset_text(data: Dataset, lo: int, hi: int):
    """The JSONL lines of rows lo..hi of `data`, as strings of up to
    _CHUNK_ROWS lines. Each line is the `json.dumps` of its row's dict: the
    fixed key text around `repr` of the feature and label lists, which for
    finite floats and ints is the text `json.dumps` gives."""
    rows, columns = np.nonzero(data.labels[lo:hi, 1:])
    ends = np.searchsorted(rows, np.arange(hi - lo + 1))  # row i: ends[i]..ends[i+1]
    tail = f', "k": {data.k}}}\n'
    for start in range(0, hi - lo, _CHUNK_ROWS):
        stop = min(start + _CHUNK_ROWS, hi - lo)
        bounds = (ends[start:stop + 1] - ends[start]).tolist()
        labels = (columns[ends[start]:ends[stop]] + 1).tolist()
        yield "".join([
            f'{{"features": {features!r}, "labels": {labels[a:b]!r}{tail}'
            for features, a, b in zip(data.features[lo + start:lo + stop].tolist(),
                                      bounds, bounds[1:])])


def _row_blocks(data: Dataset) -> list:
    """(lo, hi) row blocks cutting `data` into up to one block per usable CPU,
    each at least MIN_RANGE_BYTES of text, estimated as the first line's
    length times the row count. Without fork, the dataset is one block."""
    size = len(next(_dataset_text(data, 0, 1))) * len(data)
    count = min(_usable_cpus(), size // MIN_RANGE_BYTES, len(data))
    if count < 2 or not hasattr(os, "fork"):
        return [(0, len(data))]
    cuts = [i * len(data) // count for i in range(count + 1)]
    return list(zip(cuts, cuts[1:]))


def _send_text(pipe, data: Dataset, block) -> None:
    """Form the whole text of a row block, then send its length and bytes;
    a child never waits on the pipe before its block is formed."""
    text = bytearray()
    for chunk in _dataset_text(data, *block):
        text += chunk.encode("ascii")
    pipe.write(len(text).to_bytes(8, "little"))
    pipe.write(text)


def _copy_text(pipe, handle):
    """Copy the text a child sent through `pipe` to `handle` in chunks of
    _COPY_BYTES; None, with nothing left written, if the child died first."""
    start = handle.tell()
    header = pipe.read(8)
    left = int.from_bytes(header, "little") if len(header) == 8 else -1
    while left > 0 and (chunk := pipe.read1(min(left, _COPY_BYTES))):
        handle.write(chunk)
        left -= len(chunk)
    if left:
        handle.seek(start)
        handle.truncate()
        return None
    return True


def _write_blocks(data: Dataset, handle) -> None:
    """Write the text of `data` to the binary file `handle` as
    `save_dataset` says, one row block per `_row_blocks` entry. Each child
    is reaped on the way out, once its text is copied or the save has
    failed, and killed first in case it has not left."""
    blocks = _row_blocks(data)
    children = [_fork(data, block) for block in blocks[1:]]
    try:
        for block, child in zip(blocks, [None, *children]):
            if child is None or not _copy_text(child[1], handle):
                for chunk in _dataset_text(data, *block):
                    handle.write(chunk.encode("ascii"))
    finally:
        for pid, pipe in filter(None, children):
            pipe.close()
            # a child is gone already where SIGCHLD is ignored or handled
            # elsewhere
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def save_dataset(data: Dataset, path: str) -> None:
    """Write `data` to `path` as JSONL, one `json.dumps` line per row.

    The rows are cut into up to one contiguous block per usable CPU, each
    of at least MIN_RANGE_BYTES of estimated text. This process formats and
    writes the first block while forked children each form the whole text
    of another block in their own memory; that text is then copied here in
    file order, in bounded chunks, so the file is the one a single pass
    writes. A block whose fork failed or whose child died is formatted
    here. Every child is reaped before this returns or raises, and a
    failure leaves no file.
    """
    _atomic_write(path, lambda handle: _write_blocks(data, handle))


def _parse_dataset(path: str) -> Dataset:
    """The dataset in the JSONL file `path`, parsed as `load_dataset` says."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as handle:
        values, labels, counts, (line, k, dim) = _parse_lines(handle, path)
    counts = np.frombuffer(counts, dtype=np.int64)
    matrix = np.frombuffer(values, dtype=float).reshape(len(counts), dim)
    try:
        flags = np.zeros((len(counts), k + 1), dtype=bool)
    except MemoryError:
        raise ValueError(f"{path}:{line}: k = {k} is too large; no memory for "
                         f"a {len(counts)} x {k + 1} label matrix") from None
    flags[np.repeat(np.arange(len(counts)), counts),
          np.frombuffer(labels, dtype=np.int64)] = True
    flags[:, 0] = counts == 0
    return Dataset(matrix, flags, provenance={"source": path})


def _twin_key(path: str):
    """The sha256 of `path` if it is a regular file of at least
    TWIN_MIN_BYTES, the files that have twins; else None, as it is for a
    file that cannot be read, which the parse then reports."""
    digest = hashlib.sha256()
    try:
        if not os.path.isfile(path) or os.path.getsize(path) < TWIN_MIN_BYTES:
            return None
        with open(path, "rb") as raw:
            while block := raw.read(1 << 20):
                digest.update(block)
    except OSError:
        return None
    return digest.hexdigest()


def _read_twin(path: str, key: str):
    """The dataset the twin of `path` holds if its format number and sha256
    match, else None."""
    # a missing, truncated or garbage twin, or one failing a CRC, is None,
    # whatever reading it raises; the file is opened here because np.load
    # leaves a file it opened itself unclosed when it starts as a zip
    # archive but cannot be read as one
    with contextlib.suppress(Exception), open(path + TWIN_SUFFIX, "rb") as handle, \
            np.load(handle, allow_pickle=False) as twin:
        if int(twin["format"]) == TWIN_FORMAT and str(twin["sha256"]) == key:
            return Dataset(twin["features"], twin["labels"],
                           provenance={"source": path})
    return None


def load_dataset(path: str) -> Dataset:
    """The dataset in the JSONL file `path`, parsed in one pass in this
    process over its text-mode lines, so `\\r\\n` and `\\r` end lines as `\\n`
    does and blank lines are counted. The first line in file order refused
    for a byte that is not UTF-8, for its content or for a non-finite value
    is reported as `path:line: reason`; a `k` or feature length that differs
    from the first instance's is refused at its line.

    A regular file of at least TWIN_MIN_BYTES is read from its twin,
    `path` + TWIN_SUFFIX, when the twin's format number and sha256 match the
    file's bytes, and is parsed otherwise; a successful parse then writes the
    twin if it can. A twin that is missing, stale or unreadable is never an
    error, and a loaded twin gives the arrays and provenance of a parse.
    """
    key = _twin_key(path)
    data = _read_twin(path, key) if key else None
    if data is None:
        data = _parse_dataset(path)
        if key:
            with contextlib.suppress(OSError, MemoryError):
                _atomic_write(path + TWIN_SUFFIX, lambda handle: np.savez(
                    handle, format=TWIN_FORMAT, sha256=key,
                    features=data.features, labels=data.labels))
    return data


def save_json(obj, path: str) -> None:
    _atomic_text_write(path, [json.dumps(obj, indent=2, sort_keys=True) + "\n"])


def load_json(path: str):
    """The decoded JSON file; its errors name the path and line. Of a JSON
    error and a byte that is not UTF-8, the one on the earlier line is
    reported, the byte on a line they share."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as handle:
        text = handle.read()
    error = None
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        error = exc
    if not text.isascii():
        for _ in _lines(text.split("\n")[:error.lineno if error else None], path):
            pass
    if error:
        raise ValueError(f"{path}:{error.lineno}: malformed JSON "
                         f"({error.msg})") from error
    return obj


def write_results_csv(rows, path: str) -> None:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in rows:
        writer.writerow([
            row.experiment, row.loss, repr(float(row.gamma)), row.seed,
            row.split, row.metric, repr(float(row.value))])
    _atomic_text_write(path, [buffer.getvalue()])


def read_config_file(path: str) -> dict:
    """Flat `key = value` config; # starts a comment, blank lines ignored.

    An empty key and a key given twice are refused with the line's location.
    """
    values = {}
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as handle:
        for line_no, line in _lines(handle, path):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{line_no}: expected key = value")
            key, _, value = line.partition("=")
            key = key.strip()
            if not key:
                raise ValueError(f"{path}:{line_no}: empty key before '='")
            if key in values:
                raise ValueError(f"{path}:{line_no}: key {key!r} given twice")
            values[key] = value.strip()
    return values
