"""File formats: JSONL datasets, JSON reports, CSV results, config files.

Datasets are one JSON object per line, `{"features": [...], "labels":
[positive indices 1..K], "k": K}`; the none flag is derived on load, never
stored. Datasets stream line by line: saving writes each line as soon as it
is formed, and loading appends each line's checked features to one growing
float64 buffer that becomes the feature matrix without a copy, so neither
holds a whole-file copy of the text or of the values as Python objects. All
writers go through a temp file plus atomic rename so failed runs leave no
partial outputs.
"""

from __future__ import annotations

import array
import csv
import io
import json
import os
import sys
import tempfile
from dataclasses import dataclass, fields

import numpy as np

from ..datagen import Dataset


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
    seconds: float


CSV_HEADER = tuple(f.name for f in fields(ResultRow))


def _atomic_text_write(path: str, chunks) -> None:
    """Write the strings of the iterable `chunks` to `path` as they come; a
    failure part way, in a write or in forming a chunk, leaves no file. The
    file gets the mode `open` would give it, 0o666 less the umask."""
    directory = os.path.dirname(os.path.abspath(path))
    umask = os.umask(0)  # read by setting it, then put back at once
    os.umask(umask)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".part")  # mode 0600
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.writelines(chunks)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_dataset(data: Dataset, path: str) -> None:
    _atomic_text_write(path, (json.dumps({
        "features": features.tolist(),
        "labels": (np.flatnonzero(flags[1:]) + 1).tolist(),
        "k": data.k,
    }) + "\n" for features, flags in zip(data.features, data.labels)))


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


def _lines(handle, path: str):
    """Numbered lines of a text file. Text mode decodes whole chunks, so a
    byte that is not UTF-8 is located by rescanning the raw lines."""
    try:
        yield from enumerate(handle, start=1)
    except UnicodeDecodeError:
        with open(path, "rb") as raw:  # bytes split lines as text mode does
            for line_no, line in enumerate(raw.read().splitlines(True), start=1):
                try:
                    line.decode("utf-8")
                except UnicodeDecodeError as bad:
                    raise ValueError(f"{path}:{line_no}: not UTF-8 text (0x"
                                     f"{line[bad.start]:02x} at byte {bad.start + 1} "
                                     f"of the line: {bad.reason})") from bad
        raise


def load_dataset(path: str) -> Dataset:
    values = array.array("d")  # row-major features, grown line by line
    labels, counts, line_nos = (array.array("q") for _ in range(3))
    k = dim = None
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, line in _lines(handle, path):
            line = line.strip()
            if not line:
                continue
            # the location is formatted only when a line is refused
            try:
                feats, line_labels, line_k = _parse_instance(json.loads(line))
                if k is None:
                    k, dim = line_k, len(feats)
                elif line_k != k:
                    raise ValueError(f"k changed from {k} to {line_k}")
                elif len(feats) != dim:
                    raise ValueError(f"feature length {len(feats)} != {dim}")
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{line_no}: malformed JSON ({exc.msg})") from exc
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: {exc}") from exc
            values.extend(feats)
            labels.extend(line_labels)
            counts.append(len(line_labels))
            line_nos.append(line_no)
    if not counts:
        raise ValueError(f"{path}: no instances")
    matrix = np.frombuffer(values, dtype=float).reshape(len(counts), dim)
    finite = np.isfinite(matrix).all(axis=1)
    if not finite.all():  # JSON NaN and Infinity parse as floats
        raise ValueError(f"{path}:{line_nos[np.argmin(finite)]}: features "
                         "must be finite numbers")
    counts = np.frombuffer(counts, dtype=np.int64)
    flags = np.zeros((len(counts), k + 1), dtype=int)
    flags[np.repeat(np.arange(len(counts)), counts),
          np.frombuffer(labels, dtype=np.int64)] = 1
    flags[:, 0] = counts == 0
    return Dataset(matrix, flags, provenance={"source": path})


def save_json(obj, path: str) -> None:
    _atomic_text_write(path, [json.dumps(obj, indent=2, sort_keys=True) + "\n"])


def load_json(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def write_results_csv(rows, path: str) -> None:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in rows:
        writer.writerow([
            row.experiment, row.loss, repr(float(row.gamma)), row.seed,
            row.split, row.metric, repr(float(row.value)),
            repr(float(row.seconds)),
        ])
    _atomic_text_write(path, [buffer.getvalue()])


def read_results_csv(path: str) -> list:
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if tuple(header or ()) != CSV_HEADER:
            raise ValueError(f"{path}: unexpected CSV header {header}")
        for record in reader:
            experiment, loss, gamma, seed, split, metric, value, secs = record
            rows.append(ResultRow(experiment, loss, float(gamma),
                                  seed if seed == "all" else int(seed),
                                  split, metric, float(value), float(secs)))
    return rows


def read_config_file(path: str) -> dict:
    """Flat `key = value` config; # starts a comment, blank lines ignored.

    An empty key and a key given twice are refused with the line's location.
    """
    values = {}
    with open(path, "r", encoding="utf-8") as handle:
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
