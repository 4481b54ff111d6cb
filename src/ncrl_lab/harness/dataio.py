"""File formats: JSONL datasets, JSON reports, CSV results, config files.

Datasets are one JSON object per line, `{"features": [...], "labels":
[positive indices 1..K], "k": K}`; the none flag is derived on load, never
stored. All writers go through a temp file plus atomic rename so failed runs
leave no partial outputs.
"""

from __future__ import annotations

import csv
import json
import os
import sys
import tempfile
from dataclasses import dataclass

import numpy as np

from ..datagen import Dataset

CSV_HEADER = ("experiment", "loss", "gamma", "seed", "split", "metric",
              "value", "seconds")


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


def _atomic_text_write(path: str, body: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".part")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(body)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_dataset(data: Dataset, path: str) -> None:
    lines = []
    for row in range(len(data)):
        positives = np.nonzero(data.labels[row, 1:])[0] + 1
        lines.append(json.dumps({
            "features": data.features[row].tolist(),
            "labels": [int(i) for i in positives],
            "k": data.k,
        }))
    _atomic_text_write(path, "\n".join(lines) + "\n")


def _parse_instance(obj: dict, where: str):
    if not isinstance(obj, dict):
        raise ValueError(f"{where}: expected a JSON object")
    for key in ("features", "labels", "k"):
        if key not in obj:
            raise ValueError(f"{where}: missing required key {key!r}")
    k = obj["k"]
    # JSON true/false load as bool, a subclass of int; neither is an index
    if isinstance(k, bool) or not isinstance(k, int) or k < 1:
        raise ValueError(f"{where}: k must be a positive integer")
    features = obj["features"]
    if not isinstance(features, list) or not features:
        raise ValueError(f"{where}: features must be a nonempty list")
    # bool is a type of its own here, so JSON true/false fail as well
    types = set(map(type, features))
    if not types <= {int, float}:
        raise ValueError(f"{where}: features must be numbers")
    if int in types and any(abs(v) > sys.float_info.max for v in features):
        raise ValueError(f"{where}: features must be finite numbers")
    labels = obj["labels"]
    if not isinstance(labels, list) or any(
            isinstance(i, bool) or not isinstance(i, int) for i in labels):
        raise ValueError(f"{where}: labels must be a list of integer indices")
    if any(i < 1 or i > k for i in labels):
        raise ValueError(
            f"{where}: y0-consistency violated; label indices must lie in 1..{k} "
            "(the none class is derived, never listed)"
        )
    if len(set(labels)) != len(labels):
        raise ValueError(f"{where}: duplicate label indices")
    if "none" in obj and not isinstance(obj["none"], bool):
        raise ValueError(f"{where}: \"none\" must be a JSON boolean")
    if "none" in obj and obj["none"] != (len(labels) == 0):
        raise ValueError(
            f"{where}: y0-consistency violated; \"none\" flag contradicts labels"
        )
    return features, labels, k


def load_dataset(path: str) -> Dataset:
    features, flag_rows, line_nos = [], [], []
    k = dim = None
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}:{line_no}"
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{where}: malformed JSON ({exc.msg})") from exc
            feats, labels, line_k = _parse_instance(obj, where)
            if k is None:
                k, dim = line_k, len(feats)
            elif line_k != k:
                raise ValueError(f"{where}: k changed from {k} to {line_k}")
            elif len(feats) != dim:
                raise ValueError(
                    f"{where}: feature length {len(feats)} != {dim}"
                )
            flags = np.zeros(k + 1, dtype=int)
            flags[labels] = 1
            flags[0] = int(not labels)
            features.append(feats)
            flag_rows.append(flags)
            line_nos.append(line_no)
    if not features:
        raise ValueError(f"{path}: no instances")
    matrix = np.asarray(features, dtype=float)
    finite = np.isfinite(matrix).all(axis=1)
    if not finite.all():  # JSON NaN and Infinity parse as floats
        raise ValueError(f"{path}:{line_nos[np.argmin(finite)]}: features "
                         "must be finite numbers")
    return Dataset(matrix, np.asarray(flag_rows), provenance={"source": path})


def save_json(obj, path: str) -> None:
    _atomic_text_write(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def load_json(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def write_results_csv(rows, path: str) -> None:
    import io

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in rows:
        writer.writerow([
            row.experiment, row.loss, repr(float(row.gamma)), row.seed,
            row.split, row.metric, repr(float(row.value)),
            repr(float(row.seconds)),
        ])
    _atomic_text_write(path, buffer.getvalue())


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
    """Flat `key = value` config; # starts a comment, blank lines ignored."""
    values = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{line_no}: expected key = value")
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values
