"""Round-trip properties of the file formats a user writes by hand or by tool.

A dataset saved as JSONL is written as plain `json.dumps` lines and loads
back bit for bit, and a config file parses to the namespace the same flags
give on the command line, or is refused as they are, for every flag type the
train, compare and ablate subcommands take.
"""

import json
import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ncrl_lab.datagen import Dataset
from ncrl_lab.harness.cli import _expand_config_args, build_parser
from ncrl_lab.harness.dataio import load_dataset, save_dataset
from ncrl_lab.losses import LOSS_KINDS

EDGE_FLOATS = (-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
               1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308)


@st.composite
def datasets(draw):
    """Datasets with K down to 1, all-none rows and edge-case features."""
    n = draw(st.integers(1, 12))
    k = draw(st.integers(1, 5))
    dim = draw(st.integers(1, 4))
    features = draw(arrays(np.float64, (n, dim), elements=st.one_of(
        st.sampled_from(EDGE_FLOATS),
        st.floats(allow_nan=False, allow_infinity=False))))
    y = draw(arrays(np.int64, (n, k), elements=st.integers(0, 1)))
    y[draw(arrays(bool, n))] = 0  # all-none rows
    return Dataset(features, np.concatenate([(y.max(axis=1, keepdims=True) == 0), y],
                                            axis=1))


class TestDatasetRoundTrip:
    @settings(max_examples=150)
    @given(datasets())
    def test_save_then_load_is_exact(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "data.jsonl")
            save_dataset(data, path)
            with open(path, "rb") as handle:
                written = handle.read()
            back = load_dataset(path)
        reference = "".join(
            json.dumps({"features": [float(v) for v in data.features[row]],
                        "labels": [int(i) for i in range(1, data.k + 1)
                                   if data.labels[row, i]],
                        "k": data.k}) + "\n"
            for row in range(len(data)))
        assert written == reference.encode("utf-8")
        # compared as bits, so -0.0 and every subnormal must survive
        assert back.features.dtype == np.float64
        assert np.array_equal(back.features.view(np.int64),
                              data.features.view(np.int64))
        assert np.array_equal(back.labels, data.labels)


# value strategies by flag type, as the text a user would type
_floats = st.floats(allow_nan=False).map(repr)
_ints = st.integers(-2 ** 40, 2 ** 40).map(str)
_paths = st.from_regex(r"[A-Za-z0-9_./-]{1,12}", fullmatch=True)


def _comma(values):
    return st.lists(values, min_size=1, max_size=4).map(",".join)


_loss_entry = st.tuples(st.sampled_from(LOSS_KINDS), st.none() | _floats).map(
    lambda entry: entry[0] if entry[1] is None else f"{entry[0]}:{entry[1]}")
_switch_words = st.sampled_from(["1", "true", "yes", "on", "0", "false", "no",
                                 "off", "True", "NO", "On"])

_SYNTH = {"k": _ints, "dim": _ints, "n": _ints, "none-fraction": _floats,
          "bias": _comma(_floats), "fn-rate": _floats, "sym-rate": _floats,
          "seed": _ints}
_TRAIN = {"epochs": _ints, "batch-size": _ints, "lr": _floats, "warmup": _floats,
          "hidden": _ints, "weight-decay": _floats}
FLAGS = {
    "train": {**_TRAIN, "data": _paths, "dev": _paths,
              "loss": st.sampled_from(LOSS_KINDS), "gamma": _floats,
              "seed": _ints, "out": _paths},
    "compare": {**_SYNTH, **_TRAIN, "losses": _comma(_loss_entry),
                "seeds": _comma(_ints), "no-none-study": _switch_words,
                "out": _paths},
    "ablate": {**_SYNTH, **_TRAIN, "gamma": _floats, "seeds": _comma(_ints),
               "sweep-gamma": _comma(_floats), "out": _paths},
}
REQUIRED = {"train": ("data", "loss", "out"), "compare": ("losses", "out"),
            "ablate": ("out",)}


@st.composite
def flag_sets(draw):
    """(subcommand, {flag: value text}) with every required flag present."""
    command = draw(st.sampled_from(sorted(FLAGS)))
    chosen = draw(st.sets(st.sampled_from(sorted(FLAGS[command]))))
    chosen |= set(REQUIRED[command])
    return command, {flag: draw(FLAGS[command][flag]) for flag in sorted(chosen)}


class TestConfigFileRoundTrip:
    @settings(max_examples=200)
    @given(flag_sets())
    def test_config_file_parses_like_flags(self, case):
        command, values = case
        parser = build_parser()
        argv = [command]
        for flag, text in values.items():
            if flag != "no-none-study":
                argv.append(f"--{flag}={text}")
            elif text.lower() in ("1", "true", "yes", "on"):
                argv.append(f"--{flag}")
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "run.cfg")
            with open(path, "w", encoding="utf-8") as handle:
                for flag, text in values.items():
                    handle.write(f"{flag.replace('-', '_')} = {text}\n")
            spliced = _expand_config_args([command, "--config", path], parser)
        assert parse_outcome(parser, spliced) == parse_outcome(parser, argv)


def parse_outcome(parser, argv):
    """The parsed namespace, or the exit code of a refused value (a value
    given twice in --seeds, --losses or --sweep-gamma)."""
    try:
        return parser.parse_args(argv)
    except SystemExit as exc:
        return ("exit", exc.code)
