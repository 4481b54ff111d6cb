"""One small CLI session against the outputs pinned in tests/cli_pins.json.

The session and the fixture's form live in tools/pin_cli_outputs.py, which
regenerates the fixture when an output moves on purpose.
"""

import importlib.util
import json
from pathlib import Path

from numpy.testing import assert_allclose

TOOL = Path(__file__).resolve().parents[1] / "tools" / "pin_cli_outputs.py"
spec = importlib.util.spec_from_file_location("pin_cli_outputs", TOOL)
pin_cli_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(pin_cli_outputs)

# the trained floats of each kind of output, compared to a relative 1e-12
_FLOATS = {"checkpoint": "params", "train": "final_train_loss"}


def test_cli_outputs_match_pins(tmp_path):
    pins = json.loads(pin_cli_outputs.FIXTURE.read_text(encoding="utf-8"))
    outputs = pin_cli_outputs.session(str(tmp_path))
    assert outputs["sha256"].keys() == pins["sha256"].keys()
    moved = [name for name, digest in pins["sha256"].items()
             if outputs["sha256"][name] != digest]
    assert not moved, f"outputs moved: {moved}"
    assert outputs["trained"].keys() == pins["trained"].keys()
    for name, expected in pins["trained"].items():
        actual = outputs["trained"][name]
        floats = _FLOATS[name.split()[0]]
        assert ({k: v for k, v in actual.items() if k != floats}
                == {k: v for k, v in expected.items() if k != floats}), name
        if floats == "params":
            assert actual[floats].keys() == expected[floats].keys(), name
            for key, value in expected[floats].items():
                assert_allclose(actual[floats][key], value, rtol=1e-12, atol=0,
                                err_msg=f"{name} {key}")
        else:
            assert_allclose(actual[floats], expected[floats], rtol=1e-12,
                            atol=0, err_msg=name)
