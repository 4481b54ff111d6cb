"""Pin the outputs of one small `ncrl-lab` session for tests/test_cli_pins.py.

The session runs in this process, in a temporary directory, at K=4, dim 6
and n=400: `gen-data`; `train` for bce, atl, ncrl_final (gamma 0.05) and
pairwise; `eval` under the checkpoint's own rule (no `--rule`) and under
each named rule, and `sweep` in both forms, for each checkpoint; `compare`
over all seven loss kinds, `compare --no-none-study` and `ablate` on seeds
0 and 1; and `consistency`.

A pin is either the sha256 of an exact output or, for what training
leaves in floats, the output itself:
- the data file and each results CSV, whole, and each JSON report with
  its echoed `out` path cut are pinned by sha256;
- each checkpoint and each `train` report are kept whole, and the test
  compares their floats to a relative 1e-12, because BLAS kernels for
  other CPUs move trained parameters by an ulp or two. Every other value
  in them compares exactly.

A change that moves an output on purpose regenerates the fixture:

    PYTHONPATH=src python tools/pin_cli_outputs.py   # writes FIXTURE
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from ncrl_lab.harness import cli

FIXTURE = Path(__file__).resolve().parents[1] / "tests" / "cli_pins.json"
_CHECKPOINT_LOSSES = (("bce", "0"), ("atl", "0"), ("ncrl_final", "0.05"),
                      ("pairwise", "0"))
_ALL_LOSSES = ("ncrl_plain,ncrl_final:0.05,ncrl_noreg:0.05,bce,"
               "bce_shifted:0.05,atl,pairwise")
_SIZE = ["--k", "4", "--dim", "6", "--n", "400"]
_TRAIN = ["--epochs", "3", "--batch-size", "32"]


def _run(argv: list) -> dict:
    """One in-process `ncrl-lab` call's JSON report; a nonzero exit raises."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"exit {code}: ncrl-lab {' '.join(argv)}")
    return json.loads(out.getvalue())


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _report_digest(report: dict) -> str:
    """sha256 of a JSON report without the `out` path it echoes."""
    return _digest(json.dumps({k: v for k, v in report.items() if k != "out"},
                              sort_keys=True))


def _file_digest(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def session(workdir: str) -> dict:
    """Run the session in `workdir`; {"sha256": {name: digest},
    "trained": {name: JSON value}}, the fixture's form."""
    def path(name: str) -> str:
        return os.path.join(workdir, name)

    digests, trained = {}, {}
    data = path("data.jsonl")
    digests["gen-data"] = _report_digest(_run(
        ["gen-data", *_SIZE, "--fn-rate", "0.1", "--seed", "3", "--out", data]))
    digests["data.jsonl"] = _file_digest(data)
    for kind, gamma in _CHECKPOINT_LOSSES:
        model = path(f"{kind}.json")
        report = _run(["train", "--data", data, "--loss", kind, "--gamma", gamma,
                       *_TRAIN, "--seed", "1", "--out", model])
        trained[f"train {kind}"] = {k: v for k, v in report.items() if k != "out"}
        with open(model, encoding="utf-8") as handle:
            trained[f"checkpoint {kind}"] = json.load(handle)
        scored = ["--model", model, "--data", data]
        for name, argv in (
                ("eval default", ["eval", *scored]),
                ("eval adaptive", ["eval", *scored, "--rule", "adaptive"]),
                ("eval global", ["eval", *scored, "--rule", "global"]),
                ("eval per-label", ["eval", *scored, "--rule", "per-label",
                                    "--thresholds", "0.3,0.4,0.5,0.6"]),
                ("sweep", ["sweep", *scored]),
                ("sweep per-label", ["sweep", *scored, "--per-label",
                                     "--grid", "fine"])):
            digests[f"{name} {kind}"] = _report_digest(_run(argv))
    suite = [*_SIZE, *_TRAIN, "--seeds", "0,1"]
    for name, argv in (
            ("compare", ["compare", "--losses", _ALL_LOSSES]),
            ("no-none-study", ["compare", "--no-none-study",
                               "--losses", "ncrl_final:0.05"]),
            ("ablate", ["ablate", "--gamma", "0.05"])):
        rows = path(f"{name}.csv")
        digests[name] = _report_digest(_run(argv + suite + ["--out", rows]))
        digests[f"{name}.csv"] = _file_digest(rows)
    digests["consistency"] = _report_digest(_run(
        ["consistency", "--trials", "20", "--k", "3", "--iters", "400",
         "--seed", "7"]))
    return {"sha256": digests, "trained": trained}


def main() -> int:
    with tempfile.TemporaryDirectory() as workdir:
        pins = session(workdir)
    FIXTURE.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")
    print(f"wrote {FIXTURE}: {len(pins['sha256'])} digests, "
          f"{len(pins['trained'])} trained outputs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
