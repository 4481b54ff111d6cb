"""Smoke test of the benchmark itself, every workload at its tiny size.

    python3 -m pytest -q perfbench/test_smoke.py

Checks BENCHMARK.json against the contract's limits, that every declared
metric is emitted with its unit, that spans nest inside their parents with
non-negative self times, that two runs give identical quality metrics,
that the command fails without printing a result outside a source checkout,
and that measured parts are scaled by the host-speed samples around them.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ablation_k10", "no_none_k28", "cli_mlp_k28")
QUALITY = ("micro_f1", "macro_f1", "trend_win_rate")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCH = json.load(_handle)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_bench(workload: str, trace: int, cwd: str = ROOT, seed: int = 3):
    script = os.path.join(cwd, "perfbench", "run.py")
    proc = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", str(seed),
         "--seconds", "0.3", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180, check=False)
    return proc


def last_json(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_within_contract():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert 1 <= len(BENCH["paths"]) <= 16 and 1 <= BENCH["run_seconds"] <= 60
    assert all(re.fullmatch(r"[A-Za-z0-9_./-]{1,200}", p) for p in BENCH["paths"])
    assert len(BENCH["command"]) <= 32
    assert 2 <= len(BENCH["workloads"]) <= 8
    assert {w["name"] for w in BENCH["workloads"]} == set(WORKLOADS)
    for w in BENCH["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    for m in BENCH["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert UNIT.match(m["unit"]) and 0 < m["bound"] <= 0.25
    for m in BENCH["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and UNIT.match(m["unit"])
    setup = [m for m in BENCH["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in BENCH["end_to_end"])
    assert len(json.dumps(BENCH)) <= 64 * 1024


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_emitted_and_repeatable(workload):
    first = last_json(run_bench(workload, 0))
    second = last_json(run_bench(workload, 0))
    expected = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    for name in QUALITY:
        assert first["metrics"][name] == second["metrics"][name]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_layers_and_nested_spans(workload):
    result = last_json(run_bench(workload, 1))
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected

    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import tracing

    path = os.path.join(ROOT, ".perfbench_out", f"{workload}-tiny-trace1-spans.jsonl")
    with open(path, encoding="utf-8") as handle:
        spans = [tuple(json.loads(line)) for line in handle]
    assert {"setup", "job", "model.train", "losses.batch_loss"} <= {s[2] for s in spans}
    for sid, parent, _name, start, end in spans:
        assert start <= end
        if parent >= 0:
            _, _, _, p_start, p_end = spans[parent]
            assert p_start <= start and end <= p_end
    assert min(tracing.self_times(spans)) >= 0


def test_fails_without_source_checkout():
    bare = os.path.join(ROOT, ".perfbench_work", f"bare-{os.getpid()}")
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench("ablation_k10", 0, cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare)


def test_parts_scaled_by_the_samples_around_them():
    sys.path.insert(0, HERE)
    import hostspeed
    import run

    quiet = hostspeed.QUIET_UNIT_S
    # the host ran at half speed around the first part, at quiet speed around the second
    scaled = run.in_quiet_seconds({"train": 2.0, "eval": 1.0},
                                  [2 * quiet, 2 * quiet, quiet])
    assert scaled == pytest.approx({"train": 1.0, "eval": 1.0 / 1.5})
    with pytest.raises(RuntimeError):
        run.in_quiet_seconds({"train": 2.0}, [quiet])
