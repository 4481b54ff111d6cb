"""In-memory span tracer that wraps ncrl_lab's public functions from outside.

Nothing in the package is edited: `Tracer.patched()` swaps each traced name
where its caller looks it up (a module global or a class attribute) for a
wrapper that records a span, and puts the original back on exit. Spans are
`(id, parent_id, name, start_ns, end_ns)` tuples kept in a list; parentage
comes from a stack, which is valid because the benchmark runs the package
single-threaded (NCRL_LAB_THREADS at its default of 1).
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time

import numpy as np

from ncrl_lab import model
from ncrl_lab.harness import cli, experiments

# (owner, attribute, span name); an owner appears once per place a caller
# looks the name up, so e.g. `generate` is patched in both harness modules
TRACE_POINTS = (
    (model, "batch_loss", "losses.batch_loss"),
    (model.LinearScorer, "forward", "model.forward"),
    (model.LinearScorer, "backward", "model.backward"),
    (model.MlpScorer, "forward", "model.forward"),
    (model.MlpScorer, "backward", "model.backward"),
    (model.Adam, "step", "model.adam_step"),
    (model, "native_dev_metric", "model.dev_eval"),
    (model, "sweep_global_threshold", "prediction.sweep_global"),
    (experiments, "sweep_global_threshold", "prediction.sweep_global"),
    (cli, "sweep_global_threshold", "prediction.sweep_global"),
    (cli, "sweep_per_label_thresholds", "prediction.sweep_per_label"),
    (experiments, "evaluate", "metrics.evaluate"),
    (cli, "evaluate", "metrics.evaluate"),
    (experiments, "generate", "datagen.generate"),
    (cli, "generate", "datagen.generate"),
    (experiments, "make_splits", "experiments.make_splits"),
    (experiments, "train", "model.train"),
    (cli, "train", "model.train"),
    (experiments, "run_cell", "experiments.cell"),
    (experiments, "_no_none_cell", "experiments.cell"),
    (cli, "save_dataset", "dataio.save_dataset"),
    (cli, "load_dataset", "dataio.load_dataset"),
    (cli, "run_consistency_experiment", "consistency.run"),
    (cli, "main", "cli"),  # named per call: cli.<subcommand>
)


class Tracer:
    """Collects spans and per-call annotations for one benchmark run."""

    def __init__(self):
        self.spans: list = []
        self.notes: dict = {}  # span name -> list of per-call values
        self._stack: list = []

    @contextlib.contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)  # reserve the id so children sort after it
        self._stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[sid] = (sid, parent, name, start, end)

    def _wrap(self, fn, name: str):
        tracer = self
        by_subcommand = name == "cli"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = f"cli.{args[0][0]}" if by_subcommand else name
            sid = len(tracer.spans)
            stack = tracer._stack
            tracer.spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                tracer.spans[sid] = (sid, parent, span_name, start, end)
            if name == "dataio.load_dataset":
                tracer.notes.setdefault(name, []).append(len(result))
            elif name == "dataio.save_dataset":
                tracer.notes.setdefault(name, []).append(
                    os.path.getsize(args[1]))
            return result

        return traced

    @contextlib.contextmanager
    def patched(self):
        """Install the span wrappers for the duration of the block."""
        originals = []
        try:
            for owner, attr, name in TRACE_POINTS:
                original = owner.__dict__[attr]
                originals.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name))
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    def write(self, path: str) -> None:
        """Write the spans as JSON lines: [id, parent, name, start_ns, end_ns]."""
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")


def self_times(spans: list) -> list:
    """Per-span duration minus the time its direct children cover, in ns.

    Children of one parent run one after another, so their union is the sum
    of their durations.
    """
    child_ns = [0] * len(spans)
    for sid, parent, _name, start, end in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    return [end - start - child_ns[sid]
            for sid, _parent, _name, start, end in spans]


def nested_in(spans: list, ancestor: str) -> list:
    """Flags marking spans that have an ancestor span named `ancestor`."""
    flags = [False] * len(spans)
    for sid, parent, _name, _start, _end in spans:
        if parent >= 0:
            flags[sid] = flags[parent] or spans[parent][2] == ancestor
    return flags


def wrapper_cost_ns(calls: int = 10000, blocks: int = 7) -> float:
    """Time one span wrapper adds to a call, in ns.

    The median over blocks of a wrapped no-op's per-call time, minus the
    same for the bare no-op. Each block records into a fresh Tracer, so the
    span list grows as it does in a traced job.
    """
    def noop():
        return None

    def per_call(fn) -> float:
        start = time.perf_counter_ns()
        for _ in range(calls):
            fn()
        return (time.perf_counter_ns() - start) / calls

    wrapped, bare = [], []
    for _ in range(blocks):
        wrapped.append(per_call(Tracer()._wrap(noop, "noop")))
        bare.append(per_call(noop))
    return float(np.median(wrapped) - np.median(bare))


def overhead_frac(tracer: Tracer) -> float:
    """Estimated share of traced job time spent in the span wrappers.

    The wrapper's measured per-call cost times the number of wrapped calls
    made inside traced jobs, over the total traced job time. Unlike a
    traced-over-untraced wall-time ratio, whose noise on a shared host is
    far larger than the overhead, this is set by the program and stays > 0.
    """
    spans = tracer.spans
    in_job = nested_in(spans, "job")
    job_ns = sum(end - start for _sid, _parent, name, start, end in spans if name == "job")
    return wrapper_cost_ns() * sum(in_job) / job_ns


def _p(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(tracer: Tracer, jobs: int) -> tuple:
    """Per-layer metrics from the spans of `jobs` traced jobs plus set-up.

    Returns (common, specific): `common` holds the metrics every workload
    emits, `specific` those of layers only some workloads reach, each as
    {name: (value, unit)}. Counts are per job; a `.share` is the time spent
    in that call while nested in `model.train`, over total `model.train` time.
    """
    spans = tracer.spans
    own = self_times(spans)
    in_job = nested_in(spans, "job")
    in_train = nested_in(spans, "model.train")
    dur = {}  # name -> [(duration ns, self ns, in job, in train)]
    for (_sid, _parent, name, start, end), own_ns, job, tr in zip(
            spans, own, in_job, in_train):
        dur.setdefault(name, []).append((end - start, own_ns, job, tr))

    def durations(name, scale, job_only=True):
        return [d / scale for d, _o, j, _t in dur.get(name, ()) if j or not job_only]

    def calls(name):
        return sum(1 for *_x, j, _t in dur.get(name, ()) if j) / jobs

    train_ns = sum(d for d, *_rest in dur.get("model.train", ()))

    def share(name):
        return sum(d for d, _o, _j, t in dur.get(name, ()) if t) / train_ns

    common = {
        "losses.batch_loss.calls": (calls("losses.batch_loss"), "count"),
        "losses.batch_loss.us_p50": (_p(durations("losses.batch_loss", 1e3), 50), "us"),
        "losses.batch_loss.us_p99": (_p(durations("losses.batch_loss", 1e3), 99), "us"),
        "losses.batch_loss.share": (share("losses.batch_loss"), "fraction"),
    }
    for layer in ("forward", "backward", "adam_step"):
        name = f"model.{layer}"
        common[f"{name}.us_p50"] = (_p(durations(name, 1e3), 50), "us")
        common[f"{name}.share"] = (share(name), "fraction")
    common["model.dev_eval.calls"] = (calls("model.dev_eval"), "count")
    common["model.dev_eval.ms_p50"] = (_p(durations("model.dev_eval", 1e6), 50), "ms")
    common["model.dev_eval.share"] = (share("model.dev_eval"), "fraction")
    common["model.train.self_share"] = (
        sum(o for _d, o, *_rest in dur["model.train"]) / train_ns, "fraction")
    # the CLI generates its data during set-up, so count set-up spans here
    common["datagen.generate.ms"] = (
        _p(durations("datagen.generate", 1e6, job_only=False), 50), "ms")

    specific = {}
    if "prediction.sweep_global" in dur:
        specific["prediction.sweep_global.calls"] = (
            calls("prediction.sweep_global"), "count")
        specific["prediction.sweep_global.ms_p50"] = (
            _p(durations("prediction.sweep_global", 1e6), 50), "ms")
    for name, key in (("prediction.sweep_per_label", "prediction.sweep_per_label.ms"),
                      ("metrics.evaluate", "metrics.evaluate.ms"),
                      ("experiments.make_splits", "experiments.make_splits.ms")):
        if name in dur:
            specific[key] = (_p(durations(name, 1e6), 50), "ms")
    if "experiments.cell" in dur:
        cells = durations("experiments.cell", 1e9)
        specific["experiments.cells"] = (calls("experiments.cell"), "count")
        specific["experiments.cell.s_p50"] = (_p(cells, 50), "s")
        specific["experiments.cell.s_max"] = (max(cells), "s")
        specific["experiments.orchestration.self_s"] = (
            _p([o / 1e9 for _d, o, *_rest in dur["job"]], 50), "s")
    if "dataio.save_dataset" in dur:
        specific["dataio.save_dataset.s"] = (
            _p(durations("dataio.save_dataset", 1e9, job_only=False), 50), "s")
        specific["dataio.bytes_written"] = (
            _p(tracer.notes["dataio.save_dataset"], 50), "B")
    if "dataio.load_dataset" in dur:
        loads = durations("dataio.load_dataset", 1e9, job_only=False)
        rows = tracer.notes["dataio.load_dataset"]
        specific["dataio.load_dataset.s"] = (_p(loads, 50), "s")
        specific["dataio.load_dataset.rows_per_s"] = (
            _p([r / s for r, s in zip(rows, loads)], 50), "rows/s")
    if "consistency.run" in dur:
        specific["consistency.run.s"] = (_p(durations("consistency.run", 1e9), 50), "s")
    for name in sorted(n for n in dur if n.startswith("cli.")):
        specific[f"{name}.s"] = (_p(durations(name, 1e9, job_only=False), 50), "s")
    return common, specific
