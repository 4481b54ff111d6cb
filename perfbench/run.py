"""Benchmark entry point: one workload, one closed-loop run, one JSON result.

    python3 perfbench/run.py --workload ablation_k10 --seed 0 --seconds 20 --trace 0

Runs from the root of a source checkout and imports `ncrl_lab` from its
`src/`. With `--trace 0` it repeats the workload's batch job (one client,
the next job starts when the last ends) for `--seconds`, checks every
job's outputs, and reports the end-to-end metrics, with times scaled to a
quiet host by the host-speed samples taken around each job (hostspeed.py).
With `--trace 1` every
job is traced and it reports per-layer metrics from the spans plus the
kernel table, and writes the spans under `.perfbench_out/`.
The last line of stdout is the result object; the lines before it are a
readable table and the environment record. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
OUT = os.path.join(ROOT, ".perfbench_out")

# set-up probes per run; the median, in quiet-host seconds, is reported
SETUP_PROBES = {"full": 7, "tiny": 2}
KERNEL_BLOCKS = {"full": 5, "tiny": 1}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("ablation_k10", "no_none_k28", "cli_mlp_k28"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload for the smoke test")
    parser.add_argument("--setup-probe", metavar="WORKDIR", default=None,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def use_checkout_source() -> None:
    """Import ncrl_lab from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "ncrl_lab", "__init__.py")):
        print(f"error: {SRC}/ncrl_lab not found; run from a full source checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    # the package's own default (one worker) is what users get
    os.environ.pop("NCRL_LAB_THREADS", None)


def time_setup(args, workdir: str) -> float:
    """Seconds from launching a fresh interpreter until the inputs are ready."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--size", args.size,
           "--setup-probe", workdir]
    started = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - started
        proc.stdout.read()
        proc.wait(timeout=60)
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe exited {proc.returncode}: {line!r}")
    return elapsed


def in_quiet_seconds(parts: dict, refs: list) -> dict:
    """Each part's seconds scaled by the host-speed samples around it.

    `parts` holds a job's sequential parts in order; refs[j] and refs[j + 1]
    were sampled right before and right after part j.
    """
    if len(refs) != len(parts) + 1:
        raise RuntimeError(f"{len(refs)} host-speed samples around {len(parts)} parts")
    return {name: hostspeed.quiet_seconds(seconds, refs[j], refs[j + 1])
            for j, (name, seconds) in enumerate(parts.items())}


def job_time(jobs: list) -> tuple:
    """(wall seconds, optimizer steps per second) of a typical job.

    `jobs` holds ({part: seconds}, {part: steps}) per job. A suite job has
    one part, the whole suite on one experiment seed; a CLI session's parts
    are its subcommands. Wall time is the sum over parts of each part's
    median, and the step rate a job's mean optimizer steps over that time.
    """
    names = list(jobs[0][0])
    wall = sum(statistics.median(parts[name] for parts, _ in jobs) for name in names)
    return wall, statistics.mean(sum(steps.values()) for _, steps in jobs) / wall


def _git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return "unknown (not a git checkout)"
    with open(head, encoding="utf-8") as handle:
        ref = handle.read().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = os.path.join(ROOT, ".git", ref[5:])
    if os.path.isfile(loose):
        with open(loose, encoding="utf-8") as handle:
            return handle.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref[5:]):
                    return line.split()[0]
    return "unknown"


def environment() -> dict:
    import hashlib
    import platform

    import numpy
    from ncrl_lab.harness.experiments import thread_cap

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    digest, lines = hashlib.sha256(), 0
    for directory, dirs, files in sorted(os.walk(SRC)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(directory, name), "rb") as handle:
                    body = handle.read()
                digest.update(name.encode() + body)
                lines += body.count(b"\n")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,  # for information; not gated
        "ncrl_lab_threads": thread_cap(),
        "isolation": "none: timings come from a shared machine with no CPU "
                     "pinning or isolation, so other tenants add noise",
    }


def run(args, workdir: str) -> int:
    import workloads

    wl = workloads.REGISTRY[args.workload]
    size = workloads.SIZES[args.workload][args.size]
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        with tracer.patched(), tracer.span("setup"):
            job_inputs = wl.setup(args.seed, size, workdir)
    else:
        job_inputs = wl.setup(args.seed, size, workdir)
    job_steps = [wl.steps(inputs) for inputs in job_inputs]

    # set-up probes are spread over the run, between jobs, so that a burst
    # of contention on the host cannot cover all of them
    probes = 0 if args.trace else SETUP_PROBES[args.size]
    probe_dir = os.path.join(workdir, "probe")
    os.makedirs(probe_dir)
    setup_times = []  # per probe: (seconds, host-speed sample before, after)
    # untraced runs sample the host's speed around every timed part
    speed = None if args.trace else hostspeed.HostSpeed()

    # closed loop over the job inputs in turn
    attempted, failures = 0, []
    jobs = []  # per job: ({part: quiet-host seconds}, {part: steps})
    raw = []  # per job: ({part: seconds}, [host-speed samples around them])
    firsts = {}  # input index -> its first JobResult
    started = time.perf_counter()
    for count in itertools.count():
        index = count % len(job_inputs)
        inputs = job_inputs[index]
        try:
            if args.trace:
                with tracer.patched(), tracer.span("job"):
                    outputs = wl.job(inputs, lambda: None)
                refs = []
            else:
                refs = [speed.sample()]
                outputs = wl.job(inputs, lambda: refs.append(speed.sample()))
                refs.append(speed.sample())
            result = wl.check(inputs, outputs)
            if args.trace:
                jobs.append((result.parts, job_steps[index]))
            else:
                jobs.append((in_quiet_seconds(result.parts, refs), job_steps[index]))
                raw.append((result.parts, refs))
            elapsed = time.perf_counter() - started
            while len(setup_times) < probes and elapsed >= len(setup_times) * args.seconds / probes:
                before = speed.sample()
                seconds = time_setup(args, probe_dir)
                setup_times.append((seconds, before, speed.sample()))
        except Exception:  # a job boundary: report and stop, never hang
            traceback.print_exc()
            failures.append(f"job {count} raised")
            break
        attempted += result.attempted
        failures.extend(result.failures)
        first = firsts.setdefault(index, result)
        if first is result:
            if wl.reference_check is not None and not failures:
                failures.extend(wl.reference_check(inputs, result.outputs))
        elif result.quality != first.quality or result.signature != first.signature:
            failures.append(f"job {count} results differ from input {index}'s first job")
        done = (elapsed >= args.seconds and len(setup_times) == probes
                and len(firsts) == len(job_inputs))
        if failures or done:
            break

    correct = (not failures and len(firsts) == len(job_inputs)
               and all(r.quality for r in firsts.values()))
    report, specific = {}, {}
    if correct and not args.trace:
        wall, rate = job_time(jobs)
        quality = {name: statistics.mean(r.quality[name] for r in firsts.values())
                   for name in ("micro_f1", "macro_f1", "trend_win_rate")}
        report = {
            "wall_s": (wall, "s"),
            "setup_s": (statistics.median(hostspeed.quiet_seconds(*probe)
                                          for probe in setup_times), "s"),
            "train_steps_per_s": (rate, "steps/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            **{name: (value, "fraction") for name, value in quality.items()},
        }
        # the same as measured, not scaled to a quiet host; for comparison
        specific = {
            "wall_measured_s": (job_time([(parts, {}) for parts, _ in raw])[0], "s"),
            "setup_measured_s": (min(seconds for seconds, _, _ in setup_times), "s"),
            "host_unit_ms": (statistics.median(speed.samples) * 1e3, "ms"),
        }
    if correct and args.trace:
        import kernels

        report, specific = tracing.layer_metrics(tracer, len(jobs))
        report["trace.overhead_frac"] = (tracing.overhead_frac(tracer), "fraction")
        blocks = KERNEL_BLOCKS[args.size]
        for name, value in kernels.kernel_table(args.seed, blocks=blocks).items():
            report[name] = (value, "us")

    attempted = max(attempted, 1)
    failed = min(len(failures), attempted)
    error_rate = failed / attempted
    env = environment()
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-{args.size}-trace{args.trace}")
    record = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "job_optimizer_steps": job_steps, "traced": bool(args.trace),
        "job_seconds": [p for p, _ in jobs], "job_seconds_measured": raw,
        "setup_seconds_and_host_samples": setup_times,
        "failures": failures, "error_rate": error_rate, "environment": env,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in report.items()},
        "workload_specific_metrics": {k: {"value": v, "unit": u}
                                      for k, (v, u) in specific.items()},
    }
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    if tracer is not None:
        tracer.write(stem + "-spans.jsonl")

    for failure in failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(f"# {args.workload} seed {args.seed}: {len(jobs)} "
          f"{'traced ' if args.trace else ''}jobs over {len(job_inputs)} inputs")
    for name, (value, unit) in {**report, **specific}.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    print(f"{'error_rate':40s} {error_rate:14.6g} fraction")
    print(json.dumps({"environment": env}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in report.items()},
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    use_checkout_source()
    if args.setup_probe:
        import workloads

        workloads.REGISTRY[args.workload].setup(
            args.seed, workloads.SIZES[args.workload][args.size], args.setup_probe)
        print("ready", flush=True)
        return 0
    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if os.path.isdir(WORK) and not os.listdir(WORK):
            os.rmdir(WORK)


if __name__ == "__main__":
    sys.exit(main())
