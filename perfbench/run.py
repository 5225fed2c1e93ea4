#!/usr/bin/env python3
"""The pareto-kit benchmark: one seeded workload per run, closed loop.

    python3 perfbench/run.py --workload finite --seed 1 --seconds 30 --trace 0

One caller in one process and one thread: the next instance starts when
the previous one completes.  An instance is one input taken through
every step of its workload (see ``workloads.py``).  A pass takes every
instance of the workload once; passes repeat, with the package's
``lru_cache``s cleared before each, until ``--seconds`` of pass time
have run.  The first pass's outputs are checked against computations
made apart from the program (``checks.py``) after the timed passes end;
every later pass must reproduce them exactly.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics of the
traced ones (``layers.py``) and the tracing overhead.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The line before it records the run's
environment; both also go to ``.bench_run/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"

WORKLOADS = ("finite", "frontier", "hull_cone")
UNSET = ("PARETO_KIT_BACKEND", "PARETO_KIT_THREADS")

# set-up is timed this many times: once in this process, the rest in
# fresh interpreters, so that every sample pays the imports
SETUP_SAMPLES = 11

END_TO_END = (
    ("setup_s", "s"),
    ("instances_per_s", "1/s"),
    ("instance_ms_p50", "ms"),
    ("instance_ms_tail", "ms"),
    ("peak_rss_mb", "MB"),
)

# frontier witnesses checked by exact vertex enumeration: one in this many,
# picked by the seed; the rest by HiGHS within checks.HIGHS_TOL
EXACT_EVERY = 3


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _setup(workload: str, seed: int, workdir: Path):
    """Import the package, then generate the workload's inputs."""
    start = time.perf_counter()
    import workloads

    make, run = workloads.WORKLOADS[workload]
    inputs = make(seed, workdir)
    return time.perf_counter() - start, inputs, run


def _probe_setup(args) -> float:
    """One set-up in a fresh interpreter; its time as it measured it."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", args.workload, "--seed", str(args.seed)],
        capture_output=True,
        text=True,
        timeout=120,
        env=os.environ.copy(),
        cwd=ROOT,
        check=True,
    )
    return float(proc.stdout.split()[-1])


def _run_pass(run, inputs, tracer):
    """Every instance once; outputs, instance times and pass wall time."""
    outputs, times = [], []
    clock = time.perf_counter
    pass_start = clock()
    for index, instance in enumerate(inputs):
        out: dict = {}
        if tracer is not None:
            tracer.instance = index
        start = clock()
        try:
            run(instance, out)
        except Exception:  # a failing operation is counted, not fatal
            out["error"] = traceback.format_exc(limit=-3)
        times.append(clock() - start)
        outputs.append(out)
    return outputs, times, clock() - pass_start


def _mismatches(outputs, reference) -> set:
    missing = object()
    return {
        (index, op)
        for index, (out, ref) in enumerate(zip(outputs, reference))
        for op in out.keys() | ref.keys()
        if out.get(op, missing) != ref.get(op, missing)
    }


def _check(workload: str, seed: int, inputs, reference) -> set:
    """(instance, operation) pairs of the reference pass that fail a check."""
    import checks

    failed = set()
    for index, (instance, out) in enumerate(zip(inputs, reference)):
        if "error" in out:
            failed.update((index, op) for op in out)
            continue
        exact = (index + seed) % EXACT_EVERY == 0
        try:
            bad = checks.check(workload, instance, out, exact)
        except Exception:  # a malformed output fails every operation it holds
            traceback.print_exc(file=sys.stderr)
            bad = set(out)
        failed.update((index, op) for op in bad)
    return failed


def _percentile(values, pct: int) -> float:
    return statistics.quantiles(values, n=100)[pct - 1]


def tail_percentile(per_pass: int) -> int:
    """The highest whole percentile with at least ten instances of one
    pass beyond it."""
    return 100 * (per_pass - 10) // per_pass


def _timed_passes(run, inputs, seconds: float, tracer, between):
    """Passes until ``seconds`` of pass time have run; a traced run
    alternates untraced and traced passes, starting untraced.
    ``between()`` runs after each pass, outside the timed region.

    Returns the pass records and the first pass's outputs; every later
    pass records the (instance, operation) pairs that differ from them.
    """
    import layers

    reference = None
    passes = []
    elapsed = 0.0
    while elapsed < seconds or (tracer is not None and len(passes) < 2):
        traced = tracer is not None and len(passes) % 2 == 1
        layers.clear_caches()
        if traced:
            tracer.install()
        try:
            outputs, times, wall = _run_pass(run, inputs, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        record = {"traced": traced, "wall": wall, "times": times}
        if traced:
            spans, counters = tracer.take()
            record["layers"] = layers.summarize(spans, counters, layers.cache_stats(), wall)
            if not any("spans" in p for p in passes):
                record["spans"] = spans
        record["mismatched"] = set() if reference is None else _mismatches(outputs, reference)
        record["ops"] = sum(len(out) for out in outputs)
        if reference is None:
            reference = outputs
        passes.append(record)
        elapsed += wall
        between()
    return passes, reference


def _end_to_end(plain, setup_samples, pct: int, peak_rss_mb: float) -> dict:
    """Medians over passes: the host's speed drifts from pass to pass."""
    per_pass = len(plain[0]["times"])
    return {
        "setup_s": statistics.median(setup_samples),
        "instances_per_s": per_pass / statistics.median(p["wall"] for p in plain),
        "instance_ms_p50": statistics.median(statistics.median(p["times"]) for p in plain)
        * 1000,
        "instance_ms_tail": statistics.median(_percentile(p["times"], pct) for p in plain)
        * 1000,
        "peak_rss_mb": peak_rss_mb,
    }


def _per_layer(passes) -> tuple[dict, bool]:
    """Means of the traced passes' times and their counts, and whether the
    counts repeat exactly from pass to pass."""
    import layers

    traced = [p["layers"] for p in passes if p["traced"]]
    metrics = {}
    repeat = True
    for name, unit, _ in layers.PER_LAYER:
        if name not in traced[0]:
            continue
        values = [t[name] for t in traced]
        if unit in ("count", "bytes"):
            repeat = repeat and len(set(values)) == 1
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.fmean(values)
    untraced = statistics.median(p["wall"] for p in passes if not p["traced"])
    metrics["trace.untraced_pass_s"] = untraced
    metrics["trace.overhead"] = metrics["trace.pass_s"] / untraced - 1
    return metrics, repeat


def _bench(args, workdir: Path) -> int:
    setup_s, inputs, run = _setup(args.workload, args.seed, workdir)
    import pareto_kit

    if Path(pareto_kit.__file__).resolve().parent != SRC / "pareto_kit":
        print(f"error: pareto_kit imported from {pareto_kit.__file__}", file=sys.stderr)
        return 2
    import layers

    # the set-up samples are spread over the run, one after each pass, so
    # that they meet the same drift of the host's speed as the passes do
    setup_samples = [setup_s]

    def probe():
        if len(setup_samples) < SETUP_SAMPLES:
            setup_samples.append(_probe_setup(args))

    tracer = layers.Tracer() if args.trace else None
    passes, reference = _timed_passes(run, inputs, args.seconds, tracer, probe)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while len(setup_samples) < SETUP_SAMPLES:
        probe()

    check_start = time.perf_counter()
    failed_ref = _check(args.workload, args.seed, inputs, reference)
    check_s = time.perf_counter() - check_start
    attempted = sum(p["ops"] for p in passes)
    failed = sum(len(failed_ref | p["mismatched"]) for p in passes)
    correct = failed == 0

    pct = tail_percentile(len(inputs))
    if args.trace:
        metrics, repeat = _per_layer(passes)
        correct = correct and repeat
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
    else:
        plain = [p for p in passes if not p["traced"]]
        metrics = _end_to_end(plain, setup_samples, pct, peak_rss_mb)
        units = dict(END_TO_END)

    env = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "backend": pareto_kit.active_backend(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": threading.active_count(),
        "instances_per_pass": len(inputs),
        "tail_percentile": pct,
        "passes": len(passes),
        "traced_passes": sum(p["traced"] for p in passes),
        "pass_walls_s": [p["wall"] for p in passes],
        "setup_samples_s": setup_samples,
        "check_s": check_s,
        "failed_operations": sorted(f"{i}:{op}" for i, op in failed_ref)[:20],
    }
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    _write_run(args, env, result, passes)
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


def _write_run(args, env, result, passes) -> None:
    """The run's result, every instance time and, for a traced run, the
    spans of its first traced pass, under ``.bench_run/``."""
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    RUN_DIR.mkdir(exist_ok=True)
    record = {"env": env, **result, "instance_s": [p["times"] for p in passes]}
    (RUN_DIR / f"result-{stem}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8"
    )
    if args.trace:
        spans = next(p["spans"] for p in passes if "spans" in p)
        fields = ["id", "parent", "instance", "layer", "function", "start_s", "end_s", "lps"]
        (RUN_DIR / f"spans-{stem}.json").write_text(
            json.dumps({"fields": fields, "spans": spans}), encoding="utf-8"
        )


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "pareto_kit" / "__init__.py").is_file():
        print(f"error: no pareto_kit sources under {SRC}", file=sys.stderr)
        return 2
    for name in UNSET:
        os.environ.pop(name, None)
    sys.path[:0] = [str(SRC), str(HERE)]
    workdir = RUN_DIR / f"inputs-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.setup_probe:
            seconds, _, _ = _setup(args.workload, args.seed, workdir)
            print(seconds)
            return 0
        return _bench(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
