"""troplin benchmark: one seeded workload, every answer checked.

    python3 perfbench/run.py --workload tau-generic --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from ./src and
nowhere else.  Workloads (see README.md in this directory): tau-generic,
tau-degenerate, point-queries.  Each run is one single-threaded process
and a closed loop: one caller, one call in flight.

With --trace 0 the run sets up several times (setup_s is the median), then
repeats passes over the workload's job list until --seconds have passed,
and prints the end-to-end metrics, with every timing scaled to a reference
machine speed measured alongside it (see speed.py).  With --trace 1 it runs a fixed number of
passes untraced, then sets up and runs them again with every layer wrapped,
and prints the per-layer metrics plus the tracing overhead.  The last line
of stdout is one JSON object: correct, attempted, failed, metrics.
Exit status: 0 all answers correct, 1 some job failed, 2 usage or set-up
error (nothing printed on stdout).
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import types
from array import array

import speed
import tracer as tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

SETUP_REPEATS = 5
METRIC_SHAPES = ("n6m3", "n7m3", "n7m4", "n8m3")
MIN_TAIL_SAMPLES = 10


class SetupError(Exception):
    pass


def load_library(root: str):
    """Import troplin from <root>/src, refusing any other copy."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "troplin", "__init__.py")):
        raise SetupError(f"no troplin package under {src}; run from a checkout root")
    sys.path.insert(0, src)
    names = ("cells", "chart", "cli", "conical", "diffcon", "examples", "kernels",
             "matroid", "plucker", "semiring")
    lib = types.SimpleNamespace(root=root)
    for name in names:
        setattr(lib, name, importlib.import_module(f"troplin.{name}"))
    pkg = sys.modules["troplin"]
    if os.path.realpath(os.path.dirname(pkg.__file__)) != os.path.realpath(os.path.join(src, "troplin")):
        raise SetupError(f"troplin was imported from {pkg.__file__}, not from {src}")
    return lib


def environment(lib) -> dict:
    return {
        "backend": lib.kernels.BACKEND,
        "python": platform.python_version(),
        "debug": __debug__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg()[0],
    }


def load_expected():
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        return json.load(fh)


def quantile(samples, q):
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


class Summary:
    """End-to-end figures of a run, every timing passed through ``scale``.

    Passes are folded in as they finish, so the benchmark's own bookkeeping
    does not grow with the number of passes and stays out of peak RSS.
    """

    def __init__(self, scale):
        self.scale = scale
        self.walls: list[float] = []
        self.shapes = {shape: [] for shape in METRIC_SHAPES}
        self.writes: list[float] = []
        self.latencies = array("d")

    def add_pass(self, finished, queries):
        scale = self.scale
        self.walls.append(scale(finished["start"], finished["wall"]))
        sums = dict.fromkeys(METRIC_SHAPES, 0.0)
        writes = []
        for t0, dt, shape, kind in finished["jobs"]:
            seconds = scale(t0, dt)
            if shape in sums:
                sums[shape] += seconds
            if kind == "write":
                writes.append(seconds)
        for shape, seconds in sums.items():
            self.shapes[shape].append(seconds)
        self.writes.append(statistics.fmean(writes))
        self.latencies.extend(scale(t0, dt) for t0, dt in queries)

    def metrics(self, imported, setups) -> dict:
        scale = self.scale
        metrics = {
            "setup_s": (scale(*imported) + statistics.median(scale(*s) for s in setups), "s"),
            "wall_s": (statistics.median(self.walls), "s"),
        }
        for shape, values in self.shapes.items():
            metrics[f"shape_s.{shape}"] = (statistics.median(values), "s")
        metrics["query_p50_us"] = (quantile(self.latencies, 0.50) * 1e6, "us")
        metrics["query_p99_us"] = (quantile(self.latencies, 0.99) * 1e6, "us")
        metrics["validate_ms"] = (statistics.median(self.writes) * 1e3, "ms")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        return metrics


LAYERS = ("diffcon", "cells", "plucker", "matroid", "kernels", "chart", "conical", "semiring", "cli")


def per_layer(tracer, overhead) -> dict:
    metrics = {}
    measured = tracer.metrics()
    for name in sorted(measured, key=lambda n: LAYERS.index(n.split(".")[0])):
        value = measured[name]
        last = name.rsplit(".", 1)[-1]
        unit = "s" if last == "self_s" else "ratio" if last.endswith("ratio") else "count"
        metrics[name] = (value, unit)
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    return metrics


def run(args) -> int:
    probe = speed.SpeedProbe()
    probe.start()
    try:
        t0 = time.perf_counter()
        lib = load_library(ROOT)
        imported = (t0, time.perf_counter() - t0)
        wl = workloads.WORKLOADS[args.workload]
        frozen = load_expected()["workloads"][args.workload]
        expected = frozen["digests"]
        env = environment(lib)
        print("environment " + json.dumps(env, sort_keys=True))
        members = wl.select(args.seed, args.pool, frozen["instances"])
        os.makedirs(OUT, exist_ok=True)
        workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
        try:
            if args.trace:
                runner, metrics, instances = run_traced(
                    lib, wl, args, members, workdir, expected, probe)
            else:
                runner, setups, summaries, instances = run_timed(
                    lib, wl, args, members, workdir, expected, probe)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    finally:
        probe.stop()
    print(f"speed probe: {len(probe.durations)} samples, median "
          f"{statistics.median(probe.durations) * 1e3:.3f} ms, reference "
          f"{speed.REFERENCE_S * 1e3:.3f} ms")
    raw, query_samples = {}, None
    if not args.trace:
        metrics = summaries[0].metrics(imported, setups)
        raw = {k: v for k, (v, _) in summaries[1].metrics(imported, setups).items()}
        query_samples = len(summaries[0].latencies)
    for key, rec in instances.items():
        print(f"instance {key} " + json.dumps(rec, sort_keys=True))
    for msg in runner.failures[:10]:
        print(f"FAILED {msg}", file=sys.stderr)
    if query_samples is not None and query_samples < 100 * MIN_TAIL_SAMPLES:
        print(f"note: only {query_samples} query samples; p99 has fewer than "
              f"{MIN_TAIL_SAMPLES} beyond it", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    record = {
        "workload": args.workload, "pool": args.pool, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "environment": env,
        "attempted": runner.attempted, "failed": len(runner.failures),
        "query_samples": query_samples,
        "metrics": {k: v for k, (v, _) in metrics.items()}, "raw_metrics": raw,
        "speed_probe_ms": [d * 1e3 for d in probe.durations],
        "instances": instances,
    }
    record_dir = args.record_dir or os.path.join(OUT, "records")
    os.makedirs(record_dir, exist_ok=True)
    stem = f"{args.workload}-{args.pool}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    with open(os.path.join(record_dir, stem + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    correct = not runner.failures
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def run_timed(lib, wl, args, members, workdir, expected, probe):
    """Set up SETUP_REPEATS times, then run passes until the time is up.

    Returns the runner, the set-up timings, the corrected and the raw
    summaries, and the instance records.
    """
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = wl.setup(lib, args.pool, members, workdir)
        setups.append((t0, time.perf_counter() - t0))
    runner = workloads.Runner(expected)
    summaries = (Summary(probe.scale), Summary(probe.unscaled))
    deadline = time.perf_counter() + args.seconds
    for jobs in wl.passes(lib, inputs, args.seed):
        finished = runner.run_pass(jobs)
        for summary in summaries:
            summary.add_pass(finished, runner.queries)
        runner.queries.clear()
        if time.perf_counter() + finished["wall"] > deadline:
            break
    return runner, setups, summaries, wl.instance_records(inputs, runner)


def run_traced(lib, wl, args, members, workdir, expected, probe):
    """Untraced passes, then set-up and the same passes traced.

    The overhead ratio compares speed-corrected pass times; span self times
    are raw and include the probe's interruptions (about 1%).
    """
    def timed_passes(runner, inputs):
        stream = wl.passes(lib, inputs, args.seed)
        t0 = time.perf_counter()
        for _ in range(wl.trace_passes):
            runner.run_pass(next(stream))
        return probe.scale(t0, time.perf_counter() - t0)

    plain = workloads.Runner(expected)
    untraced = timed_passes(plain, wl.setup(lib, args.pool, members, workdir))
    tr = tracing.Tracer()
    tr.install(lib)
    try:
        runner = workloads.Runner(expected, tracer=tr)
        inputs = wl.setup(lib, args.pool, members, workdir)
        traced = timed_passes(runner, inputs)
    finally:
        tr.uninstall()
    runner.attempted += plain.attempted
    runner.failures = plain.failures + runner.failures
    spans_dir = os.path.join(OUT, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    tr.write(os.path.join(spans_dir, f"{args.workload}-{args.pool}-seed{args.seed}.tsv.gz"))
    instances = wl.instance_records(inputs, runner)
    for key, counts in tr.enumeration_counts().items():
        instances[f"traced {key}"] = counts
    return runner, per_layer(tr, traced / untraced), instances


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pool", choices=("a", "b"), default="a",
                    help="instance pool; b is held out from tuning (default a)")
    ap.add_argument("--record-dir", help="where to write the run record "
                    "(default perfbench/out/records)")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return run(args)
    except (SetupError, OSError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
