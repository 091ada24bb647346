"""Freeze the answers the benchmark checks against.

    python3 perfbench/freeze.py [--workload NAME ...]

Runs every job on every member of both instance pools once, from the root
of a checkout, and writes the workload's section of perfbench/expected.json:
one digest per answer and a record per instance (shape, support size,
largest denominator in digits, cell count, and the diffcon.solve calls its
enumeration jobs made, counted by the tracer).  Digests are the reference for every later run, so freeze only
on a commit whose answers are trusted, and never to make a failing run pass.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

import run
import tracer
import workloads


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS),
                    help="freeze only these workloads (default: all)")
    args = ap.parse_args(argv)
    lib = run.load_library(run.ROOT)
    path = os.path.join(run.HERE, "expected.json")
    frozen = run.load_expected() if os.path.exists(path) else {"workloads": {}}
    frozen["environment"] = run.environment(lib)
    os.makedirs(run.OUT, exist_ok=True)
    for name in args.workload or sorted(workloads.WORKLOADS):
        wl = workloads.WORKLOADS[name]
        section = frozen["workloads"][name] = {"digests": {}, "instances": {}}
        for pool in workloads.POOLS:
            workdir = tempfile.mkdtemp(prefix="freeze-", dir=run.OUT)
            tr = tracer.Tracer()  # counts the solves each instance costs
            tr.install(lib)
            try:
                inputs = wl.setup(lib, pool, wl.all_members(), workdir)
                runner = workloads.Runner(None, tracer=tr)
                runner.run_pass(wl.all_jobs(lib, inputs))
            finally:
                tr.uninstall()
                shutil.rmtree(workdir, ignore_errors=True)
            if runner.failures:
                for msg in runner.failures[:10]:
                    print(f"FAILED {msg}", file=sys.stderr)
                return 1
            for key, got in runner.recorded.items():
                section["digests"][key] = got if isinstance(got, str) else [got[i] for i in sorted(got)]
            records = wl.instance_records(inputs, runner)
            for job, counts in tr.enumeration_counts().items():
                instance = job if job in records else job.rsplit("/", 1)[0]
                records[instance]["solves"] = records[instance].get("solves", 0) + counts["solves"]
            section["instances"].update(records)
            print(f"froze {name} pool {pool}: {runner.attempted} jobs", flush=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(frozen, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
