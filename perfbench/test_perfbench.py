"""Tests of the benchmark itself:  python3 -m pytest perfbench

They check that a wrong answer is reported as a failed job, that traced
counts repeat exactly, that the instance generators are deterministic and
hygienic, and that the result line matches BENCHMARK.json.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import tempfile

import pytest

import run
import tracer
import workloads

LIB = run.load_library(run.ROOT)
EXPECTED = {k: v for w in run.load_expected()["workloads"].values() for k, v in w["digests"].items()}
with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCH = json.load(fh)


@pytest.fixture
def workdir():
    os.makedirs(run.OUT, exist_ok=True)
    path = tempfile.mkdtemp(prefix="test-", dir=run.OUT)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def fixture_jobs(workdir, name="example1.json"):
    wl = workloads.WORKLOADS["tau-degenerate"]
    inputs = [item for item in wl.setup(LIB, "a", [], workdir) if item[0] == f"fixtures/{name}"]
    return wl.jobs(LIB, inputs)


def query_jobs():
    wl = workloads.WORKLOADS["point-queries"]
    pool, vectors = wl.setup(LIB, "a", None, None)
    vec = next(v for v in vectors if v[0] == "snowflake")
    return [wl.make_query(LIB, pool, vec, kind, 0) for kind in workloads.QUERY_MIX]


def test_frozen_digests_pass(workdir):
    runner = workloads.Runner(EXPECTED)
    runner.run_pass(fixture_jobs(workdir) + query_jobs())
    assert runner.failures == []


def test_corrupted_digest_is_a_failed_job(workdir):
    jobs = fixture_jobs(workdir) + query_jobs()
    corrupted = dict(EXPECTED)
    corrupted["fixtures/example1.json/circuits"] = "0" * 16
    key = jobs[-1].key
    corrupted[key] = ["0" * 16] + EXPECTED[key][1:]
    runner = workloads.Runner(corrupted)
    runner.run_pass(jobs)
    assert runner.attempted == len(jobs)
    assert len(runner.failures) == 2
    assert any("fixtures/example1.json/circuits" in f for f in runner.failures)


def test_exception_and_missing_digest_are_failed_jobs():
    def boom():
        raise ValueError("broken")

    jobs = [workloads.Job("x/raises", None, "read", boom, lambda r, c: r),
            workloads.Job("x/unfrozen", None, "read", lambda: 1, lambda r, c: r)]
    runner = workloads.Runner(EXPECTED)
    runner.run_pass(jobs)
    assert [f.split(":")[0] for f in runner.failures] == ["x/raises", "x/unfrozen"]


def test_wrong_witness_is_a_failed_job():
    p = LIB.examples.two_pyramids()
    cell = LIB.cells.enumerate_cells(p)[0]
    runner = workloads.Runner(None)
    outside = tuple(x + i for i, x in enumerate(cell.witness))
    with pytest.raises(workloads.Mismatch):
        workloads.check_witness(p, [list(b) for b in cell.face_matroid.bases], outside,
                                runner.check)


def traced_counts(workdir):
    tr = tracer.Tracer()
    tr.install(LIB)
    try:
        runner = workloads.Runner(EXPECTED, tracer=tr)
        runner.run_pass(fixture_jobs(workdir, "snowflake.json") + query_jobs())
    finally:
        tr.uninstall()
    assert runner.failures == []
    return {k: v for k, v in tr.metrics().items() if not k.endswith("self_s")}


def test_traced_counts_repeat_exactly(workdir):
    first = traced_counts(workdir)
    assert first["cli.main.calls"] == 5 and first["cells.unique_cells"] > 0
    assert traced_counts(workdir) == first
    assert LIB.cli.main.__name__ == "main" and not hasattr(LIB.cli.main, "__wrapped__")


@pytest.mark.parametrize("kind", ["generic", "tie", "knockout"])
def test_generators_are_deterministic_and_loopless(kind):
    for i in range(4):
        a = workloads.make_vector(LIB, kind, 7, 3, workloads.instance_rng("a", kind, 7, 3, i))
        b = workloads.make_vector(LIB, kind, 7, 3, workloads.instance_rng("a", kind, 7, 3, i))
        assert a.to_json() == b.to_json()
        assert a.underlying_matroid().loops() == ()


def test_knockout_pattern_is_connected():
    rng = random.Random(5)
    for n, m in workloads.DEGENERATE_SHAPES:
        rows = workloads.knockout_rows(n, m, rng)
        assert sum(x == workloads.INF_TOKEN for row in rows for x in row) == m * (n - m) // 4
        assert workloads.pattern_connected(m, rows)
    assert not workloads.pattern_connected(2, [[1, "inf"], ["inf", 1]])


def result_line(args, cwd):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc, proc.stdout.strip().splitlines()


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_matches_benchmark_json(workdir, trace, section):
    proc, lines = result_line(["--workload", "point-queries", "--seed", "3", "--seconds", "1",
                               "--trace", trace, "--record-dir", workdir], run.ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {m["name"] for m in BENCH[section]} == set(result["metrics"])
    for m in BENCH[section]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_refuses_to_run_without_the_library(workdir):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), workdir)
    shutil.copytree(run.HERE, os.path.join(workdir, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc, lines = result_line(["--workload", "tau-generic", "--seed", "1", "--seconds", "1",
                               "--trace", "0"], workdir)
    assert proc.returncode != 0 and lines == []
