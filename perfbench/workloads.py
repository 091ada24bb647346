"""Seeded inputs, jobs and answer digests for the three benchmark workloads.

Every input is drawn here, by the benchmark; the library only sees the
generated height matrices, vectors, points and files.  Instances come from
fixed pools: pool member ``i`` of a shape is drawn from a string-seeded RNG
("a/generic/n7m4/3"), so its answers can be frozen once in expected.json.
The run's ``--seed`` chooses which pool members a run uses and, on
point-queries, the query stream.  Pool "a" is the default; pool "b" is held
out, so a claim can be re-checked on instances no tuning run has seen.

A job is one timed library call (or one CLI invocation).  Its answer is
reduced to a canonical digest and compared with the frozen value.  Cell
witnesses are not digested: they are checked by membership, so a correct
solver change that picks another witness still passes.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

POOL_SIZE = 8
POOLS = ("a", "b")
INF_TOKEN = "inf"


class Mismatch(Exception):
    """A job's answer failed a check other than the digest comparison."""


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def shape_name(n: int, m: int) -> str:
    return f"n{n}m{m}"


class Job:
    """One timed call plus the code that turns its result into an answer.

    ``kind`` is "enum" (cell enumeration), "cli", "read" (one query; its
    latency is a query sample) or "write" (build a vector and validate it).
    ``answer(result, check)`` returns the canonical answer; ``check(fn, *a)``
    times a verification query, which counts as a query sample.
    """

    __slots__ = ("key", "index", "shape", "kind", "call", "answer")

    def __init__(self, key, shape, kind, call, answer, index=None):
        self.key = key
        self.index = index
        self.shape = shape
        self.kind = kind
        self.call = call
        self.answer = answer


# ---------------------------------------------------------------------------
# instance generators


def rand_point(rng: random.Random, k: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(rng.randint(-60, 60), rng.randint(1, 12)) for _ in range(k))


def generic_rows(n: int, m: int, rng: random.Random):
    """Integer heights from a wide range, each plus its own 1/q^k.

    The perturbations break every accidental affine relation among the
    heights, so the dual subdivision is fine, and denominators grow with
    m(n-m): 37 digits at (6,3), 61 at (8,3).
    """
    q = 10007
    rows = []
    k = 0
    for _ in range(m):
        row = []
        for _ in range(n - m):
            k += 1
            row.append(Fraction(rng.randrange(0, 100 * n * n)) + Fraction(1, q**k))
        rows.append(row)
    return rows


def tie_rows(n: int, m: int, rng: random.Random):
    """Heights from {0, 1, 2}: many ties, large face matroids."""
    return [[Fraction(rng.choice((0, 1, 2))) for _ in range(n - m)] for _ in range(m)]


def pattern_connected(m: int, rows) -> bool:
    """Is the bipartite graph of finite heights connected on all n elements?

    That graph is the fundamental graph of the root basis in the principal
    transversal matroid of the heights, and a matroid is loopless and
    connected iff the fundamental graph of one basis is connected.
    """
    cols = len(rows[0])
    seen = {("r", 0)}
    frontier = [("r", 0)]
    while frontier:
        side, idx = frontier.pop()
        if side == "r":
            nbrs = [("c", j) for j in range(cols) if rows[idx][j] != INF_TOKEN]
        else:
            nbrs = [("r", i) for i in range(m) if rows[i][idx] != INF_TOKEN]
        for node in nbrs:
            if node not in seen:
                seen.add(node)
                frontier.append(node)
    return len(seen) == m + cols


def knockout_rows(n: int, m: int, rng: random.Random):
    """Integer heights with a fixed number of entries knocked out to INF.

    Draws are repeated until the support matroid is loopless and connected.
    Lineality on disconnected matroids is an open defect of the library
    (wider than the all-ones line there), and a frozen digest must not pin
    today's answer on such inputs.
    """
    cells = m * (n - m)
    knock = max(1, cells // 4)
    while True:
        flat = [Fraction(rng.randrange(0, 10)) for _ in range(cells)]
        for pos in rng.sample(range(cells), knock):
            flat[pos] = INF_TOKEN
        rows = [flat[r * (n - m):(r + 1) * (n - m)] for r in range(m)]
        if pattern_connected(m, rows):
            return rows


GENERATORS = {"generic": generic_rows, "tie": tie_rows, "knockout": knockout_rows}


def instance_rng(pool: str, kind: str, n: int, m: int, i: int) -> random.Random:
    return random.Random(f"{pool}/{kind}/{shape_name(n, m)}/{i}")


def make_vector(lib, kind: str, n: int, m: int, rng: random.Random):
    rows = GENERATORS[kind](n, m, rng)
    v = lib.conical.HeightMatrix(n, range(1, m + 1), [[str(x) for x in row] for row in rows])
    return lib.conical.tau(v)


def instance_record(p, n_cells=None) -> dict:
    """Shape, support size and largest denominator (in digits) of a vector."""
    values = [Fraction(e["value"]) for e in p.to_json()["entries"]]
    rec = {
        "shape": shape_name(p.n, p.m),
        "support": len(values),
        "denominator_digits": max(len(str(v.denominator)) for v in values),
    }
    if n_cells is not None:
        rec["cells"] = n_cells
    return rec


# ---------------------------------------------------------------------------
# answers


def cell_rows(cells):
    return [[[list(b) for b in c.face_matroid.bases], c.dim, c.bounded] for c in cells]


def check_witness(p, bases, witness, check):
    """The witness must lie in the space and have the cell's face matroid."""
    face = check(p.matroid_at, witness)
    if [list(b) for b in face.bases] != bases:
        raise Mismatch(f"witness {witness} has matroid {face.bases}, not the cell's {bases}")
    if check(p.contains, witness) is not True:
        raise Mismatch(f"witness {witness} is not in the space")


def report_answer(report):
    return {
        "ok": report.ok,
        "failures": [list(map(list, f)) for f in report.relation_failures],
        "support_ok": report.support_ok,
    }


def write_job(lib, key, shape, obj):
    """Build a fresh vector from JSON and validate it."""
    PV = lib.plucker.PlueckerVector
    return Job(key, shape, "write", lambda: PV.from_json(obj).validate(),
               lambda report, check: report_answer(report))


# ---------------------------------------------------------------------------
# tau-generic: the paper's main computation through the library API


GENERIC_SHAPES = ((6, 3), (6, 3), (7, 3), (7, 4), (8, 3))
WRITES_PER_INSTANCE = 3


def enum_job(lib, key, p):
    cells_mod, conical = lib.cells, lib.conical

    def call():
        found = cells_mod.enumerate_cells(p)
        fv = cells_mod.f_vector(found)
        flag = conical.is_conical(p, found)
        facets = cells_mod.check_facet_bound(p, found)
        return found, fv, flag, facets

    def answer(result, check):
        found, fv, (flag, witness), facets = result
        rows = cell_rows(found)
        for row, cell in zip(rows, found):
            check_witness(p, row[0], cell.witness, check)
        return {
            "cells": rows,
            "fvector": [list(fv.total), list(fv.bounded)],
            "conical": [flag, list(witness) if witness else None],
            "facets": [facets.facet_cells, facets.bound],
        }

    return Job(key, shape_name(p.n, p.m), "enum", call, answer)


class EnumerationWorkload:
    """Every pass runs the same jobs on the run's instances."""

    trace_passes = 1

    def all_jobs(self, lib, inputs):
        return self.jobs(lib, inputs)

    def passes(self, lib, inputs, seed):
        jobs = self.jobs(lib, inputs)
        while True:
            yield jobs

    def instance_records(self, inputs, runner):
        return {key: instance_record(p, runner.cells.get(key) or runner.cells.get(key + "/cells"))
                for key, p, *_ in inputs}


class TauGeneric(EnumerationWorkload):
    name = "tau-generic"

    def select(self, seed: int, pool: str, frozen: dict):
        """Pool members per shape; a shape listed twice gets two distinct ones."""
        rng = random.Random(seed)
        picks = []
        for shape in dict.fromkeys(GENERIC_SHAPES):
            count = GENERIC_SHAPES.count(shape)
            picks += [(shape, i) for i in sorted(rng.sample(range(POOL_SIZE), count))]
        return picks

    def all_members(self):
        return [(s, i) for s in dict.fromkeys(GENERIC_SHAPES) for i in range(POOL_SIZE)]

    def setup(self, lib, pool, members, workdir):
        out = []
        for (n, m), i in members:
            p = make_vector(lib, "generic", n, m, instance_rng(pool, "generic", n, m, i))
            p.all_circuits()  # warm the cache the witness checks read
            out.append((f"{self.name}/{pool}/{shape_name(n, m)}/{i}", p, p.to_json()))
        return out

    def jobs(self, lib, inputs):
        jobs = []
        for key, p, obj in inputs:
            shape = shape_name(p.n, p.m)
            jobs += [write_job(lib, key + "/validate", shape, obj)] * WRITES_PER_INSTANCE
            jobs.append(enum_job(lib, key, p))
        return jobs


# ---------------------------------------------------------------------------
# tau-degenerate: tie-heavy and knocked-out instances through the CLI


DEGENERATE_SHAPES = ((6, 3), (7, 3), (7, 4), (8, 3))
DEGENERATE_KINDS = ("tie", "knockout")
DEGENERATE_COMMANDS = ("validate", "cells")
FIXTURE_COMMANDS = {
    "example1.json": ("validate", "circuits", "fvector", "conical", "tree"),
    "snowflake.json": ("validate", "circuits", "fvector", "conical", "tree"),
    "heights_3_6.json": ("tau",),
    # the Pluecker vector tau prints for heights_3_6.json, written in setup
    "tau_3_6.json": ("validate", "circuits", "cells", "conical"),
}


def run_cli(lib, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = lib.cli.main(argv)
    return code, out.getvalue()


def cli_job(lib, key, shape, command, path, p):
    argv = [command, path, "--format", "json"]

    def answer(result, check):
        code, text = result
        if code != 0:
            raise Mismatch(f"troplin {' '.join(argv)} exited {code}")
        payload = json.loads(text)
        if command != "cells":
            return payload
        rows = []
        for cell in payload["cells"]:
            witness = tuple(Fraction(x) for x in cell["witness"])
            check_witness(p, cell["bases"], witness, check)
            rows.append([cell["bases"], cell["dim"], cell["bounded"]])
        return rows

    kind = "write" if command == "validate" else "cli"
    return Job(f"{key}/{command}", shape, kind, lambda: run_cli(lib, argv), answer)


class TauDegenerate(EnumerationWorkload):
    name = "tau-degenerate"

    def select(self, seed: int, pool: str, frozen: dict):
        """Per kind and shape, one of four pairs of pool members.

        Degenerate instances differ in size: within one kind and shape the
        solver calls of pool members differ by up to 1.7x, and with one
        member per run that alone spread wall time by 40% across seeds.
        Members are paired smallest with largest by the solver calls their
        enumeration made when frozen, so every pair does about the pool's
        mean work; the seed picks the pair.
        """
        rng = random.Random(seed)
        picks = []
        for kind in DEGENERATE_KINDS:
            for n, m in DEGENERATE_SHAPES:
                prefix = f"{self.name}/{pool}/{kind}/{shape_name(n, m)}"
                order = sorted(range(POOL_SIZE), key=lambda i: (frozen[f"{prefix}/{i}"]["solves"], i))
                pair = rng.randrange(POOL_SIZE // 2)
                picks += [(kind, (n, m), order[pair]), (kind, (n, m), order[-1 - pair])]
        return picks

    def all_members(self):
        return [(kind, shape, i) for kind in DEGENERATE_KINDS
                for shape in DEGENERATE_SHAPES for i in range(POOL_SIZE)]

    def setup(self, lib, pool, members, workdir):
        fixtures = os.path.join(lib.root, "fixtures")
        out = []
        for name in FIXTURE_COMMANDS:
            if name == "tau_3_6.json":
                continue
            path = os.path.join(fixtures, name)
            with open(path, encoding="utf-8") as fh:
                obj = json.load(fh)
            if "entries" in obj:
                p = lib.plucker.PlueckerVector.from_json(obj)
                p.validate()
            else:
                p = lib.conical.tau(lib.conical.HeightMatrix.from_json(obj))
                derived = os.path.join(workdir, "tau_3_6.json")
                with open(derived, "w", encoding="utf-8") as fh:
                    json.dump(p.to_json(), fh)
                p.all_circuits()
                out.append(("fixtures/tau_3_6.json", p, derived, FIXTURE_COMMANDS["tau_3_6.json"]))
            out.append((f"fixtures/{name}", p, path, FIXTURE_COMMANDS[name]))
        for kind, (n, m), i in members:
            p = make_vector(lib, kind, n, m, instance_rng(pool, kind, n, m, i))
            p.all_circuits()
            key = f"{self.name}/{pool}/{kind}/{shape_name(n, m)}/{i}"
            path = os.path.join(workdir, key.replace("/", "_") + ".json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(p.to_json(), fh)
            out.append((key, p, path, DEGENERATE_COMMANDS))
        return out

    def jobs(self, lib, inputs):
        jobs = []
        for key, p, path, commands in inputs:
            shape = shape_name(p.n, p.m)  # for heights_3_6.json: the shape of its tau
            for command in commands:
                jobs.append(cli_job(lib, key, shape, command, path, p))
        return jobs


# ---------------------------------------------------------------------------
# point-queries: reads and writes against fixed, validated vectors


QUERY_POOL = 16
# per vector and pass: how many queries of each kind
QUERY_MIX = {
    "contains_random": 3,
    "contains_image": 3,
    "circuits_random": 2,
    "circuits_image": 2,
    "chart": 3,
    "chart_inverse": 2,
    "project": 2,
    "project_any": 2,
    "local_context": 1,
}
QUERY_VECTORS = (
    ("two_pyramids", None),
    ("snowflake", None),
    ("generic_n6m3", ("generic", 6, 3)),
    ("generic_n7m3", ("generic", 7, 3)),
    ("tie_n7m3", ("tie", 7, 3)),
    ("generic_n7m4", ("generic", 7, 4)),
    ("generic_n8m3", ("generic", 8, 3)),
    ("generic_n8m4", ("generic", 8, 4)),
)


def entry_table(p):
    """{basis mask: value} read from the vector's JSON form."""
    table = {}
    for item in p.to_json()["entries"]:
        table[sum(1 << (e - 1) for e in item["subset"])] = Fraction(item["value"])
    return table


def mask_elems(mask):
    return tuple(k + 1 for k in range(mask.bit_length()) if mask >> k & 1)


def chart_image(table, n, basis, x):
    """v_b = x_b on B; v_i = min over exchanges B-b+i of x_b + p_{B-b+i} - p_B."""
    bmask = sum(1 << (b - 1) for b in basis)
    p_b = table[bmask]
    v = [None] * n
    for b, xb in zip(basis, x):
        v[b - 1] = xb
    for i in range(1, n + 1):
        if v[i - 1] is not None:
            continue
        terms = []
        for b, xb in zip(basis, x):
            exch = (bmask & ~(1 << (b - 1))) | (1 << (i - 1))
            if exch in table:
                terms.append(xb + table[exch] - p_b)
        v[i - 1] = min(terms)
    return tuple(v)


def max_weight_bases(table, point):
    weights = {mk: sum(point[e - 1] for e in mask_elems(mk)) - val for mk, val in table.items()}
    best = max(weights.values())
    return sorted(mask_elems(mk) for mk, w in weights.items() if w == best)


def query_specs(table, n, m, rng, kind):
    """Arguments of one pooled query of the given kind."""
    support = sorted(mask_elems(mk) for mk in table)
    if kind in ("contains_random", "circuits_random", "project_any"):
        return (rand_point(rng, n),)
    if kind in ("contains_image", "circuits_image", "chart_inverse"):
        basis = rng.choice(support)
        return (basis, chart_image(table, n, basis, rand_point(rng, m)))
    if kind == "chart":
        return (rng.choice(support), rand_point(rng, m))
    if kind == "project":
        y = rand_point(rng, n)
        return (rng.choice(max_weight_bases(table, y)), y)
    if kind == "local_context":
        return (rng.choice(support),)
    raise ValueError(kind)


def query_call(lib, p, kind, args, contexts):
    if kind in ("contains_random", "contains_image"):
        return lambda: p.contains(args[-1])
    if kind in ("circuits_random", "circuits_image"):
        return lambda: p.contains_via_circuits(args[-1])
    if kind == "chart":
        ctx = contexts[args[0]]
        return lambda: ctx.chart(args[1])
    if kind == "chart_inverse":
        ctx = contexts[args[0]]
        return lambda: ctx.chart_inverse(args[1])
    if kind == "project":
        ctx = contexts[args[0]]
        return lambda: ctx.project(args[1])
    if kind == "project_any":
        chart = lib.chart
        return lambda: chart.project_any(p, args[0])
    if kind == "local_context":
        LC = lib.chart.LocalContext
        return lambda: LC(p, args[0])
    raise ValueError(kind)


def query_answer(kind):
    if kind == "local_context":
        return lambda ctx, check: [ctx.basis, ctx.options]
    return lambda result, check: result


class PointQueries:
    name = "point-queries"
    trace_passes = 20

    def build_vector(self, lib, name, spec):
        if spec is None:
            return getattr(lib.examples, name)()
        kind, n, m = spec
        return make_vector(lib, kind, n, m, random.Random(f"point-queries/{kind}/{shape_name(n, m)}"))

    def select(self, seed: int, pool: str, frozen: dict):
        return None

    def all_members(self):
        return None

    def setup(self, lib, pool, members, workdir):
        out = []
        for name, spec in QUERY_VECTORS:
            p = self.build_vector(lib, name, spec)
            p.all_circuits()
            table = entry_table(p)
            queries = {}
            contexts = {}
            for kind in QUERY_MIX:
                rng = random.Random(f"{pool}/point-queries/{name}/{kind}")
                specs = [query_specs(table, p.n, p.m, rng, kind) for _ in range(QUERY_POOL)]
                if kind in ("chart", "chart_inverse", "project"):
                    for args in specs:
                        if args[0] not in contexts:
                            contexts[args[0]] = lib.chart.LocalContext(p, args[0])
                queries[kind] = specs
            out.append((name, p, p.to_json(), queries, contexts))
        return (pool, out)

    def instance_records(self, inputs, runner):
        return {name: instance_record(p) for name, p, *_ in inputs[1]}

    def make_query(self, lib, pool, vec, kind, index):
        name, p, _, queries, contexts = vec
        shape = shape_name(p.n, p.m)
        return Job(f"{self.name}/{pool}/{name}/{kind}", shape, "read",
                   query_call(lib, p, kind, queries[kind][index], contexts),
                   query_answer(kind), index=index)

    def all_jobs(self, lib, inputs):
        pool, vectors = inputs
        jobs = []
        for vec in vectors:
            name, p, obj = vec[:3]
            jobs.append(write_job(lib, f"{self.name}/{name}/validate", shape_name(p.n, p.m), obj))
            for kind in QUERY_MIX:
                jobs += [self.make_query(lib, pool, vec, kind, i) for i in range(QUERY_POOL)]
        return jobs

    def passes(self, lib, inputs, seed):
        """Each pass: per vector, the QUERY_MIX counts drawn from the pools,
        plus one write; shuffled.  Every pass has the same composition."""
        pool, vectors = inputs
        rng = random.Random(seed)
        while True:
            jobs = []
            for vec in vectors:
                name, p, obj = vec[:3]
                jobs.append(write_job(lib, f"{self.name}/{name}/validate", shape_name(p.n, p.m), obj))
                for kind, count in QUERY_MIX.items():
                    jobs += [self.make_query(lib, pool, vec, kind, rng.randrange(QUERY_POOL))
                             for _ in range(count)]
            rng.shuffle(jobs)
            yield jobs


WORKLOADS = {w.name: w for w in (TauGeneric(), TauDegenerate(), PointQueries())}


# ---------------------------------------------------------------------------
# running and checking


class Runner:
    """Runs jobs, checks each answer against its frozen digest, keeps timings.

    With ``expected`` None it records digests instead (used to freeze them).
    """

    def __init__(self, expected, tracer=None):
        self.expected = expected
        self.recorded: dict = {}
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []
        self.queries: list[tuple] = []  # (start, seconds) of every read query
        self.cells: dict = {}

    def check(self, fn, *args):
        t0 = time.perf_counter()
        result = fn(*args)
        self.queries.append((t0, time.perf_counter() - t0))
        return result

    def _verify(self, job, result):
        answer = job.answer(result, self.check)
        got = digest(answer)
        if job.kind == "enum" or (job.kind == "cli" and job.key.endswith("/cells")):
            self.cells[job.key] = len(answer["cells"] if job.kind == "enum" else answer)
        if self.expected is None:
            if job.index is None:
                self.recorded[job.key] = got
            else:
                self.recorded.setdefault(job.key, {})[job.index] = got
            return
        want = self.expected.get(job.key)
        if job.index is not None:
            want = want[job.index] if want is not None and job.index < len(want) else None
        if want is None:
            raise LookupError(f"no frozen digest for {job.key}")
        if want != got:
            raise Mismatch(f"digest {got} != frozen {want}")

    def run_pass(self, jobs) -> dict:
        """Run one pass: its start and wall time, and per job (start, seconds,
        shape, kind)."""
        timings = []
        t_pass = time.perf_counter()
        for job in jobs:
            self.attempted += 1
            if self.tracer is not None:
                self.tracer.job = job.key
            try:
                t0 = time.perf_counter()
                result = job.call()
                dt = time.perf_counter() - t0
                timings.append((t0, dt, job.shape, job.kind))
                if job.kind == "read":
                    self.queries.append((t0, dt))
                self._verify(job, result)
            except Exception as exc:  # every failure is reported, none stops the run
                label = job.key if job.index is None else f"{job.key}[{job.index}]"
                self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
        return {"start": t_pass, "wall": time.perf_counter() - t_pass, "jobs": timings}
