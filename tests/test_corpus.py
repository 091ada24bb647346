"""A frozen answer corpus: every file subcommand on a seeded set of inputs.

The inputs are built in process: the generic, tie and knockout
`oracles.tau_instance`s at nine shapes from (4,2) to (8,4), two direct
sums, seeded perturbations of valid vectors (most of them invalid) and
seeded height matrices for `tau`.  Each case runs one command through
`cli.main` and is recorded as the sha256 of its exit code, stdout and
stderr, so a change that moves any answer names the case it moved.  No case
reaches a message that argparse writes, whose wording differs between
Python versions, and no case prints the path of its input.

To re-record after a deliberate output change, check out the parent commit
of the change, run ``PYTHONPATH=src python tests/test_corpus.py`` from the
root of the checkout there, and carry ``golden/corpus.json`` over; each
declared output change lists the cases it moves.
"""

import hashlib
import json
import random
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from io import StringIO
from pathlib import Path

import pytest

from oracles import direct_sum, tau_instance
from troplin.chart import LocalContext
from troplin.cli import main
from troplin.conical import HeightMatrix, random_height_matrix
from troplin.plucker import PlueckerVector
from troplin.semiring import INF, format_point

CORPUS = Path(__file__).parent / "golden" / "corpus.json"

SHAPES = [(4, 2), (5, 2), (5, 3), (6, 2), (6, 3), (7, 2), (7, 3), (7, 4), (8, 4)]
KINDS = ("generic", "tie", "knockout")


def _rational(rng):
    return Fraction(rng.randint(-40, 40), rng.choice((1, 3, 7, 11)))


def _vectors():
    """(name, vector) for every valid input."""
    out = [(f"{kind}_{n}_{m}", tau_instance(kind, n, m)) for n, m in SHAPES for kind in KINDS]
    out.append(("sum_generic_4_2+tie_4_2",
                direct_sum(tau_instance("generic", 4, 2), tau_instance("tie", 4, 2))))
    out.append(("sum_knockout_5_3+generic_4_1",
                direct_sum(tau_instance("knockout", 5, 3), tau_instance("generic", 4, 1))))
    return out


def _perturbed(rng, p):
    """p with one support entry moved by a seeded nonzero rational."""
    entries = {a: p.entry(a) for a in p.support()}
    a = rng.choice(sorted(entries))
    step = _rational(rng) or Fraction(1, 2)
    entries[a] += step
    return PlueckerVector(p.n, p.m, entries)


def _heights():
    """(name, height matrix) for `tau`: generic, tie-heavy, knocked out,
    and one with a column of INF, whose element is a loop."""
    out = []
    for n, m in [(5, 2), (6, 3), (7, 3)]:
        rng = random.Random(f"heights/{n}/{m}")
        out.append((f"generic_{n}_{m}", random_height_matrix(n, m, rng=rng)))
        out.append((f"tie_{n}_{m}", HeightMatrix(n, range(1, m + 1), [
            [rng.choice((0, 1, 2)) for _ in range(n - m)] for _ in range(m)])))
        out.append((f"knockout_{n}_{m}", random_height_matrix(
            n, m, basis=rng.sample(range(1, n + 1), m), rng=rng,
            generic=False, inf_probability=0.3)))
    rng = random.Random("heights/loop")
    rows = [[_rational(rng), INF, _rational(rng)] for _ in range(2)]
    out.append(("loop_5_2", HeightMatrix(5, (1, 2), rows)))
    return out


def _commands(p, f, rng):
    """(label, argv) of every command run on the valid vector in file f."""
    basis = rng.choice(p.support())
    b = ",".join(map(str, basis))
    x = [_rational(rng) for _ in range(p.m)]
    v = LocalContext(p, basis).chart(x)
    # below the chart off B: B keeps the maximum weight, so the point is in
    # B's chart region and projects onto v
    below = [c if i in basis else c - abs(_rational(rng)) - 1
             for i, c in enumerate(v, start=1)]
    stray = [_rational(rng) for _ in range(p.n)]
    out = [
        ("validate.json", ["validate", f, "--format", "json"]),
        ("circuits.json", ["circuits", f, "--format", "json"]),
        ("chart.json", ["chart", f, "--basis", b, f"--x={format_point(x)}", "--format", "json"]),
        ("local.json", ["local", f, "--basis", b, "--format", "json"]),
        ("cells.json", ["cells", f, "--format", "json"]),
    ]
    # each command loads and validates the file again, which on eight or
    # more elements costs more than most reads: those run on fewer
    if p.n <= 7:
        out += [
            ("member.in", ["member", f, f"--point={format_point(v)}"]),
            ("member.stray.json",
             ["member", f, f"--point={format_point(stray)}", "--format", "json"]),
            ("project", ["project", f, "--basis", b, f"--point={format_point(below)}"]),
        ]
    if p.n <= 6:  # both enumerate again; `cells` pins what they read
        out += [("fvector", ["fvector", f]), ("conical", ["conical", f])]
    if p.m == 2:
        out.append(("tree", ["tree", f]))
    return out


def _run(argv) -> str:
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    blob = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def digests() -> dict:
    """{case name: sha256 of (exit code, stdout, stderr)} over the corpus."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        def write(name, obj):
            path = Path(tmp) / f"{name}.json"
            path.write_text(json.dumps(obj), encoding="utf-8")
            return str(path)

        for name, p in _vectors():
            rng = random.Random(f"corpus/{name}")
            f = write(name, p.to_json())
            for label, argv in _commands(p, f, rng):
                out[f"{name}.{label}"] = _run(argv)
            if p.n <= 7:
                bad = write(f"{name}.perturbed", _perturbed(rng, p).to_json())
                out[f"{name}.perturbed.validate"] = _run(["validate", bad])
                out[f"{name}.perturbed.validate.json"] = _run(
                    ["validate", bad, "--format", "json"])
                out[f"{name}.perturbed.cells"] = _run(["cells", bad])
        for name, v in _heights():
            f = write(f"heights_{name}", v.to_json())
            out[f"heights_{name}.tau"] = _run(["tau", f])
            out[f"heights_{name}.tau.json"] = _run(["tau", f, "--format", "json"])
    return out


@pytest.fixture(scope="module")
def answers():
    return digests()


def test_the_corpus_has_every_case(answers):
    recorded = json.loads(CORPUS.read_text(encoding="utf-8"))
    assert sorted(answers) == sorted(recorded)


def test_answers_match_the_corpus(answers):
    recorded = json.loads(CORPUS.read_text(encoding="utf-8"))
    moved = sorted(name for name, digest in answers.items()
                   if recorded.get(name, digest) != digest)
    assert moved == []


if __name__ == "__main__":
    CORPUS.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
