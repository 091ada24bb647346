"""A frozen work ledger: the tie-pattern nodes and cells of whole enumerations.

For each case, `enumerate_cells` runs with a `NodeBudget`, and the ledger
records the nodes it spent and the number of cells it found.  A node is one
selection tried on a feasible prefix, whether or not it survives, so a
change that makes the search cheaper per node leaves the ledger as it is,
and a change that tries more or fewer selections, or finds other cells,
names the case it moved.

The cases: the generic, tie and knockout `oracles.tau_instance`s at (6,3),
(7,4) and (8,4), the three files in ``fixtures/`` (``heights_3_6.json``
through `tau`), and two direct sums whose underlying matroids have two
components.

To re-record after a deliberate change of the search, check out the parent
commit of the change, run ``PYTHONPATH=src python tests/test_work.py``
from the root of the checkout there, and carry ``golden/work.json`` over;
each such change lists the cases it moves.
"""

import json
from pathlib import Path

import pytest

from oracles import direct_sum, tau_instance
from troplin.cells import NodeBudget, enumerate_cells
from troplin.conical import HeightMatrix, tau
from troplin.examples import snowflake, two_pyramids
from troplin.plucker import PlueckerVector

LEDGER = Path(__file__).parent / "golden" / "work.json"
FIXTURES = Path(__file__).parent.parent / "fixtures"


def _load(name):
    return json.loads((FIXTURES / name).read_text(encoding="utf-8"))


def _vector(name):
    p = PlueckerVector.from_json(_load(name))
    assert p.validate().ok
    return p


CASES = {
    f"tau_{kind}_{n}_{m}": lambda k=kind, n=n, m=m: tau_instance(k, n, m)
    for n, m in ((6, 3), (7, 4), (8, 4))
    for kind in ("generic", "tie", "knockout")
}
CASES.update({
    "example1": lambda: _vector("example1.json"),
    "snowflake": lambda: _vector("snowflake.json"),
    "tau_heights_3_6": lambda: tau(HeightMatrix.from_json(_load("heights_3_6.json"))),
    "two_pyramids+tau_tie_4_2":
        lambda: direct_sum(two_pyramids(), tau_instance("tie", 4, 2)),
    "snowflake+tau_generic_4_2":
        lambda: direct_sum(snowflake(), tau_instance("generic", 4, 2)),
})


def work(make) -> dict:
    """{"nodes": tie-pattern nodes spent, "cells": cells found} for one case."""
    budget = NodeBudget(10**9)
    cells = enumerate_cells(make(), budget)
    return {"nodes": budget.spent, "cells": len(cells)}


def test_the_ledger_has_every_case():
    recorded = json.loads(LEDGER.read_text(encoding="utf-8"))
    assert sorted(recorded) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_work_matches_the_ledger(name):
    recorded = json.loads(LEDGER.read_text(encoding="utf-8"))
    assert work(CASES[name]) == recorded[name]


if __name__ == "__main__":
    ledger = {name: work(make) for name, make in sorted(CASES.items())}
    LEDGER.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n", encoding="utf-8")
