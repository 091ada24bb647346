"""Small built-in instances used by tests, the selftest and the docs."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .plucker import PlueckerVector


def two_pyramids() -> PlueckerVector:
    """n=4, m=2: heights 1 on {1,2} and {3,4}, 0 elsewhere.

    The dual picture splits the octahedron into two pyramids glued along the
    square; the space is a tree with two internal nodes.
    """
    entries = {
        (1, 2): 1,
        (1, 3): 0,
        (1, 4): 0,
        (2, 3): 0,
        (2, 4): 0,
        (3, 4): 1,
    }
    p = PlueckerVector(4, 2, entries)
    p.validate()  # outside any assert, so python -O runs it too
    return p


def uniform_zero(n: int, m: int) -> PlueckerVector:
    """p = 0 on every m-subset: the fan over all of U_{m,n} (a star for m=2)."""
    p = PlueckerVector(n, m, {c: 0 for c in combinations(range(1, n + 1), m)})
    p.validate()
    return p


def tree_metric_plucker(n: int, dist) -> PlueckerVector:
    """Rank-2 vector p_{ij} = -d(i, j) from a metric given as dict or callable.

    The metric must satisfy the four-point condition (any tree metric does);
    validation is run and checked here so the result is ready to use.
    """
    if isinstance(dist, dict):
        table = dist

        def d(i, j):
            return table[(i, j)] if (i, j) in table else table[(j, i)]

    else:
        d = dist
    entries = {(i, j): -Fraction(d(i, j)) for i, j in combinations(range(1, n + 1), 2)}
    p = PlueckerVector(n, 2, entries)
    report = p.validate()
    if not report.ok:
        raise ValueError(
            f"not a tree metric (four-point condition fails): {report.summary()}"
        )
    return p


def snowflake() -> PlueckerVector:
    """n=6, m=2 from the three-cherry tree (unit edges, central node).

    Leaves 1,2 / 3,4 / 5,6 hang in pairs off three internal nodes around a
    center, so the internal nodes induce a star, not a path: the canonical
    non-caterpillar, non-conical example.
    """
    cherry = {1: 0, 2: 0, 3: 1, 4: 1, 5: 2, 6: 2}

    def d(i, j):
        return 2 if cherry[i] == cherry[j] else 4

    return tree_metric_plucker(6, d)
