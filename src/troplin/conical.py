"""Height matrices, the induced Pluecker vectors, and conical complexes.

A height matrix V assigns a scalar V[i][j] to every pair of a basis element
i in B and a non-basis element j.  Its space is that of the m x n tropical
matrix [I | V]: the identity on the B-columns (0 on the diagonal, INF off
it), V elsewhere.  The maximal tropical minors of any tropical matrix form a
valuated matroid whose support is the transversal matroid of its finite
pattern (Fink & Rincon, "Stiefel tropical linear spaces", JCTA 135, 2015):
here the principal transversal matroid of B with families
I_j = { i in B : V[i][j] finite }.  Every bounded cell of the space lies in
the chart region of B -- the complex is "conical" over B.

For rank 2 on a connected underlying matroid the complex is a metric tree
whose leaves are the parallel classes; this module also builds that tree
and recognizes caterpillars (conical <=> caterpillar in rank 2).
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Mapping

from . import cells as cellmod
from .chart import LocalContext
from .matroid import json_int, mask_from_subset, subset_from_mask
from .plucker import PlueckerVector, check_shape
from .semiring import INF, as_scalar, format_scalar, tdet


class HeightMatrix:
    """Rows indexed by B ascending, columns by [n] - B ascending.

    The caller's row i holds the heights of its ``basis[i]``, in any order.
    """

    __slots__ = ("n", "basis", "others", "rows")

    def __init__(self, n: int, basis: Iterable[int], rows: Iterable[Iterable]):
        # a string goes to mask_from_subset whole, to be refused as one
        labels = basis if isinstance(basis, str) else tuple(basis)
        bset = subset_from_mask(mask_from_subset(labels, n))
        m = len(bset)
        check_shape(n, m)
        others = tuple(e for e in range(1, n + 1) if e not in bset)
        # a string is iterable, but its characters are not heights
        if isinstance(rows, str):
            raise ValueError(f"expected a list of rows, got the string {rows!r}")
        grid = []
        rows = list(rows)
        if len(rows) != m:
            raise ValueError(f"expected {m} rows, got {len(rows)}")
        # the labels are distinct, so sorting the pairs never compares rows
        for label, row in sorted(zip(labels, rows)):
            if isinstance(row, str):
                raise ValueError(f"expected a list of heights for row {label}, "
                                 f"got the string {row!r}")
            vals = tuple(as_scalar(v) for v in row)
            if len(vals) != len(others):
                raise ValueError(f"expected {len(others)} columns, got {len(vals)}")
            grid.append(vals)
        self.n = n
        self.basis = bset
        self.others = others
        self.rows = tuple(grid)

    @property
    def m(self) -> int:
        return len(self.basis)

    def family(self, j: int) -> tuple[int, ...]:
        """I_j: the basis elements whose row is finite in column j."""
        col = self.others.index(j)
        return tuple(b for r, b in enumerate(self.basis) if self.rows[r][col] is not INF)

    def families(self) -> dict[int, tuple[int, ...]]:
        return {j: self.family(j) for j in self.others}

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "B": list(self.basis),
            "V": [[format_scalar(v) for v in row] for row in self.rows],
        }

    @classmethod
    def from_json(cls, obj: Mapping) -> "HeightMatrix":
        try:
            return cls(json_int(obj["n"], "n"), obj["B"], obj["V"])
        except KeyError as exc:
            raise ValueError(f"height-matrix JSON is missing field {exc}") from exc

    def __repr__(self):
        return f"HeightMatrix(n={self.n}, B={self.basis})"


def tau(v: HeightMatrix) -> PlueckerVector:
    """Pluecker vector of maximal tropical minors of [I | V], read off V.

    p_B = 0, and p_A is the tropical determinant of V on the rows B - A and
    the columns A - B: the identity pins each element of A & B to its own
    row at cost 0.  By the theorem above the vector is built trusted, with
    no relation or exchange scan; the test suite checks it against the
    padded-matrix minors of `tests/oracles.py`, the Pluecker relations and
    `matroid.transversal`, and `troplin selftest` validates it.
    """
    n, m = v.n, v.m
    bmask = mask_from_subset(v.basis, n)
    entries = {bmask: Fraction(0)}
    for k in range(1, min(m, n - m) + 1):
        for rows in combinations(range(m), k):
            kept = bmask & ~mask_from_subset([v.basis[r] for r in rows], n)
            for cols in combinations(range(n - m), k):
                val = tdet([[v.rows[r][c] for c in cols] for r in rows])
                if val is not INF:
                    entries[kept | mask_from_subset([v.others[c] for c in cols], n)] = val
    return PlueckerVector.from_masks(n, m, entries)


# ---------------------------------------------------------------------------
# conical detection


def is_conical(p: PlueckerVector, cell_list=None) -> tuple[bool, tuple[int, ...] | None]:
    """Is there one basis lying in every bounded cell's matroid?

    Returns (flag, lexicographically least witness basis or None).
    """
    if cell_list is None:
        cell_list = cellmod.enumerate_cells(p)
    common = frozenset(p.underlying_matroid().bases)
    for cell in cell_list:
        if cell.bounded:
            common &= frozenset(cell.face_matroid.bases)
            if not common:
                return (False, None)
    return (True, min(common))


# ---------------------------------------------------------------------------
# rank-2 trees


class Tree:
    """The metric-tree picture of a rank-2 complex on a connected matroid."""

    def __init__(self, node_bases, edges, leaves):
        self.node_bases = tuple(node_bases)  # per internal node: its cell's bases
        self.edges = tuple(edges)  # (node_idx, node_idx)
        self.leaves = tuple(leaves)  # (leaf label in [n], node_idx)

    def internal_degree(self, idx: int) -> int:
        return sum(1 for a, b in self.edges if idx in (a, b))

    def to_cells_dot(self) -> str:
        """The drawing of `troplin cells --format dot`: the minimal cells,
        labelled by their bases, and the bounded 2-cells between them."""
        lines = ["graph cells {"]
        for i, bases in enumerate(self.node_bases):
            label = " ".join("".join(map(str, b)) for b in bases)
            lines.append(f'  v{i} [label="{label}"];')
        lines += [f"  v{a} -- v{b};" for a, b in sorted(self.edges)]
        lines.append("}")
        return "\n".join(lines)

    def to_dot(self) -> str:
        lines = ["graph tree {"]
        for i in range(len(self.node_bases)):
            lines.append(f"  v{i} [shape=point];")
        for label, at in sorted(self.leaves):
            lines.append(f'  L{label} [shape=none, label="{label}"];')
        for a, b in sorted(self.edges):
            lines.append(f"  v{a} -- v{b};")
        for label, at in sorted(self.leaves):
            lines.append(f"  v{at} -- L{label};")
        lines.append("}")
        return "\n".join(lines)

    def to_text(self) -> str:
        lines = []
        for i, bases in enumerate(self.node_bases):
            nbrs = sorted(
                [f"v{b if a == i else a}" for a, b in self.edges if i in (a, b)]
            )
            labels = sorted(label for label, at in self.leaves if at == i)
            lines.append(
                f"v{i}: leaves {labels} neighbours {nbrs} "
                f"bases {[''.join(map(str, bb)) for bb in bases]}"
            )
        return "\n".join(lines)


def check_adjacency_input(p: PlueckerVector) -> None:
    """Refuse, before any enumeration, a vector whose complex is not a tree.

    A rank-2 space on a connected matroid is a tree (Speyer 2008): every
    bounded 2-cell joins two minimal cells and every ray leaves one, which
    is what `build_tree` draws.
    """
    p._need_validated()
    if p.m != 2:
        raise ValueError(f"the complex is a tree for rank 2 only, not rank {p.m}")
    components = p.underlying_matroid().components()
    if len(components) > 1:
        raise ValueError(
            "the complex is a tree for a connected underlying matroid only; "
            f"its components are {[list(c) for c in components]}"
        )


def build_tree(p: PlueckerVector, cell_list=None) -> Tree:
    """Tree of a rank-2 space: minimal cells are nodes, bounded 2-cells are
    internal edges, rays are leaf edges labelled by their direction.

    The nodes are in key order, and a 2-cell meets the nodes whose bases
    contain its own.  A ray recedes along exactly one union of its face
    components, a parallel class of the underlying matroid (one element for
    uniform support); each element of the class hangs as its own leaf at
    the ray's node.
    """
    check_adjacency_input(p)
    if cell_list is None:
        cell_list = cellmod.enumerate_cells(p)
    nodes = sorted(c.key for c in cell_list if c.dim == 1)
    node_sets = [frozenset(bases) for bases in nodes]
    underlying = p.underlying_matroid()
    edges, leaves = [], []
    for cell in cell_list:
        if cell.dim != 2:
            continue
        bases = frozenset(cell.key)
        incident = [idx for idx, s in enumerate(node_sets) if bases <= s]
        if cell.bounded:
            edges.append((incident[0], incident[1]))
        else:
            (direction,) = cellmod.unbounded_directions(cell.face_matroid, underlying)
            leaves += [(e, incident[0]) for e in direction]
    return Tree(nodes, edges, leaves)


def is_caterpillar(tree: Tree) -> bool:
    """True iff the internal nodes induce a path (single node counts)."""
    return all(tree.internal_degree(i) <= 2 for i in range(len(tree.node_bases)))


# ---------------------------------------------------------------------------
# seeded generic instances


def random_height_matrix(
    n: int,
    m: int,
    basis: Iterable[int] | None = None,
    rng: random.Random | None = None,
    seed: int | None = None,
    generic: bool = True,
    inf_probability: float = 0.0,
) -> HeightMatrix:
    """Deterministic random instance.

    Base entries are integers from a range wide enough (100 * n^2) to keep
    tie patterns honest; with ``generic`` each entry additionally gets its
    own power 1/q^k (q a large prime, k distinct per slot), which destroys
    every accidental affine relation and forces the dual subdivision to be
    fine.  ``inf_probability`` knocks entries out to INF (for transversal
    tests; it defeats genericity of course).
    """
    if rng is None:
        rng = random.Random(seed if seed is not None else 0)
    if basis is None:
        basis = range(1, m + 1)
    bset = tuple(sorted(basis))
    others = n - m
    q = 10007
    rows = []
    k = 0
    for _ in range(m):
        row = []
        for _ in range(others):
            k += 1
            if inf_probability and rng.random() < inf_probability:
                row.append(INF)
                continue
            base = Fraction(rng.randrange(0, 100 * n * n))
            if generic:
                base += Fraction(1, q**k)
            row.append(base)
        rows.append(row)
    return HeightMatrix(n, bset, rows)


def local_complex_is_fine(p: PlueckerVector, basis: Iterable[int]) -> bool:
    """Genericity detector: does the local f-vector attain every cap?"""
    ctx = LocalContext(p, basis)
    local = cellmod.enumerate_local_cells(ctx)
    fv = cellmod.f_vector(local, p.m)
    dims = range(1, p.m + 1)
    return (fv.total == tuple(cellmod.bound_total(p.n, p.m, i) for i in dims)
            and fv.bounded == tuple(cellmod.bound_bounded(p.n, p.m, i) for i in dims))
