"""Cell complexes of tropical linear spaces, enumerated through local charts.

Pulling the space back through the chart at a basis B turns each cell into a
"tie pattern": for every non-basis element i, the set S_i of basis slots
achieving the minimum in the chart formula.  A pattern determines a system
of difference constraints on the chart coordinates (equalities inside each
S_i, strict inequalities against the rest); the pattern is realized iff that
system is feasible.  The patterns are searched depth first, one element's
tie set per level, and a node of the search is one tie set tried on a
feasible prefix.  Each node adds its constraints to the prefix's closed
difference-bound matrix (`diffcon.tighten`), which decides exactly whether
the longer prefix is still feasible.  Before it copies the prefix's matrix
d, a node tests each edge u -> v of its selection against d alone
(`diffcon.cycle_tests`): if d[v * m + u] plus the edge's code is below 0,
the edge and a path v ~> u of the prefix close a negative cycle.  That cycle
is in every longer system, so the selection is dead in every extension; and
`tighten` makes the same test edge by edge, against entries no higher than
d's, since adding edges only lowers closed entries, so it would refuse the
selection too.  The node skips the copy and `tighten` alike, and still
spends its node.  The test is sound, not complete: edges that close a
negative cycle only together pass it, and `tighten` refuses them.  So the
nodes tried and the prefixes kept are the ones `tighten` alone gives.  The
search (`_leaves`) yields the closed matrix of each full pattern that
survives, and its caller builds the cell: it reads the witness off the
matrix (`diffcon.matrix_witness`), as `diffcon.solve` does: the column
minima are the potentials that Bellman-Ford reaches, so the witness is the
one the test suite's Bellman-Ford oracle returns, and no leaf calls `solve`.
The witness is mapped back through the chart (`PlueckerVector._chart`) and
identified by the matroid of maximum-weight bases there
(`PlueckerVector._face`, which weighs each support row by two reads from
tables of the chart point's subset sums over the two halves of [n]).  The
systems live on the vector's integer lattice: their bounds are the chart's
int deltas (p_{B-b+i} - p_B) * D, read in the unit D, and the witness, the
chart point and the face scan stay on integers, at the witness's step k = s
/ D, until the cell's `Fraction` witness is built.  `validate` stays on
`Fraction`.

A cell lies in the chart region of every basis of its face matroid, and its
tie set S_i at B is the set of b with B - b + i in that matroid.  B is the
lex-least basis exactly when no such exchange has i < b, so restricting
every S_i to elements below i finds each cell once, in the chart of its
lex-least basis, with nothing to merge.  `enumerate_cells` runs that owned
search at every basis of the support, in lex order, and concatenates the
results.  A basis with some i outside it and no b < i in i's fundamental
circuit owns no cell: its owned search returns [] before it spends a node.

A cell is dual to the face P_M of the matroid subdivision, where M is its
face matroid, and dim P_M = n - c(M) for c(M) connected components
(Feichtner & Sturmfels 2005); so a cell's ambient dimension is the number of
components of its face matroid.  It always contains the lineality space,
spanned by the indicator vectors of the underlying matroid's components
(Speyer 2008), so the minimum is that component count, at least 1.
"Bounded" means bounded modulo that space: P_M is an interior face, on no
facet of the underlying matroid polytope that the lineality does not span.

A leaf reads its dimension off its closed matrix.  Its non-strict edges
are the equalities inside each tie set, in opposite pairs; every other
edge is strict, coded c * (2m + 2) - 1.  The entries are simple paths, so
d[u * m + v] + d[v * m + u] is a cycle of at most 2m - 2 strict edges,
and at a feasible leaf it is 0 exactly when the cycle is all equalities,
which force x_v - x_u.  The slot classes so joined are the components of
the tie sets' equality graph, and their number is the dimension of the
subspace A those equalities cut out.  The leaf region R is A cut by strict
inequalities and nonempty, so it is open in A; the chart is affine and
injective on R (below), so the cell's dimension is the number of classes:
the slots u with no v < u in u's class.

A leaf reads boundedness off its closed difference-bound matrix.  On the
cell's tie-pattern region R the chart is affine and injective, and it is
the identity on the coordinates of B.  Every exchange B - b + i lies in one
component C of the underlying matroid, so adding t * 1_{B & C} to a chart
point adds t * 1_C to its image: the preimage of the lineality space is
W = span{1_{B & C}}, and the cell is bounded modulo the lineality exactly
when R is bounded modulo W.  Points modulo W are fixed by the differences
x_v - x_u of slots whose basis elements share a component, and on the
nonempty region R such a difference is bounded above exactly when the
system has a path from u to v, i.e. when the closed entry d[u * m + v] is
not None.  So the cell is bounded iff that entry is finite for every
ordered pair of distinct slots in one underlying component.  Pairs across
components never have a path; they span the extra lineality of a
disconnected underlying matroid, so the criterion leaves them out.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from operator import attrgetter
from typing import Iterable, Iterator, NamedTuple, Sequence

from .chart import LocalContext
from .diffcon import solve  # noqa: F401 -- unused here; perfbench/tracer.py wraps it by this module's name
from .diffcon import cycle_tests, matrix_witness, tighten
from .matroid import Matroid, subset_from_mask
from .plucker import PlueckerVector

MAX_ENUMERATION_GROUND = 10
MAX_SOLVER_NODES_DEFAULT = 2_000_000


class EnumerationLimit(RuntimeError):
    pass


class NodeBudget:
    """A cap on tie-pattern nodes, shareable by several chart searches.

    A node is one tie set tried on a feasible prefix and decided by the
    prefix's difference-bound matrix; nodes are spent whether or not the
    longer prefix stays feasible.  The limit is an int of at least 0; a
    bool, any other type or a negative int is refused here, not at the
    first node."""

    __slots__ = ("limit", "spent")

    def __init__(self, limit: int):
        if isinstance(limit, bool) or not isinstance(limit, int):
            raise TypeError(f"the node limit must be an int, not {type(limit).__name__}")
        if limit < 0:
            raise ValueError(f"the node limit must be at least 0, not {limit}")
        self.limit = limit
        self.spent = 0

    def spend(self) -> None:
        self.spent += 1
        if self.spent > self.limit:
            raise EnumerationLimit(f"cell enumeration exceeded {self.limit} tie-pattern nodes")


class Cell(NamedTuple):
    """One cell, identified by the matroid attached to its relative interior;
    ``dim`` is its ambient dimension, which enumeration reads off the leaf."""

    face_matroid: Matroid
    dim: int
    bounded: bool
    witness: tuple[Fraction, ...]

    @property
    def key(self):
        return self.face_matroid.bases


# ---------------------------------------------------------------------------
# tie pattern -> difference system


def _selection_system(opts: Sequence[tuple[int, int]], chosen_idx: Sequence[int]):
    """The matrix edges forcing argmin(slots) == chosen among the options.

    ``opts`` lists (slot, delta) terms x_slot + delta, with 0-based slots and
    the deltas on the vector's lattice, so the bounds come out as ints in the
    same unit; ``chosen_idx`` indexes into opts.  The first chosen term is
    the representative: every unchosen term exceeds it strictly, and every
    other chosen term equals it, as a pair of opposite edges.  An edge
    (u, v, c, strict) is x_v - x_u <= c (< c when strict), as `tighten`
    reads it.
    """
    rep_slot, rep_delta = opts[chosen_idx[0]]
    edges = [
        (slot, rep_slot, delta - rep_delta, True)
        for t, (slot, delta) in enumerate(opts) if t not in chosen_idx
    ]
    for t in chosen_idx[1:]:
        slot, delta = opts[t]
        edges += [(rep_slot, slot, rep_delta - delta, False),
                  (slot, rep_slot, delta - rep_delta, False)]
    return edges


# ---------------------------------------------------------------------------
# boundedness


def unbounded_directions(face: Matroid, underlying: Matroid) -> Iterator[tuple[int, ...]]:
    """The unions F of face components along whose indicator the cell recedes.

    P_face lies on the facet x(F) <= r(F) of the underlying matroid polytope
    exactly when F is a union of face components with r_face(F) equal to
    r_underlying(F).  With B0 the face's first basis, that holds when B0 & F
    spans F in the underlying matroid: no fundamental circuit over B0 of an
    element of F - B0 meets B0 - F.  When E - F passes too, F is a union of
    underlying components, which is lineality; every other passing F is
    yielded, as a sorted tuple.
    """
    comps = [sum(1 << (e - 1) for e in c) for c in face.components()]
    b0 = face.basis_masks[0]
    # reach[k]: the elements of B0 that component k's fundamental circuits meet
    reach = []
    for cmask in comps:
        hit = 0
        rest = cmask & ~b0
        while rest:
            ebit = rest & -rest
            rest ^= ebit
            hit |= underlying.fundamental_circuit_mask(b0, ebit)
        reach.append(hit & b0)

    def union(pick):
        fmask = hit = 0
        for k, cmask in enumerate(comps):
            if pick >> k & 1:
                fmask |= cmask
                hit |= reach[k]
        return fmask, hit

    full = (1 << len(comps)) - 1
    for pick in range(1, full):
        fmask, hit = union(pick)
        rest_mask, rest_hit = union(full ^ pick)
        if not hit & rest_mask and rest_hit & fmask:
            yield subset_from_mask(fmask)


def is_bounded(face: Matroid, underlying: Matroid) -> bool:
    """Is the cell with this face matroid bounded modulo the lineality space?

    The face-matroid criterion: no union of face components is a direction
    of `unbounded_directions`.  Enumeration reads the same verdict off each
    leaf's closed matrix (see the module docstring); only the tests call
    this one, and perfbench's tracer wraps it by name."""
    return next(unbounded_directions(face, underlying), None) is None


# ---------------------------------------------------------------------------
# enumeration


def _leaves(rows, m: int, budget: NodeBudget, depth: int, closed: list) -> Iterator[list]:
    """The closed matrix of every feasible full tie pattern below a prefix.

    ``closed`` is the closed difference-bound matrix of a feasible prefix
    of ``depth`` selections, and ``rows[depth:]`` hold, for every selection
    of each later row, its matrix edges and their `diffcon.cycle_tests`.
    Each selection tried spends one node of ``budget``.  A selection with
    an edge u -> v whose entry closed[v * m + u] plus its code is below 0
    is dead: that entry is a path of the prefix, and with the edge it
    closes a negative cycle, which every longer system keeps, since adding
    edges only lowers closed entries.  `tighten` tests each edge the same
    way, against entries no higher than the prefix's, so it would refuse
    the selection too; the dead selection is pruned before any copy.  Any
    other selection tightens a copy of the prefix's matrix, and an
    infeasible copy prunes the branch.  So the nodes spent and the leaves
    are those of tightening every selection.  Leaves come in depth-first
    order."""
    if depth == len(rows):
        yield closed
        return
    for edges, tests in rows[depth]:
        budget.spend()
        for at, w in tests:
            back = closed[at]
            if back is not None and back + w < 0:
                break
        else:
            child = closed.copy()
            if tighten(child, m, edges):
                yield from _leaves(rows, m, budget, depth + 1, child)


def enumerate_local_cells(
    ctx: LocalContext,
    max_nodes: int | NodeBudget = MAX_SOLVER_NODES_DEFAULT,
    *,
    owned_only: bool = False,
) -> list[Cell]:
    """All cells of the local space at ctx.basis, one per feasible tie pattern.

    `_leaves` runs the depth-first product over the per-element selections
    and yields the closed matrix of each feasible full pattern; each node
    is one selection added to a feasible prefix, and a node whose prefix
    turns infeasible is pruned.  One cell is built per leaf: it reads its
    witness off the matrix (`diffcon.matrix_witness`), its dimension as
    the number of slot classes the matrix fixes, and is bounded
    iff its matrix has a finite entry for every ordered pair of slots whose
    basis elements share a component of the underlying matroid: those
    entries bound the within-component differences, which fix the cell
    modulo the lineality space (the module docstring proves both).  The
    selections' edges and that list of pairs are built once per chart; the
    edges live on the vector's lattice: int bounds read in the unit D,
    straight from the chart's scaled deltas.  So is the witness step g, the
    gcd of D and of a leaf system's bounds: every selection of a row has an
    edge against each other option t of the row, of bound
    +-(delta_t - delta_rep), so whichever options are chosen its bounds'
    gcd is that of the row's differences delta_t - delta_0, and g is the
    gcd of D and of those differences over every row.  So every leaf's
    witness has the denominator den = D / g * (m + 1) of
    `diffcon.matrix_witness`, and den, the common denominator s =
    lcm(D, den) of the cell's point and the chart's step k = s / D are
    fixed per chart, not per leaf.  ``max_nodes`` caps the number of
    tie-pattern nodes (the product can explode); pass a `NodeBudget` to
    share one cap between several charts.

    With ``owned_only`` only the cells whose lex-least face basis is
    ctx.basis are returned: the selection for element i is drawn from the
    basis elements below i, while the unchosen terms above i stay strict
    constraints, so each leaf system is the one the full search reaches.
    """
    budget = max_nodes if isinstance(max_nodes, NodeBudget) else NodeBudget(max_nodes)
    p = ctx.p
    m = p.m
    unit = p._weight_lattice()[0]
    # per row, the matrix edges of every selection and their cycle tests
    rows = []
    for i, deltas in ctx._deltas:
        allowed = tuple(
            t for t, (j, _) in enumerate(deltas)
            if not owned_only or ctx.basis[j] < i
        )
        if not allowed:
            return []
        systems = [
            _selection_system(deltas, chosen_idx)
            for size in range(1, len(allowed) + 1)
            for chosen_idx in combinations(allowed, size)
        ]
        rows.append([(edges, cycle_tests(m, edges)) for edges in systems])
    # the matrix entries (u, v) of slots in one underlying component
    comp = {e: k for k, c in enumerate(p.underlying_matroid().components()) for e in c}
    linked = [
        u * m + v
        for u, bu in enumerate(ctx.basis)
        for v, bv in enumerate(ctx.basis)
        if u != v and comp[bu] == comp[bv]
    ]
    # the entries (u * m + v, v * m + u) of each slot u and each v < u
    pairs = [(u, u * m + v, v * m + u) for u in range(m) for v in range(u)]
    # the witness step of every leaf, and the constants it fixes (see above)
    g = math.gcd(unit, *(d - opts[0][1] for _, opts in ctx._deltas for _, d in opts))
    den = unit // g * (m + 1)
    s = math.lcm(unit, den)
    k = s // unit
    lift = s // den
    # the empty system: 0 on the diagonal, no path elsewhere
    empty = [None] * (m * m)
    empty[::m + 1] = [0] * m
    cells = []
    for closed in _leaves(rows, m, budget, 0, empty):
        xs = matrix_witness(closed, m, unit, g)[1]
        # the witness on B, 0 elsewhere: the chart overwrites the rest
        ys = [0] * p.n
        for b, x in zip(ctx.basis, xs):
            ys[b - 1] = x * lift
        vs = p._chart(ctx._bmask, k, ys)[2]
        face = p._face(k, vs)
        point = tuple(Fraction(v, s) for v in vs)
        bounded = all(closed[t] is not None for t in linked)
        # one class per slot, less the slots that a v < u joins
        dim = m - len({u for u, uv, vu in pairs
                       if closed[uv] is not None and closed[vu] is not None
                       and not closed[uv] + closed[vu]})
        cells.append(Cell(face, dim, bounded, point))
    return sorted(cells, key=attrgetter("key"))


def enumerate_cells(
    p: PlueckerVector, max_nodes: int | NodeBudget = MAX_SOLVER_NODES_DEFAULT
) -> list[Cell]:
    """The full cell complex of the finite part of the space, sorted by key.

    Finds each cell once, in the chart of the lex-least basis of its face
    matroid: the owned search of `enumerate_local_cells` runs at every
    basis, in lex order, and the lists are concatenated.  That is already
    sorted by key.  A cell's key is its face's bases in lex order, so an
    owned cell at B has B as its key's first entry; the bases come in lex
    order, and each local list is sorted.  ``max_nodes`` caps the
    tie-pattern nodes of the whole enumeration; a `NodeBudget` passed
    instead is spent in place, so its ``spent`` reads the nodes afterwards.
    Ground sets above `MAX_ENUMERATION_GROUND` are refused.
    """
    p._need_validated()
    if p.n > MAX_ENUMERATION_GROUND:
        raise ValueError(
            f"ground set {p.n} exceeds the enumeration cap {MAX_ENUMERATION_GROUND}"
        )
    budget = max_nodes if isinstance(max_nodes, NodeBudget) else NodeBudget(max_nodes)
    return [
        cell
        for basis in p.underlying_matroid().bases
        for cell in enumerate_local_cells(LocalContext(p, basis), budget, owned_only=True)
    ]


# ---------------------------------------------------------------------------
# f-vectors and bounds


class FVector(NamedTuple):
    total: tuple[int, ...]  # index i-1 counts cells of ambient dimension i
    bounded: tuple[int, ...]

    @property
    def m(self) -> int:
        return len(self.total)

    def to_json(self) -> dict:
        return {
            "fvector": {
                str(i + 1): {"total": self.total[i], "bounded": self.bounded[i]}
                for i in range(self.m)
            }
        }


def f_vector(cells: Iterable[Cell], m: int | None = None) -> FVector:
    """Counts by dimension; the rank is read off the cells when not given."""
    cells = list(cells)
    if m is None:
        if not cells:
            raise ValueError("cannot infer the rank from an empty cell list")
        m = len(cells[0].face_matroid.bases[0])
    tot = [0] * m
    bnd = [0] * m
    for c in cells:
        i = c.dim - 1
        tot[i] += 1
        if c.bounded:
            bnd[i] += 1
    return FVector(tuple(tot), tuple(bnd))


def _comb0(a: int, b: int) -> int:
    """C(a, b), 0 outside 0 <= b <= a, but C(a, 0) = 1 for every a: the
    sum of no simplices is one point."""
    if b == 0:
        return 1
    return math.comb(a, b) if 0 < b <= a else 0


def bound_bounded(n: int, m: int, i: int) -> int:
    """Cap on the number of bounded i-dimensional cells, any local space on
    (n, m) with a connected underlying matroid; attained exactly in the
    generic (fine) case, where it counts the interior (m-i)-faces of a fine
    mixed subdivision of (n-m) times the (m-1)-simplex.  A disconnected
    underlying matroid can exceed it: "bounded" is then modulo the wider
    lineality of its components, not the all-ones line the cap assumes."""
    _check_nmi(n, m, i)
    return _comb0(n - i - 1, i - 1) * _comb0(n - 2 * i, m - i)


def bound_total(n: int, m: int, i: int) -> int:
    """Cap on the total number of i-dimensional cells of a local space with
    a connected underlying matroid; the count of all (m-i)-faces of that
    fine mixed subdivision, which at n = m is one point.  A disconnected
    underlying matroid can exceed it, as for `bound_bounded`."""
    _check_nmi(n, m, i)
    return _comb0(n - i - 1, m - i) * _comb0(n - 1, i - 1)


def _check_nmi(n, m, i):
    if not 1 <= i <= m <= n:
        raise ValueError("need 1 <= i <= m <= n")


class FacetBoundReport(NamedTuple):
    facet_cells: int  # cells of ambient dimension 1 = facets of the dual picture
    bound: int

    @property
    def ok(self) -> bool:
        return self.facet_cells <= self.bound


def check_facet_bound(p: PlueckerVector, cells: list[Cell] | None = None) -> FacetBoundReport:
    """Count minimal cells against the binom(n-2, m-1) facet bound, the
    total cap `bound_total(n, m, 1)` on cells of dimension 1.

    Only meaningful for uniform support (a tropical realization of U_{m,n}),
    where the minimal cells correspond exactly to the full-dimensional pieces
    of the dual subdivision.
    """
    p._need_validated()
    if len(p.support_masks()) != math.comb(p.n, p.m):
        raise ValueError("the facet bound check needs uniform support")
    if cells is None:
        cells = enumerate_cells(p)
    count = sum(1 for c in cells if c.dim == 1)
    return FacetBoundReport(count, bound_total(p.n, p.m, 1))
