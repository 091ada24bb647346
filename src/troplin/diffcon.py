"""Difference-constraint systems with mixed strict / non-strict inequalities.

A system over variables x_1..x_k consists of constraints x_l - x_r <= c or
x_l - x_r < c and equalities x_l - x_r = c, with rational c.  Each is an
edge r -> l of lexicographic weight (c, #strict): a path of weight (c, s)
means "c minus s infinitesimals", so

    (c1, s1) < (c2, s2)  iff  c1 < c2, or c1 = c2 and s1 > s2.

The system is infeasible exactly when some cycle has total weight below
(0, 0), i.e. rational part negative, or zero with at least one strict edge.

Cell enumeration builds no `DifferenceSystem`: it hands the int edges of
its tie patterns straight to `tighten` and `matrix_witness`, every bound b
read as b / D, with D the lcm of the vector's entry denominators.

Feasibility is decided on a closed difference-bound matrix (Bengtsson & Yi,
"Timed automata: semantics, algorithms and tools", 2004), updated per edge
by `tighten` as in Cotton & Maler, "Fast and flexible difference constraint
propagation for DPLL(T)", SAT 2006.  The matrix is a flat list d of k * k
entries, with 0-based variables: d[a * k + b] is the lex-shortest path
weight from a to b, or None for no path, so the empty system has 0 on the
diagonal and None elsewhere.  An int bound (c, strict) is encoded as the
int c * K - strict with K = 2k + 2, and a path's code is the sum of its
edges' codes.  Codes compare as their lex weights whenever their strict
counts differ by less than K: if c1 < c2 then
c1 * K - s1 <= c2 * K - K - s1 < c2 * K - s2, as s2 - s1 < K.

With no negative cycle, every entry is the weight of a simple path: a
lex-shortest walk loses a cycle, of weight >= 0, and stays shortest.  Such
a path has at most k - 1 edges, so its strict count s is at most k - 1.
Adding the edge u -> v of weight w then closes a negative cycle exactly
when d[v * k + u] + w < 0, a code with s <= k < K.  Otherwise the shortest
paths that use the new edge use it once, and the update

    d[i * k + j] = min(d[i * k + j], d[i * k + u] + w + d[v * k + j])

compares codes with s <= 2(k - 1) + 1 < K, so it keeps the lex minimum,
which is again a simple path's weight.  The verdicts are exact, whatever
the order in which edges arrive.  A search that adds constraints a
selection at a time calls `tighten` itself and keeps each prefix's matrix.

`solve` scales a system's bounds to integers by q, the lcm of their
denominators (1 for int bounds), so they step in 1 / q, and adds its edges
one at a time to the empty matrix.  The first edge u -> v that
`tighten` refuses closes a negative cycle with a lex-shortest path v ~> u
of the matrix as it stood before that edge, of weight d[v * k + u].  Every
step a -> b of such a path is tight: its code plus d[b * k + u] is
d[a * k + u], as the suffixes of a shortest path are shortest.  Conversely
the codes along a walk of tight steps from v to u sum to d[v * k + u].  So
`solve` walks breadth first from v along tight steps over the edges added
before, with a visited set since equalities make zero cycles, and returns
that path with the refused edge in front: a cycle of negative weight.  A
self-loop is its own cycle, or else holds and is set aside; q is taken
over the other edges.

A feasible system's witness comes off its closed matrix (`matrix_witness`).
Its int bounds c are read as c / u for a positive integer unit u: u = q
for the scaled bounds of `solve`, u = D for enumeration's edges.
Let (c_j, s_j) be the column minimum min_i d[i * k + j], the diagonal's 0
included: the lex-least weight of a path into j, or (0, 0).  It is a simple
path's weight or 0, so 0 <= s_j <= k - 1 < K, and the code
w_j = c_j * K - s_j decodes as c_j = ceil(w_j / K) and s_j = c_j * K - w_j.
Each c_j is a sum of bounds, so with g the gcd of u and every bound, each
c_j is a multiple of g, and in steps of the coarser lattice 1 / (u / g)
the witness is

    x_j = (c_j / g - s_j / (k + 1)) / (u / g)
        = (c_j / g * (k + 1) - s_j) / (u / g * (k + 1)).

Take an edge x_l - x_r <= c / u (strict: <).  A path into r, or the empty
one at r, goes on along the edge to a walk into l, and no walk into l
weighs less than (c_l, s_l), as no cycle is negative.  So (c_l, s_l) is no
worse than (c_r + c, s_r + strict) in the lex order.  In steps of g:

- where c_l < c_r + c, the slack is at least one step, while the s terms
  move x_l - x_r by at most (k - 1) / (k + 1) < 1 step, so the edge holds
  strictly;
- where c_l = c_r + c, the lex order gives s_l >= s_r + strict, so the
  difference is at most the bound, and below it if strict;
- an equality is a pair of opposite non-strict edges; both are tight, so
  the lex order gives s_l = s_r and the difference is exactly the bound.

The gcd is taken over the system's bounds, not over the matrix entries:
it covers the bounds of edges that `tighten` found redundant as well.

The step does not depend on how a system is written.  For the `Fraction`
bounds of `solve`, g = 1: for each prime power exactly dividing q, some
bound's denominator holds all of it, and that bound scales to an integer
prime to it.  The same bounds written as ints b over D give
D / g = D / gcd(D, b...), which is again the lcm of the denominators of
the b / D.  Codes compare as lex weights, and those comparisons do not
change under a positive scaling, so `solve` on the `Fraction` spelling and
`tighten` with `matrix_witness` on the int spelling give the same
feasibility and the same witness.

The column minima are the potentials that Bellman-Ford reaches from an
implicit source at (0, 0) over the same edges: the lex-least weights of
the paths into each node, the source's own edge included.  So the witness
is the one Bellman-Ford on lex potentials returns, bit for bit; the test
suite keeps that solver as an independent oracle.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple


class Constraint(NamedTuple):
    """x_left - x_right <= bound (or < bound when strict).  1-based vars.

    The bound is a `Fraction` or an int."""

    left: int
    right: int
    bound: Fraction | int
    strict: bool = False


class DifferenceSystem(NamedTuple):
    """Constraints and equalities x_l - x_r = c."""

    num_vars: int
    constraints: tuple[Constraint, ...] = ()
    equalities: tuple[tuple[int, int, Fraction | int], ...] = ()

    def all_edges(self):
        """Normalize to a list of (right, left, bound, strict, origin) edges."""
        edges = []
        for con in self.constraints:
            self._check_var(con.left)
            self._check_var(con.right)
            edges.append((con.right, con.left, con.bound, con.strict, con))
        for l, r, c in self.equalities:
            self._check_var(l)
            self._check_var(r)
            edges.append((r, l, c, False, Constraint(l, r, c, False)))
            edges.append((l, r, -c, False, Constraint(r, l, -c, False)))
        return edges

    def _check_var(self, j):
        if not 1 <= j <= self.num_vars:
            raise ValueError(f"variable x{j} out of range [1..{self.num_vars}]")


class SolveResult(NamedTuple):
    feasible: bool
    witness: tuple[Fraction, ...] | None = None
    cycle: tuple[Constraint, ...] | None = None


def tighten(d: list, k: int, edges) -> bool:
    """Add edges to the closed difference-bound matrix d, in place.

    Each edge (u, v, c, strict) is x_v - x_u <= c (< c when strict), with
    0-based variables and an int bound c.  Returns False as soon as an edge
    closes a negative cycle, leaving d closed over the edges before it; the
    module docstring gives the encoding and proves the verdict exact."""
    scale = 2 * k + 2
    for u, v, c, strict in edges:
        w = c * scale - strict
        back = d[v * k + u]
        if back is not None and back + w < 0:
            return False
        cur = d[u * k + v]
        if cur is not None and cur <= w:
            continue
        row_v = v * k
        heads = [(j, d[row_v + j]) for j in range(k) if d[row_v + j] is not None]
        for i in range(0, k * k, k):
            into = d[i + u]
            if into is None:
                continue
            into += w
            for j, out in heads:
                t = into + out
                old = d[i + j]
                if old is None or t < old:
                    d[i + j] = t
    return True


def matrix_witness(d: list, k: int, unit: int, g: int) -> tuple[int, list[int]]:
    """The witness of a feasible system, read off its closed matrix.

    ``d`` is the closed k x k matrix of a feasible system of int bounds in
    the positive integer ``unit``, and ``g`` the gcd of the unit and of
    every bound of the system.  Returns the witness over one denominator,
    as (den, [x_j * den]); the module docstring proves that it satisfies
    the system.
    """
    scale = 2 * k + 2
    out = []
    for j in range(k):
        code = min(w for w in d[j::k] if w is not None)
        c = -(-code // scale)
        out.append(c // g * (k + 1) - (c * scale - code))
    return unit // g * (k + 1), out


def solve(system: DifferenceSystem) -> SolveResult:
    """Decide feasibility; return an exact witness or a violating cycle.

    The edges go one at a time into the empty closed matrix; the module
    docstring proves the verdict, the cycle and the witness.  The cycle's
    constraints carry the system's own bounds."""
    k = system.num_vars
    edges = []
    for right, left, bound, strict, origin in system.all_edges():
        if left == right:
            # self-loop: 0 <= bound must hold (strictly if strict)
            if bound < 0 or (bound == 0 and strict):
                return SolveResult(False, cycle=(origin,))
            continue
        edges.append((right - 1, left - 1, bound, 1 if strict else 0, origin))

    # 1 for int bounds, which are then used as they are
    q = math.lcm(*(b.denominator for _, _, b, _, _ in edges))
    d = [None] * (k * k)
    d[::k + 1] = [0] * k
    added = []
    for u, v, b, strict, origin in edges:
        edge = (u, v, b.numerator * (q // b.denominator), strict)
        if not tighten(d, k, (edge,)):
            return SolveResult(False, cycle=(origin, *_tight_path(d, k, added, v, u)))
        added.append((edge, origin))

    # g = 1 for the bounds scaled by q (module docstring)
    den, xs = matrix_witness(d, k, q, 1)
    return SolveResult(True, witness=tuple(Fraction(x, den) for x in xs))


def _tight_path(d: list, k: int, edges: list, start: int, end: int) -> list[Constraint]:
    """The origins of a lex-shortest path start ~> end in the closed matrix
    d, found breadth first along tight steps over the (edge, origin) pairs
    ``edges``; the module docstring proves that one exists."""
    scale = 2 * k + 2
    parent = {start: None}
    frontier = [start]
    for a in frontier:
        if a == end:
            break
        for (u, v, c, strict), origin in edges:
            rest = d[v * k + end]
            if (u == a and v not in parent and rest is not None
                    and c * scale - strict + rest == d[a * k + end]):
                parent[v] = (a, origin)
                frontier.append(v)
    path = []
    while parent[end] is not None:
        end, origin = parent[end]
        path.append(origin)
    return path[::-1]
