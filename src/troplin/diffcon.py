"""Difference-constraint systems with mixed strict / non-strict inequalities.

A system over variables x_1..x_k consists of constraints x_l - x_r <= c or
x_l - x_r < c and equalities x_l - x_r = c, with rational c.  Feasibility is
decided exactly by Bellman-Ford on lexicographic edge weights (c, #strict):
a path cost (c, s) means "c minus s infinitesimals", so

    (c1, s1) < (c2, s2)  iff  c1 < c2, or c1 = c2 and s1 > s2.

The system is infeasible exactly when some cycle has total weight below
(0, 0), i.e. rational part negative, or zero with at least one strict edge.

A system may carry a positive integer ``unit``: every bound c is then read
as c / unit.  Cell enumeration states its systems on a vector's integer
lattice this way, with int bounds and unit D, the lcm of the entry
denominators, so that no bound is rescaled per call.

On a feasible system the witness is read off the potentials in closed form.
Let q be the lcm of the bounds' denominators (1 for int bounds), so the
bounds scale to integers c, in steps of 1 / (q * unit).  From an implicit
source at (0, 0), Bellman-Ford ends at lex shortest-path potentials
(c_j, s_j); with no negative cycle each is the weight of a simple path, so
c_j is a sum of scaled bounds and 0 <= s_j <= k - 1.  With g the gcd of
q * unit and every scaled bound, each c_j is a multiple of g, and in steps
of the coarser lattice 1 / (q * unit / g) the witness is

    x_j = (c_j / g - s_j / (k + 1)) / (q * unit / g).

Each edge x_l - x_r <= c / (q * unit) (strict: <) leaves (c_l, s_l) no worse
than (c_r + c, s_r + strict) in the lex order.  In steps of g:

- where c_l < c_r + c, the slack is at least one step, while the s terms
  move x_l - x_r by at most (k - 1) / (k + 1) < 1 step, so the edge holds
  strictly;
- where c_l = c_r + c, the lex order gives s_l >= s_r + strict, so the
  difference is at most the bound, and below it if strict;
- an equality is a pair of opposite non-strict edges; both are tight, so
  the lex order gives s_l = s_r and the difference is exactly the bound.

The step does not depend on how a system is written.  For `Fraction`
bounds with unit 1, g = 1: for each prime power exactly dividing q, some
bound's denominator holds all of it, and that bound scales to an integer
prime to it.  The same bounds written as ints b over a unit D give
q * unit / g = D / gcd(D, b...), which is again the lcm of the denominators
of the b / D.  Bellman-Ford's comparisons do not change under a positive
scaling, so both spellings give the same feasibility, the same cycle edges
and the same witness.

A search that adds constraints one at a time decides each prefix with
`tighten` instead, on a closed difference-bound matrix (Bengtsson & Yi,
"Timed automata: semantics, algorithms and tools", 2004), updated per edge
as in Cotton & Maler, "Fast and flexible difference constraint propagation
for DPLL(T)", SAT 2006.  The matrix is a flat list d of k * k entries, with
0-based variables: d[a * k + b] is the lex-shortest path weight from a to b,
or None for no path, so the empty system has 0 on the diagonal and None
elsewhere.  An int bound (c, strict) is encoded as the int c * K - strict
with K = 2k + 2, and a path's code is the sum of its edges' codes.  Codes
compare as their lex weights whenever their strict counts differ by less
than K: if c1 < c2 then c1 * K - s1 <= c2 * K - K - s1 < c2 * K - s2, as
s2 - s1 < K.

With no negative cycle, every entry is the weight of a simple path: a
lex-shortest walk loses a cycle, of weight >= 0, and stays shortest.  Such
a path has at most k - 1 edges, so its strict count s is at most k - 1.
Adding the edge u -> v of weight w then closes a negative cycle exactly
when d[v * k + u] + w < 0, a code with s <= k < K.  Otherwise the shortest
paths that use the new edge use it once, and the update

    d[i * k + j] = min(d[i * k + j], d[i * k + u] + w + d[v * k + j])

compares codes with s <= 2(k - 1) + 1 < K, so it keeps the lex minimum,
which is again a simple path's weight.  The verdicts are exact, whatever
the order in which edges arrive.

A feasible system's witness comes off its closed matrix too
(`matrix_witness`), with no Bellman-Ford run.  The implicit source reaches
each node j at (0, 0) directly and along every path into j, so `solve`'s
potential there is the lex minimum of (0, 0) and of the path weights into
j: the column minimum min_i d[i * k + j], where the diagonal's 0 stands for
the source's own edge.  That minimum is a simple path's weight, or 0, so
its strict count s_j is at most k - 1 < K, and the code w_j = c_j * K - s_j
decodes as c_j = ceil(w_j / K) and s_j = c_j * K - w_j.  For int bounds
q = 1, so g is the gcd of the unit and of every bound in the system, and
the formula above gives the witness `solve` returns, bit for bit:

    x_j = (c_j / g * (k + 1) - s_j) / (unit / g * (k + 1)).

The gcd is taken over the system's bounds, not over the matrix entries:
it covers the bounds of edges that `tighten` found redundant as well.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .semiring import as_scalar, INF


class Constraint(NamedTuple):
    """x_left - x_right <= bound (or < bound when strict).  1-based vars.

    The bound is a `Fraction` or an int, read in the system's unit."""

    left: int
    right: int
    bound: Fraction | int
    strict: bool = False


class DifferenceSystem(NamedTuple):
    """Constraints and equalities x_l - x_r = c, every bound read as
    bound / unit for a positive integer unit."""

    num_vars: int
    constraints: tuple[Constraint, ...] = ()
    equalities: tuple[tuple[int, int, Fraction | int], ...] = ()
    unit: int = 1

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


def make_constraint(left: int, right: int, bound, strict: bool = False) -> Constraint:
    b = as_scalar(bound)
    if b is INF:
        raise ValueError("constraint bounds must be finite")
    return Constraint(left, right, Fraction(b), strict)


def tighten(d: list, k: int, edges) -> bool:
    """Add edges to the closed difference-bound matrix d, in place.

    Each edge (u, v, c, strict) is x_v - x_u <= c (< c when strict), with
    0-based variables and an int bound c.  Returns False as soon as an edge
    closes a negative cycle, leaving d part-updated; the module docstring
    gives the encoding and proves the verdict exact."""
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
    """The witness `solve` returns, read off a closed difference-bound matrix.

    ``d`` is the closed k x k matrix of a feasible system of int bounds in
    the positive integer ``unit``, and ``g`` the gcd of the unit and of
    every bound of the system.  Returns the witness over one denominator,
    as (den, [x_j * den]); the module docstring proves that it is `solve`'s.
    """
    scale = 2 * k + 2
    out = []
    for j in range(k):
        code = min(w for w in d[j::k] if w is not None)
        c = -(-code // scale)
        out.append(c // g * (k + 1) - (c * scale - code))
    return unit // g * (k + 1), out


def solve(system: DifferenceSystem, want_witness: bool = True) -> SolveResult:
    """Decide feasibility; return an exact witness or a violating cycle.

    The cycle's constraints carry the system's own bounds, in its unit."""
    k = system.num_vars
    unit = system.unit
    if type(unit) is not int or unit < 1:  # not a bool either
        raise ValueError(f"the unit must be a positive integer, got {unit!r}")
    edges = []
    for right, left, bound, strict, origin in system.all_edges():
        if left == right:
            # self-loop: 0 <= bound must hold (strictly if strict)
            if bound < 0 or (bound == 0 and strict):
                return SolveResult(False, cycle=(origin,))
            continue
        edges.append((right, left, bound, 1 if strict else 0, origin))

    if not edges:
        return SolveResult(True, witness=tuple(Fraction(0) for _ in range(k)))

    # 1 for int bounds, which are then used as they are
    scale = math.lcm(*(b.denominator for _, _, b, _, _ in edges))
    iedges = [(r, l, b.numerator * (scale // b.denominator), s, o) for r, l, b, s, o in edges]

    # implicit super-source: every node starts at distance (0, 0)
    dist_c = [0] * (k + 1)
    dist_s = [0] * (k + 1)
    pred: list[tuple | None] = [None] * (k + 1)

    def relax_once() -> int | None:
        changed = None
        for r, l, c, s, o in iedges:
            nc = dist_c[r] + c
            ns = dist_s[r] + s
            if nc < dist_c[l] or (nc == dist_c[l] and ns > dist_s[l]):
                dist_c[l] = nc
                dist_s[l] = ns
                pred[l] = (r, o)
                changed = l
        return changed

    for _ in range(k):
        if relax_once() is None:
            break
    else:
        hot = relax_once()
        if hot is not None:
            # k + 1 steps back among k nodes repeat one, so node is on the cycle
            node = hot
            for _ in range(k + 1):
                node = pred[node][0]
            # pred[v] = (u, origin) is the edge u -> v; read the cycle off preds
            origins = []
            cur = node
            while True:
                cur, origin = pred[cur]
                origins.append(origin)
                if cur == node:
                    break
            origins.reverse()
            return SolveResult(False, cycle=tuple(origins))

    if not want_witness:
        return SolveResult(True)

    # steps of g on the lattice 1 / (scale * unit), epsilon = 1 / (k + 1)
    # step; the module docstring proves it
    g = math.gcd(scale * unit, *(c for _, _, c, _, _ in iedges))
    den = (scale * unit // g) * (k + 1)
    return SolveResult(True, witness=tuple(
        Fraction(dist_c[j] // g * (k + 1) - dist_s[j], den) for j in range(1, k + 1)
    ))
