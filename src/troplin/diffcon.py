"""Difference-constraint systems with mixed strict / non-strict inequalities.

A system over variables x_1..x_k consists of constraints x_l - x_r <= c or
x_l - x_r < c and equalities x_l - x_r = c, with rational c.  Feasibility is
decided exactly by Bellman-Ford on lexicographic edge weights (c, #strict):
a path cost (c, s) means "c minus s infinitesimals", so

    (c1, s1) < (c2, s2)  iff  c1 < c2, or c1 = c2 and s1 > s2.

The system is infeasible exactly when some cycle has total weight below
(0, 0), i.e. rational part negative, or zero with at least one strict edge.

On a feasible system the witness is read off the potentials in closed form.
Scale the bounds by the lcm D of their denominators to integers c.  From an
implicit source at (0, 0), Bellman-Ford ends at lex shortest-path potentials
(c_j, s_j); with no negative cycle each is the weight of a simple path, so
c_j is an integer and 0 <= s_j <= k - 1.  The witness is

    x_j = (c_j - s_j / (k + 1)) / D.

Each edge x_l - x_r <= c / D (strict: <) leaves (c_l, s_l) no worse than
(c_r + c, s_r + strict) in the lex order.  In integer units:

- where c_l < c_r + c, the slack is at least 1, while the s terms move
  x_l - x_r by at most (k - 1) / (k + 1) < 1, so the edge holds strictly;
- where c_l = c_r + c, the lex order gives s_l >= s_r + strict, so the
  difference c - (s_l - s_r) / (k + 1) is at most c, and below c if strict;
- an equality is a pair of opposite non-strict edges; both are tight, so
  the lex order gives s_l = s_r and the difference is exactly c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .semiring import as_scalar, INF


@dataclass(frozen=True)
class Constraint:
    """x_left - x_right <= bound (or < bound when strict).  1-based vars."""

    left: int
    right: int
    bound: Fraction
    strict: bool = False


@dataclass(frozen=True)
class DifferenceSystem:
    num_vars: int
    constraints: tuple[Constraint, ...] = ()
    equalities: tuple[tuple[int, int, Fraction], ...] = ()  # x_l - x_r = c

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


@dataclass
class SolveResult:
    feasible: bool
    witness: tuple[Fraction, ...] | None = None
    cycle: tuple[Constraint, ...] | None = None


def make_constraint(left: int, right: int, bound, strict: bool = False) -> Constraint:
    b = as_scalar(bound)
    if b is INF:
        raise ValueError("constraint bounds must be finite")
    return Constraint(left, right, Fraction(b), strict)


def solve(system: DifferenceSystem, want_witness: bool = True) -> SolveResult:
    """Decide feasibility; return an exact witness or a violating cycle."""
    k = system.num_vars
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

    scale = math.lcm(*(b.denominator for _, _, b, _, _ in edges))
    iedges = [(r, l, int(b * scale), s, o) for r, l, b, s, o in edges]

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

    # epsilon = 1 / (k + 1) integer units; the module docstring proves it
    den = scale * (k + 1)
    return SolveResult(True, witness=tuple(
        Fraction(dist_c[j] * (k + 1) - dist_s[j], den) for j in range(1, k + 1)
    ))
