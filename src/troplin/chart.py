"""Local charts of a tropical linear space around one basis.

Fix a validated Pluecker vector p and a basis B = {b_1 < ... < b_m} of its
support.  The chart sends x in R^m to the point v with v_{b_j} = x_j and,
for i outside B,

    v_i = min over b in C(i,B) - i of ( x_{pos(b)} + p_{B - b + i} - p_B )

where C(i,B) is the fundamental circuit support of i over B.  The image is
exactly the part of the space where B has maximum weight, and the same
formula applied to an ambient point y (using y's B-coordinates) is the
projection onto that part.

The chart region is decided by B's own exchanges, not by a scan of the
support.  A valuated matroid's basis has maximum weight iff no single
exchange B - b + i raises the weight (Dress & Wenzel, "Valuated matroids",
Adv. Math. 93, 1992; Murota, Discrete Convex Analysis, SIAM 2003, ch. 5).
At y the exchange raises it iff y_i > y_b + p_{B - b + i} - p_B, so B has
maximum weight at y iff y_i <= v_i for every i outside B, with v the chart
of y's B-coordinates; and y is in the space iff also y_i = v_i, since the
minimum over the fundamental circuit of i is then attained twice.  So
`in_sigma`, `in_local_space`, `project` and `chart_inverse` all compare y
with that one chart, and `project` returns the chart.

The deltas p_{B - b + i} - p_B are kept on the vector's integer lattice, as
(p_{B - b + i} - p_B) * D with D the lcm of the entry denominators.  With s
the lcm of D and the point's denominators and k = s / D, v_i * s is an
integer minimum, and `chart` returns it as Fraction(v_i * s, s).  The
vector caches the deltas per basis (`PlueckerVector._chart_rows`) and
evaluates them in one routine, `PlueckerVector._chart`: a `LocalContext`
keeps its basis mask and reads every chart there, as `project_any` does at
each basis of its walk.  Cell enumeration builds its difference-bound
matrix edges from these int deltas, in the unit D, and maps each leaf's
witness through `_chart` without leaving the lattice; `options` rebuilds
the `Fraction` deltas when it is read.

`project_any` projects through the lex-least basis of maximum weight at y
without weighing the support.  The steepest ascent of `contains` ends at
some basis B of maximum weight.  The bases of maximum weight form a matroid
M (Dress & Wenzel), and B - b + i is one of them iff the exchange is a tie:
y_i = v_i and b attains i's chart minimum.  A basis of M with no tie
exchange b -> i with i < b is its lex-least basis B0: otherwise the least
element x of B0 - B is below every element of B - B0, and the fundamental
circuit of x over B meets B - B0 in some b > x.  The same argument makes
one pass over i in increasing order enough.  While B agrees with B0 below
i, i is in B0 - B exactly when some tie b -> i has b > i, and taking any
one keeps the agreement up to i.  So the descent makes at most
|B0 - B| <= min(m, n - m) exchanges, each to a lex-smaller basis, and then
projects with B0's chart.
"""

from __future__ import annotations

from fractions import Fraction
from operator import le
from typing import Iterable

from .matroid import mask_from_subset, subset_from_mask
from .plucker import PlueckerVector
from .semiring import INF


_OUTSIDE = "point is outside the chart region of this basis"


class LoopyMatroidError(ValueError):
    """The underlying matroid has loops, so the finite part of the space is empty."""


def _refuse_loops(p: PlueckerVector) -> None:
    loops = p.underlying_matroid().loops()
    if loops:
        raise LoopyMatroidError(
            f"underlying matroid has loops {loops}; "
            "the space has no finite points and no charts"
        )


class LocalContext:
    """Cached data for chart / projection work at one basis."""

    __slots__ = ("p", "basis", "_bmask", "_deltas")

    def __init__(self, p: PlueckerVector, basis: Iterable[int]):
        p._need_validated()
        self.p = p
        self._bmask = bmask = mask_from_subset(basis, p.n)
        bset = subset_from_mask(bmask)
        if len(bset) != p.m:
            raise ValueError(f"basis must have {p.m} elements")
        if p.entry_mask(bmask) is INF:
            raise ValueError(f"{bset} is not in the support")
        _refuse_loops(p)
        # per non-basis i: ((0-based slot, (p_{B-b+i} - p_B) * D), ...), from
        # the vector's cache
        self.basis, self._deltas = p._chart_rows(bmask)

    @property
    def options(self):
        """Per non-basis element i: ((slot j, p_{B-b_j+i} - p_B), ...)."""
        d = self.p._weight_lattice()[0]
        return tuple(
            (i, tuple((j + 1, Fraction(delta, d)) for j, delta in opts))
            for i, opts in self._deltas
        )

    # -- membership of the chart region --------------------------------------
    #
    # Each public read takes the point through `_read` once and compares it
    # on the lattice with the chart of its B-coordinates (the exchange
    # criterion of the module docstring).

    def in_sigma(self, point) -> bool:
        """Does B attain the maximum weight at the point?

        Decided by B's exchanges alone: B has maximum weight iff no
        B - b + i outweighs it, that is, iff v_i <= v_b + p_{B-b+i} - p_B
        for every exchange, iff each v_i outside B is at most its chart
        minimum (Dress & Wenzel 1992; Murota 2003, ch. 5).
        """
        _, _, ys, v = self._read(point)
        return all(map(le, ys, v))

    def in_local_space(self, point) -> bool:
        """Membership in the space of a point in this chart region.

        In the region each v_i outside B is at most its chart minimum (the
        exchange criterion of `in_sigma`); the minimum of the fundamental
        circuit over B is attained twice exactly when v_i equals it.  So a
        region point is in the space iff the chart of its B-coordinates
        gives the point back.  Outside the region this raises ValueError.
        The test suite checks it against the definition.
        """
        _, _, ys, v = self._read(point, _OUTSIDE)
        return ys == v

    def _read(self, point, region: str | None = None) -> tuple:
        """(pt, s, ys, v): the point read once, as `Fraction`s and on the
        lattice, ys[i] = pt_i * s, and the chart of its B-coordinates there,
        v[i] = chart_i * s (`PlueckerVector._chart`), which agrees with ys on
        B.  With a ``region`` message, ValueError(region) when the point is
        outside the chart region."""
        pt = self.p._as_point(point)
        s, k, ys = self.p._to_lattice(pt)
        v = self.p._chart(self._bmask, k, ys)[2]
        if region and not all(map(le, ys, v)):
            raise ValueError(region)
        return pt, s, ys, v

    # -- the chart and its relatives ------------------------------------------

    def chart(self, x) -> tuple[Fraction, ...]:
        """Map x in R^m to the corresponding point of the space.

        The minima are taken on the lattice: with s the lcm of D and x's
        denominators and k = s / D, v_i * s = min of x_j * s + delta_j * D * k.
        """
        # x on B, 0 elsewhere: the chart overwrites every non-basis entry
        pt = [0] * self.p.n
        for b, xb in zip(self.basis, self.p._as_point(x, self.p.m)):
            pt[b - 1] = xb
        s, k, ys = self.p._to_lattice(pt)
        return _off_basis(self._deltas, pt, s, self.p._chart(self._bmask, k, ys)[2])

    def chart_inverse(self, point) -> tuple[Fraction, ...]:
        """Restriction to the B-coordinates; inverse of `chart` on the region."""
        pt, _, ys, v = self._read(point, _OUTSIDE)
        if ys != v:
            raise ValueError("point is not in the local space at this basis")
        return tuple(pt[b - 1] for b in self.basis)

    def project(self, point) -> tuple[Fraction, ...]:
        """Retract a chart-region point onto the space.

        Same min formula as the chart, evaluated on the point's own
        B-coordinates.  Requires in_sigma; idempotent; fixes the local space.
        """
        pt, s, _, v = self._read(point, "projection is defined on the chart region only")
        return _off_basis(self._deltas, list(pt), s, v)


def _off_basis(rows: tuple, out: list, s: int, v: list[int]) -> tuple[Fraction, ...]:
    """``out``, whose B-coordinates are set, with v_i / s at each non-basis
    i of the chart ``rows``."""
    for i, _ in rows:
        out[i - 1] = Fraction(v[i - 1], s)
    return tuple(out)


def _lex_exchange(basis: tuple, rows: tuple, k: int, ys: list[int], v: list[int],
                  start: int) -> tuple[int, int]:
    """At a basis of maximum weight, the tie exchange b -> i with
    start <= i < b of the least i and, for it, the greatest b: (i, the mask
    of {b, i}), or (0, 0) when there is none."""
    for i, opts in rows:
        vi = v[i - 1]
        if i < start or vi != ys[i - 1]:
            continue
        for j, delta in reversed(opts):
            b = basis[j]
            if b < i:
                break
            if ys[b - 1] + delta * k == vi:
                return i, (1 << (b - 1)) | (1 << (i - 1))
    return 0, 0


def project_any(p: PlueckerVector, point):
    """Project onto the space via the lexicographically least maximal basis.

    Convenience wrapper: the steepest ascent of `contains` reaches a basis
    of maximum weight at the point, and one pass of tie exchanges b -> i
    with i < b, over i in increasing order, descends from it to the
    lex-least basis of the matroid at the point: a basis of a matroid with
    no such exchange is its lex-least one, and while the walk's basis
    agrees with that one below i, i belongs to it exactly when such an
    exchange brings i in (the module docstring has the proof).  So the
    point is in that chart region by construction, and its projection is
    applied on the lattice point already read.  No claim is made that the
    result is independent of the choice -- it is simply a deterministic
    one.  Returns (basis, projection).
    """
    p._need_validated()
    pt = p._as_point(point)
    _refuse_loops(p)
    s, k, ys = p._to_lattice(pt)
    bmask, v = p._maximal(k, ys)
    basis, rows = p._chart_rows(bmask)
    i = 0
    while True:
        i, swap = _lex_exchange(basis, rows, k, ys, v, i + 1)
        if not swap:
            return basis, _off_basis(rows, list(pt), s, v)
        bmask ^= swap
        basis, rows, v = p._chart(bmask, k, ys)
