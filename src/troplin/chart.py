"""Local charts of a tropical linear space around one basis.

Fix a validated Pluecker vector p and a basis B = {b_1 < ... < b_m} of its
support.  The chart sends x in R^m to the point v with v_{b_j} = x_j and,
for i outside B,

    v_i = min over b in C(i,B) - i of ( x_{pos(b)} + p_{B - b + i} - p_B )

where C(i,B) is the fundamental circuit support of i over B.  The image is
exactly the part of the space where B has maximum weight, and the same
formula applied to an ambient point y (using y's B-coordinates) is the
projection onto that part.

The deltas p_{B - b + i} - p_B are kept on the vector's integer lattice, as
(p_{B - b + i} - p_B) * D with D the lcm of the entry denominators.  With s
the lcm of D and x's denominators, v_i * s is an integer minimum, and
`chart` returns it as Fraction(v_i * s, s); `project`, `chart_inverse`,
`in_local_space`, `project_any` and every cell witness read through it.
Cell enumeration builds its difference-bound matrix edges from these int
deltas, in the unit D, and maps each leaf's witness through the chart
without leaving the lattice; `options` rebuilds the `Fraction` deltas when
it is read.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .matroid import mask_from_subset, subset_from_mask
from .plucker import PlueckerVector
from .semiring import INF


class LoopyMatroidError(ValueError):
    """The underlying matroid has loops, so the finite part of the space is empty."""


class LocalContext:
    """Cached data for chart / projection work at one basis."""

    __slots__ = ("p", "basis", "_deltas")

    def __init__(self, p: PlueckerVector, basis: Iterable[int]):
        p._need_validated()
        self.p = p
        bmask = mask_from_subset(basis, p.n)
        bset = subset_from_mask(bmask)
        if len(bset) != p.m:
            raise ValueError(f"basis must have {p.m} elements")
        if p.entry_mask(bmask) is INF:
            raise ValueError(f"{bset} is not in the support")
        matroid = p.underlying_matroid()
        if matroid.loops():
            raise LoopyMatroidError(
                f"underlying matroid has loops {matroid.loops()}; "
                "the space has no finite points and no charts"
            )
        self.basis = bset
        _, scaled, _ = p._weight_lattice()
        p_b = scaled[bmask]
        # per non-basis i: ((0-based slot, (p_{B-b+i} - p_B) * D), ...) over
        # the b whose exchange B - b + i is in the support, C(i,B) - i
        deltas: list[tuple[int, tuple[tuple[int, int], ...]]] = []
        for i in range(1, p.n + 1):
            ibit = 1 << (i - 1)
            if bmask & ibit:
                continue
            opts = []
            for j, b in enumerate(bset):
                exch = scaled.get((bmask ^ (1 << (b - 1))) | ibit)
                if exch is not None:
                    opts.append((j, exch - p_b))
            deltas.append((i, tuple(opts)))
        self._deltas = tuple(deltas)

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
    # Each public read takes the point through `_as_point` once; the
    # underscored twins take a point already read.

    def in_sigma(self, point) -> bool:
        """Does B attain the maximum weight at the point?"""
        return self._in_sigma(self.p._as_point(point))

    def _in_sigma(self, pt) -> bool:
        return self.p._matroid_at(pt).is_basis(self.basis)

    def in_local_space(self, point) -> bool:
        """Membership in the space of a point in this chart region.

        In the region B has maximum weight, so each v_i outside B is at most
        its chart minimum; the minimum of the fundamental circuit over B is
        attained twice exactly when v_i equals it.  So a region point is in
        the space iff the projection fixes it.  Outside the region this
        raises ValueError.  The test suite checks it against the definition.
        """
        return self._in_local_space(self.p._as_point(point))

    def _in_local_space(self, pt) -> bool:
        if not self._in_sigma(pt):
            raise ValueError("point is outside the chart region of this basis")
        return self._chart(self._coords(pt)) == pt

    # -- the chart and its relatives ------------------------------------------

    def chart(self, x) -> tuple[Fraction, ...]:
        """Map x in R^m to the corresponding point of the space.

        The minima are taken on the lattice: with s the lcm of D and x's
        denominators, v_i * s = min of x_j * s + delta_j * D * (s / D).
        """
        return self._chart(self.p._as_point(x, self.p.m))

    def _chart(self, xs) -> tuple[Fraction, ...]:
        s, scaled = self.p._to_lattice(xs)
        v = self._chart_lattice(s, scaled)
        # the basis coordinates are x itself: no Fraction to rebuild
        for b, xb in zip(self.basis, xs):
            v[b - 1] = xb
        for i, _ in self._deltas:
            v[i - 1] = Fraction(v[i - 1], s)
        return tuple(v)

    def _chart_lattice(self, s: int, xs: list[int]) -> list[int]:
        """The chart on the lattice: for s a multiple of D and xs[j] = x_j * s,
        the list of v_i * s."""
        k = s // self.p._weight_lattice()[0]
        v = [0] * self.p.n
        for b, xb in zip(self.basis, xs):
            v[b - 1] = xb
        for i, opts in self._deltas:
            v[i - 1] = min(xs[j] + delta * k for j, delta in opts)
        return v

    def _coords(self, pt) -> tuple[Fraction, ...]:
        """The B-coordinates of a point."""
        return tuple(pt[b - 1] for b in self.basis)

    def chart_inverse(self, point) -> tuple[Fraction, ...]:
        """Restriction to the B-coordinates; inverse of `chart` on the region."""
        pt = self.p._as_point(point)
        if not self._in_local_space(pt):
            raise ValueError("point is not in the local space at this basis")
        return self._coords(pt)

    def project(self, point) -> tuple[Fraction, ...]:
        """Retract a chart-region point onto the space.

        Same min formula as the chart, evaluated on the point's own
        B-coordinates.  Requires in_sigma; idempotent; fixes the local space.
        """
        pt = self.p._as_point(point)
        if not self._in_sigma(pt):
            raise ValueError("projection is defined on the chart region only")
        return self._chart(self._coords(pt))


def project_any(p: PlueckerVector, point):
    """Project onto the space via the lexicographically least maximal basis.

    Convenience wrapper: picks the lex-least basis of the matroid at the
    point (so the point is in that chart region by construction) and applies
    its projection.  No claim is made that the result is independent of the
    choice -- it is simply a deterministic one.  Returns (basis, projection).
    """
    p._need_validated()
    pt = p._as_point(point)
    basis = p._matroid_at(pt).bases[0]
    ctx = LocalContext(p, basis)
    return basis, ctx._chart(ctx._coords(pt))
