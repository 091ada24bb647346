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
`options` rebuilds the `Fraction` deltas when it is read.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .matroid import mask_from_subset
from .plucker import PlueckerVector
from .semiring import as_scalar, INF


class LoopyMatroidError(ValueError):
    """The underlying matroid has loops, so the finite part of the space is empty."""


class LocalContext:
    """Cached data for chart / projection work at one basis."""

    __slots__ = ("p", "basis", "positions", "_deltas")

    def __init__(self, p: PlueckerVector, basis: Iterable[int]):
        p._need_validated()
        self.p = p
        bset = tuple(sorted(set(basis)))
        if len(bset) != p.m:
            raise ValueError(f"basis must have {p.m} elements")
        bmask = mask_from_subset(bset, p.n)
        if p.entry_mask(bmask) is INF:
            raise ValueError(f"{bset} is not in the support")
        matroid = p.underlying_matroid()
        if matroid.loops():
            raise LoopyMatroidError(
                f"underlying matroid has loops {matroid.loops()}; "
                "the space has no finite points and no charts"
            )
        self.basis = bset
        self.positions = {b: j for j, b in enumerate(bset, start=1)}  # element -> 1-based slot
        _, scaled, _ = p._weight_lattice()
        p_b = scaled[bmask]
        deltas: list[tuple[int, tuple[tuple[int, int], ...]]] = []
        for i in range(1, p.n + 1):
            if i in self.positions:
                continue
            circ = matroid.fundamental_circuit_support(i, bset)
            opts = []
            for b in circ:
                if b == i:
                    continue
                exch = (bmask ^ (1 << (b - 1))) | (1 << (i - 1))
                opts.append((self.positions[b] - 1, scaled[exch] - p_b))
            deltas.append((i, tuple(opts)))
        # per non-basis i: ((0-based slot, (p_{B-b+i} - p_B) * D), ...)
        self._deltas = tuple(deltas)

    @property
    def options(self):
        """Per non-basis element i: ((slot j, p_{B-b_j+i} - p_B), ...)."""
        d = self.p._weight_lattice()[0]
        return tuple(
            (i, tuple((j + 1, Fraction(delta, d)) for j, delta in opts))
            for i, opts in self._deltas
        )

    def _as_x(self, x) -> tuple[Fraction, ...]:
        xt = tuple(x)
        if len(xt) != self.p.m:
            raise ValueError(f"chart input must have {self.p.m} coordinates")
        out = []
        for v in xt:
            s = as_scalar(v)
            if s is INF:
                raise ValueError("chart inputs are finite vectors")
            out.append(s)
        return tuple(out)

    # -- membership of the chart region --------------------------------------

    def in_sigma(self, point) -> bool:
        """Does B attain the maximum weight at the point?"""
        return self.p.matroid_at(point).is_basis(self.basis)

    def in_local_space(self, point) -> bool:
        """Membership in the space of a point in this chart region.

        In the region B has maximum weight, so each v_i outside B is at most
        its chart minimum; the minimum of the fundamental circuit over B is
        attained twice exactly when v_i equals it.  So a region point is in
        the space iff the projection fixes it.  Outside the region this
        raises ValueError.  The test suite checks it against the definition.
        """
        pt = self.p._as_point(point)
        if not self.in_sigma(pt):
            raise ValueError("point is outside the chart region of this basis")
        return self.chart(tuple(pt[b - 1] for b in self.basis)) == pt

    # -- the chart and its relatives ------------------------------------------

    def chart(self, x) -> tuple[Fraction, ...]:
        """Map x in R^m to the corresponding point of the space.

        The minima are taken on the lattice: with s the lcm of D and x's
        denominators, v_i * s = min of x_j * s + delta_j * D * (s / D).
        """
        xs = self._as_x(x)
        p = self.p
        s, scaled = p._to_lattice(xs)
        k = s // p._weight_lattice()[0]
        v: list[Fraction] = [Fraction(0)] * p.n
        for b, j in self.positions.items():
            v[b - 1] = xs[j - 1]
        for i, opts in self._deltas:
            v[i - 1] = Fraction(min(scaled[j] + delta * k for j, delta in opts), s)
        return tuple(v)

    def chart_inverse(self, point) -> tuple[Fraction, ...]:
        """Restriction to the B-coordinates; inverse of `chart` on the region."""
        pt = self.p._as_point(point)
        if not self.in_local_space(pt):
            raise ValueError("point is not in the local space at this basis")
        return tuple(pt[b - 1] for b in self.basis)

    def project(self, point) -> tuple[Fraction, ...]:
        """Retract a chart-region point onto the space.

        Same min formula as the chart, evaluated on the point's own
        B-coordinates.  Requires in_sigma; idempotent; fixes the local space.
        """
        pt = self.p._as_point(point)
        if not self.in_sigma(pt):
            raise ValueError("projection is defined on the chart region only")
        return self.chart(tuple(pt[b - 1] for b in self.basis))


def project_any(p: PlueckerVector, point):
    """Project onto the space via the lexicographically least maximal basis.

    Convenience wrapper: picks the lex-least basis of the matroid at the
    point (so the point is in that chart region by construction) and applies
    its projection.  No claim is made that the result is independent of the
    choice -- it is simply a deterministic one.  Returns (basis, projection).
    """
    basis = p.matroid_at(point).bases[0]
    pt = p._as_point(point)
    return basis, LocalContext(p, basis).chart(tuple(pt[b - 1] for b in basis))
