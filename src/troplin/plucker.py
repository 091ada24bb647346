"""Tropical Pluecker vectors (valuated matroids) and their circuits.

A tropical Pluecker vector of rank m on [n] assigns a scalar p_A to every
m-subset A, with a nonempty finite support, satisfying the tropical
Pluecker relations: for every (m-1)-subset S and (m+1)-subset T, the
minimum of p_{S+i} + p_{T-i} over i in T\\S is INF or achieved at least
twice.  The three-term relations are the pairs with |S & T| = m - 2.

The valuated circuits live on the (m+1)-subsets S: (c_S)_i = p_{S-i} for
i in S and INF outside.  Two circuits with equal support differ by a global
additive shift, so `all_circuits` keeps one representative per support,
normalized so its least finite entry is 0.

Point reads and the circuits run on an integer lattice.  D is the lcm of
the entry denominators, and a point v is scaled by s, the lcm of D and its
own denominators, to the integers v_i * s; `_to_lattice` returns s, the step
k = s / D and those integers.  Entries scale to p_A * D and circuit entries
to c_i * D, so an entry enters a lattice read as p_A * D * k, and the argmax
of `matroid_at` and the circuit minima of `failing_circuit` compare integers
and give the exact `Fraction` answers.  The argmax (`_face`) weighs every
support row A as lo[A's low bits] + hi[A's high bits] - p_A * D * k, from
two tables of the point's subset sums over the halves of [n], built per
call by doubling (`_half_sums`).  `all_circuits` shifts each circuit
by its least p_A * D and builds one `Fraction` per entry.  Circuit
membership (`failing_circuit`) weighs the same rows from the same tables,
each at most once per point, in the order the circuits first read them and
only as far as the next circuit needs: a circuit's terms are a constant
less the weights of its rows, so its minimum is attained once exactly when
the largest of those weights is.  It takes no maximal-basis walk, so it
stays independent of `contains`.  Parsing, formatting and `validate` stay
on `Fraction`.

The chart at a support basis B (`_chart_rows`, cached per basis mask) lists
for each i outside B the exchanges B - b + i in the support with their
deltas (p_{B-b+i} - p_B) * D.  `_chart` is the one routine that evaluates
it on the lattice: at (k, ys) it gives v_i * s, the minimum of
ys_b + delta * k over i's options, the chart of ys's B-coordinates.
`chart.LocalContext`, `chart.project_any` and each cell leaf of
`cells.enumerate_local_cells` read their charts through it.
`contains` never weighs the whole support.  It walks from the first support
row by steepest ascent (`_maximal`): at B the gain of i is g_i = y_i - v_i,
with v the chart of y's B-coordinates, and g_i is the largest weight gain of
an exchange that brings i in.  While some gain is positive the walk takes
the exchange of the largest one; when none is, B has maximum weight, since
a valuated matroid's basis is maximal iff no single exchange raises its
weight (Dress & Wenzel, "Valuated matroids", Adv. Math. 93, 1992).  Basic
steepest ascent ends within half the l1 distance from the start to a
nearest maximal basis (Minamikawa & Shioura, J. Oper. Res. Soc. Japan 64,
2021), so within min(m, n - m) exchanges.  The point is in the space iff
the underlying matroid has no loops and every gain there is 0: y is then
the chart of its own B-coordinates, the `in_local_space` criterion.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from operator import itemgetter, sub
from typing import Iterable, Mapping, NamedTuple

from . import kernels
from .matroid import (
    MAX_GROUND,
    Matroid,
    json_int,
    mask_from_subset,
    subset_from_mask,
)
from .semiring import (
    INF,
    Scalar,
    as_point,
    as_scalar,
    format_scalar,
    is_orthogonal,  # noqa: F401 -- unused here; perfbench/tracer.py wraps it by this module's name
)


# validate() tries C(n, m-1) * C(n, m+1) (S, T) pairs; refuse larger shapes
# up front rather than run for minutes
MAX_RELATION_PAIRS = 100_000


def _half_sums(xs: list[int], h: int) -> tuple[list[int], list[int]]:
    """The subset sums of xs over the low half [0, h) and the high half of
    its indices, tabulated by doubling: lo[a] is the sum of xs over the low
    indices in the bits of a, 2^h entries, and hi[b] over the high indices
    in the bits of b, 2^(len(xs) - h) entries."""
    lo = [0]
    for x in xs[:h]:
        lo += [t + x for t in lo]
    hi = [0]
    for x in xs[h:]:
        hi += [t + x for t in hi]
    return lo, hi


def check_shape(n: int, m: int) -> None:
    """Refuse a rank/ground-set shape outside the size and work caps."""
    if not 1 <= m <= n:
        raise ValueError("need 1 <= m <= n")
    if n > MAX_GROUND:
        raise ValueError(f"ground set size {n} exceeds the cap {MAX_GROUND}")
    pairs = math.comb(n, m - 1) * math.comb(n, m + 1)
    if pairs > MAX_RELATION_PAIRS:
        raise ValueError(
            f"shape n={n}, m={m} needs {pairs} relation checks, "
            f"over the cap {MAX_RELATION_PAIRS}"
        )


def _load_entries(n: int, m: int, pairs: Iterable) -> dict[int, Fraction]:
    """The finite entries of (subset, value) pairs from outside, by mask.

    Each subset is an m-subset of [n], listed at most once in any order; an
    INF value is the same as an absent subset.  Each pair is checked once.
    """
    check_shape(n, m)
    table: dict[int, Fraction] = {}
    seen: set[int] = set()
    for subset, raw in pairs:
        mask = mask_from_subset(subset, n)
        # before the value is read, so that a repeated INF entry is caught too
        if mask in seen:
            raise ValueError(f"duplicate entry for subset {list(subset_from_mask(mask))}")
        seen.add(mask)
        if mask.bit_count() != m:
            raise ValueError(f"subset {list(subset_from_mask(mask))} is not an m-set")
        val = as_scalar(raw)
        if val is not INF:
            table[mask] = val
    if not table:
        raise ValueError("empty support: at least one finite entry required")
    return table


class NotValidatedError(RuntimeError):
    """Raised when an operation needs a vector that passed validation."""


class ValuatedCircuit(NamedTuple):
    """A valuated circuit: entry vector plus the (m+1)-set that generated it."""

    entries: tuple
    generator: tuple[int, ...]

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i + 1 for i, x in enumerate(self.entries) if x is not INF)

    @property
    def support_mask(self) -> int:
        mask = 0
        for i, x in enumerate(self.entries):
            if x is not INF:
                mask |= 1 << i
        return mask

    def entry(self, element: int) -> Scalar:
        return self.entries[element - 1]

    def shifted(self, offset) -> "ValuatedCircuit":
        off = as_scalar(offset)
        return ValuatedCircuit(
            tuple(x if x is INF else x + off for x in self.entries), self.generator
        )

    def __repr__(self):
        body = ",".join(format_scalar(x) for x in self.entries)
        return f"ValuatedCircuit([{body}], from {self.generator})"


class ValidationReport(NamedTuple):
    """Outcome of the tropical Pluecker relation check plus the support exchange check."""

    relation_failures: tuple  # ((S, T), ...) as subset tuples
    exchange_witness: tuple | None  # (A, B, element) subsets when the support fails

    @property
    def support_ok(self) -> bool:
        return self.exchange_witness is None

    @property
    def ok(self) -> bool:
        return not self.relation_failures and self.support_ok

    def summary(self) -> str:
        if self.ok:
            return "valid tropical Pluecker vector"
        lines = []
        for s, t in self.relation_failures:
            lines.append(f"relation fails at S={list(s)}, T={list(t)}")
        if not self.support_ok:
            a, b, e = self.exchange_witness
            lines.append(f"support fails exchange at A={list(a)}, B={list(b)}, a={e}")
        return "; ".join(lines)


class PlueckerVector:
    """Rank-m tropical Pluecker candidate on [n]; validate() certifies it."""

    __slots__ = (
        "n", "m", "_entries", "_matroid", "_circuits", "_supp_list", "_lattice", "_face_rows",
        "_circuit_rows", "_charts",
    )

    def __init__(self, n: int, m: int, entries: Mapping):
        """``entries`` maps m-subsets of [n], as iterables of elements, to scalars."""
        self._fill(n, m, _load_entries(n, m, entries.items()), None)

    @classmethod
    def from_masks(cls, n: int, m: int, entries: Mapping[int, Fraction]) -> "PlueckerVector":
        """Trusted constructor for a vector the library derived itself.

        ``entries`` maps distinct m-set bitmasks to finite `Fraction`s and is
        nonempty; its values are a valuated matroid by theorem, so the vector
        comes out validated, with `Matroid.from_masks` of its support as the
        underlying matroid.  Nothing is checked: a caller's entries go
        through the constructor and `validate()` instead.
        """
        obj = cls.__new__(cls)
        obj._fill(n, m, dict(entries), Matroid.from_masks(n, entries))
        return obj

    def _fill(self, n: int, m: int, table: dict, matroid: Matroid | None) -> None:
        self.n = n
        self.m = m
        self._entries = table
        self._matroid = matroid
        self._circuits = None
        self._lattice = None
        self._face_rows = None
        self._circuit_rows = None
        self._charts: dict[int, tuple] = {}
        # a trusted build's matroid has lex-sorted the support already
        self._supp_list = (list(matroid.basis_masks) if matroid is not None
                           else sorted(table, key=subset_from_mask))

    @property
    def validated(self) -> bool:
        """Has the vector passed `validate()` (or come from a trusted build)?"""
        return self._matroid is not None

    # -- raw access ---------------------------------------------------------

    def entry_mask(self, mask: int) -> Scalar:
        return self._entries.get(mask, INF)

    def entry(self, subset: Iterable[int]) -> Scalar:
        return self.entry_mask(mask_from_subset(subset, self.n))

    def support_masks(self) -> list[int]:
        return list(self._supp_list)

    def support(self) -> list[tuple[int, ...]]:
        return [subset_from_mask(mk) for mk in self._supp_list]

    def _need_validated(self):
        if not self.validated:
            raise NotValidatedError("call validate() first (and it must succeed)")

    # -- validation ---------------------------------------------------------

    def validate(self) -> ValidationReport:
        """Check all tropical Pluecker relations and the support exchange axiom.

        On success the underlying matroid is cached, which flags the vector
        as validated; on failure it is cleared.  The report lists every
        failing (S, T) pair, and when the support is no matroid the first
        failing exchange triple of `kernels.exchange_violation`.

        That scan runs only when some relation has exactly one finite term
        (and so fails), because otherwise it cannot fail.  Let A, B be in
        the support and a in A - B with A - a + b outside it for every b in
        B - A.  B - A has two or more elements, as B - A = {b} would make
        A - a + b = B; so S = A - a is not inside T = B + a.  T - S is
        (B - A) + a, and of the terms p_{S+i} + p_{T-i} over it, the one at
        a is p_A + p_B and every one at b is INF: the relation (S, T) has
        one finite term.  Conversely a lone finite term at i makes the
        support no matroid: for the bases S + i and T - i, Brualdi's
        symmetric exchange at i gives j in (T - i) - (S + i) with S + j and
        T - j bases, a second finite term.  So the support of a vector whose
        relations all hold is a matroid, and `Matroid.from_masks` takes it
        unscanned (Dress & Wenzel, "Valuated matroids", Adv. Math. 93, 1992;
        Speyer, "Tropical linear spaces", 2008).
        """
        n, m, entries = self.n, self.m, self._entries
        elems = range(1, n + 1)
        tops = [(t, sum(1 << (e - 1) for e in t)) for t in combinations(elems, m + 1)]
        failures = []
        lone = False  # has some relation exactly one finite term?
        for s_combo in combinations(elems, m - 1):
            smask = sum(1 << (e - 1) for e in s_combo)
            for t_combo, tmask in tops:
                if not smask & ~tmask:
                    continue  # S inside T: the two terms coincide, so it holds
                # the finite terms only: the relation fails iff the least of
                # them occurs once, as an INF term is never that minimum
                terms = []
                rest = tmask & ~smask
                while rest:
                    bit = rest & -rest
                    rest ^= bit
                    a = entries.get(smask | bit)
                    if a is not None:
                        b = entries.get(tmask ^ bit)
                        if b is not None:
                            terms.append(a + b)
                if terms and terms.count(min(terms)) == 1:
                    failures.append((s_combo, t_combo))
                    lone = lone or len(terms) == 1
        # the support masks are distinct m-sets in lex order already; with no
        # lone finite term the support is a matroid (see above), unscanned
        bad = kernels.exchange_violation(self._supp_list, n) if lone else None
        witness = None
        if bad is not None:
            amask, bmask, elem = bad
            witness = (subset_from_mask(amask), subset_from_mask(bmask), elem)
        report = ValidationReport(tuple(failures), witness)
        self._matroid = Matroid.from_masks(n, self._supp_list) if report.ok else None
        return report

    def underlying_matroid(self) -> Matroid:
        self._need_validated()
        return self._matroid

    # -- circuits -------------------------------------------------------------

    def all_circuits(self) -> tuple[ValuatedCircuit, ...]:
        """One representative per circuit support, least finite entry 0.

        The representative of a support is the circuit of its lex-least
        generator S, and the circuits come in lex order of their supports.
        They are read off the `_weight_lattice` ints p_A * D of the rows
        A = S - i, shifted by their minimum there.  The same ints fill
        `_circuit_rows`, which `failing_circuit` reads: the support rows in
        the order the circuits first read them, each as (A's low bits,
        A >> h, p_A * D) with h = n // 2, as `_face` splits [n]; and per
        circuit an `itemgetter` over the positions of its rows S - i, in
        the order of its support, and the number of rows it needs, one past
        the largest of those positions.  A one-index `itemgetter` returns a
        scalar, so a one-row circuit (a loop) reads the one-element slice
        instead.  So circuit membership weighs each support row at most once
        per point, from the subset-sum tables that `matroid_at` uses, and
        with no maximal-basis walk it stays independent of `contains`.
        """
        self._need_validated()
        if self._circuits is None:
            d, scaled = self._weight_lattice()
            seen: dict[int, tuple] = {}
            for gen in combinations(range(1, self.n + 1), self.m + 1):
                gmask = sum(1 << (e - 1) for e in gen)
                row = []
                for e in gen:
                    amask = gmask ^ (1 << (e - 1))
                    x = scaled.get(amask)
                    if x is not None:
                        row.append((e - 1, amask, x))
                if not row:
                    continue
                key = sum(1 << i for i, _, _ in row)
                if key not in seen:
                    seen[key] = (gen, row)
            h = self.n // 2
            low = (1 << h) - 1
            position: dict[int, int] = {}
            rows = []
            circuits = []
            reads = []
            for key in sorted(seen, key=subset_from_mask):
                gen, row = seen[key]
                least = min(x for _, _, x in row)
                entries: list[Scalar] = [INF] * self.n
                at = []
                for i, amask, x in row:
                    entries[i] = Fraction(x - least, d)
                    if amask not in position:
                        position[amask] = len(rows)
                        rows.append((amask & low, amask >> h, x))
                    at.append(position[amask])
                get = (itemgetter(*at) if len(at) > 1
                       else itemgetter(slice(at[0], at[0] + 1)))
                reads.append((get, max(at) + 1))
                circuits.append(ValuatedCircuit(tuple(entries), gen))
            self._circuits = tuple(circuits)
            self._circuit_rows = (tuple(rows), tuple(reads))
        return self._circuits

    # -- weights and local matroids -----------------------------------------

    def _as_point(self, point, length: int | None = None) -> tuple[Fraction, ...]:
        """Finite coordinates as `Fraction`s; ``length`` defaults to n."""
        return as_point(point, self.n if length is None else length)

    def _weight_lattice(self) -> tuple[int, dict]:
        """The entries on an integer lattice, built on first use: D, the lcm
        of the entry denominators, and {mask: p_A * D}."""
        if self._lattice is None:
            d = math.lcm(*(val.denominator for val in self._entries.values()))
            scaled = {
                mask: val.numerator * (d // val.denominator)
                for mask, val in self._entries.items()
            }
            self._lattice = (d, scaled)
        return self._lattice

    def _to_lattice(self, coords) -> tuple[int, int, list[int]]:
        """Coordinates (Fractions) on the lattice: (s, k, [x_i * s]) with s
        the lcm of D and their denominators and k = s / D, the step by which
        the lattice entries p_A * D scale to s."""
        ratios = [x.as_integer_ratio() for x in coords]
        d = self._weight_lattice()[0]
        # the small denominators first: one lcm with the large D, not one each
        s = math.lcm(d, math.lcm(*[q for _, q in ratios]))
        return s, s // d, [a * (s // q) for a, q in ratios]

    def _chart_rows(self, bmask: int) -> tuple[tuple[int, ...], tuple]:
        """The chart at the support basis with mask ``bmask``, built on first
        use: (B, rows), with B sorted and per non-basis i, in increasing
        order, (i, ((0-based slot j, (p_{B-b_j+i} - p_B) * D), ...)) over the
        b_j whose exchange B - b_j + i is in the support, C(i,B) - i, in slot
        order.  A loop has no options.  Plain tuples, cached by mask."""
        chart = self._charts.get(bmask)
        if chart is None:
            scaled = self._weight_lattice()[1]
            p_b = scaled[bmask]
            basis = subset_from_mask(bmask)
            rows = []
            for i in range(1, self.n + 1):
                ibit = 1 << (i - 1)
                if bmask & ibit:
                    continue
                opts = []
                for j, b in enumerate(basis):
                    exch = scaled.get((bmask ^ (1 << (b - 1))) | ibit)
                    if exch is not None:
                        opts.append((j, exch - p_b))
                rows.append((i, tuple(opts)))
            chart = self._charts[bmask] = (basis, tuple(rows))
        return chart

    def _chart(self, bmask: int, k: int, ys: list[int]) -> tuple[tuple, tuple, list[int]]:
        """(B, rows, v): the chart at the support basis ``bmask`` (B and
        rows as `_chart_rows` gives them) and its value at the B-coordinates
        of the lattice point ys of step k.  v is ys with each non-basis i
        that has options replaced by its chart minimum v_i * s, the minimum
        of ys_b + delta * k; a loop has none and keeps its own coordinate."""
        basis, rows = self._chart_rows(bmask)
        xs = [ys[b - 1] for b in basis]
        v = list(ys)
        for i, opts in rows:
            if opts:
                v[i - 1] = min([xs[j] + delta * k for j, delta in opts])
        return basis, rows, v

    def _maximal(self, k: int, ys: list[int]) -> tuple[int, list[int]]:
        """A basis of maximum weight at the lattice point ys of step k, by
        steepest ascent from the first support row: (its mask, v), with v
        as `_chart` gives it there.

        At B the gain g_i = ys_i - v_i of a non-basis i is the largest weight
        gain of an exchange B - b + i, attained at a b of i's chart minimum.
        The walk stops when no gain is positive and otherwise exchanges the
        first such b for the first i of the largest gain (see the module
        docstring for why it stops within min(m, n - m) exchanges).
        """
        bmask = self._supp_list[0]
        while True:
            basis, rows, v = self._chart(bmask, k, ys)
            gains = list(map(sub, ys, v))
            best = max(gains)
            if best <= 0:
                return bmask, v
            i = gains.index(best) + 1
            opts = next(opts for e, opts in rows if e == i)
            j = next(j for j, delta in opts if ys[basis[j] - 1] + delta * k == v[i - 1])
            bmask ^= (1 << (basis[j] - 1)) | (1 << (i - 1))

    def matroid_at(self, point) -> Matroid:
        """Matroid of maximum-weight support subsets at the point.

        The weights are compared on integers: with s the lcm of D and the
        point's denominators and k = s / D, s * w(v, A) = sum_{i in A}
        v_i * s - p_A * D * k, exactly.  The maximal-weight bases of a
        valuated matroid form a matroid (Dress & Wenzel), so the result is
        built without an exchange scan.
        """
        self._need_validated()
        return self._face(*self._to_lattice(self._as_point(point))[1:])

    def _face(self, k: int, xs: list[int], start: int = 0) -> Matroid:
        """`matroid_at` of the lattice point xs of step k (`_to_lattice`):
        the support rows of maximum weight there.

        [n] splits into a low half, the first h = n // 2 elements, and a
        high half, as in Horowitz & Sahni's meet in the middle (J. ACM 21,
        1974).  Each call first tabulates the subset sums of xs over each
        half by doubling (`_half_sums`): lo[a] is the sum of xs over the low
        elements in the bits of a, 2^h entries, and hi[b] the same over the
        high ones, 2^(n - h) entries.  Together that is 32 entries at n = 8,
        64 at n = 10 and 512 at n = 16, whatever the support size.  A row, per
        support mask in `_supp_list` order and built on first use, holds
        A's low bits, A >> h, p_A * D, the subset and the mask, so row A
        weighs lo[A & low] + hi[A >> h] - p_A * D * k, the same ints that a
        sum over A adds.  Only the rows from index ``start`` on are weighed
        (the tables are whole); a caller passes the index of a subset it
        knows to be the lex-least winner.  The winners come in lex order,
        so they fill the matroid as they are.
        """
        h = self.n // 2
        rows = self._face_rows
        if rows is None:
            scaled = self._weight_lattice()[1]
            low = (1 << h) - 1
            rows = self._face_rows = tuple(
                (mask & low, mask >> h, scaled[mask], subset_from_mask(mask), mask)
                for mask in self._supp_list
            )
        if start:
            rows = rows[start:]
        lo, hi = _half_sums(xs, h)
        weights = [lo[a] + hi[b] - pd * k for a, b, pd, _, _ in rows]
        best = max(weights)
        top = [row for row, w in zip(rows, weights) if w == best]
        face = Matroid.__new__(Matroid)
        face._fill(self.n, tuple(row[3] for row in top), tuple(row[4] for row in top))
        return face

    # -- membership -----------------------------------------------------------

    def failing_circuit(self, point) -> ValuatedCircuit | None:
        """The first circuit, in `all_circuits` order, whose minimum over
        c_i + v_i is attained only once: a certificate that the point is not
        in the space.  None when the point is orthogonal to every circuit.

        Compared on the lattice, as the largest weight among each circuit's
        support rows.  Let X(T) be the sum of v_j * s over T and w(A) =
        X(A) - p_A * D * k the weight of a row A, which `_face` compares
        too.  A circuit with generator S and least row value p_min * D has
        c_i * D = p_{S-i} * D - p_min * D on its support, and v_i * s =
        X(S) - X(S - i), so its term at i is

            v_i * s + c_i * D * k = X(S) - w(S - i) - p_min * D * k,

        a constant of the circuit minus the weight of the row S - i.  The
        terms' minimum is therefore attained exactly as often as the rows'
        largest weight, and the answer is the circuit the terms name.

        The weights come from the two tables of the point's subset sums
        that `_face` builds (`_half_sums`): row A weighs lo[A's low bits] +
        hi[A >> h] - p_A * D * k.  The rows are weighed in the order the
        circuits first read them, each at most once, and only as far as the
        next circuit needs, the weighed prefix growing to at least twice its
        length: a point that fails the first circuit weighs at most m + 1
        rows.  No maximal-basis walk is taken, so this test stays
        independent of `contains`.
        """
        self._need_validated()
        _, k, xs = self._to_lattice(self._as_point(point))
        circuits = self.all_circuits()
        rows, reads = self._circuit_rows
        lo, hi = _half_sums(xs, self.n // 2)
        weights: list[int] = []
        for circuit, (get, need) in zip(circuits, reads):
            if need > len(weights):
                grown = rows[len(weights):max(need, 2 * len(weights))]
                weights += [lo[a] + hi[b] - pd * k for a, b, pd in grown]
            ws = get(weights)
            if ws.count(max(ws)) < 2:
                return circuit
        return None

    def contains_via_circuits(self, point) -> bool:
        """Membership test: the point is orthogonal to every valuated circuit."""
        return self.failing_circuit(point) is None

    def contains(self, point) -> bool:
        """Finite-part membership, read at one basis of maximum weight.

        `_maximal` walks from the first support row by steepest ascent,
        taking the exchange of the largest gain g_i = y_i - v_i (v the chart
        of y's B-coordinates) until no gain is positive; B then has maximum
        weight (Dress & Wenzel 1992), after at most min(m, n - m) exchanges
        (Minamikawa & Shioura 2021).  The point is in the space iff the
        underlying matroid has no loops and every gain at B is 0, the
        `in_local_space` criterion: the chart of y's B-coordinates gives y
        back.  No other support row is weighed.

        `contains_via_circuits` decides the same predicate independently; the
        test suite and `troplin selftest` check that the two agree.
        """
        self._need_validated()
        _, k, ys = self._to_lattice(self._as_point(point))
        if self._matroid.loops():
            return False
        return self._maximal(k, ys)[1] == ys

    # -- circuit elimination ---------------------------------------------------

    def eliminate(self, d: ValuatedCircuit, e: ValuatedCircuit, a: int, b: int) -> ValuatedCircuit:
        """Valuated circuit elimination.

        Given circuits d, e with d_a < e_a and d_b = e_b != INF, returns a
        circuit f with f_b = INF, f_a = d_a and f >= min(d, e) coordinatewise.
        The search walks the stored representatives and shifts them.
        """
        self._need_validated()
        if not (1 <= a <= self.n and 1 <= b <= self.n):
            raise ValueError("indices out of range")
        da, ea = d.entry(a), e.entry(a)
        db, eb = d.entry(b), e.entry(b)
        if not da < ea:
            raise ValueError(f"need d_a < e_a, got {da} vs {ea}")
        if db is INF or db != eb:
            raise ValueError(f"need d_b = e_b finite, got {db} vs {eb}")
        lower = tuple(x if x <= y else y for x, y in zip(d.entries, e.entries))
        abit = 1 << (a - 1)
        bbit = 1 << (b - 1)
        for rep in self.all_circuits():
            smask = rep.support_mask
            if smask & bbit or not smask & abit:
                continue
            f = rep.shifted(da - rep.entry(a))
            if all(fx >= lx for fx, lx in zip(f.entries, lower)):
                return f
        raise RuntimeError(
            "no eliminating circuit found; the vector would not satisfy the "
            "valuated elimination property"
        )

    # -- serialization ----------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "entries": [
                {
                    "subset": list(subset_from_mask(mask)),
                    "value": format_scalar(self._entries[mask]),
                }
                for mask in self._supp_list
            ],
        }

    @classmethod
    def from_json(cls, obj: Mapping) -> "PlueckerVector":
        try:
            n = json_int(obj["n"], "n")
            m = json_int(obj["m"], "m")
            raw = obj["entries"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"bad Pluecker JSON: {exc}") from exc

        def pairs():  # read lazily, so the reader checks the shape first
            for item in raw:
                try:
                    subset = item["subset"]
                    iter(subset)  # a non-iterable subset is a bad record
                    value = item["value"]
                except (KeyError, TypeError) as exc:
                    raise ValueError(f"bad entry record {item!r}: {exc}") from exc
                yield subset, value

        obj = cls.__new__(cls)
        obj._fill(n, m, _load_entries(n, m, pairs()), None)
        return obj

    def __repr__(self):
        return f"PlueckerVector(n={self.n}, m={self.m}, |supp|={len(self._entries)})"
