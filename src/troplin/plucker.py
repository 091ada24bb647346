"""Tropical Pluecker vectors (valuated matroids) and their circuits.

A tropical Pluecker vector of rank m on [n] assigns a scalar p_A to every
m-subset A, with the nonempty finite support closed under the three-term
exchange relations: for every (m-1)-subset S and (m+1)-subset T, the minimum
of p_{S+i} + p_{T-i} over i in T\\S is INF or achieved at least twice.

The valuated circuits live on the (m+1)-subsets S: (c_S)_i = p_{S-i} for
i in S and INF outside.  Two circuits with equal support differ by a global
additive shift, so `all_circuits` keeps one representative per support,
normalized so its least finite entry is 0.

Point reads run on an integer lattice.  D is the lcm of the entry
denominators, and a point v is scaled by s, the lcm of D and its own
denominators, to the integers v_i * s (`_to_lattice`).  Entries scale to
p_A * D and circuit entries to c_i * D, and s / D is an integer, so the
argmax of `matroid_at` and the circuit minima of `failing_circuit` compare
integers and give the exact `Fraction` answers.  `chart.LocalContext` keeps
its chart deltas on the same lattice.  Parsing, formatting and `validate`
stay on `Fraction`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Mapping

from .matroid import (
    MAX_GROUND,
    ExchangeError,
    Matroid,
    json_int,
    mask_from_subset,
    subset_from_mask,
)
from .semiring import (
    INF,
    Scalar,
    as_scalar,
    format_scalar,
    is_orthogonal,  # noqa: F401 -- unused here; perfbench/tracer.py wraps it by this module's name
    min_achieved_twice,
)


# validate() tries C(n, m-1) * C(n, m+1) (S, T) pairs; refuse larger shapes
# up front rather than run for minutes
MAX_RELATION_PAIRS = 100_000


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


class NotValidatedError(RuntimeError):
    """Raised when an operation needs a vector that passed validation."""


@dataclass(frozen=True)
class ValuatedCircuit:
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


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the three-term relation check plus the support exchange check."""

    n: int
    m: int
    relation_failures: tuple  # ((S, T), ...) as subset tuples
    support_ok: bool
    exchange_witness: tuple | None  # (A, B, element) subsets when support_ok is False

    @property
    def ok(self) -> bool:
        return not self.relation_failures and self.support_ok

    def summary(self) -> str:
        if self.ok:
            return "valid tropical Pluecker vector"
        lines = []
        for s, t in self.relation_failures:
            lines.append(f"relation fails at S={list(s)}, T={list(t)}")
        if not self.support_ok and self.exchange_witness:
            a, b, e = self.exchange_witness
            lines.append(f"support fails exchange at A={list(a)}, B={list(b)}, a={e}")
        return "; ".join(lines) if lines else "invalid"


class PlueckerVector:
    """Rank-m tropical Pluecker candidate on [n]; validate() certifies it."""

    __slots__ = (
        "n", "m", "_entries", "validated", "_matroid", "_circuits", "_supp_list", "_lattice",
        "_circuit_rows",
    )

    def __init__(self, n: int, m: int, entries: Mapping):
        check_shape(n, m)
        self.n = n
        self.m = m
        table: dict[int, Fraction] = {}
        for key, raw in entries.items():
            mask = key if isinstance(key, int) else mask_from_subset(key, n)
            if not 0 < mask < (1 << n):
                raise ValueError(f"subset mask {mask} out of range")
            if len(subset_from_mask(mask)) != m:
                raise ValueError(f"subset {subset_from_mask(mask)} is not an m-set")
            if mask in table:
                raise ValueError(f"duplicate entry for subset {subset_from_mask(mask)}")
            val = as_scalar(raw)
            if val is INF:
                continue  # absent and explicit INF are the same thing
            table[mask] = Fraction(val)
        if not table:
            raise ValueError("empty support: at least one finite entry required")
        self._entries = table
        self.validated = False
        self._matroid = None
        self._circuits = None
        self._lattice = None
        self._circuit_rows = None
        self._supp_list = sorted(table, key=subset_from_mask)

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
        """Check all three-term relations and the support exchange axiom.

        On success the vector is flagged as validated and the underlying
        matroid is cached.  The report lists every failing (S, T) pair.
        """
        failures = []
        n, m = self.n, self.m
        elems = range(1, n + 1)
        for s_combo in combinations(elems, m - 1):
            smask = mask_from_subset(s_combo, n)
            for t_combo in combinations(elems, m + 1):
                tmask = mask_from_subset(t_combo, n)
                if not smask & ~tmask:
                    continue  # S inside T: the two terms coincide, so it holds
                free = tmask & ~smask
                terms = []
                any_finite = False
                rest = free
                while rest:
                    bit = rest & -rest
                    rest ^= bit
                    a = self._entries.get(smask | bit)
                    b = self._entries.get(tmask & ~bit)
                    if a is None or b is None:
                        terms.append(INF)
                    else:
                        terms.append(a + b)
                        any_finite = True
                if not any_finite:
                    continue
                if not min_achieved_twice(terms):
                    failures.append((s_combo, t_combo))
        support_ok = True
        witness = None
        matroid = None
        try:
            matroid = Matroid(n, self.support())  # caller's support: scanned
        except ExchangeError as exc:
            support_ok = False
            witness = (exc.a_subset, exc.b_subset, exc.element)
        report = ValidationReport(n, m, tuple(failures), support_ok, witness)
        if report.ok:
            self.validated = True
            self._matroid = matroid
        return report

    def underlying_matroid(self) -> Matroid:
        self._need_validated()
        return self._matroid

    # -- circuits -------------------------------------------------------------

    def circuit(self, gen: Iterable[int]) -> ValuatedCircuit | None:
        """Valuated circuit of an (m+1)-subset; None when all entries are INF."""
        self._need_validated()
        gen = tuple(sorted(set(gen)))
        if len(gen) != self.m + 1:
            raise ValueError(f"generator must have size m+1={self.m + 1}")
        gmask = mask_from_subset(gen, self.n)
        entries: list[Scalar] = [INF] * self.n
        finite = False
        for e in gen:
            val = self._entries.get(gmask & ~(1 << (e - 1)))
            if val is not None:
                entries[e - 1] = val
                finite = True
        if not finite:
            return None
        return ValuatedCircuit(tuple(entries), gen)

    def all_circuits(self) -> tuple[ValuatedCircuit, ...]:
        """One representative per circuit support, least finite entry 0."""
        self._need_validated()
        if self._circuits is None:
            seen: dict[int, ValuatedCircuit] = {}
            for gen in combinations(range(1, self.n + 1), self.m + 1):
                c = self.circuit(gen)
                if c is None:
                    continue
                key = c.support_mask
                if key in seen:
                    continue
                low = min(x for x in c.entries if x is not INF)
                seen[key] = c.shifted(-low)
            self._circuits = tuple(
                seen[k] for k in sorted(seen, key=subset_from_mask)
            )
        return self._circuits

    def fundamental_circuit(self, e: int, basis: Iterable[int]) -> ValuatedCircuit:
        """Circuit of B + e for a basis B of the underlying matroid, e outside B."""
        self._need_validated()
        bset = tuple(sorted(set(basis)))
        bmask = mask_from_subset(bset, self.n)
        if bmask not in self._entries:
            raise ValueError(f"{bset} is not in the support")
        if not 1 <= e <= self.n or (bmask >> (e - 1)) & 1:
            raise ValueError(f"element {e} must lie outside the basis")
        c = self.circuit(bset + (e,))
        assert c is not None  # p_B itself is finite
        return c

    # -- weights and local matroids -----------------------------------------

    def weight(self, point, basis: Iterable[int]) -> Fraction:
        """w(v, B) = -p_B + sum_{i in B} v_i, for B in the support."""
        self._need_validated()
        bmask = mask_from_subset(basis, self.n)
        val = self._entries.get(bmask)
        if val is None:
            raise ValueError(f"{subset_from_mask(bmask)} is not in the support")
        pt = self._as_point(point)
        return sum((pt[e - 1] for e in subset_from_mask(bmask)), -val)

    def _as_point(self, point) -> tuple[Fraction, ...]:
        pt = tuple(point)
        if len(pt) != self.n:
            raise ValueError(f"point must have {self.n} coordinates")
        out = []
        for x in pt:
            v = as_scalar(x)
            if v is INF:
                raise ValueError("points must have finite coordinates")
            out.append(v)
        return tuple(out)

    def _weight_lattice(self) -> tuple[int, dict, tuple]:
        """The entries on an integer lattice, built on first use.

        Returns D, the lcm of the entry denominators; {mask: p_A * D}; and
        per support mask in `_supp_list` order its 0-based element indices
        and p_A * D.
        """
        if self._lattice is None:
            d = math.lcm(*(val.denominator for val in self._entries.values()))
            scaled = {
                mask: val.numerator * (d // val.denominator)
                for mask, val in self._entries.items()
            }
            rows = tuple(
                (tuple(e - 1 for e in subset_from_mask(mask)), scaled[mask])
                for mask in self._supp_list
            )
            self._lattice = (d, scaled, rows)
        return self._lattice

    def _to_lattice(self, coords) -> tuple[int, list[int]]:
        """Coordinates (Fractions) on the lattice: (s, [x_i * s]) with s the
        lcm of D and their denominators, so s / D is an integer."""
        s = math.lcm(self._weight_lattice()[0], *(x.denominator for x in coords))
        return s, [x.numerator * (s // x.denominator) for x in coords]

    def matroid_at(self, point) -> Matroid:
        """Matroid of maximum-weight support subsets at the point.

        The weights are compared on integers: with s the lcm of D and the
        point's denominators, s * w(v, A) = sum_{i in A} v_i * s - p_A * D *
        (s / D), exactly.  The maximal-weight bases of a valuated matroid
        form a matroid (Dress & Wenzel), so the result is built without an
        exchange scan.
        """
        self._need_validated()
        d, _, rows = self._weight_lattice()
        s, xs = self._to_lattice(self._as_point(point))
        get = xs.__getitem__
        k = s // d
        weights = [sum(map(get, idx)) - pd * k for idx, pd in rows]
        best = max(weights)
        winners = [mask for mask, w in zip(self._supp_list, weights) if w == best]
        return Matroid.from_masks(self.n, winners)

    # -- membership -----------------------------------------------------------

    def _circuit_lattice(self) -> tuple:
        """Per circuit in `all_circuits` order: ((0-based index, c_i * D), ...)
        over its support, built on first use."""
        if self._circuit_rows is None:
            d = self._weight_lattice()[0]
            self._circuit_rows = tuple(
                tuple(
                    (i, x.numerator * (d // x.denominator))
                    for i, x in enumerate(c.entries) if x is not INF
                )
                for c in self.all_circuits()
            )
        return self._circuit_rows

    def failing_circuit(self, point) -> ValuatedCircuit | None:
        """The first circuit, in `all_circuits` order, whose minimum over
        c_i + v_i is attained only once: a certificate that the point is not
        in the space.  None when the point is orthogonal to every circuit.

        Compared on the lattice: the minimum of v_i * s + c_i * D * (s / D).
        """
        self._need_validated()
        d = self._weight_lattice()[0]
        s, xs = self._to_lattice(self._as_point(point))
        k = s // d
        for circuit, row in zip(self.all_circuits(), self._circuit_lattice()):
            terms = [xs[i] + cd * k for i, cd in row]
            if terms.count(min(terms)) < 2:
                return circuit
        return None

    def contains_via_circuits(self, point) -> bool:
        """Membership test: the point is orthogonal to every valuated circuit."""
        return self.failing_circuit(point) is None

    def contains(self, point) -> bool:
        """Finite-part membership: the local matroid at the point is loopless.

        `contains_via_circuits` decides the same predicate independently; the
        test suite and `troplin selftest` check that the two agree.
        """
        self._need_validated()
        return not self.matroid_at(point).loops()

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
        entries: dict[int, Scalar] = {}
        for item in raw:
            try:
                subset = tuple(item["subset"])
                value = item["value"]
            except (KeyError, TypeError) as exc:
                raise ValueError(f"bad entry record {item!r}: {exc}") from exc
            mask = mask_from_subset(subset, n)
            if mask in entries:
                raise ValueError(f"duplicate entry for subset {sorted(subset)}")
            entries[mask] = as_scalar(value)
        return cls(n, m, entries)

    def __repr__(self):
        return f"PlueckerVector(n={self.n}, m={self.m}, |supp|={len(self._entries)})"
