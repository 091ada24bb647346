"""Matroids on the ground set [n] = {1, ..., n}, presented by their bases.

A subset of [n] is externally a sorted tuple of 1-based ints and internally
an n-bit mask (bit k <-> element k+1).  Loops (elements in no basis) are
allowed.

There are two constructors.  `Matroid(n, bases)` takes bases from a
caller, refuses a repeated basis with a `ValueError`, and verifies the
basis-exchange axiom, raising `ExchangeError` with the first failing
triple.  `Matroid.from_masks` takes bases the library derived itself and
skips the scan: a family that is a matroid by theorem -- the
maximal-weight bases of a valuated matroid (Dress & Wenzel), a principal
transversal family (Edmonds & Fulkerson) -- which the test suite and
`troplin selftest` check against the exchange axiom instead, or a
vector's support whose Pluecker relations `PlueckerVector.validate` has
just checked, which makes it a matroid.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from . import kernels

MAX_GROUND = 16  # a size sanity cap; int bitmasks have no width limit


def json_int(value, name: str) -> int:
    """A JSON integer field; floats, strings and booleans are refused."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be a JSON integer, got {value!r}")
    return value


class ExchangeError(ValueError):
    """Basis-exchange axiom failure; carries the first offending triple."""

    def __init__(self, a_subset, b_subset, element):
        self.a_subset = a_subset
        self.b_subset = b_subset
        self.element = element
        super().__init__(
            f"exchange axiom fails: no b in {set(b_subset)} - {set(a_subset)} "
            f"with {set(a_subset)} - {{{element}}} + b a basis"
        )


def mask_from_subset(subset: Iterable[int], n: int) -> int:
    # a string is iterable, but its characters are not elements
    if isinstance(subset, str):
        raise ValueError(f"expected a list of elements, got the string {subset!r}")
    mask = 0
    for e in subset:
        if not isinstance(e, int) or isinstance(e, bool):
            raise ValueError(f"element {e!r} is not an integer")
        if not 1 <= e <= n:
            raise ValueError(f"element {e!r} outside ground set [1..{n}]")
        bit = 1 << (e - 1)
        if mask & bit:
            raise ValueError(f"repeated element {e} in subset")
        mask |= bit
    return mask


def subset_from_mask(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        bit = mask & -mask
        mask ^= bit
        out.append(bit.bit_length())
    return tuple(out)


def _lex_sorted(masks) -> tuple[tuple, tuple]:
    """(subsets, masks) of the given masks, in lexicographic subset order."""
    pairs = sorted((subset_from_mask(mk), mk) for mk in masks)
    return tuple(s for s, _ in pairs), tuple(mk for _, mk in pairs)


class Matroid:
    """A matroid given by its list of bases."""

    __slots__ = ("n", "m", "_subsets", "_masks", "_loops", "_components")

    def __init__(self, n: int, bases: Iterable[Iterable[int]]):
        """Bases from a caller: checked for repeats, size and the exchange axiom."""
        if not 1 <= n <= MAX_GROUND:
            raise ValueError(f"ground set size must be in [1..{MAX_GROUND}]")
        masks = set()
        for b in bases:
            mask = mask_from_subset(b, n)
            if mask in masks:
                raise ValueError(f"repeated basis {list(subset_from_mask(mask))}")
            masks.add(mask)
        if not masks:
            raise ValueError("a matroid needs at least one basis")
        m = next(iter(masks)).bit_count()
        if m == 0:
            raise ValueError("rank-0 matroids are not supported")
        for mk in masks:
            if mk.bit_count() != m:
                raise ValueError("bases must all have the same size")
        self._fill(n, *_lex_sorted(masks))
        bad = kernels.exchange_violation(self._masks, n)
        if bad is not None:
            amask, bmask, elem = bad
            raise ExchangeError(subset_from_mask(amask), subset_from_mask(bmask), elem)

    @classmethod
    def from_masks(cls, n: int, masks: Iterable[int]) -> "Matroid":
        """Trusted constructor for bases the library derived itself.

        ``masks`` are distinct, nonempty, equal-size bitmasks of a family
        that is a matroid by theorem or by a scan already made; nothing is
        checked, so a caller's bases go through `Matroid(n, bases)` instead.
        """
        obj = cls.__new__(cls)
        obj._fill(n, *_lex_sorted(masks))
        return obj

    def _fill(self, n: int, subsets: tuple, masks: tuple) -> None:
        """Set the slots from the bases as subsets and as masks, both in
        lexicographic subset order already; every constructor ends here."""
        self.n = n
        self.m = len(subsets[0])
        self._subsets = subsets
        self._masks = masks
        self._loops = None
        self._components = None

    @property
    def bases(self) -> tuple[tuple[int, ...], ...]:
        """Bases as sorted tuples, in lexicographic order (the canonical key)."""
        return self._subsets

    @property
    def basis_masks(self) -> tuple[int, ...]:
        return self._masks

    def is_basis(self, subset: Iterable[int]) -> bool:
        return mask_from_subset(subset, self.n) in self._masks

    def loops(self) -> tuple[int, ...]:
        """Elements contained in no basis."""
        if self._loops is None:
            covered = 0
            for mk in self._masks:
                covered |= mk
            full = (1 << self.n) - 1
            self._loops = subset_from_mask(full & ~covered)
        return self._loops

    def components(self) -> tuple[tuple[int, ...], ...]:
        """Connected components, in order of their least elements.

        They are the components of the fundamental graph of any basis B,
        where e ~ b when B - b + e is a basis: the fundamental circuits over
        B chain together every pair of elements that share a circuit.  This
        uses the first basis.  Loops and coloops stand alone.
        """
        if self._components is None:
            bmask = self._masks[0]
            groups = [1 << k for k in range(self.n) if bmask >> k & 1]
            rest = ((1 << self.n) - 1) & ~bmask
            while rest:
                ebit = rest & -rest
                rest ^= ebit
                circuit = self.fundamental_circuit_mask(bmask, ebit)
                # the groups are disjoint, so one pass merges all that meet it
                kept = []
                for g in groups:
                    if g & circuit:
                        circuit |= g
                    else:
                        kept.append(g)
                groups = kept + [circuit]
            self._components = tuple(sorted(subset_from_mask(g) for g in groups))
        return self._components

    def fundamental_circuit_mask(self, bmask: int, ebit: int) -> int:
        """Mask of the support of the fundamental circuit of e over the basis B.

        Unchecked: ``bmask`` is a basis and ``ebit`` one element bit outside
        it.  The support is {e} plus the b in B whose exchange B - b + e is
        again a basis; for a loop e this is just {e}.
        """
        circuit = ebit
        rest = bmask
        while rest:
            bbit = rest & -rest
            rest ^= bbit
            if ((bmask ^ bbit) | ebit) in self._masks:
                circuit |= bbit
        return circuit

    def __eq__(self, other):
        if not isinstance(other, Matroid):
            return NotImplemented
        return self.n == other.n and self._subsets == other._subsets

    def __hash__(self):
        return hash((self.n, self._subsets))

    def __repr__(self):
        shown = ",".join("".join(map(str, s)) for s in self._subsets[:6])
        more = "..." if len(self._subsets) > 6 else ""
        return f"Matroid(n={self.n}, bases=[{shown}{more}])"


def transversal(n: int, basis: Iterable[int], families: Mapping[int, Iterable[int]]) -> Matroid:
    """Principal transversal matroid rooted at ``basis``.

    ``families[j]`` (for j outside the basis) lists the basis elements that
    j may stand in for; absent keys mean the empty family, which makes j a
    loop.  A is a basis of the result iff the bipartite graph matching each
    element of A∩B to itself and each j in A\\B to its family admits a
    perfect matching.  B itself always qualifies.
    """
    bmask = mask_from_subset(basis, n)
    m = bmask.bit_count()
    others = [e for e in range(1, n + 1) if not (bmask >> (e - 1)) & 1]
    slot_masks = []
    for j in others:
        fam = families.get(j, ())
        fmask = mask_from_subset(fam, n)
        if fmask & ~bmask:
            raise ValueError(f"family of {j} must lie inside the root basis")
        slot_masks.append(fmask)
    unknown = set(families) - set(others)
    if unknown:
        raise ValueError(f"families given for basis elements / strangers: {sorted(unknown)}")
    masks = kernels.transversal_basis_masks(n, m, bmask, others, slot_masks)
    return Matroid.from_masks(n, masks)
