"""Exact min-plus (tropical) arithmetic.

Everything is computed over (Q ∪ {inf}, min, +): tropical addition is
minimum, with ``INF`` as its identity; tropical multiplication is ordinary
addition, with ``INF`` absorbing.  Finite values are exact rationals, never
floats, so ties are decided exactly -- the combinatorics downstream (which
minima are achieved twice) depends on that.  They are `fractions.Fraction`
objects at every interface; `PlueckerVector.matroid_at` compares its
weights on an internal integer lattice, scaled by a common denominator, and
returns the same exact answer.

Vectors and matrices are plain tuples / tuples of tuples of scalars.
External serialization of a scalar is the string "a/b", "a", or "inf".
"""

from __future__ import annotations

import re
from decimal import Decimal
from fractions import Fraction
from functools import total_ordering
from itertools import permutations
from typing import Iterable, Sequence, Union

_SCALAR_RE = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?")


@total_ordering
class _TropicalInfinity:
    """The absorbing element.  A unique singleton, larger than every rational."""

    __slots__ = ()
    _the = None

    def __new__(cls):
        if cls._the is None:
            cls._the = super().__new__(cls)
        return cls._the

    def __repr__(self):
        return "inf"

    def __add__(self, other):
        if other is self or isinstance(other, (int, Fraction)):
            return self
        return NotImplemented

    __radd__ = __add__

    def __lt__(self, other):
        if other is self or isinstance(other, (int, Fraction)):
            return False
        return NotImplemented

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return 0x7F800000  # arbitrary fixed value

    def __reduce__(self):
        return (_TropicalInfinity, ())


INF = _TropicalInfinity()

Scalar = Union[Fraction, int, _TropicalInfinity]


def as_scalar(value) -> Scalar:
    """Coerce ints, Fractions and serialized strings to a scalar.

    Floats are rejected: the whole point of the library is exact ties.
    """
    if value is INF:
        return INF
    if isinstance(value, bool):
        raise TypeError("booleans are not tropical scalars")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_scalar(value)
    if isinstance(value, float):
        raise TypeError("floats are not allowed; use Fraction or 'a/b' strings")
    raise TypeError(f"cannot interpret {value!r} as a tropical scalar")


def parse_scalar(text: str) -> Scalar:
    text = text.strip()
    if text == "inf":
        return INF
    # the serialized grammar is exactly "a", "a/b" or "inf"; in particular no
    # decimal notation, so exactness can never silently depend on a parser
    if not _SCALAR_RE.fullmatch(text):
        raise ValueError(f"bad rational literal {text!r}")
    return Fraction(text)


def format_scalar(x: Scalar) -> str:
    if x is INF:
        return "inf"
    if type(x) is not Fraction:
        x = Fraction(x)
    try:
        return str(x)
    except ValueError:
        # an int past the interpreter's digit limit, which str() refuses;
        # Decimal's conversion is as exact and has no such limit
        num, den = Decimal(x.numerator), Decimal(x.denominator)
        return str(num) if den == 1 else f"{num}/{den}"


def is_orthogonal(x: Sequence[Scalar], y: Sequence[Scalar]) -> bool:
    """Tropical orthogonality: min_i (x_i + y_i) is INF or achieved twice."""
    if len(x) != len(y):
        raise ValueError("orthogonality needs vectors of equal length")
    terms = [a + b for a, b in zip(x, y)]
    best = min(terms)
    return best is INF or terms.count(best) > 1


def tdet(rows) -> Scalar:
    """Tropical determinant: min over permutations s of sum_i rows[i][s(i)].

    Its definition, evaluated as written: each of the k! sums starts at 0
    and turns INF at an INF entry, which INF's addition absorbs."""
    k = len(rows)
    if any(len(row) != k for row in rows):
        raise ValueError("matrix is not square")
    if k == 0:
        raise ValueError("empty matrix")
    return min(sum((row[c] for row, c in zip(rows, perm)), Fraction(0))
               for perm in permutations(range(k)))


def as_point(values: Iterable, n: int) -> tuple:
    """Exactly n finite scalars, each read by `as_scalar` unless it is a
    `Fraction` already."""
    pt = []
    for x in values:
        v = x if type(x) is Fraction else as_scalar(x)
        if v is INF:
            raise ValueError("points must have finite coordinates")
        pt.append(v)
    if len(pt) != n:
        raise ValueError(f"expected {n} coordinates, got {len(pt)}")
    return tuple(pt)


def parse_point(text: str, n: int) -> tuple:
    """Parse n comma-separated rationals (no INF, no empty field)."""
    return as_point(text.split(","), n)


def format_point(vec: Iterable[Scalar]) -> str:
    return ",".join(format_scalar(v) for v in vec)
