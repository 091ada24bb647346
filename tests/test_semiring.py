import random
from fractions import Fraction

import pytest

from oracles import brute_tdet
from troplin.semiring import (
    INF,
    as_point,
    as_scalar,
    format_point,
    format_scalar,
    is_orthogonal,
    parse_point,
    parse_scalar,
    tdet,
)


def test_inf_is_absorbing_and_maximal():
    assert INF > 10**100
    assert not INF < INF
    assert INF == INF
    assert Fraction(-1, 2) < INF
    # the order total_ordering derives from __lt__ and __eq__
    assert INF >= INF and INF <= INF and not INF > INF
    assert Fraction(1) <= INF and not INF <= 5
    assert INF != 5
    with pytest.raises(TypeError):
        INF < "x"


def test_as_scalar_accepts_exact_types_only():
    assert as_scalar(3) == Fraction(3)
    assert as_scalar(Fraction(1, 3)) == Fraction(1, 3)
    assert as_scalar(INF) is INF
    assert as_scalar("1/2") == Fraction(1, 2)  # serialized form is fine
    with pytest.raises(TypeError):
        as_scalar(0.5)
    with pytest.raises(TypeError):
        as_scalar(True)
    with pytest.raises(ValueError):
        as_scalar("0.5")


def test_scalar_parse_format_round_trip():
    for text in ("inf", "0", "-7", "3/4", "-22/7"):
        assert format_scalar(parse_scalar(text)) == text
    assert parse_scalar("inf") is INF
    with pytest.raises(ValueError):
        parse_scalar("0.5")
    with pytest.raises(ValueError):
        parse_scalar("")
    # ASCII digits only: str.isdigit and Fraction take other scripts' digits
    for text in ("\uff11", "\u0663/4", "1/1\u0662", "1/\u0662", "-\u0967"):
        with pytest.raises(ValueError, match="bad rational literal"):
            parse_scalar(text)
    # surrounding whitespace is stripped, which parse_point relies on
    assert parse_scalar(" -3/4 ") == Fraction(-3, 4)


def test_point_parse_format():
    pt = parse_point("0,1/2,-3", 3)
    assert pt == (Fraction(0), Fraction(1, 2), Fraction(-3))
    assert format_point(pt) == "0,1/2,-3"
    with pytest.raises(ValueError):
        parse_point("0,1", 3)
    with pytest.raises(ValueError):
        parse_point("0,inf", 2)  # points are finite
    # an empty field is a bad literal, not a dropped coordinate
    for text in ("0,1,", ",0,1", "0,,1", "\u0663,0"):
        with pytest.raises(ValueError, match="bad rational literal"):
            parse_point(text, 2)
    assert parse_point("0, 1/2", 2) == (Fraction(0), Fraction(1, 2))


def test_as_point_reads_exact_finite_values():
    assert as_point([0, Fraction(1, 2), "-3"], 3) == (0, Fraction(1, 2), -3)
    assert all(type(x) is Fraction for x in as_point((1, "2"), 2))
    with pytest.raises(ValueError, match="expected 2 coordinates, got 3"):
        as_point([0, 0, 0], 2)
    with pytest.raises(ValueError, match="finite"):
        as_point([0, INF], 2)
    with pytest.raises(TypeError):
        as_point([0.5, 0], 2)
    with pytest.raises(TypeError):
        as_point([True, 0], 2)
    with pytest.raises(TypeError):
        as_point([None, 0], 2)


def test_is_orthogonal_vanishing():
    # the sums against the zero vector are the terms themselves
    assert is_orthogonal([INF, INF], [0, 0])
    assert is_orthogonal([Fraction(1), 1, 5], [0, 0, 0])
    assert not is_orthogonal([Fraction(1), 2, INF], [0, 0, 0])
    assert not is_orthogonal([INF, 3], [0, 0])
    with pytest.raises(ValueError):
        is_orthogonal([], [])


def test_support_and_orthogonality():
    # (0, 0, 1, inf) vs (0, 0, inf, 0): sums (0, 0, inf, inf) -> min twice
    assert is_orthogonal([0, 0, 1, INF], [0, 0, INF, 0])
    assert not is_orthogonal([0, 1, INF], [0, 1, 0])
    with pytest.raises(ValueError):
        is_orthogonal([0], [0, 1])


def test_tdet_two_by_two():
    assert tdet([[1, 2], [3, 4]]) == 5  # min(1+4, 2+3)
    assert tdet([[0, INF], [INF, 0]]) == 0
    assert tdet([[INF, 1], [INF, 2]]) is INF


def test_tdet_rejects_ragged():
    with pytest.raises(ValueError):
        tdet([[1, 2], [3]])
    with pytest.raises(ValueError):
        tdet([[1, 2]])
    with pytest.raises(ValueError, match="^empty matrix$"):
        tdet([])


def test_tdet_matches_permutation_expansion():
    rng = random.Random(7)
    for _ in range(400):
        k = rng.randint(1, 4)
        rows = [
            [
                INF if rng.random() < 0.35
                else Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                for _ in range(k)
            ]
            for _ in range(k)
        ]
        assert tdet(rows) == brute_tdet(rows)
