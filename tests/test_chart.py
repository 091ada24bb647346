import random
from fractions import Fraction

import pytest

from oracles import (
    brute_member,
    direct_sum,
    scan_chart_inverse,
    scan_in_local_space,
    scan_in_sigma,
    scan_project,
    scan_project_any,
    tau_instance,
)
from troplin.chart import LocalContext, LoopyMatroidError, project_any
from troplin.conical import random_height_matrix, tau
from troplin.examples import snowflake, two_pyramids, uniform_zero
from troplin.plucker import PlueckerVector


def rand_x(rng, m):
    return tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 3)) for _ in range(m))


def test_context_requires_validation_and_basis():
    p = two_pyramids()
    with pytest.raises(ValueError):
        LocalContext(p, (1, 2, 3))
    with pytest.raises(ValueError):
        LocalContext(p, (1, 1))
    # a repeated element is refused, not read as the set {1, 3}; the order
    # of distinct elements does not matter
    with pytest.raises(ValueError, match="repeated element 3"):
        LocalContext(p, (1, 3, 3))
    assert LocalContext(p, (3, 1)).basis == (1, 3)
    q = PlueckerVector(4, 2, {(1, 2): 0, (3, 4): 0})
    with pytest.raises(Exception):
        LocalContext(q, (1, 2))  # not validated / not valid


def test_loopy_support_is_rejected():
    # element 4 is a loop: no chart there
    p = PlueckerVector(4, 2, {(1, 2): 0, (1, 3): 0, (2, 3): 0})
    assert p.validate().ok
    with pytest.raises(LoopyMatroidError):
        LocalContext(p, (1, 2))


def test_chart_frozen_values():
    p = two_pyramids()
    ctx = LocalContext(p, (1, 3))
    assert ctx.chart((Fraction(0), Fraction(0))) == (0, 0, 0, 0)
    assert ctx.chart((Fraction(0), Fraction(5))) == (0, 0, 5, 1)
    ctx14 = LocalContext(p, (1, 4))
    assert ctx14.chart((Fraction(0), Fraction(5))) == (0, 0, 1, 5)


def test_chart_image_is_in_space_and_region():
    rng = random.Random(23)
    for p in (two_pyramids(), uniform_zero(5, 2), snowflake()):
        for basis in p.underlying_matroid().bases[:3]:
            ctx = LocalContext(p, basis)
            for _ in range(60):
                v = ctx.chart(rand_x(rng, p.m))
                assert ctx.in_sigma(v)
                assert ctx.in_local_space(v)
                assert p.contains(v)


def test_in_local_space_matches_definition():
    # chart-region points, half of them chart images with some non-basis
    # coordinates lowered (in the region, mostly off the space)
    rng = random.Random(41)
    generic = tau(random_height_matrix(6, 3, rng=random.Random("in_local_space")))
    for p in (two_pyramids(), snowflake(), uniform_zero(5, 2), generic):
        answers = set()
        for basis in p.underlying_matroid().bases:
            ctx = LocalContext(p, basis)
            for t in range(6):
                if t % 2 == 0:
                    y = tuple(Fraction(rng.randint(-6, 6), 2) for _ in range(p.n))
                    if not ctx.in_sigma(y):
                        continue
                else:
                    y = list(ctx.chart(rand_x(rng, p.m)))
                    for i in range(1, p.n + 1):
                        if i not in basis and rng.random() < 0.5:
                            y[i - 1] -= Fraction(rng.randint(0, 8), 3)
                    y = tuple(y)
                    assert ctx.in_sigma(y)
                member = ctx.in_local_space(y)
                assert member == brute_member(p, y)
                answers.add(member)
        assert answers == {True, False}


def test_chart_shift_equivariance():
    rng = random.Random(29)
    p = snowflake()
    ctx = LocalContext(p, (1, 3))
    for _ in range(40):
        x = rand_x(rng, 2)
        lam = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        shifted = ctx.chart(tuple(c + lam for c in x))
        assert shifted == tuple(c + lam for c in ctx.chart(x))


def test_chart_inverse_round_trip():
    rng = random.Random(31)
    for p in (two_pyramids(), uniform_zero(5, 2)):
        for basis in p.underlying_matroid().bases:
            ctx = LocalContext(p, basis)
            for _ in range(100):
                x = rand_x(rng, p.m)
                assert ctx.chart_inverse(ctx.chart(x)) == x


def test_chart_inverse_requires_local_point():
    p = two_pyramids()
    ctx = LocalContext(p, (1, 3))
    with pytest.raises(ValueError):
        ctx.chart_inverse((0, 0, 0, -5))  # not even in the space


def test_project_agrees_with_chart_on_region():
    # both formulas read only the basis coordinates; they must coincide on
    # the whole chart region, not just on the space
    rng = random.Random(37)
    p = two_pyramids()
    for basis in p.underlying_matroid().bases:
        ctx = LocalContext(p, basis)
        hits = 0
        while hits < 40:
            y = tuple(Fraction(rng.randint(-6, 6), 2) for _ in range(p.n))
            if not ctx.in_sigma(y):
                continue
            hits += 1
            proj = ctx.project(y)
            xb = tuple(y[b - 1] for b in basis)
            assert proj == ctx.chart(xb)
            assert p.contains(proj)
            # idempotent, and a fixed point exactly on members
            assert ctx.project(proj) == proj
            if p.contains(y):
                assert proj == y


def test_project_frozen_value():
    p = two_pyramids()
    ctx = LocalContext(p, (1, 3))
    assert ctx.project((5, 0, 9, 0)) == (5, 5, 9, 6)
    with pytest.raises(ValueError):
        ctx.project((0, 5, 0, 9))  # weight maximum is elsewhere


def test_project_any_picks_lex_least_basis():
    p = two_pyramids()
    basis, proj = project_any(p, (0, 0, 0, 0))
    assert basis == (1, 3)  # max-weight bases are {13,14,23,24}; lex-least wins
    assert proj == (0, 0, 0, 0)


def test_in_sigma_boundary():
    p = two_pyramids()
    ctx = LocalContext(p, (1, 3))
    assert ctx.in_sigma((0, 0, 0, 0))
    # ties still count: at (0,0,0,-5) bases {1,3} and {2,3} share the max
    assert ctx.in_sigma((0, 0, 0, -5))
    assert not ctx.in_sigma((-9, 0, -9, 0))  # {2,4} dominates outright


@pytest.mark.parametrize("read", [
    lambda ctx, pt: ctx.in_sigma(pt),
    lambda ctx, pt: ctx.project(pt),
    lambda ctx, pt: ctx.in_local_space(pt),
    lambda ctx, pt: ctx.chart_inverse(pt),
    lambda ctx, pt: project_any(ctx.p, pt),
    lambda ctx, pt: ctx.p.matroid_at(pt),
    lambda ctx, pt: ctx.p.contains(pt),
    lambda ctx, pt: ctx.p.failing_circuit(pt),
], ids=["in_sigma", "project", "in_local_space", "chart_inverse", "project_any",
        "matroid_at", "contains", "failing_circuit"])
def test_each_point_is_read_once(monkeypatch, read):
    # the region check and the chart take the tuple read at the entry, and
    # each of the vector's own reads converts its point once
    p = two_pyramids()
    ctx = LocalContext(p, (1, 3))
    calls = []
    as_point = PlueckerVector._as_point

    def counted(self, point, length=None):
        calls.append(point)
        return as_point(self, point, length)

    monkeypatch.setattr(PlueckerVector, "_as_point", counted)
    read(ctx, ("5", 5, Fraction(9), "6"))
    assert len(calls) == 1


REGION_VECTORS = [
    pytest.param(two_pyramids, id="two_pyramids"),
    pytest.param(snowflake, id="snowflake"),
    *(pytest.param(lambda k=kind, n=n, m=m: tau_instance(k, n, m), id=f"tau_{kind}_{n}_{m}")
      for kind in ("generic", "tie", "knockout") for n, m in ((5, 2), (6, 3), (7, 4))),
    pytest.param(lambda: direct_sum(two_pyramids(), tau_instance("generic", 4, 2)),
                 id="two_pyramids+tau_generic_4_2"),
]


def _outcome(read, *args):
    try:
        return read(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


def region_points(rng, ctx):
    """Seeded random points; a chart image, the image nudged up and down at
    each coordinate in turn, and the image with every non-basis coordinate
    but one lowered: a tie on the region's boundary."""
    p = ctx.p
    for _ in range(3):
        yield tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 2)) for _ in range(p.n))
    image = ctx.chart(rand_x(rng, p.m))
    yield image
    for e in range(p.n):
        for step in (Fraction(1, 3), Fraction(-1, 3)):
            y = list(image)
            y[e] += step
            yield tuple(y)
    outside = [i for i in range(1, p.n + 1) if i not in ctx.basis]
    for keep in outside:
        y = list(image)
        for i in outside:
            if i != keep:
                y[i - 1] -= Fraction(rng.randint(1, 6), 2)
        yield tuple(y)


@pytest.mark.parametrize("make", REGION_VECTORS)
def test_region_reads_match_the_scan(make):
    # the exchange criterion against the support scan: verdicts, outputs
    # and error messages of every chart-region read
    p = make()
    rng = random.Random(f"region/{p.n}/{p.m}/{len(p.support())}")
    bases = p.underlying_matroid().bases
    seen = set()
    for basis in bases[::max(1, len(bases) // 6)]:
        ctx = LocalContext(p, basis)
        for y in region_points(rng, ctx):
            # also at a basis that wins at y, so that random points reach
            # the projection too
            for c in (ctx, LocalContext(p, rng.choice(p.matroid_at(y).bases))):
                inside = c.in_sigma(y)
                assert inside == scan_in_sigma(c, y), (c.basis, y)
                for read, scan in ((c.in_local_space, scan_in_local_space),
                                   (c.project, scan_project),
                                   (c.chart_inverse, scan_chart_inverse)):
                    assert _outcome(read, y) == _outcome(scan, c, y), (read.__name__, c.basis, y)
                seen.add((inside, inside and c.in_local_space(y)))
            assert project_any(p, y) == scan_project_any(p, y)
    assert seen == {(False, False), (True, False), (True, True)}


def test_region_reads_do_not_scan_the_support(monkeypatch):
    # the region reads compare the point with its chart; no support row is
    # weighed
    p = snowflake()
    ctx = LocalContext(p, (1, 3))
    image = ctx.chart((Fraction(0), Fraction(5)))
    below = (image[0], image[1] - 1) + image[2:]
    above = (image[0], image[1] + 1) + image[2:]
    projections = [scan_project_any(p, y) for y in (image, below, above)]

    def refuse(*args, **kwargs):
        raise AssertionError("scanned the support")

    monkeypatch.setattr(PlueckerVector, "_face", refuse)
    assert ctx.in_sigma(image) and ctx.in_sigma(below) and not ctx.in_sigma(above)
    assert ctx.in_local_space(image) and not ctx.in_local_space(below)
    assert ctx.project(below) == image
    assert ctx.chart_inverse(image) == (Fraction(0), Fraction(5))
    # membership and project_any walk by exchanges from the first support row
    assert p.contains(image) and not p.contains(below) and not p.contains(above)
    assert [project_any(p, y) for y in (image, below, above)] == projections
