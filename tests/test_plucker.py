import json
import math
import random
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import pytest

from oracles import (
    brute_circuit_supports,
    brute_exchange_violation,
    brute_max_weight_bases,
    brute_member,
    brute_relation_failures,
    direct_sum,
    fraction_all_circuits,
    fraction_chart,
    fraction_failing_circuit,
    fraction_options,
    lone_finite_term_relations,
    scan_contains,
    scan_project_any,
    tau_instance,
    tie_options,
)
from troplin import kernels
from troplin.cells import enumerate_cells
from troplin.chart import LocalContext, LoopyMatroidError, project_any
from troplin.conical import HeightMatrix, random_height_matrix, tau
from troplin.examples import snowflake, two_pyramids, uniform_zero
from troplin.matroid import ExchangeError, Matroid, mask_from_subset, subset_from_mask
from troplin.plucker import NotValidatedError, PlueckerVector, ValidationReport
from troplin.semiring import INF, as_point


def rank3_pair():
    # supported on {123, 124}; elements 3, 4 form the only circuit
    p = PlueckerVector(4, 3, {(1, 2, 3): 0, (1, 2, 4): 2})
    assert p.validate().ok
    return p


def test_validate_passes_on_fixtures():
    for p in (two_pyramids(), uniform_zero(5, 2), snowflake(), rank3_pair()):
        report = p.validate()
        assert report.ok, report.summary()
        assert p.validated


def test_validate_relation_failure():
    # min over the 3-term relation hit once only
    p = PlueckerVector(4, 2, {
        (1, 2): 0, (1, 3): 1, (1, 4): 1, (2, 3): 1, (2, 4): 1, (3, 4): 0,
    })
    report = p.validate()
    assert not report.ok
    assert report.relation_failures
    assert report.support_ok
    assert not p.validated


def test_relation_failures_match_definition():
    # fixtures (no failures) and seeded perturbations of them: one entry
    # moved by a small rational or knocked out to INF
    rng = random.Random(17)
    fixtures = [two_pyramids(), uniform_zero(5, 2), snowflake(), rank3_pair(),
                uniform_zero(5, 3), tau(random_height_matrix(6, 3, rng=random.Random(7)))]
    failing = 0
    for p in fixtures:
        assert p.validate().relation_failures == brute_relation_failures(p) == ()
        support = p.support()
        for _ in range(8):
            entries = {s: p.entry(s) for s in support}
            target = rng.choice(support)
            if rng.random() < 0.25 and len(support) > 1:
                del entries[target]
            else:
                entries[target] += Fraction(rng.choice((-2, -1, 1, 2)), rng.randint(1, 3))
            q = PlueckerVector(p.n, p.m, entries)
            got = q.validate().relation_failures
            assert got == brute_relation_failures(q)
            failing += bool(got)
    assert failing >= 20


def random_support(rng, n, m):
    """A seeded family of m-subsets of [n]: each kept with one drawn rate,
    the first subset when none is; most such families are no matroid."""
    subsets = list(combinations(range(1, n + 1), m))
    keep = rng.random()
    return [a for a in subsets if rng.random() < keep] or subsets[:1]


def test_relations_imply_the_support_exchange_axiom():
    # with S = A - a and T = B + a the term at a is p_A + p_B, finite, so a
    # second finite term gives b in B - A with A - a + b in the support: a
    # vector with no failing relation has a matroid support, and the scan
    # in `Matroid(n, support)` passes on it
    rng = random.Random(2718)
    non_matroids = passing = 0
    for _ in range(2000):
        n = rng.randint(4, 6)
        m = rng.randint(2, n - 2)
        support = random_support(rng, n, m)
        p = PlueckerVector(n, m, {a: rng.randint(0, 2) for a in support})
        failures = p.validate().relation_failures
        try:
            Matroid(n, support)
        except ExchangeError:
            non_matroids += 1
            assert failures, support
        passing += not failures
    assert non_matroids > 500 and passing > 300


def test_a_lone_finite_term_decides_the_exchange_scan():
    # the lemma that lets `validate` skip the scan, both ways, on seeded
    # families with 1 <= m <= n - 1: with no relation of exactly one finite
    # term the scan finds no failing triple, and with one it finds a triple
    # (Brualdi's symmetric exchange), one that the definition confirms
    rng = random.Random(1992)
    seen = {True: 0, False: 0}
    for _ in range(1500):
        n = rng.randint(2, 6)
        m = rng.randint(1, n - 1)
        support = random_support(rng, n, m)
        p = PlueckerVector(n, m, dict.fromkeys(support, 0))
        lone = bool(lone_finite_term_relations(p))
        bad = kernels.exchange_violation(p.support_masks(), n)
        assert (bad is not None) == lone, support
        if bad is not None:
            amask, bmask, a = bad
            triple = (frozenset(subset_from_mask(amask)), frozenset(subset_from_mask(bmask)), a)
            assert triple in brute_exchange_violation(support), support
        seen[lone] += 1
    assert min(seen.values()) > 150, seen


def test_validate_support_failure():
    p = PlueckerVector(4, 2, {(1, 2): 0, (3, 4): 0})
    report = p.validate()
    assert not report.ok
    assert not report.support_ok
    assert report.exchange_witness is not None


def test_operations_require_validation():
    p = PlueckerVector(4, 2, {(1, 2): 0, (3, 4): 0})
    with pytest.raises(NotValidatedError):
        p.all_circuits()
    with pytest.raises(NotValidatedError):
        p.contains((0, 0, 0, 0))
    with pytest.raises(NotValidatedError):
        p.underlying_matroid()


def test_entries_and_support():
    p = two_pyramids()
    assert p.entry((1, 2)) == 1
    assert p.entry((2, 1)) == 1  # order-insensitive lookup
    with pytest.raises(ValueError):
        p.entry((1, 5))
    q = rank3_pair()
    assert q.entry((1, 3, 4)) is INF
    assert q.support() == [(1, 2, 3), (1, 2, 4)]


def test_rejects_floats_and_empty_support():
    with pytest.raises(TypeError):
        PlueckerVector(4, 2, {(1, 2): 0.5})
    with pytest.raises(ValueError):
        PlueckerVector(4, 2, {(1, 2): INF})
    with pytest.raises(ValueError, match=r"^subset \[1, 2, 3\] is not an m-set$"):
        PlueckerVector(4, 2, {(1, 2, 3): 0})


def test_each_key_is_read_once_as_a_subset():
    # a key is a subset, never a mask: neither a bool nor an int is one
    with pytest.raises(TypeError):
        PlueckerVector(3, 1, {True: 0})
    with pytest.raises(TypeError):
        PlueckerVector(4, 2, {0b11: 0})
    # a subset listed twice is refused in any order, an INF value included
    with pytest.raises(ValueError, match=r"^duplicate entry for subset \[1, 2\]$"):
        PlueckerVector(4, 2, {(1, 2): "inf", (2, 1): 0})


# ---------------------------------------------------------------------------
# circuits


def test_circuits_of_example1():
    p = two_pyramids()
    circs = {c.support: c.entries for c in p.all_circuits()}
    assert circs == {
        (1, 2, 3): (Fraction(0), Fraction(0), Fraction(1), INF),
        (1, 2, 4): (Fraction(0), Fraction(0), INF, Fraction(1)),
        (1, 3, 4): (Fraction(1), INF, Fraction(0), Fraction(0)),
        (2, 3, 4): (INF, Fraction(1), Fraction(0), Fraction(0)),
    }


def test_circuits_dedup_to_single_support():
    q = rank3_pair()
    circs = q.all_circuits()
    assert [c.support for c in circs] == [(3, 4)]
    # normalized so the least finite entry is zero
    assert min(x for x in circs[0].entries if x is not INF) == 0


CIRCUIT_CASES = [
    pytest.param(lambda k=kind, n=n, m=m: tau_instance(k, n, m), id=f"tau_{kind}_{n}_{m}")
    for kind in ("generic", "tie", "knockout")
    for n, m in ((4, 2), (5, 2), (5, 3), (6, 3), (7, 3), (8, 3), (8, 4))
] + [
    pytest.param(lambda: fixture_vector("example1.json"), id="example1"),
    pytest.param(lambda: fixture_vector("snowflake.json"), id="snowflake"),
    pytest.param(lambda: direct_sum(two_pyramids(), tau_instance("tie", 4, 2)),
                 id="two_pyramids+tau_tie_4_2"),
    pytest.param(lambda: _checked(3, 1, {(1,): 0, (2,): 2}), id="rank1_with_a_loop"),
    pytest.param(lambda: tau(HeightMatrix(5, (1, 2), [[INF, Fraction(1, 3), 2],
                                                      [INF, 3, Fraction(-5, 7)]])),
                 id="tau_with_a_loop"),
]


@pytest.mark.parametrize("make", CIRCUIT_CASES)
def test_lattice_circuits_match_the_fraction_oracle(make):
    # all_circuits reads the circuits off the lattice ints p_A * D; the same
    # entries, generators and order as the Fraction construction.  Each
    # circuit reads exactly the support rows S - i of its finite entries,
    # by their positions in the face scan's row table, whose p_A * D less
    # their least are its entries times D
    p = make()
    circuits = p.all_circuits()
    assert circuits == fraction_all_circuits(p)
    d, scaled = p._weight_lattice()
    rows = p._rows()
    assert [row[4] for row in rows] == p.support_masks()
    reads = p._circuit_reads
    assert len(reads) == len(circuits)
    for c, get in zip(circuits, reads):
        read = get(rows)
        gmask = sum(1 << (e - 1) for e in c.generator)
        finite = [i for i, x in enumerate(c.entries) if x is not INF]
        assert [row[4] for row in read] == [gmask ^ 1 << i for i in finite]
        values = [row[2] for row in read]
        assert values == [scaled[gmask ^ 1 << i] for i in finite]
        assert [x - min(values) for x in values] == [c.entries[i] * d for i in finite]


def _lattice_points(case):
    """(vector, seeded Fraction points) whose denominators meet the
    vector's D as the case names."""
    rng = random.Random(f"to_lattice/{case}")
    if case == "tau_witnesses":
        p = tau_instance("generic", 8, 3)
        return p, [cell.witness for cell in enumerate_cells(p)]
    # the snowflake with each entry v turned into (v + 1) / 12: D = 12
    s = snowflake()
    p = PlueckerVector(s.n, s.m, {a: (s.entry(a) + 1) / 12 for a in s.support()})
    assert p.validate().ok and p._weight_lattice()[0] == 12
    if case == "integer":
        dens = [[1] * p.n] * 20
    elif case == "repeated":
        dens = [[rng.choice((5, 7, 35)) for _ in range(p.n)] for _ in range(20)]
    elif case == "divide_d":
        dens = [[rng.choice((1, 2, 3, 4, 6, 12)) for _ in range(p.n)] for _ in range(20)]
    else:  # coprime: distinct primes, none of them dividing D
        dens = [rng.sample((5, 7, 11, 13, 17, 19, 23, 29), p.n) for _ in range(20)]
    # numerators prime to their denominator, so each stays as drawn
    points = [tuple(Fraction(rng.choice((-1, 1)) * (q * rng.randint(0, 9) + 1), q) for q in row)
              for row in dens]
    for pt, row in zip(points, dens):
        assert [x.denominator for x in pt] == row
    return p, points


@pytest.mark.parametrize("case", ["integer", "repeated", "divide_d", "coprime", "tau_witnesses"])
def test_to_lattice_is_the_least_common_lattice(case):
    # s is the lcm of D and every denominator, no multiple of it: a larger
    # s gives the same answers and only slower reads
    p, points = _lattice_points(case)
    d = p._weight_lattice()[0]
    for pt in points:
        s = math.lcm(d, *(x.denominator for x in pt))
        got = p._to_lattice(pt)
        assert got == (s, s // d, [x * s for x in pt])
        assert all(type(y) is int for y in got[2])
        if case == "divide_d":
            assert got[:2] == (12, 1)


def test_circuit_supports_match_minimal_dependents():
    for p in (two_pyramids(), snowflake(), uniform_zero(5, 2), rank3_pair()):
        got = {c.support for c in p.all_circuits()}
        assert got == brute_circuit_supports(p.underlying_matroid())


# ---------------------------------------------------------------------------
# membership


def test_contains_frozen_cases():
    p = two_pyramids()
    assert p.contains((0, 0, 0, 0))
    assert not p.contains((0, 0, 0, -5))
    assert p.contains((0, -1, -2, -2))
    assert p.matroid_at((0, 0, 0, Fraction(-5))).loops() == (4,)


def tie_heavy_tau_6_3():
    rng = random.Random("tie/6/3")
    rows = [[rng.choice((0, 1, 2)) for _ in range(3)] for _ in range(3)]
    return tau(HeightMatrix(6, (1, 2, 3), rows))


def test_contains_routes_and_definition_agree():
    # random points, then chart images (ties at every chart basis); the
    # matroid at each point is checked against the max-weight definition and
    # the exchange axiom, since matroid_at builds it without a scan
    rng = random.Random(11)
    chart_rng = random.Random(13)
    # the face scan's subset-sum tables split [n] into halves of n // 2 and
    # n - n // 2 elements: odd n = 5, 7 and 9 (halves of unequal size), a
    # knockout support, a direct sum, m = n - 1, 1 and n, and n = 12 and 16
    # (tables of 64 and 256 entries)
    edge_cases = (
        tau_instance("generic", 5, 2),
        tau_instance("knockout", 7, 3),
        direct_sum(two_pyramids(), tau_instance("generic", 5, 1)),
        tau_instance("tie", 12, 11),
        tau_instance("generic", 16, 1),
        _checked(3, 3, {(1, 2, 3): Fraction(-5, 2)}),
    )
    for p in (two_pyramids(), uniform_zero(5, 2), rank3_pair(), tie_heavy_tau_6_3(),
              *edge_cases):
        bases = p.underlying_matroid().bases
        points = [
            tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(p.n))
            for _ in range(150)
        ]
        for t in range(60):
            ctx = LocalContext(p, bases[t % len(bases)])
            points.append(ctx.chart(tuple(Fraction(chart_rng.randint(-3, 3)) for _ in range(p.m))))
        largest = 0
        for t, v in enumerate(points):
            via_circuits = p.contains_via_circuits(v)
            assert via_circuits == p.contains(v)
            assert via_circuits == brute_member(p, v)
            face = p.matroid_at(v)
            want = brute_max_weight_bases(p, v)
            assert face.bases == want
            assert brute_exchange_violation(face.bases) == set()
            basis = bases[t % len(bases)]
            assert LocalContext(p, basis).in_sigma(v) == (basis in want)
            largest = max(largest, len(want))
        assert largest >= min(3, len(bases))


def seeded_tau(kind, n, m):
    """Seeded tau: generic heights, heights in {0, 1, 2} (ties everywhere),
    or heights with a quarter knocked out to INF."""
    rng = random.Random(f"cover/{kind}/{n}/{m}")
    if kind == "generic":
        return tau(random_height_matrix(n, m, rng=rng))
    if kind == "tie":
        rows = [[rng.choice((0, 1, 2)) for _ in range(n - m)] for _ in range(m)]
    else:
        rows = [[INF if rng.random() < 0.25 else rng.randrange(10) for _ in range(n - m)]
                for _ in range(m)]
    return tau(HeightMatrix(n, range(1, m + 1), rows))


def _checked(n, m, entries):
    p = PlueckerVector(n, m, entries)
    assert p.validate().ok
    return p


COVER_CASES = [
    pytest.param(lambda: _checked(3, 1, {(1,): 0, (2,): 1, (3,): 3}), id="rank1_3"),
    pytest.param(lambda: _checked(3, 1, {(1,): 0, (2,): 2}), id="rank1_with_a_loop"),
    pytest.param(lambda: _checked(4, 2, {(1, 3): 0, (1, 4): 0, (2, 3): 0, (2, 4): 0}),
                 id="u12_plus_u12"),
    pytest.param(rank3_pair, id="rank3_pair"),
] + [
    pytest.param(lambda k=kind, n=n, m=m: seeded_tau(k, n, m), id=f"tau_{kind}_{n}_{m}")
    for kind in ("generic", "tie", "knockout")
    for n, m in ((6, 3), (7, 4))
]


@pytest.mark.parametrize("make", COVER_CASES)
def test_contains_by_cover_matches_loops_and_circuits(make):
    # contains reads membership as "the max-weight subsets cover the ground
    # set", without building the face; on random points (mostly outside)
    # and chart images (inside) it agrees with the face's loops and with
    # the circuit test
    p = make()
    assert p.validated
    rng = random.Random(f"cover/{p.n}/{p.m}/{len(p.support())}")
    points = [
        tuple(Fraction(rng.randint(-30, 30), rng.randint(1, 4)) for _ in range(p.n))
        for _ in range(40)
    ]
    if not p.underlying_matroid().loops():
        bases = p.underlying_matroid().bases
        for t in range(40):
            ctx = LocalContext(p, bases[t % len(bases)])
            points.append(ctx.chart(tuple(Fraction(rng.randint(-3, 3)) for _ in range(p.m))))
    verdicts = set()
    for v in points:
        verdict = p.contains(v)
        assert verdict == (not p.matroid_at(v).loops())
        assert verdict == p.contains_via_circuits(v)
        assert verdict == scan_contains(p, v)
        verdicts.add(verdict)
    assert verdicts == ({True, False} if not p.underlying_matroid().loops() else {False})


FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def fixture_vector(name):
    with open(FIXTURES / name, encoding="utf-8") as fh:
        p = PlueckerVector.from_json(json.load(fh))
    assert p.validate().ok
    return p


def scanned_report(p):
    """The reference for `validate`: (report, matroid or None), with the
    relations straight from the definition and the support through the
    caller-input constructor `Matroid(n, bases)`, whose scan raises the
    exchange triple."""
    try:
        matroid, witness = Matroid(p.n, p.support()), None
    except ExchangeError as exc:
        matroid, witness = None, (exc.a_subset, exc.b_subset, exc.element)
    return ValidationReport(brute_relation_failures(p), witness), matroid


def _perturbed(base, rng, moves):
    """``base``'s entries after ``moves`` seeded moves: an entry moved by a
    small rational, knocked out to INF, or added off the support."""
    support = base.support()
    others = [a for a in combinations(range(1, base.n + 1), base.m) if a not in support]
    entries = {a: base.entry(a) for a in support}
    for _ in range(moves):
        roll = rng.random()
        target = rng.choice(support)
        if roll < 0.4 and len(entries) > 1:
            entries.pop(target, None)
        elif roll < 0.7 and others:
            entries[rng.choice(others)] = Fraction(rng.randint(-9, 9), rng.randint(1, 3))
        elif target in entries:
            entries[target] += Fraction(rng.choice((-2, -1, 1, 2)), rng.randint(1, 3))
    return PlueckerVector(base.n, base.m, entries)


def test_validate_matches_the_scanned_path(monkeypatch):
    # the fixtures, two direct sums (disconnected underlying matroids) and
    # seeded tau up to (7,4), each perturbed, and random supports on [4..6]
    # with 1 <= m <= n - 1, most of them no matroid.  A spy on the exchange
    # scan sees it run exactly when the support fails
    rng = random.Random(1992)
    bases = [two_pyramids(), uniform_zero(5, 2), snowflake(), rank3_pair(),
             fixture_vector("example1.json"), fixture_vector("snowflake.json"),
             direct_sum(two_pyramids(), rank3_pair()),
             direct_sum(uniform_zero(3, 1), uniform_zero(4, 2))]
    bases += [seeded_tau(kind, n, m) for kind in ("generic", "tie", "knockout")
              for n, m in ((6, 3), (7, 4))]
    vectors = [_perturbed(base, rng, moves) for base in bases for moves in range(8)]
    for _ in range(150):
        n = rng.randint(4, 6)
        m = rng.randint(1, n - 1)
        support = random_support(rng, n, m)
        vectors.append(PlueckerVector(n, m, {a: rng.randint(0, 2) for a in support}))
    scan, scans = kernels.exchange_violation, []

    def spy(masks, n):
        scans.append(n)
        return scan(masks, n)

    monkeypatch.setattr(kernels, "exchange_violation", spy)
    counts = {"passing": 0, "relations": 0, "non_matroid": 0, "m=1": 0, "m=n-1": 0}
    for p in vectors:
        report, matroid = scanned_report(p)
        scans.clear()
        assert p.validate() == report
        assert len(scans) == (not report.support_ok)
        assert p.validated == report.ok
        if report.ok:
            assert p.underlying_matroid() == matroid
        counts["passing"] += report.ok
        counts["relations"] += bool(report.relation_failures)
        counts["non_matroid"] += not report.support_ok
        counts["m=1"] += p.m == 1
        counts["m=n-1"] += p.m == p.n - 1
    assert min(counts.values()) >= 20, counts
    assert min(counts["passing"], counts["relations"], counts["non_matroid"]) >= 40, counts


ASCENT_CASES = COVER_CASES + [
    pytest.param(lambda k=kind, n=n, m=m: seeded_tau(k, n, m), id=f"tau_{kind}_{n}_{m}")
    for kind in ("tie", "knockout")
    for n, m in ((8, 4), (9, 4), (10, 5))
] + [
    pytest.param(lambda: fixture_vector("example1.json"), id="example1"),
    pytest.param(lambda: fixture_vector("snowflake.json"), id="snowflake"),
    pytest.param(lambda: direct_sum(two_pyramids(), rank3_pair()), id="two_pyramids+rank3_pair"),
]


@pytest.mark.parametrize("make", ASCENT_CASES)
def test_steepest_ascent_within_the_step_bound(make, monkeypatch):
    # _maximal walks from the first support row to a basis of maximum weight
    # in at most min(m, n - m) exchanges (Minamikawa & Shioura 2021); a spy
    # on the chart cache counts the charts each walk reads.  contains and
    # project_any, which read the walk's end, agree with the support scans
    p = make()
    rng = random.Random(f"ascent/{p.n}/{p.m}/{len(p.support())}")
    bases = p.underlying_matroid().bases
    loopless = not p.underlying_matroid().loops()
    points = [
        tuple(Fraction(rng.randint(-30, 30), rng.randint(1, 4)) for _ in range(p.n))
        for _ in range(40)
    ]
    if loopless:
        for _ in range(40):
            ctx = LocalContext(p, rng.choice(bases))
            points.append(ctx.chart(tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                                          for _ in range(p.m))))
    bound = min(p.m, p.n - p.m)
    reads = []
    chart_rows = PlueckerVector._chart_rows

    def spy(self, bmask):
        reads.append(bmask)
        # project_any reads the walk's end again and then makes at most
        # min(m, n - m) exchanges of its lex descent
        assert len(reads) <= 2 * bound + 2, "the walk does not end"
        return chart_rows(self, bmask)

    def walked(read, *args):
        reads.clear()
        return read(*args)

    monkeypatch.setattr(PlueckerVector, "_chart_rows", spy)
    for y in points:
        bmask, _ = walked(p._maximal, *p._to_lattice(as_point(y, p.n))[1:])
        assert reads[0] == p.support_masks()[0]
        assert len(reads) - 1 <= bound, (y, reads)
        assert p.matroid_at(y).is_basis(subset_from_mask(bmask)), y
        assert walked(p.contains, y) == scan_contains(p, y), y
        assert len(reads) - 1 <= bound
        if loopless:
            assert walked(project_any, p, y) == scan_project_any(p, y), y
        else:
            with pytest.raises(LoopyMatroidError):
                project_any(p, y)


def tiny_gap():
    entries = {s: 0 for s in ((1, 2), (1, 4), (2, 3), (2, 4), (3, 4))}
    entries[(1, 3)] = Fraction(1, 2**300)
    return PlueckerVector(4, 2, entries)


def generic_tau(n, m):
    return tau(random_height_matrix(n, m, rng=random.Random(f"lattice/{n}/{m}")))


LATTICE_CASES = [
    pytest.param(lambda: generic_tau(6, 3), 37, id="tau_generic_6_3"),
    pytest.param(lambda: generic_tau(7, 4), 49, id="tau_generic_7_4"),
    pytest.param(lambda: generic_tau(8, 3), 61, id="tau_generic_8_3"),
    pytest.param(tie_heavy_tau_6_3, 1, id="tau_tie_6_3"),
    pytest.param(lambda: tau(random_height_matrix(7, 3, rng=random.Random(5),
                                                  generic=False, inf_probability=0.25)),
                 1, id="tau_knockout_7_3"),
    pytest.param(tiny_gap, 91, id="tiny_gap"),
]


@pytest.mark.parametrize("make, digits", LATTICE_CASES)
def test_integer_argmax_matches_the_definition(make, digits):
    # matroid_at compares weights on the lattice of D, the lcm of the entry
    # denominators; points with denominators coprime to D, negative
    # coordinates and chart images (ties everywhere) against the definition
    p = make()
    assert p.validate().ok
    d = math.lcm(*(p.entry(s).denominator for s in p.support()))
    assert len(str(d)) == digits
    rng = random.Random(f"lattice-points/{p.n}/{p.m}/{digits}")
    dens = [q for q in (7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47) if d % q]

    def coord():
        return Fraction(rng.randint(-60, 60), rng.choice(dens))

    points = [tuple(coord() for _ in range(p.n)) for _ in range(40)]
    # the entries themselves as coordinates: denominators that divide D
    entries = [p.entry(s) for s in p.support()]
    points += [tuple(-rng.choice(entries) for _ in range(p.n)) for _ in range(10)]
    bases = p.underlying_matroid().bases
    for t in range(40):
        ctx = LocalContext(p, bases[t % len(bases)])
        x = tuple(coord() if t % 2 else Fraction(rng.randint(-5, 5)) for _ in range(p.m))
        points.append(ctx.chart(x))
    verdicts = set()
    for v in points:
        assert p.matroid_at(v).bases == brute_max_weight_bases(p, v)
        verdicts.add(p.contains(v))
        assert p.contains(v) == p.contains_via_circuits(v)
    assert verdicts == {True, False}


@pytest.mark.parametrize("make, digits", LATTICE_CASES)
def test_lattice_reads_match_the_fraction_oracles(make, digits):
    # circuit membership, the chart and everything read through it against
    # the Fraction formulas they replaced; coordinates with denominators
    # coprime to D make s / D > 1, so a dropped rescale shows
    p = make()
    assert p.validate().ok
    d = math.lcm(*(p.entry(s).denominator for s in p.support()))
    rng = random.Random(f"lattice-reads/{p.n}/{p.m}/{digits}")
    dens = [q for q in (7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47) if d % q]

    def coord():
        return Fraction(rng.randint(-60, 60), rng.choice(dens))

    bases = p.underlying_matroid().bases
    verdicts = set()
    for t in range(24):
        basis = bases[t % len(bases)]
        ctx = LocalContext(p, basis)
        assert ctx.options == fraction_options(p, basis)
        x = tuple(coord() for _ in range(p.m))
        v = ctx.chart(x)
        assert v == fraction_chart(p, basis, x)
        assert ctx.chart_inverse(v) == x
        # lowering non-basis coordinates keeps the point in the chart region
        # and mostly takes it off the space
        y = tuple(
            vi if i in basis else vi - Fraction(rng.randint(0, 8), rng.choice(dens))
            for i, vi in enumerate(v, start=1)
        )
        y_b = tuple(y[b - 1] for b in basis)
        assert ctx.project(y) == fraction_chart(p, basis, y_b)
        r = tuple(coord() for _ in range(p.n))
        r_basis, r_proj = project_any(p, r)
        assert r_basis == brute_max_weight_bases(p, r)[0]
        assert r_proj == fraction_chart(p, r_basis, tuple(r[b - 1] for b in r_basis))
        for point in (v, y, r):
            want = fraction_failing_circuit(p, point)
            assert p.failing_circuit(point) == want
            assert p.contains_via_circuits(point) == (want is None)
            verdicts.add(want is None)
    assert verdicts == {True, False}


@pytest.mark.parametrize("n, m", [(8, 3), (8, 4), (7, 3)])
def test_late_circuit_failures_match_the_fraction_oracle(n, m):
    # every point of {0,1,2}^n on the trivially valued U(m, n): unlike seeded
    # near-members, many first fail deep in the circuit list, so the weighed
    # prefix grows past its first doublings before an answer
    p = uniform_zero(n, m)
    circuits = p.all_circuits()
    index = {c: j for j, c in enumerate(circuits)}
    deepest, members = -1, 0
    for point in product(range(3), repeat=n):
        want = fraction_failing_circuit(p, point)
        assert p.failing_circuit(point) == want
        if want is None:
            members += 1
        else:
            deepest = max(deepest, index[want])
    assert members > 0
    assert 3 * deepest > len(circuits)


def rows_no_circuit_reads(p):
    """The support rows A that are S - i for no circuit of `all_circuits`,
    its generator S and finite entry i."""
    read = {
        mask_from_subset(c.generator, p.n) ^ 1 << i
        for c in p.all_circuits()
        for i, x in enumerate(c.entries) if x is not INF
    }
    return [a for a in p.support() if mask_from_subset(a, p.n) not in read]


def chart_images_and_moves(p, rng):
    """At each support basis B, the image of a seeded small x under the
    Fraction chart formula (a member unless p has a loop, whose coordinate
    is drawn), then that point with one coordinate moved by 1/2 either way,
    and with the elements of each row that no circuit reads raised by 1/3,
    which makes the row the only one of largest weight if it was among
    them, and so the point not a member."""
    unread = rows_no_circuit_reads(p)
    for basis in p.support():
        x = [Fraction(rng.randint(-3, 3)) for _ in basis]
        v = [Fraction(rng.randint(-3, 3))] * p.n
        for b, xb in zip(basis, x):
            v[b - 1] = xb
        for i, opts in tie_options(p, basis):
            if opts:
                v[i - 1] = min(x[basis.index(b)] + delta for b, delta in opts.items())
        yield tuple(v)
        for i in range(p.n):
            for step in (Fraction(1, 2), Fraction(-1, 2)):
                yield tuple(vj + step * (j == i) for j, vj in enumerate(v))
        for a in unread:
            yield tuple(vj + Fraction(1, 3) * (j + 1 in a) for j, vj in enumerate(v))


@pytest.mark.parametrize("make, unread", [
    pytest.param(lambda: tau_instance("knockout", 6, 2), 3, id="tau_knockout_6_2"),
    pytest.param(lambda: tau_instance("knockout", 7, 4), 2, id="tau_knockout_7_4"),
    pytest.param(lambda: direct_sum(tau_instance("generic", 4, 2), tau_instance("knockout", 4, 2)),
                 20, id="tau_generic_4_2+tau_knockout_4_2"),
    pytest.param(lambda: tau(HeightMatrix(5, (1, 2), [[INF, Fraction(1, 3), 2],
                                                      [INF, 3, Fraction(-5, 7)]])),
                 None, id="tau_with_a_loop"),
    pytest.param(lambda: tau_instance("generic", 6, 1), None, id="tau_generic_6_1"),
    pytest.param(lambda: tau_instance("generic", 6, 5), None, id="tau_generic_6_5"),
    pytest.param(lambda: _checked(3, 3, {(1, 2, 3): Fraction(-5, 2)}), None, id="m_equals_n"),
])
def test_the_cover_exit_matches_the_fraction_oracle(make, unread):
    # failing_circuit accepts a point once the rows of largest weight cover
    # [n], reading every support row; the first three supports have rows
    # that no circuit reads, which the cover must read too
    p = make()
    if unread is not None:
        assert len(rows_no_circuit_reads(p)) == unread
    rng = random.Random(f"cover-exit/{p.n}/{p.m}/{len(p.support())}")
    verdicts = set()
    for point in chart_images_and_moves(p, rng):
        want = fraction_failing_circuit(p, point)
        assert p.failing_circuit(point) == want
        verdicts.add(want is None)
    # a loop leaves no member; with m = n every point is one
    assert verdicts == ({False} if p.underlying_matroid().loops() else
                        {True} if p.m == p.n else {True, False})


def test_matroid_at_shift_invariance():
    p = two_pyramids()
    rng = random.Random(3)
    for _ in range(50):
        v = tuple(Fraction(rng.randint(-5, 5)) for _ in range(4))
        lam = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        shifted = tuple(x + lam for x in v)
        assert p.matroid_at(v) == p.matroid_at(shifted)


# ---------------------------------------------------------------------------
# serialization


def test_json_round_trip():
    for p in (two_pyramids(), rank3_pair()):
        blob = json.dumps(p.to_json())
        q = PlueckerVector.from_json(json.loads(blob))
        assert q.n == p.n and q.m == p.m
        assert all(q.entry(s) == p.entry(s) for s in p.support())


def test_json_errors_name_the_problem():
    with pytest.raises(ValueError, match="m"):
        PlueckerVector.from_json({"n": 4, "entries": []})
    with pytest.raises(ValueError, match="subset"):
        PlueckerVector.from_json(
            {"n": 4, "m": 2, "entries": [{"value": "1"}]}
        )
    with pytest.raises(ValueError, match="1/0"):
        PlueckerVector.from_json(
            {"n": 4, "m": 2, "entries": [{"subset": [1, 2], "value": "1/0"}]}
        )
    with pytest.raises(ValueError, match="duplicate"):
        PlueckerVector.from_json(
            {"n": 4, "m": 2, "entries": [
                {"subset": [1, 2], "value": "1"},
                {"subset": [2, 1], "value": "2"},
            ]}
        )
    # the shape is checked before any record
    with pytest.raises(ValueError, match=r"^need 1 <= m <= n$"):
        PlueckerVector.from_json({"n": 4, "m": 0, "entries": [{"value": "1"}]})
