import json
import math
import random
from fractions import Fraction

import pytest

from oracles import (
    brute_circuit_supports,
    brute_exchange_violation,
    brute_max_weight_bases,
    brute_member,
    brute_relation_failures,
    fraction_chart,
    fraction_failing_circuit,
    fraction_options,
)
from troplin.chart import LocalContext, project_any
from troplin.conical import HeightMatrix, random_height_matrix, tau
from troplin.examples import snowflake, two_pyramids, uniform_zero
from troplin.plucker import NotValidatedError, PlueckerVector
from troplin.semiring import INF


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
    with pytest.raises(ValueError):
        PlueckerVector(4, 2, {(1, 2, 3): 0})


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


def test_circuit_supports_match_minimal_dependents():
    for p in (two_pyramids(), snowflake(), uniform_zero(5, 2), rank3_pair()):
        got = {c.support for c in p.all_circuits()}
        assert got == brute_circuit_supports(p.underlying_matroid())


def test_fundamental_circuit():
    p = two_pyramids()
    c = p.fundamental_circuit(3, (1, 2))
    assert c.support == (1, 2, 3)
    with pytest.raises(ValueError):
        p.fundamental_circuit(1, (1, 2))


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
    for p in (two_pyramids(), uniform_zero(5, 2), rank3_pair(), tie_heavy_tau_6_3()):
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
    pytest.param(lambda: tau(random_height_matrix(7, 3, seed=5, generic=False,
                                                  inf_probability=0.25)),
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


def test_matroid_at_shift_invariance():
    p = two_pyramids()
    rng = random.Random(3)
    for _ in range(50):
        v = tuple(Fraction(rng.randint(-5, 5)) for _ in range(4))
        lam = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        shifted = tuple(x + lam for x in v)
        assert p.matroid_at(v) == p.matroid_at(shifted)


def test_weight():
    p = two_pyramids()
    assert p.weight((0, 0, 0, 0), (1, 2)) == -1
    assert p.weight((0, 0, 0, 0), (1, 3)) == 0


# ---------------------------------------------------------------------------
# elimination


def test_eliminate_frozen_example():
    p = two_pyramids()
    circs = {c.support: c for c in p.all_circuits()}
    d, e = circs[(1, 2, 3)], circs[(1, 2, 4)]
    f = p.eliminate(d, e, 3, 1)
    assert f.entries == (INF, Fraction(2), Fraction(1), Fraction(1))
    # with b = 2 the roles mirror: the support drops 2 instead of 1
    f2 = p.eliminate(d, e, 3, 2)
    assert f2.entries == (Fraction(2), INF, Fraction(1), Fraction(1))
    assert f2.entry(3) == d.entry(3)


def test_eliminate_precondition_errors():
    p = two_pyramids()
    circs = {c.support: c for c in p.all_circuits()}
    d, e = circs[(1, 2, 3)], circs[(1, 2, 4)]
    with pytest.raises(ValueError):
        p.eliminate(d, e, 4, 1)  # d_4 = inf, not < e_4
    with pytest.raises(ValueError):
        p.eliminate(d, e, 3, 4)  # d_4 = inf not a shared finite entry
    with pytest.raises(ValueError):
        p.eliminate(d, d, 3, 1)  # d_a < e_a fails against itself


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
