import math
import random
from fractions import Fraction
from itertools import permutations

import pytest

from oracles import (
    bellman_ford_solve,
    check_witness,
    fm_feasible,
    random_system,
    recession_01_bounded,
)
from troplin.diffcon import (
    Constraint,
    DifferenceSystem,
    cycle_tests,
    matrix_witness,
    solve,
    tighten,
)


def test_empty_system_is_feasible():
    res = solve(DifferenceSystem(3))
    assert res.feasible
    assert res.witness == (0, 0, 0)


def test_simple_feasible_with_witness():
    sys_ = DifferenceSystem(2, (Constraint(1, 2, Fraction(-1)),))
    res = solve(sys_)
    assert res.feasible
    assert check_witness(sys_, res.witness)
    assert res.witness[0] - res.witness[1] <= -1


def test_strict_cycle_is_infeasible():
    # x1 < x2 and x2 < x1
    sys_ = DifferenceSystem(2, (
        Constraint(1, 2, Fraction(0), strict=True),
        Constraint(2, 1, Fraction(0), strict=True),
    ))
    res = solve(sys_)
    assert not res.feasible
    assert res.cycle is not None
    total = sum((c.bound for c in res.cycle), Fraction(0))
    stricts = sum(1 for c in res.cycle if c.strict)
    assert total < 0 or (total == 0 and stricts > 0)


def test_nonstrict_zero_cycle_is_feasible():
    sys_ = DifferenceSystem(2, (
        Constraint(1, 2, Fraction(0)),
        Constraint(2, 1, Fraction(0)),
    ))
    res = solve(sys_)
    assert res.feasible
    assert res.witness[0] == res.witness[1]


def test_equality_with_offset():
    sys_ = DifferenceSystem(
        2,
        (Constraint(1, 2, Fraction(1, 2), strict=True),),
        ((1, 2, Fraction(1, 3)),),
    )
    res = solve(sys_)
    assert res.feasible
    assert res.witness[0] - res.witness[1] == Fraction(1, 3)


def test_contradictory_equality():
    sys_ = DifferenceSystem(
        2,
        (Constraint(1, 2, Fraction(0)),),
        ((1, 2, Fraction(1)),),
    )
    assert not solve(sys_).feasible


def test_self_loop_constraints():
    assert not solve(DifferenceSystem(1, (Constraint(1, 1, Fraction(-1)),))).feasible
    assert not solve(
        DifferenceSystem(1, (Constraint(1, 1, Fraction(0), strict=True),))
    ).feasible
    assert solve(DifferenceSystem(1, (Constraint(1, 1, Fraction(0)),))).feasible


def test_variable_range_checked():
    with pytest.raises(ValueError):
        solve(DifferenceSystem(2, (Constraint(1, 3, Fraction(0)),)))


def test_solver_matches_fourier_motzkin():
    rng = random.Random(4242)
    # x1 - x2 in (0, 2^-300): a witness needs an epsilon below 2^-300
    tiny_gap = DifferenceSystem(2, (
        Constraint(2, 1, Fraction(0), strict=True),
        Constraint(1, 2, Fraction(1, 2**300), strict=True),
    ))
    disagreements = 0
    for sys_ in [random_system(rng) for _ in range(600)] + [tiny_gap]:
        res = solve(sys_)
        if res.feasible != fm_feasible(sys_):
            disagreements += 1
        if res.feasible:
            assert check_witness(sys_, res.witness)
        else:
            # the returned cycle must itself certify infeasibility
            total = sum((c.bound for c in res.cycle), Fraction(0))
            stricts = sum(1 for c in res.cycle if c.strict)
            assert total < 0 or (total == 0 and stricts > 0)
    assert disagreements == 0


def lattice_spelling(sys_, d):
    """The system with every bound b written as the int b * d."""
    return DifferenceSystem(
        sys_.num_vars, tuple(c._replace(bound=int(c.bound * d)) for c in sys_.constraints),
        tuple((l, r, int(c * d)) for l, r, c in sys_.equalities))


def test_int_bounds_are_read_in_their_unit():
    # the 600 seeded systems written as int bounds b, read as b / D for a
    # unit D > 1, as cell enumeration writes them: `tighten` and
    # `matrix_witness` give the feasibility and witness that `solve` gives
    # on the same systems with the bounds Fraction(b, D), and `solve` on
    # the ints gives the same cycle, scaled; the witness needs the gcd step
    # of the module docstring
    rng = random.Random(4242)
    units = random.Random(7)
    for sys_ in [random_system(rng) for _ in range(600)]:
        d = 6 * units.randint(1, 5)  # random_system's denominators divide 6
        scaled = [c.bound * d for c in sys_.constraints] + [c * d for *_, c in sys_.equalities]
        assert all(b.denominator == 1 for b in scaled)
        k = sys_.num_vars
        lattice = lattice_spelling(sys_, d)
        fractions = DifferenceSystem(
            k, tuple(c._replace(bound=Fraction(c.bound, d)) for c in lattice.constraints),
            tuple((l, r, Fraction(c, d)) for l, r, c in lattice.equalities))
        want = solve(fractions)
        edges = matrix_edges(lattice)
        closed = closed_matrix(k, edges)
        assert (closed is not None) == want.feasible
        if closed is not None:
            den, xs = matrix_witness(closed, k, d, math.gcd(d, *(c for _, _, c, _ in edges)))
            assert tuple(Fraction(x, den) for x in xs) == want.witness
        else:
            got = solve(lattice)
            assert [c._replace(bound=Fraction(c.bound, d)) for c in got.cycle] == list(want.cycle)


def test_solve_matches_bellman_ford():
    # the matrix solver and the Bellman-Ford oracle on the 600 seeded
    # systems, in their Fraction spelling and scaled to int bounds:
    # the same verdict and witness, and on an infeasible system a cycle of
    # the system's own edges that chains head to tail, closes and certifies
    rng = random.Random(4242)
    units = random.Random(7)
    tiny_gap = DifferenceSystem(2, (
        Constraint(2, 1, Fraction(0), strict=True),
        Constraint(1, 2, Fraction(1, 2**300), strict=True),
    ))
    systems = [tiny_gap]
    for sys_ in [random_system(rng) for _ in range(600)]:
        systems += [sys_, lattice_spelling(sys_, 6 * units.randint(1, 5))]
    infeasible = 0
    for sys_ in systems:
        got, want = solve(sys_), bellman_ford_solve(sys_)
        assert got.feasible == want.feasible
        assert got.witness == want.witness
        if got.feasible:
            continue
        infeasible += 1
        own = {origin for *_, origin in sys_.all_edges()}
        assert set(got.cycle) <= own
        assert all(c.left == nxt.right for c, nxt in zip(got.cycle, got.cycle[1:] + got.cycle[:1]))
        total = sum((c.bound for c in got.cycle), Fraction(0))
        assert total < 0 or (total == 0 and any(c.strict for c in got.cycle))
    assert infeasible > 200


def test_boundedness_matches_recession_oracle():
    # a feasible region is bounded modulo the all-ones line iff every
    # x_i - x_j is bounded above; a bound, when there is one, is the sum of a
    # path of constraints, so at most the total size of all bounds, and the
    # solver must refuse x_i - x_j >= that total plus one exactly then
    rng = random.Random(97)
    checked = 0
    for _ in range(600):
        sys_ = random_system(rng)
        if not solve(sys_).feasible:
            continue
        checked += 1
        far = 1 + sum(abs(c.bound) for c in sys_.constraints) + sum(
            abs(c) for _, _, c in sys_.equalities)
        k = sys_.num_vars
        bounded = all(
            not solve(DifferenceSystem(k, sys_.constraints + (Constraint(j, i, -far),),
                                       sys_.equalities)).feasible
            for i in range(1, k + 1) for j in range(1, k + 1) if i != j
        )
        assert bounded == recession_01_bounded(sys_)
    assert checked > 200


# ---------------------------------------------------------------------------
# the closed difference-bound matrix


def matrix_edges(system):
    """The edges (u, v, bound, strict) of an int-bound system, 0-based."""
    return [(r - 1, l - 1, c, s) for r, l, c, s, _ in system.all_edges()]


def closed_matrix(k, edges, rng=None):
    """Tighten the empty matrix by the edges, in chunks of random size when
    rng is given; returns the matrix, or None once an edge is refused."""
    d = [None] * (k * k)
    d[::k + 1] = [0] * k
    at = 0
    while at < len(edges):
        step = rng.randint(1, len(edges) - at) if rng else 1
        if not tighten(d, k, edges[at:at + step]):
            return None
        at += step
    return d


def lex_shortest_paths(k, edges):
    """Floyd-Warshall on (bound, -strict count) pairs; None for no path."""
    dist = [[(0, 0) if a == b else None for b in range(k)] for a in range(k)]
    for u, v, c, strict in edges:
        if dist[u][v] is None or (c, -strict) < dist[u][v]:
            dist[u][v] = (c, -strict)
    for via in range(k):
        for a in range(k):
            for b in range(k):
                if dist[a][via] is not None and dist[via][b] is not None:
                    t = (dist[a][via][0] + dist[via][b][0], dist[a][via][1] + dist[via][b][1])
                    if dist[a][b] is None or t < dist[a][b]:
                        dist[a][b] = t
    return dist


def decode(code, scale):
    """The (bound, -strict count) pair of a matrix entry c * scale - s."""
    if code is None:
        return None
    c = -(-code // scale)
    return c, code - c * scale


def test_matrix_verdicts_match_solve_and_fourier_motzkin():
    # random_system's bounds, scaled to ints, added in random
    # orders and chunks: the matrix refuses exactly the infeasible systems,
    # and on the others holds every lex-shortest path, coded as the module
    # docstring says (a code c * K - s with 0 <= s < K)
    rng = random.Random(2006)
    feasible = infeasible = 0
    for _ in range(600):
        sys_ = random_system(rng)
        d = 6 * rng.randint(1, 5)
        k = sys_.num_vars
        lattice = lattice_spelling(sys_, d)
        want = fm_feasible(sys_)
        assert bellman_ford_solve(lattice, want_witness=False).feasible == want
        edges = matrix_edges(lattice)
        dist = lex_shortest_paths(k, edges)
        scale = 2 * k + 2
        for _ in range(3):
            rng.shuffle(edges)
            closed = closed_matrix(k, edges, rng)
            assert (closed is not None) == want
            if closed is not None:
                assert [[decode(e, scale) for e in closed[a * k:a * k + k]]
                        for a in range(k)] == dist
        feasible += want
        infeasible += not want
    assert feasible > 200 and infeasible > 100


def test_cycle_tests_are_tightens_verdict_edge_by_edge():
    # on the closed matrix of a feasible prefix, an edge's cycle test fires
    # exactly when `tighten` refuses that edge alone; a batch with a firing
    # edge is refused whole (the pre-test of cell enumeration), and some
    # batches that no test fires on are refused too: their edges close a
    # negative cycle only together.  Bounds in {-1, 0, 1} make zero cycles
    # common, where only the strict counts decide
    rng = random.Random(2012)
    fired = only_together = zero_cycles = 0
    for _ in range(1000):
        k = rng.randint(2, 4)
        edges = [(u, v, rng.randint(-1, 1), rng.getrandbits(1))
                 for u, v in (rng.sample(range(k), 2) for _ in range(rng.randint(1, 8)))]
        cut = rng.randint(0, len(edges) - 1)
        d = closed_matrix(k, edges[:cut])
        if d is None:
            continue
        batch = edges[cut:]
        hits = []
        for edge, (at, w) in zip(batch, cycle_tests(k, batch)):
            hit = d[at] is not None and d[at] + w < 0
            assert hit == (not tighten(d.copy(), k, [edge])), edge
            zero_cycles += d[at] is not None and -k <= d[at] + w <= 0
            hits.append(hit)
        feasible = tighten(d.copy(), k, batch)
        if any(hits):
            assert not feasible
            fired += 1
        elif not feasible:
            only_together += 1
    assert fired > 100 and only_together > 40 and zero_cycles > 100


@pytest.mark.parametrize("edges, feasible", [
    # x2 < x1 and x1 < x2: a zero cycle with strict edges
    ([(0, 1, 0, True), (1, 0, 0, True)], False),
    # x2 <= x1 and x1 <= x2: a zero cycle with none
    ([(0, 1, 0, False), (1, 0, 0, False)], True),
    # x2 - x1 < 1 and x1 - x2 < 0: the strict counts must not outweigh a unit
    ([(0, 1, 1, True), (1, 0, 0, True)], True),
    # three strict edges around a cycle of weight 1
    ([(0, 1, 0, True), (1, 2, 0, True), (2, 0, 1, True)], True),
    ([(0, 1, 0, True), (1, 2, 0, True), (2, 0, 0, False)], False),
    # x2 - x1 = 3 and x3 - x2 = -1 pin x3 - x1 to 2
    ([(0, 1, 3, False), (1, 0, -3, False), (1, 2, -1, False), (2, 1, 1, False),
      (0, 2, 2, True)], False),
    ([(0, 1, 3, False), (1, 0, -3, False), (1, 2, -1, False), (2, 1, 1, False),
      (0, 2, 2, False)], True),
    ([(0, 1, 3, False), (1, 0, -3, False), (1, 2, -1, False), (2, 1, 1, False),
      (2, 0, -2, True)], False),
    # a self-loop holds exactly when its bound does
    ([(1, 1, 0, False)], True),
    ([(1, 1, 0, True)], False),
])
def test_matrix_explicit_cycles(edges, feasible):
    k = 3
    for order in permutations(edges):
        assert (closed_matrix(k, list(order)) is not None) == feasible
