import random
from itertools import combinations

import pytest

from oracles import (
    brute_circuit_supports,
    brute_components,
    brute_exchange_violation,
    hull_edges,
)
from troplin import kernels
from troplin.cells import enumerate_cells
from troplin.conical import HeightMatrix, tau
from troplin.examples import snowflake, two_pyramids, uniform_zero
from troplin.matroid import (
    ExchangeError,
    Matroid,
    mask_from_subset,
    subset_from_mask,
    transversal,
)


def test_mask_round_trip():
    assert mask_from_subset((1, 3, 4), 4) == 0b1101
    assert subset_from_mask(0b1101) == (1, 3, 4)
    with pytest.raises(ValueError):
        mask_from_subset((0, 1), 4)
    with pytest.raises(ValueError):
        mask_from_subset((1, 1), 4)
    with pytest.raises(ValueError):
        mask_from_subset((5,), 4)
    # a string is refused whole, a non-int element as not an integer
    with pytest.raises(ValueError, match="got the string '12'"):
        mask_from_subset("12", 4)
    for bad in ((1, "2"), (1, True), (1, 2.0)):
        with pytest.raises(ValueError, match="is not an integer"):
            mask_from_subset(bad, 4)


def test_uniform_matroid_passes_exchange():
    M = Matroid(4, list(combinations(range(1, 5), 2)))
    assert M.bases == ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
    assert M.loops() == ()


def test_exchange_failure_reports_witness():
    with pytest.raises(ExchangeError) as info:
        Matroid(4, [(1, 2), (3, 4)])
    err = info.value
    assert set(err.a_subset) in ({1, 2}, {3, 4})
    assert err.element in err.a_subset


def test_mixed_sizes_rejected():
    with pytest.raises(ValueError):
        Matroid(4, [(1, 2), (1, 2, 3)])
    with pytest.raises(ValueError):
        Matroid(4, [])


@pytest.mark.parametrize("n, bases, message", [
    (0, [()], r"^ground set size must be in \[1..16\]$"),
    (17, [(1,)], r"^ground set size must be in \[1..16\]$"),
    (3, [()], r"^rank-0 matroids are not supported$"),
], ids=["empty_ground_set", "ground_over_cap", "rank_0"])
def test_sizes_outside_the_caps_are_refused(n, bases, message):
    with pytest.raises(ValueError, match=message):
        Matroid(n, bases)


@pytest.mark.parametrize("build", [
    lambda: Matroid(3, [(1, 2), (1, 3), (2, 1)]),
], ids=["constructor"])
def test_repeated_basis_is_refused(build):
    # a repeated basis is refused, not merged into one, as a repeated entry is
    with pytest.raises(ValueError, match=r"^repeated basis \[1, [23]\]$"):
        build()


def test_loops():
    M = Matroid(4, [(1, 2), (1, 3), (2, 3)])
    assert M.loops() == (4,)


def circuit_support(M, e, basis):
    """`fundamental_circuit_mask` of e over ``basis``, as a subset."""
    return subset_from_mask(M.fundamental_circuit_mask(mask_from_subset(basis, M.n), 1 << (e - 1)))


def test_fundamental_circuit_support_values():
    for M, e, B, want in [
        (Matroid(4, list(combinations(range(1, 5), 2))), 3, (1, 2), (1, 2, 3)),
        (Matroid(4, [(1, 2, 3), (1, 2, 4)]), 4, (1, 2, 3), (3, 4)),
        (Matroid(4, [(1, 2), (1, 3), (2, 3)]), 4, (1, 2), (4,)),  # 4 is a loop
    ]:
        assert circuit_support(M, e, B) == want
        assert want in brute_circuit_supports(M)


def test_fundamental_circuit_is_minimal_dependent():
    # against brute enumeration of minimal dependent sets
    cases = [
        Matroid(4, list(combinations(range(1, 5), 2))),
        Matroid(4, [(1, 2, 3), (1, 2, 4)]),
        Matroid(5, [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4)]),
    ]
    for M in cases:
        circuits = brute_circuit_supports(M)
        for B in M.bases:
            for e in range(1, M.n + 1):
                if e in B:
                    continue
                got = circuit_support(M, e, B)
                inside = [c for c in circuits if set(c) <= set(B) | {e} and e in c]
                assert len(inside) == 1 and tuple(sorted(inside[0])) == got


def test_equality_and_hashing():
    A = Matroid(4, [(1, 2), (1, 3), (2, 3)])
    B = Matroid(4, [(2, 3), (1, 3), (1, 2)])
    assert A == B
    assert hash(A) == hash(B)
    assert A != Matroid(5, [(1, 2), (1, 3), (2, 3)])


def test_coloops_and_components_values():
    M = Matroid(5, [(1, 2, 3), (1, 2, 4)])  # 1, 2 coloops; 3 || 4; 5 a loop
    assert M.loops() == (5,)
    assert M.components() == ((1,), (2,), (3, 4), (5,))
    U = Matroid(4, list(combinations(range(1, 5), 2)))
    assert U.components() == ((1, 2, 3, 4),)


def _component_cases():
    """Fixture supports, seeded transversal matroids, and the face matroids
    of seeded tie-heavy and knockout tau instances."""
    cases = [p.underlying_matroid() for p in (two_pyramids(), snowflake(), uniform_zero(5, 3))]
    cases += [Matroid(4, [(1, 3), (1, 4), (2, 3), (2, 4)]), Matroid(2, [(1, 2)])]
    rng = random.Random("components")
    for _ in range(40):
        n = rng.randint(2, 7)
        m = rng.randint(1, n)
        B = tuple(sorted(rng.sample(range(1, n + 1), m)))
        fams = {j: tuple(sorted(rng.sample(B, rng.randint(0, m))))
                for j in range(1, n + 1) if j not in B}
        cases.append(transversal(n, B, fams))
    for n, m in ((5, 2), (6, 3), (6, 2)):
        for _ in range(2):
            rows = [[rng.choice((0, 1, "inf")) for _ in range(n - m)] for _ in range(m)]
            for j in range(n - m):  # no loops, so the complex is finite
                rows[rng.randrange(m)][j] = 0
            cells = enumerate_cells(tau(HeightMatrix(n, range(1, m + 1), rows)))
            cases += [c.face_matroid for c in cells]
    return cases


def test_components_and_coloops_match_circuit_oracle():
    cases = _component_cases()
    assert len({len(M.components()) for M in cases}) >= 3
    for M in cases:
        assert M.components() == brute_components(M), M


def is_adjacent(a, b):
    """True iff the equal-size subsets differ by exactly one exchange."""
    return len(set(a) - set(b)) == 1


def test_polytope_edges_are_exactly_adjacent_basis_pairs():
    # hull-edge oracle cross-check on every matroid here with <= 6 elements
    cases = [
        Matroid(4, list(combinations(range(1, 5), 2))),
        Matroid(5, list(combinations(range(1, 6), 2))),
        Matroid(5, list(combinations(range(1, 6), 3))),
        Matroid(4, [(1, 2, 3), (1, 2, 4)]),
        Matroid(4, [(1, 2), (2, 3), (2, 4)]),
        Matroid(6, list(combinations(range(1, 7), 2))),
    ]
    for M in cases:
        pts = [tuple(1 if i in b else 0 for i in range(1, M.n + 1)) for b in M.bases]
        want = {
            frozenset((i, j))
            for i, j in combinations(range(len(M.bases)), 2)
            if is_adjacent(M.bases[i], M.bases[j])
        }
        assert hull_edges(pts) == want


# ---------------------------------------------------------------------------
# transversal construction


def test_transversal_full_families_gives_uniform():
    M = transversal(4, (1, 2), {3: (1, 2), 4: (1, 2)})
    assert M.bases == tuple(combinations(range(1, 5), 2))


def test_transversal_single_representative():
    # 3 and 4 both depend on representative 1 alone: a subset containing
    # either one must keep 1 free for it, so {1,3}, {1,4} and {3,4} all fail
    M = transversal(4, (1, 2), {3: (1,), 4: (1,)})
    assert M.bases == ((1, 2), (2, 3), (2, 4))


def test_transversal_empty_family_makes_loop():
    M = transversal(3, (1, 2), {3: ()})
    assert M.bases == ((1, 2),)
    assert M.loops() == (3,)


def test_transversal_rejects_bad_families():
    with pytest.raises(ValueError):
        transversal(4, (1, 2), {3: (3,)})  # representative outside B
    with pytest.raises(ValueError):
        transversal(4, (1, 2), {2: (1,)})  # keyed by a basis element
    with pytest.raises(ValueError, match="repeated element 1"):
        transversal(4, (1, 1, 2), {})  # not read as the root {1, 2}


def test_transversal_matches_brute_sdr():
    # oracle: try all injections A\B -> B\A directly
    from itertools import permutations

    rng = random.Random(5)
    shapes = []
    for _ in range(60):
        n = rng.randint(2, 6)
        shapes.append((n, rng.randint(1, n), "random"))
    # up to n = 8: empty, full and random families, and m = n
    shapes += [
        (n, m, kind)
        for n in range(1, 9)
        for m in sorted({1, max(1, n // 2), n})
        for kind in ("empty", "full", "random")
    ]
    for n, m, kind in shapes:
        B = tuple(sorted(rng.sample(range(1, n + 1), m)))
        fams = {}
        for j in range(1, n + 1):
            if j in B:
                continue
            size = 0 if kind == "empty" else m if kind == "full" else rng.randint(0, m)
            fams[j] = tuple(sorted(rng.sample(B, size)))
        M = transversal(n, B, fams)
        others = [j for j in range(1, n + 1) if j not in B]
        masks = kernels.transversal_basis_masks(
            n, m, mask_from_subset(B, n), others,
            [mask_from_subset(fams[j], n) for j in others],
        )
        subsets = [subset_from_mask(a) for a in masks]
        assert subsets == sorted(subsets)  # lexicographic subset order
        expect = []
        for A in combinations(range(1, n + 1), m):
            outside = [j for j in A if j not in B]
            free = [b for b in B if b not in A]
            ok = False
            for assign in permutations(free, len(outside)):
                if all(b in fams[j] for j, b in zip(outside, assign)):
                    ok = True
                    break
            if not outside:
                ok = True
            if ok:
                expect.append(A)
        assert M.bases == tuple(expect)
        assert B in M.bases
        # transversal builds through the trusted constructor: no scan of its own
        assert brute_exchange_violation(M.bases) == set()
