import gc
import json
import math
import random
from fractions import Fraction
from itertools import combinations_with_replacement
from pathlib import Path

import pytest

from oracles import (
    all_bases_cells,
    brute_components,
    brute_local_cells,
    brute_max_weight_bases,
    brute_member,
    direct_sum,
    fraction_local_cells,
    lattice_simplex_counts,
    mixed_interior_count,
    mixed_total_count,
    mobius_invariant,
    recession_01_bounded,
    solve_leaf_cells,
    tau_instance,
    tie_pattern,
    tree_failures,
)
import troplin.cells as cellmod
from troplin.cells import (
    EnumerationLimit,
    NodeBudget,
    bound_bounded,
    bound_total,
    check_facet_bound,
    enumerate_cells,
    enumerate_local_cells,
    f_vector,
    is_bounded,
    unbounded_directions,
)
from troplin.chart import LocalContext
from troplin.conical import (
    HeightMatrix,
    build_tree,
    check_adjacency_input,
    is_caterpillar,
    is_conical,
    random_height_matrix,
    tau,
)
from troplin.diffcon import tighten
from troplin.matroid import Matroid
from troplin.examples import snowflake, two_pyramids, uniform_zero
from troplin.plucker import PlueckerVector
from troplin.semiring import INF, tdet


def tiny_gap():
    """Rank 2 on [4] with p_13 = 2^-300 and 0 elsewhere: a tree whose one
    bounded edge is 2^-300 long."""
    entries = {s: 0 for s in ((1, 2), (1, 4), (2, 3), (2, 4), (3, 4))}
    entries[(1, 3)] = Fraction(1, 2**300)
    p = PlueckerVector(4, 2, entries)
    assert p.validate().ok
    return p


def bases_of(cell):
    return {"".join(map(str, b)) for b in cell.face_matroid.bases}


# ---------------------------------------------------------------------------
# frozen complexes


def test_example1_global_complex():
    p = two_pyramids()
    cells = enumerate_cells(p)
    assert len(cells) == 7
    table = {frozenset(bases_of(c)): (c.dim, c.bounded) for c in cells}
    assert table == {
        frozenset({"12", "13", "14"}): (2, False),
        frozenset({"12", "23", "24"}): (2, False),
        frozenset({"13", "23", "34"}): (2, False),
        frozenset({"14", "24", "34"}): (2, False),
        frozenset({"13", "14", "23", "24"}): (2, True),
        frozenset({"12", "13", "14", "23", "24"}): (1, True),
        frozenset({"13", "14", "23", "24", "34"}): (1, True),
    }
    fv = f_vector(cells)
    assert fv.total == (2, 5)
    assert fv.bounded == (2, 1)
    # every cell lies in the chart region of each of its bases
    for c in cells:
        assert all(LocalContext(p, b).in_sigma(c.witness) for b in c.face_matroid.bases)
        assert p.contains(c.witness)


def test_example1_local_complexes():
    p = two_pyramids()
    local = enumerate_local_cells(LocalContext(p, (1, 4)))
    assert len(local) == 5
    fv = f_vector(local)
    assert fv.total == (2, 3)
    assert fv.bounded == (2, 1)
    # chart basis belongs to every local face matroid
    for c in local:
        assert (1, 4) in c.face_matroid.bases


def test_snowflake_f_vector():
    cells = enumerate_cells(snowflake())
    fv = f_vector(cells)
    assert fv.total == (4, 9)
    assert fv.bounded == (4, 3)


def test_star_complex_single_vertex():
    cells = enumerate_cells(uniform_zero(5, 2))
    fv = f_vector(cells)
    assert fv.total == (1, 5)
    assert fv.bounded == (1, 0)


def test_f_vector_rank_inference():
    cells = enumerate_cells(two_pyramids())
    assert f_vector(cells) == f_vector(cells, 2)
    with pytest.raises(ValueError):
        f_vector([])


def test_enumeration_limit():
    ctx = LocalContext(snowflake(), (1, 3))
    with pytest.raises(EnumerationLimit):
        enumerate_local_cells(ctx, max_nodes=2)


def test_node_budget_covers_the_whole_enumeration():
    p = snowflake()
    spent = []
    for basis in p.underlying_matroid().bases:
        budget = NodeBudget(10**6)
        enumerate_local_cells(LocalContext(p, basis), budget, owned_only=True)
        spent.append(budget.spent)
    cap = max(spent)
    assert sum(spent) > cap
    # every chart fits the cap alone ...
    for basis in p.underlying_matroid().bases:
        enumerate_local_cells(LocalContext(p, basis), cap, owned_only=True)
    # ... but the enumeration as a whole does not
    with pytest.raises(EnumerationLimit, match=f"exceeded {cap} tie-pattern nodes"):
        enumerate_cells(p, max_nodes=cap)
    assert enumerate_cells(p, max_nodes=sum(spent))


def test_enumeration_spends_a_passed_budget():
    # a NodeBudget is spent in place: the snowflake's whole enumeration
    # takes 76 nodes, so the int cap 76 is enough and 75 is not
    p = snowflake()
    budget = NodeBudget(10**6)
    cells = enumerate_cells(p, budget)
    assert budget.spent == 76
    assert enumerate_cells(p, 76) == cells
    with pytest.raises(EnumerationLimit, match="exceeded 75 tie-pattern nodes"):
        enumerate_cells(p, 75)
    tight = NodeBudget(75)
    with pytest.raises(EnumerationLimit, match="exceeded 75 tie-pattern nodes"):
        enumerate_cells(p, tight)
    assert tight.spent == 76


@pytest.mark.parametrize("limit, error", [
    (76.5, TypeError),
    (True, TypeError),
    (False, TypeError),
    ("80", TypeError),
    (None, TypeError),
    (-1, ValueError),
], ids=["float", "true", "false", "str", "none", "negative"])
def test_node_limits_are_checked_when_the_budget_is_built(limit, error):
    # a float, a bool, a str or None once reached the first node and either
    # ran as a cap or failed inside `spend`; they are refused up front, as
    # is a negative cap, through every entry point, before a node is spent
    p = snowflake()
    with pytest.raises(error, match="the node limit must be"):
        NodeBudget(limit)
    with pytest.raises(error, match="the node limit must be"):
        enumerate_cells(p, limit)
    with pytest.raises(error, match="the node limit must be"):
        enumerate_local_cells(LocalContext(p, (1, 3)), limit)


def test_ground_size_cap():
    p = uniform_zero(11, 2)
    with pytest.raises(ValueError):
        enumerate_cells(p)


# ---------------------------------------------------------------------------
# one find per cell, checked against the every-basis enumeration


OWNER_CASES = [
    pytest.param(two_pyramids, id="two_pyramids"),
    pytest.param(snowflake, id="snowflake"),
    pytest.param(lambda: uniform_zero(5, 2), id="uniform_zero_5_2"),
    pytest.param(tiny_gap, id="tiny_gap"),
] + [
    pytest.param(lambda k=kind, n=n, m=m: tau_instance(k, n, m), id=f"tau_{kind}_{n}_{m}")
    for kind in ("generic", "tie", "knockout")
    for n, m in ((5, 2), (6, 3), (7, 3))
]


@pytest.mark.parametrize("make", OWNER_CASES)
def test_each_cell_found_once_matches_all_bases(make):
    p = make()
    slow = all_bases_cells(p)
    fast = enumerate_cells(p)
    assert [c.key for c in fast] == [c.key for c, _ in slow]
    for cell, (ref, owners) in zip(fast, slow):
        assert (cell.dim, cell.bounded, cell.witness) == (ref.dim, ref.bounded, ref.witness)
        assert owners == cell.face_matroid.bases
        # certificates: the witness is in the space and its face matroid is
        # the max-weight definition's and loopless (owners == bases above
        # puts every chart basis that finds the cell in it)
        assert brute_member(p, cell.witness)
        assert cell.face_matroid.bases == brute_max_weight_bases(p, cell.witness)
        assert not cell.face_matroid.loops()


DIM_CASES = [
    pytest.param(lambda k=kind, n=n, m=m: tau_instance(k, n, m), id=f"tau_{kind}_{n}_{m}")
    for kind in ("generic", "tie", "knockout")
    for n, m in ((5, 2), (6, 3), (7, 3), (7, 4), (8, 3), (8, 4))
] + [
    pytest.param(lambda: direct_sum(two_pyramids(), tau_instance("tie", 5, 2)),
                 id="two_pyramids+tau_tie_5_2"),
]


@pytest.mark.parametrize("make", DIM_CASES)
def test_leaf_dimension_is_the_face_component_count(make):
    # enumeration counts the slot classes that each leaf's matrix fixes
    # (module docstring); the definition counts the face matroid's
    # components.  The first chart's full local complex adds the leaves
    # that no owned search reaches
    p = make()
    first = p.underlying_matroid().bases[0]
    cells = enumerate_cells(p) + enumerate_local_cells(LocalContext(p, first))
    for cell in cells:
        assert cell.dim == len(cell.face_matroid.components()), cell.key


@pytest.mark.parametrize("make", OWNER_CASES)
def test_skipped_charts_own_no_cell(make):
    # a basis with an element i outside it and no b < i in i's fundamental
    # circuit owns no cell: its owned search finds none and spends no node
    p = make()
    owners = {c.face_matroid.basis_masks[0] for c in enumerate_cells(p)}
    matroid = p.underlying_matroid()
    skipped = 0
    for basis, bmask in zip(matroid.bases, matroid.basis_masks):
        if all(matroid.fundamental_circuit_mask(bmask, 1 << i) & bmask & ((1 << i) - 1)
               for i in range(p.n) if not bmask >> i & 1):
            continue
        skipped += 1
        budget = NodeBudget(10**6)
        assert enumerate_local_cells(LocalContext(p, basis), budget, owned_only=True) == []
        assert budget.spent == 0
        assert bmask not in owners
    assert skipped


@pytest.mark.parametrize("make", OWNER_CASES)
def test_node_cap_is_the_sum_of_the_owned_searches(make):
    # --max-patterns caps the nodes of every owned search together: their
    # sum T is enough for the enumeration, and T - 1 is not
    p = make()
    spent = 0
    for basis in p.underlying_matroid().bases:
        budget = NodeBudget(10**6)
        enumerate_local_cells(LocalContext(p, basis), budget, owned_only=True)
        spent += budget.spent
    assert enumerate_cells(p, max_nodes=spent) == enumerate_cells(p)
    with pytest.raises(EnumerationLimit):
        enumerate_cells(p, max_nodes=spent - 1)


# ---------------------------------------------------------------------------
# Euler characteristics: every chart and the bounded complex are whole


EULER_CASES = [
    pytest.param(two_pyramids, id="two_pyramids"),
    pytest.param(snowflake, id="snowflake"),
    pytest.param(lambda: direct_sum(two_pyramids(), tau_instance("generic", 4, 2)),
                 id="two_pyramids+tau_generic_4_2"),
] + [
    pytest.param(lambda k=kind, n=n, m=m: tau_instance(k, n, m), id=f"tau_{kind}_{n}_{m}")
    for kind in ("generic", "tie", "knockout")
    for n, m in ((5, 2), (6, 3), (7, 3))
]


@pytest.mark.parametrize("make", EULER_CASES)
def test_local_complexes_have_the_euler_characteristic_of_r_m(make):
    # L_B is homeomorphic to R^m and the open cells partition it, so their
    # signs (-1)^dim sum to the compactly supported Euler characteristic
    # (-1)^m; a lost, doubled or mis-dimensioned cell breaks the sum.  The
    # global complex is checked too: the cells of L_B are the global cells
    # whose face matroid has B as a basis
    p = make()
    cells = enumerate_cells(p)
    for basis in p.underlying_matroid().bases:
        local = enumerate_local_cells(LocalContext(p, basis))
        assert sum((-1) ** c.dim for c in local) == (-1) ** p.m, basis
        through = [c for c in cells if basis in c.face_matroid.bases]
        assert sum((-1) ** c.dim for c in through) == (-1) ** p.m, basis


@pytest.mark.parametrize("make", EULER_CASES)
def test_bounded_complex_is_contractible(make):
    # the bounded complex modulo the lineality space is contractible (Hampe
    # 2015), so its cells, of dimension dim - c(M), have Euler characteristic 1
    p = make()
    components = len(p.underlying_matroid().components())
    cells = enumerate_cells(p)
    bounded = [c for c in cells if c.bounded]
    assert sum((-1) ** (c.dim - components) for c in bounded) == 1
    # a measured invariant, not a theorem here: over all cells the signs sum
    # to the Moebius invariant mu(M) of the underlying matroid, which is what
    # the recession fan, the Bergman fan of M, gives by Hall's theorem
    assert sum((-1) ** c.dim for c in cells) == mobius_invariant(p.underlying_matroid())
    # a conical space has at most bound_bounded bounded cells in each
    # dimension (the source paper); generic tau attains it exactly
    if is_conical(p, cells)[0]:
        fv = f_vector(cells, p.m)
        for i in range(1, p.m + 1):
            assert fv.bounded[i - 1] <= bound_bounded(p.n, p.m, i), i


# ---------------------------------------------------------------------------
# tie patterns against a brute-force oracle


def test_pattern_regions_against_oracles():
    # every tie pattern of every chart, solved by Fourier-Motzkin, against
    # the patterns the enumeration's witnesses realize
    # (the oracle's dim is m minus the rank of the equalities, a count that
    # shares nothing with the face-matroid components the library reads)
    # (boundedness is read modulo the slots of each underlying component,
    # which the direct sum makes more than one)
    cases = [(p, p.underlying_matroid().bases) for p in (two_pyramids(), snowflake(), tiny_gap())]
    for p in (tau_instance("generic", 5, 2), tau_instance("tie", 6, 3),
              direct_sum(two_pyramids(), tau_instance("generic", 4, 2))):
        bases = p.underlying_matroid().bases
        cases.append((p, (bases[0], bases[len(bases) // 2], bases[-1])))
    for p, chart_bases in cases:
        components = brute_components(p.underlying_matroid())
        for basis in chart_bases:
            groups = [[j for j, b in enumerate(basis, start=1) if b in comp]
                      for comp in components]
            ctx = LocalContext(p, basis)
            oracle = brute_local_cells(ctx)
            assert oracle
            for dim, _ in oracle.values():
                assert len(components) <= dim <= p.m
            owned = {pat for pat in oracle if all(b < i for i, tied in pat for b in tied)}
            for owned_only, expected in ((False, set(oracle)), (True, owned)):
                cells = enumerate_local_cells(ctx, owned_only=owned_only)
                got = {}
                for c in cells:
                    x = tuple(c.witness[b - 1] for b in basis)
                    got[tie_pattern(p, basis, x)] = c
                assert len(got) == len(cells)
                assert set(got) == expected
                for pat, c in got.items():
                    dim, system = oracle[pat]
                    assert c.dim == dim
                    assert c.bounded == recession_01_bounded(system, groups)


LATTICE_CASES = [
    pytest.param(two_pyramids, id="two_pyramids"),
    pytest.param(snowflake, id="snowflake"),
    pytest.param(lambda: direct_sum(two_pyramids(), tau_instance("generic", 4, 2)),
                 id="two_pyramids+tau_generic_4_2"),
] + [
    pytest.param(lambda k=kind, n=n, m=m: tau_instance(k, n, m), id=f"tau_{kind}_{n}_{m}")
    for kind, n, m in (("generic", 6, 3), ("generic", 7, 4), ("generic", 8, 3),
                       ("tie", 6, 3), ("tie", 7, 3), ("knockout", 6, 3), ("knockout", 7, 3))
]


def assert_same_search(ctx, owned_only):
    """The production search and the Fraction search with a solve per
    prefix return the same cells, witnesses included, and try the same
    tie-pattern nodes: the matrix prunes exactly the prefixes solve refuses."""
    budget = NodeBudget(10**9)
    cells = enumerate_local_cells(ctx, budget, owned_only=owned_only)
    assert (cells, budget.spent) == fraction_local_cells(ctx, owned_only)


@pytest.mark.parametrize("make", LATTICE_CASES)
def test_lattice_search_matches_the_fraction_search(make):
    # the systems on the lattice, int bounds in the unit D, find the cells
    # the Fraction systems find, witnesses included: owned cells at every
    # basis, and the full local complex at the first, middle and last one
    p = make()
    bases = p.underlying_matroid().bases
    for basis in bases:
        assert_same_search(LocalContext(p, basis), True)
    for basis in (bases[0], bases[len(bases) // 2], bases[-1]):
        assert_same_search(LocalContext(p, basis), False)


def test_dead_selections_skip_the_matrix_copy(monkeypatch):
    # a selection with an edge that closes a negative cycle against the
    # prefix's matrix alone is pruned before the copy, and still spends
    # its node: on the tau of fixtures/heights_3_6.json most selections die
    # so, and `tighten` runs fewer times than there are nodes, while the
    # cells and the nodes are those of the search that runs Bellman-Ford
    # on every prefix
    with open(Path(__file__).resolve().parent.parent / "fixtures" / "heights_3_6.json",
              encoding="utf-8") as fh:
        p = tau(HeightMatrix.from_json(json.load(fh)))
    calls = 0

    def counted(d, k, edges):
        nonlocal calls
        calls += 1
        return tighten(d, k, edges)

    monkeypatch.setattr(cellmod, "tighten", counted)
    budget = NodeBudget(10**9)
    cells = enumerate_cells(p, budget)
    expected, nodes = [], 0
    for basis in p.underlying_matroid().bases:
        found, spent = fraction_local_cells(LocalContext(p, basis), True)
        expected += found
        nodes += spent
    assert (cells, budget.spent) == (expected, nodes)
    assert 0 < calls < budget.spent


def disconnected_sum():
    """two_pyramids + tie-heavy tau (4,2): two underlying components."""
    p = direct_sum(two_pyramids(), tau_instance("tie", 4, 2))
    assert len(p.underlying_matroid().components()) == 2
    return p


def disconnected_unbounded_sum():
    """snowflake + generic tau (4,2): both components give unbounded cells."""
    p = direct_sum(snowflake(), tau_instance("generic", 4, 2))
    assert len(p.underlying_matroid().components()) == 2
    return p


NODE_CASES = [
    pytest.param(two_pyramids, id="two_pyramids"),
    pytest.param(snowflake, id="snowflake"),
    pytest.param(disconnected_sum, id="two_pyramids+tau_tie_4_2"),
    pytest.param(disconnected_unbounded_sum, id="snowflake+tau_generic_4_2"),
] + [
    pytest.param(lambda k=kind, n=n, m=m: tau_instance(k, n, m), id=f"tau_{kind}_{n}_{m}")
    for kind in ("generic", "tie", "knockout")
    for n, m in ((6, 3), (7, 3), (7, 4))
]


@pytest.mark.parametrize("make", NODE_CASES)
def test_matrix_search_matches_the_solver_search_node_for_node(make):
    # the owned and the full local search at every basis: the budget spent
    # by the difference-bound matrix search is the solve-per-prefix count
    p = make()
    for basis in p.underlying_matroid().bases:
        ctx = LocalContext(p, basis)
        assert_same_search(ctx, True)
        assert_same_search(ctx, False)


LEAF_CASES = [
    pytest.param(disconnected_sum, id="two_pyramids+tau_tie_4_2"),
    pytest.param(disconnected_unbounded_sum, id="snowflake+tau_generic_4_2"),
] + [
    pytest.param(lambda k=kind, n=n, m=m: tau_instance(k, n, m), id=f"tau_{kind}_{n}_{m}")
    for kind in ("generic", "tie", "knockout")
    for n, m in ((6, 3), (7, 4))
]


@pytest.mark.parametrize("make", LEAF_CASES)
def test_matrix_leaf_matches_the_solve_leaf(make):
    # the witness read off the closed matrix, the owned face scanned from
    # B's row, and boundedness read off the matrix's within-component
    # entries give the cells, witnesses, `bounded` flags and node counts of
    # the leaf that ran solve on a DifferenceSystem, scanned every support
    # row and asked `is_bounded`: owned cells at every basis, and the full
    # local complex at the first, middle and last one
    p = make()
    bases = p.underlying_matroid().bases
    full = {bases[0], bases[len(bases) // 2], bases[-1]}
    for basis in bases:
        ctx = LocalContext(p, basis)
        for owned_only in (True, False) if basis in full else (True,):
            budget = NodeBudget(10**9)
            cells = enumerate_local_cells(ctx, budget, owned_only=owned_only)
            assert (cells, budget.spent) == solve_leaf_cells(ctx, owned_only)


# ---------------------------------------------------------------------------
# counting formulas


def test_bound_spot_values():
    assert bound_bounded(4, 2, 1) == 2
    assert bound_bounded(4, 2, 2) == 1
    assert bound_total(4, 2, 2) == 3
    assert bound_bounded(6, 3, 1) == 6
    assert bound_bounded(6, 3, 2) == 6
    assert bound_bounded(6, 3, 3) == 1


@pytest.mark.parametrize("bound", [bound_total, bound_bounded])
@pytest.mark.parametrize("i", [0, 3])
def test_bounds_refuse_a_dimension_outside_1_to_m(bound, i):
    with pytest.raises(ValueError, match=r"^need 1 <= i <= m <= n$"):
        bound(4, 2, i)


def test_bound_tables_match_direct_binomials():
    for n, m in ((4, 2), (6, 3), (8, 4)):
        for i in range(1, m + 1):
            assert bound_bounded(n, m, i) == math.comb(n - i - 1, i - 1) * math.comb(
                n - 2 * i, m - i
            )
            assert bound_total(n, m, i) == math.comb(n - i - 1, m - i) * math.comb(
                n - 1, i - 1
            )


def test_mixed_counts_at_k0_match_lattice_points():
    # k = 0 counts are the lattice points of the dilated simplex s * D_{r-1},
    # and the caps at i = m count the same vertices
    for s, r in ((3, 3), (2, 2), (4, 2), (2, 4), (5, 3)):
        total, interior = lattice_simplex_counts(s, r)
        assert mixed_total_count(s, r, 0) == total == bound_total(s + r, r, r)
        assert mixed_interior_count(s, r, 0) == interior == bound_bounded(s + r, r, r)
    assert mixed_total_count(3, 3, 0) == 10
    assert mixed_interior_count(3, 3, 0) == 1


def test_caps_equal_fine_counts_under_substitution():
    # the binomial caps against the multinomial counts of a fine mixed
    # subdivision, which attains them; at n = m the subdivision is one point
    for n in range(1, 13):
        for m in range(1, n + 1):
            s, r = n - m, m
            for i in range(1, m + 1):
                k = m - i
                assert bound_bounded(n, m, i) == mixed_interior_count(s, r, k)
                assert bound_total(n, m, i) == mixed_total_count(s, r, k)


def test_local_counts_respect_caps():
    for p in (two_pyramids(), snowflake(), uniform_zero(5, 2)):
        for basis in p.underlying_matroid().bases:
            fv = f_vector(enumerate_local_cells(LocalContext(p, basis)), p.m)
            for i in range(1, p.m + 1):
                assert fv.total[i - 1] <= bound_total(p.n, p.m, i)
                assert fv.bounded[i - 1] <= bound_bounded(p.n, p.m, i)


def test_caps_assume_a_connected_underlying_matroid():
    # seeded tau instances with a connected underlying matroid stay under
    # the caps in every chart, and under the bounded cap globally; the
    # disconnected U(1,1) + U(1,2) has a bounded 2-cell against a bounded
    # cap of 0, as it is bounded modulo its components' wider lineality
    checked = 0
    for kind in ("generic", "tie", "knockout"):
        for n, m in ((4, 2), (5, 2), (6, 2), (5, 3), (6, 3), (7, 3)):
            p = tau_instance(kind, n, m)
            matroid = p.underlying_matroid()
            if len(matroid.components()) > 1:
                continue
            checked += 1
            dims = range(1, m + 1)
            for basis in matroid.bases:
                fv = f_vector(enumerate_local_cells(LocalContext(p, basis)), m)
                assert all(fv.total[i - 1] <= bound_total(n, m, i) for i in dims)
                assert all(fv.bounded[i - 1] <= bound_bounded(n, m, i) for i in dims)
            fv = f_vector(enumerate_cells(p), m)
            assert all(fv.bounded[i - 1] <= bound_bounded(n, m, i) for i in dims)
    assert checked == 17
    p = PlueckerVector(3, 2, {(1, 2): 0, (1, 3): 0})
    assert p.validate().ok
    assert p.underlying_matroid().components() == ((1,), (2, 3))
    assert f_vector(enumerate_cells(p), 2).bounded == (0, 1)
    assert bound_bounded(3, 2, 2) == 0


# ---------------------------------------------------------------------------
# facet bound and the minimal-cell adjacency tree (m = 2)


def test_facet_bound_on_uniform_fixtures():
    rep = check_facet_bound(two_pyramids())
    assert rep.facet_cells == 2
    assert rep.bound == 2
    assert rep.ok
    rep = check_facet_bound(snowflake())
    assert rep.facet_cells == 4
    assert rep.bound == math.comb(4, 1)
    assert rep.ok


def test_facet_bound_refuses_partial_support():
    p = PlueckerVector(4, 3, {(1, 2, 3): 0, (1, 2, 4): 0})
    assert p.validate().ok
    with pytest.raises(ValueError):
        check_facet_bound(p)


def test_adjacency_graph_example1():
    p = two_pyramids()
    tree = build_tree(p, enumerate_cells(p))
    assert len(tree.node_bases) == 2
    assert len(tree.edges) == 1
    assert len(tree.leaves) == 4
    dot = tree.to_cells_dot()
    assert dot.startswith("graph cells {")
    assert dot.count("--") == 1


def _connected_rank2_knockouts(count):
    """Seeded rank-2 tau vectors with INF heights, non-uniform support and a
    connected underlying matroid."""
    rng = random.Random("rank2-knockout")
    found = []
    while len(found) < count:
        n = rng.randint(4, 7)
        rows = [[INF if rng.random() < 0.3 else rng.randrange(6) for _ in range(n - 2)]
                for _ in range(2)]
        if not all(any(row[j] is not INF for row in rows) for j in range(n - 2)):
            continue
        p = tau(HeightMatrix(n, (1, 2), rows))
        if (len(p.support_masks()) < math.comb(n, 2)
                and len(brute_components(p.underlying_matroid())) == 1):
            found.append(p)
    return found


def test_adjacency_incidences_on_connected_rank2():
    # 2 minimal cells per bounded edge and 1 per ray, also without uniform
    # support, where leaves stand for parallel classes
    for p in [tiny_gap()] + _connected_rank2_knockouts(12):
        check_adjacency_input(p)
        cells = enumerate_cells(p)
        tree = build_tree(p, cells)
        assert tree_failures(p, cells, tree) == []
        assert len(tree.edges) == sum(c.dim == 2 and c.bounded for c in cells)
        assert len(tree.edges) == len(tree.node_bases) - 1


def test_tree_leaves_are_parallel_classes():
    # the tree theorem without uniform support: each ray hangs its parallel
    # class, and tau vectors are conical, so their trees are caterpillars
    for p in _connected_rank2_knockouts(50):
        cells = enumerate_cells(p)
        tree = build_tree(p, cells)
        assert tree_failures(p, cells, tree) == []
        assert is_caterpillar(tree)
        assert is_conical(p, cells)[0]


@pytest.mark.parametrize("n, support", [
    (4, ((1, 3), (1, 4), (2, 3), (2, 4))),  # U(1,2) + U(1,2)
    (2, ((1, 2),)),  # two coloops
    (4, ((1, 2), (1, 3), (2, 3))),  # 4 is a loop
])
def test_adjacency_input_refuses_disconnected(n, support):
    p = PlueckerVector(n, 2, {s: 0 for s in support})
    assert p.validate().ok
    with pytest.raises(ValueError, match="connected"):
        check_adjacency_input(p)
    with pytest.raises(ValueError, match="connected"):
        build_tree(p)


def test_adjacency_graph_rejects_rank3():
    v = uniform_zero(4, 3)
    with pytest.raises(ValueError, match="rank 2 only"):
        check_adjacency_input(v)
    with pytest.raises(ValueError, match="rank 2 only"):
        build_tree(v, enumerate_cells(v))


# ---------------------------------------------------------------------------
# boundedness modulo the lineality of the underlying components


def test_is_bounded_frozen_cases():
    u24 = Matroid(4, [(1, 3), (1, 4), (2, 3), (2, 4)])  # U(1,2) + U(1,2)
    # the one cell of U(1,2) + U(1,2): both components are lineality
    assert is_bounded(u24, u24)
    assert list(unbounded_directions(u24, u24)) == []
    uniform = uniform_zero(4, 2).underlying_matroid()
    # the ray of leaf 1 in the star: {1} is a coloop of the face only
    ray = Matroid(4, [(1, 2), (1, 3), (1, 4)])
    assert list(unbounded_directions(ray, uniform)) == [(1,)]
    assert not is_bounded(ray, uniform)
    assert is_bounded(uniform, uniform)  # the star's vertex
    # a 2-cell of U(2,4) with face {13, 14, 23, 24}: an edge between two vertices
    assert is_bounded(u24, uniform)


def rank1_3():
    """Rank 1 on [3]: the space is its lineality line, one bounded cell."""
    p = PlueckerVector(3, 1, {(1,): 0, (2,): 1, (3,): 3})
    assert p.validate().ok
    return p


SUM_PIECES = {  # connected factors: name -> (ground size, constructor)
    "rank1_3": (3, rank1_3),
    "two_pyramids": (4, two_pyramids),
    "uniform_zero_4_2": (4, lambda: uniform_zero(4, 2)),
    "snowflake": (6, snowflake),  # not conical
    **{
        f"tau_{n}_{m}": (n, lambda n=n, m=m: tau(
            random_height_matrix(n, m, rng=random.Random(f"direct-sum/{n}/{m}"))))
        for n, m in ((4, 2), (5, 2), (5, 3))
    },
}
SUM_CASES = [
    (a, b) for a, b in combinations_with_replacement(SUM_PIECES, 2)
    if SUM_PIECES[a][0] + SUM_PIECES[b][0] <= 9
]


def _convolve(a, b):
    # index i counts dimension i + 1, and dimensions add under the product
    out = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j + 1] += x * y
    return tuple(out)


@pytest.mark.parametrize("first, second", SUM_CASES)
def test_direct_sum_is_the_product_complex(first, second):
    p1, p2 = SUM_PIECES[first][1](), SUM_PIECES[second][1]()
    p = direct_sum(p1, p2)
    assert len(brute_components(p.underlying_matroid())) == 2
    cells1, cells2 = enumerate_cells(p1), enumerate_cells(p2)
    cells = enumerate_cells(p)

    def product_key(c1, c2):
        return tuple(sorted(a + tuple(e + p1.n for e in b) for a in c1.key for b in c2.key))

    want = {product_key(c1, c2): (c1, c2) for c1 in cells1 for c2 in cells2}
    assert sorted(want) == [c.key for c in cells]
    for c in cells:
        c1, c2 = want[c.key]
        assert c.dim == c1.dim + c2.dim
        assert c.bounded == (c1.bounded and c2.bounded)
    fv1, fv2 = f_vector(cells1, p1.m), f_vector(cells2, p2.m)
    assert f_vector(cells, p.m).bounded == _convolve(fv1.bounded, fv2.bounded)
    assert is_conical(p, cells)[0] == (is_conical(p1, cells1)[0] and is_conical(p2, cells2)[0])



def _left_for_the_collector(call):
    """How many objects a second call of ``call`` leaves to the cyclic
    garbage collector: unreachable at once, yet not freed when it returns.
    The first call fills the vector's caches, which are not garbage."""
    call()
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        gc.enable()


def _capped(p, cap):
    """`enumerate_cells` stopped by its node cap, the limit caught here."""
    try:
        enumerate_cells(p, cap)
    except EnumerationLimit:
        return
    raise AssertionError(f"{cap} nodes did not stop the search")


def test_searches_leave_no_reference_cycles():
    # a search left in a cycle, finished or stopped by its cap, would keep
    # its cells, matrices and selection edge lists alive until a collection
    golden = Path(__file__).parent / "golden" / "tau_3_6.json"
    p = PlueckerVector.from_json(json.loads(golden.read_text()))
    assert p.validate().ok
    assert _left_for_the_collector(lambda: enumerate_cells(p)) == 0
    assert _left_for_the_collector(lambda: _capped(p, 150)) == 0
    rows = [[Fraction(1), Fraction(2), INF], [Fraction(3), INF, 5], [0, 1, Fraction(1, 2)]]
    assert _left_for_the_collector(lambda: tdet(rows)) == 0
