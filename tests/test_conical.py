import random
from fractions import Fraction

import pytest

from oracles import augment, brute_relation_failures, padded_minors, tree_failures
from troplin import kernels
from troplin.cells import enumerate_cells, f_vector
from troplin.conical import (
    HeightMatrix,
    build_tree,
    is_caterpillar,
    is_conical,
    local_complex_is_fine,
    random_height_matrix,
    tau,
)
from troplin.examples import snowflake, tree_metric_plucker, two_pyramids, uniform_zero
from troplin.matroid import Matroid, transversal
from troplin.plucker import PlueckerVector
from troplin.semiring import INF


def small_heights():
    return HeightMatrix(4, (1, 2), [[1, 2], [3, 4]])


def test_height_matrix_shape_checks():
    with pytest.raises(ValueError):
        HeightMatrix(4, (1, 2), [[1, 2]])  # one row per basis element
    with pytest.raises(ValueError):
        HeightMatrix(4, (1, 2), [[1], [2]])  # one column per non-basis element
    with pytest.raises(TypeError):
        HeightMatrix(4, (1, 2), [[0.5, 1], [2, 3]])
    # B = [1, 2, 2] is not read as {1, 2}, although two rows would fit it
    with pytest.raises(ValueError, match="repeated element 2"):
        HeightMatrix(4, (1, 2, 2), [[1, 2], [3, 4]])
    # a string is not a list of heights, though it has the right length
    with pytest.raises(ValueError, match="got the string '12'"):
        HeightMatrix(4, (1, 2), ["12", "34"])
    with pytest.raises(ValueError, match="got the string '12'"):
        HeightMatrix(3, (1, 2), "12")


def test_height_matrix_row_i_holds_the_heights_of_basis_i():
    # rows follow the caller's B, in any order, and are stored by B ascending
    v = HeightMatrix(4, (2, 1), [[1, 2], [3, 4]])
    w = HeightMatrix(4, (1, 2), [[3, 4], [1, 2]])
    assert v.basis == (1, 2) and v.rows == w.rows
    assert v.rows[1][0] == 1
    assert tau(v).to_json() == tau(w).to_json()
    assert tau(v).entry((1, 3)) == 1  # the height of 2 in column 3


def test_height_matrix_accessors():
    v = small_heights()
    assert v.m == 2
    assert v.others == (3, 4)
    assert v.rows[1][0] == 3
    assert v.family(3) == (1, 2)
    v2 = HeightMatrix(4, (1, 2), [[1, INF], [INF, INF]])
    assert v2.families() == {3: (1,), 4: ()}


def test_height_matrix_json_round_trip_and_errors():
    v = small_heights()
    w = HeightMatrix.from_json(v.to_json())
    assert w.n == v.n and w.basis == v.basis and w.rows == v.rows
    with pytest.raises(ValueError, match="V"):
        HeightMatrix.from_json({"n": 4, "B": [1, 2]})
    with pytest.raises(ValueError, match="B"):
        HeightMatrix.from_json({"n": 4, "V": [[1]]})


def test_augment_layout():
    rows = augment(small_heights())
    assert rows[0] == (Fraction(0), INF, Fraction(1), Fraction(2))
    assert rows[1] == (INF, Fraction(0), Fraction(3), Fraction(4))


def test_tau_frozen_small_case():
    p = tau(small_heights())
    assert p.validated
    want = {
        (1, 2): 0, (1, 3): 3, (1, 4): 4,
        (2, 3): 1, (2, 4): 2, (3, 4): 5,
    }
    assert {s: p.entry(s) for s in p.support()} == want


def test_tau_underlying_is_transversal_with_inf_entries():
    v = HeightMatrix(4, (1, 2), [[1, INF], [INF, INF]])
    p = tau(v)
    M = p.underlying_matroid()
    assert M == transversal(4, (1, 2), v.families())
    assert M.loops() == (4,)  # empty family
    assert p.support() == [(1, 2), (2, 3)]
    # seeded knockout matrices: tau no longer compares its support with the
    # transversal matroid, so the comparison lives here
    rng = random.Random("tau-knockout")
    for n, m in ((4, 2), (5, 2), (5, 3), (6, 2), (6, 3), (7, 3)):
        for basis in (tuple(range(1, m + 1)), tuple(range(n - m + 1, n + 1))):
            for _ in range(4):
                v = random_height_matrix(n, m, basis=basis, rng=rng, generic=False,
                                         inf_probability=0.35)
                M = tau(v).underlying_matroid()
                assert M == transversal(n, v.basis, v.families())


def cross_check_matrices():
    """84 seeded height matrices: generic, tie-heavy and knockout at (3,1)
    to (10,5), each on the root basis {1..m} and on a random other one.  The
    shapes include rank 1, m = n - 1 and n = m, where V has no columns.
    The knockout matrices on the other basis have an all-INF first column,
    so that column's element is a loop.  Per shape one more matrix has
    negative heights with distinct denominators."""
    rng = random.Random("tau-minors")
    out = []
    for n, m in ((3, 1), (4, 1), (3, 3), (4, 2), (5, 2), (5, 3), (5, 4), (6, 3),
                 (7, 3), (8, 3), (8, 4), (10, 5)):
        for basis in (range(1, m + 1), sorted(rng.sample(range(1, n + 1), m))):
            loop = tuple(basis) != tuple(range(1, m + 1))
            out.append(random_height_matrix(n, m, basis=basis, rng=rng))
            ties = [[rng.choice((0, 1, 2)) for _ in range(n - m)] for _ in range(m)]
            out.append(HeightMatrix(n, basis, ties))
            knocked = [[INF if (loop and j == 0) or rng.random() < 0.3 else rng.randrange(10)
                        for j in range(n - m)] for _ in range(m)]
            out.append(HeightMatrix(n, basis, knocked))
        primes = iter((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
                       67, 71, 73, 79, 83, 89, 97))
        negative = [[Fraction(-rng.randrange(1, 50), next(primes)) for _ in range(n - m)]
                    for _ in range(m)]
        out.append(HeightMatrix(n, range(1, m + 1), negative))
    return out


def test_tau_matches_the_padded_matrix_minors():
    # tau reads its minors off V and trusts that they form a valuated matroid
    # with a matroid support; here the minors are checked against the padded
    # matrix [I | V] and the vector against the Pluecker relations and the
    # scanning constructor; the relations, 44,100 pairs a matrix at (10,5),
    # are brute-forced up to n = 8 only
    matrices = cross_check_matrices()
    assert any(v.basis != tuple(range(1, v.m + 1)) for v in matrices)
    loops = 0
    for v in matrices:
        p = tau(v)
        assert {s: p.entry(s) for s in p.support()} == padded_minors(v), v
        if v.n <= 8:
            assert brute_relation_failures(p) == (), v
        assert p.underlying_matroid() == Matroid(v.n, p.support()), v
        loops += bool(p.underlying_matroid().loops())
    assert loops >= 7


def test_tau_runs_no_validation_scan(monkeypatch):
    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(PlueckerVector, "validate",
                        counting("validate", PlueckerVector.validate))
    monkeypatch.setattr(kernels, "exchange_violation",
                        counting("exchange_violation", kernels.exchange_violation))
    p = tau(random_height_matrix(8, 4, seed=3))
    assert p.validated
    assert calls == []
    # the wrappers do see the scans when they run: a valid vector's
    # relations prove its support a matroid, so only a non-matroid support
    # such as {12, 34} on [4] reaches the exchange scan
    assert p.validate().ok
    assert calls == ["validate"]
    assert not PlueckerVector(4, 2, {(1, 2): 0, (3, 4): 0}).validate().support_ok
    assert calls == ["validate", "validate", "exchange_violation"]


def test_tau_root_basis_always_zero():
    rng = random.Random(99)
    for _ in range(10):
        v = random_height_matrix(5, 2, rng=rng)
        p = tau(v)
        assert p.entry(v.basis) == 0


# ---------------------------------------------------------------------------
# conical detection


def test_is_conical_fixtures():
    assert is_conical(two_pyramids()) == (True, (1, 3))
    assert is_conical(snowflake()) == (False, None)
    flag, witness = is_conical(uniform_zero(5, 2))
    assert flag and witness == (1, 2)


def test_is_conical_on_disconnected_matroid():
    # U(1,2) + U(1,2): its one cell is its 2-dim lineality, so it is bounded
    p = PlueckerVector(4, 2, {(1, 3): 0, (1, 4): 0, (2, 3): 0, (2, 4): 0})
    assert p.validate().ok
    assert [(c.dim, c.bounded) for c in enumerate_cells(p)] == [(2, True)]
    assert is_conical(p) == (True, (1, 3))


def test_tau_is_conical_at_root():
    v = random_height_matrix(6, 3, rng=random.Random(1729))
    p = tau(v)
    flag, witness = is_conical(p)
    assert flag
    assert witness == (1, 2, 3)


# ---------------------------------------------------------------------------
# rank-2 trees


def caterpillar_6():
    # internal path a-b-c-d; leaves 1,2 at a; 3 at b; 4 at c; 5,6 at d;
    # every edge has length 1, so d(i,j) = 2 + (internal path length)
    pos = {1: 0, 2: 0, 3: 1, 4: 2, 5: 3, 6: 3}
    d = {(i, j): 2 + abs(pos[i] - pos[j])
         for i in range(1, 7) for j in range(i + 1, 7)}
    return tree_metric_plucker(6, d)


def test_tree_example1():
    t = build_tree(two_pyramids())
    assert len(t.node_bases) == 2
    assert t.edges == ((0, 1),)
    assert sorted(t.leaves) == [(1, 0), (2, 0), (3, 1), (4, 1)]
    assert is_caterpillar(t)


def test_tree_star():
    t = build_tree(uniform_zero(5, 2))
    assert len(t.node_bases) == 1
    assert t.edges == ()
    assert sorted(label for label, _ in t.leaves) == [1, 2, 3, 4, 5]
    assert is_caterpillar(t)


def test_tree_snowflake():
    t = build_tree(snowflake())
    assert len(t.node_bases) == 4
    assert len(t.edges) == 3
    degrees = sorted(t.internal_degree(i) for i in range(4))
    assert degrees == [1, 1, 1, 3]
    assert not is_caterpillar(t)


def test_tree_caterpillar_metric():
    p = caterpillar_6()
    assert p.validate().ok
    t = build_tree(p)
    assert len(t.node_bases) == 4
    assert is_caterpillar(t)
    flag, _ = is_conical(p)
    assert flag


def test_caterpillar_iff_conical_on_rank2_fixtures():
    for p in (two_pyramids(), uniform_zero(4, 2), uniform_zero(5, 2),
              snowflake(), caterpillar_6()):
        flag, _ = is_conical(p)
        cells = enumerate_cells(p)
        tree = build_tree(p, cells)
        assert tree_failures(p, cells, tree) == []
        assert flag == is_caterpillar(tree)


def random_tree(rng, n):
    """A seeded tree with leaves 1..n, internal nodes of degree at least 3
    and integer edge lengths in [1, 4].  Each new leaf either joins an
    internal node or hangs off a new node that splits an edge in two.

    Returns (edges {frozenset({u, v}): length}, internal node count).
    Internal nodes are 0, 1, ...; leaf i is the node -i.
    """
    edges = {frozenset((0, -i)): rng.randint(1, 4) for i in (1, 2, 3)}
    count = 1
    for leaf in range(4, n + 1):
        if rng.random() < 0.3:
            at = rng.randrange(count)
        else:
            at = count
            count += 1
            u, v = rng.choice(sorted(tuple(sorted(e)) for e in edges))
            del edges[frozenset((u, v))]
            edges[frozenset((u, at))] = rng.randint(1, 4)
            edges[frozenset((at, v))] = rng.randint(1, 4)
        edges[frozenset((at, -leaf))] = rng.randint(1, 4)
    return edges, count


def leaf_distances(edges, n):
    adj = {}
    for e, length in edges.items():
        u, v = e
        adj.setdefault(u, []).append((v, length))
        adj.setdefault(v, []).append((u, length))
    dist = {}
    for i in range(1, n + 1):
        seen = {-i: 0}
        frontier = [-i]
        while frontier:
            u = frontier.pop()
            for v, length in adj[u]:
                if v not in seen:
                    seen[v] = seen[u] + length
                    frontier.append(v)
        dist.update({(i, j): seen[-j] for j in range(i + 1, n + 1)})
    return dist


def test_tree_matches_generating_tree():
    rng = random.Random("tree-metrics")
    shapes = set()
    for _ in range(20):
        n = rng.randint(4, 9)
        edges, count = random_tree(rng, n)
        p = tree_metric_plucker(n, leaf_distances(edges, n))
        cells = enumerate_cells(p)
        t = build_tree(p, cells)
        assert tree_failures(p, cells, t) == []
        # per internal node: its internal degree and the leaves it carries
        want = sorted(
            (sum(1 for e in edges if k in e and min(e) >= 0),
             tuple(sorted(-min(e) for e in edges if k in e and min(e) < 0)))
            for k in range(count)
        )
        got = sorted(
            (t.internal_degree(i), tuple(sorted(label for label, at in t.leaves if at == i)))
            for i in range(len(t.node_bases))
        )
        assert got == want
        shapes.add(tuple(sorted(d for d, _ in want)))
    assert len(shapes) >= 8
    assert any(max(shape) >= 3 for shape in shapes)  # some are not caterpillars


def test_tree_rejects_higher_rank():
    with pytest.raises(ValueError):
        build_tree(uniform_zero(4, 3))


def test_tree_dot_output():
    dot = build_tree(two_pyramids()).to_dot()
    assert "L1" in dot and "L4" in dot
    assert dot.count("--") == 5  # 1 internal edge + 4 leaf edges


# ---------------------------------------------------------------------------
# generic matrices


def test_random_height_matrix_is_deterministic():
    a = random_height_matrix(5, 2, seed=7)
    b = random_height_matrix(5, 2, seed=7)
    assert a.rows == b.rows
    c = random_height_matrix(5, 2, seed=8)
    assert c.rows != a.rows


def test_random_height_matrix_inf_knockout():
    rng = random.Random(13)
    v = random_height_matrix(5, 2, rng=rng, inf_probability=1.0)
    assert all(x is INF for row in v.rows for x in row)
    p = tau(v)
    assert p.support() == [(1, 2)]


def test_generic_matrices_give_fine_local_complexes():
    rng = random.Random(1729)
    v = random_height_matrix(6, 3, rng=rng)
    p = tau(v)
    assert local_complex_is_fine(p, v.basis)


def test_degenerate_matrix_is_not_fine():
    v = HeightMatrix(6, (1, 2, 3), [[0, 0, 0], [0, 0, 0], [0, 0, 0]])
    p = tau(v)
    assert {s: p.entry(s) for s in p.support()} == {
        s: Fraction(0) for s in p.support()
    }
    assert not local_complex_is_fine(p, (1, 2, 3))


def test_conical_f_vector_attains_bounded_caps():
    from troplin.cells import bound_bounded

    v = random_height_matrix(6, 3, rng=random.Random(1729))
    p = tau(v)
    fv = f_vector(enumerate_cells(p))
    assert fv.bounded == tuple(bound_bounded(6, 3, i) for i in (1, 2, 3))
