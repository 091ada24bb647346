"""Independent brute-force oracles used by the test suite.

Everything in here is deliberately naive: straight enumeration, no pruning,
no shared code with the library internals beyond data types.  Slow is fine;
wrong is not.  The exceptions are slow paths that library fast paths
replaced, kept here to check the fast paths against: `all_bases_cells`, and
the `fraction_*` chart and circuit-membership formulas that the integer
lattice replaced.
"""

import math
from fractions import Fraction
from itertools import combinations, permutations, product

from troplin.cells import enumerate_local_cells
from troplin.chart import LocalContext
from troplin.diffcon import Constraint, DifferenceSystem
from troplin.semiring import INF, is_finite, is_orthogonal


def brute_tdet(rows):
    """Tropical determinant by full permutation expansion."""
    k = len(rows)
    best = INF
    for perm in permutations(range(k)):
        acc = Fraction(0)
        ok = True
        for r in range(k):
            v = rows[r][perm[r]]
            if not is_finite(v):
                ok = False
                break
            acc += v
        if ok and (best is INF or acc < best):
            best = acc
    return best


def brute_member(p, point):
    """Membership straight from the definition: for every (m+1)-subset T the
    min of point_i + p_{T - i} over i in T is infinite or attained twice."""
    for t in combinations(range(1, p.n + 1), p.m + 1):
        terms = []
        for i in t:
            rest = tuple(x for x in t if x != i)
            terms.append(point[i - 1] + p.entry(rest))
        finite = [x for x in terms if is_finite(x)]
        if finite and sum(1 for x in finite if x == min(finite)) < 2:
            return False
    return True


def brute_max_weight_bases(p, point):
    """The matroid at a point straight from its definition: every m-subset A
    with p_A finite that maximizes sum_{i in A} point_i - p_A, in
    lexicographic order."""
    weights = {}
    for a_set in combinations(range(1, p.n + 1), p.m):
        val = p.entry(a_set)
        if is_finite(val):
            weights[a_set] = sum(point[i - 1] for i in a_set) - val
    best = max(weights.values())
    return tuple(a_set for a_set, w in weights.items() if w == best)


def brute_relation_failures(p):
    """Every failing three-term relation, straight from the definition: for
    each (m-1)-subset S and (m+1)-subset T (S inside T included), the min of
    p_{S+i} + p_{T-i} over i in T - S is finite and attained only once.
    Returns the (S, T) pairs in lexicographic order, S first."""
    elems = range(1, p.n + 1)
    bad = []
    for s_set in combinations(elems, p.m - 1):
        for t_set in combinations(elems, p.m + 1):
            terms = []
            for i in t_set:
                if i in s_set:
                    continue
                terms.append(p.entry(tuple(sorted(s_set + (i,))))
                             + p.entry(tuple(x for x in t_set if x != i)))
            finite = [x for x in terms if is_finite(x)]
            if finite and finite.count(min(finite)) < 2:
                bad.append((s_set, t_set))
    return tuple(bad)


def brute_circuit_supports(matroid):
    """All minimal dependent subsets, by raw enumeration."""
    n, m = matroid.n, matroid.m

    def independent(subset):
        return any(set(subset) <= set(b) for b in matroid.bases)

    circuits = set()
    for size in range(1, m + 2):
        for sub in combinations(range(1, n + 1), size):
            if independent(sub):
                continue
            if any(set(c) < set(sub) for c in circuits):
                continue
            circuits.add(sub)
    return circuits


def brute_components(matroid):
    """Connected components straight from the definition: e ~ f iff some
    circuit holds both, closed transitively.  An element in no circuit (a
    coloop) and a loop stand alone.  Sorted by least element."""
    circuits = brute_circuit_supports(matroid)
    comps = [{e} for e in range(1, matroid.n + 1)]
    for c in circuits:
        meet = [g for g in comps if g & set(c)]
        comps = [g for g in comps if not g & set(c)] + [set().union(*meet)]
    return tuple(sorted(tuple(sorted(g)) for g in comps))


def brute_rank(matroid, subset):
    """Rank of a subset: the most elements of it that one basis holds."""
    return max(len(set(b) & set(subset)) for b in matroid.bases)


def brute_exchange_violation(bases):
    """Every failing triple of the basis-exchange axiom, straight from the
    definition: (A, B, a) with a in A - B such that no b in B - A makes
    A - a + b a basis.  ``bases`` is an iterable of element collections."""
    family = {frozenset(b) for b in bases}
    bad = set()
    for a_set in family:
        for b_set in family:
            for a in a_set - b_set:
                if not any((a_set - {a}) | {b} in family for b in b_set - a_set):
                    bad.add((a_set, b_set, a))
    return bad


def all_bases_cells(p):
    """The cell complex found the slow way: the full local complex at every
    basis of the support, merged by face matroid.

    Returns (cell, owners) pairs sorted by key, where owners lists every
    basis whose chart found the cell and the kept cell is the first find.
    Asserts that no chart finds one cell twice and that every find of a
    cell agrees on its dimension and boundedness.
    """
    merged = {}
    for basis in p.underlying_matroid().bases:
        local = enumerate_local_cells(LocalContext(p, basis))
        keys = [c.key for c in local]
        assert len(set(keys)) == len(keys), f"two tie patterns at {basis} gave one cell"
        for cell in local:
            if cell.key not in merged:
                merged[cell.key] = (cell, [])
            first, owners = merged[cell.key]
            assert (first.dim, first.bounded) == (cell.dim, cell.bounded), (
                f"cell {cell.key} found with inconsistent geometry at {basis}"
            )
            owners.append(basis)
    return [(cell, tuple(owners)) for cell, owners in (merged[k] for k in sorted(merged))]


def tie_options(p, basis):
    """Per non-basis element i (ascending): {b: p_{B-b+i} - p_B} over the
    basis elements b whose exchange B - b + i is in the support."""
    p_b = p.entry(basis)
    out = []
    for i in range(1, p.n + 1):
        if i in basis:
            continue
        opts = {}
        for b in basis:
            val = p.entry(tuple(x for x in basis if x != b) + (i,))
            if is_finite(val):
                opts[b] = val - p_b
        out.append((i, opts))
    return out


def fraction_options(p, basis):
    """`LocalContext.options` in Fractions: per non-basis element i
    (ascending), ((slot of b, p_{B-b+i} - p_B), ...) over the basis elements
    b of i's fundamental circuit, ascending."""
    slot = {b: j for j, b in enumerate(basis, start=1)}
    return tuple(
        (i, tuple((slot[b], opts[b]) for b in sorted(opts)))
        for i, opts in tie_options(p, basis)
    )


def fraction_chart(p, basis, x):
    """The chart formula in Fractions, the path the lattice chart replaced:
    v_b = x_b on B, and v_i = min over b of x_b + p_{B-b+i} - p_B."""
    v = [None] * p.n
    for b, xb in zip(basis, x):
        v[b - 1] = Fraction(xb)
    for i, opts in tie_options(p, basis):
        v[i - 1] = min(x[basis.index(b)] + delta for b, delta in opts.items())
    return tuple(v)


def fraction_failing_circuit(p, point):
    """The first circuit of `p.all_circuits()` the point is not tropically
    orthogonal to, tested in Fractions; None for a member.  This is the
    circuit loop that the lattice membership test replaced."""
    pt = tuple(Fraction(x) for x in point)
    return next((c for c in p.all_circuits() if not is_orthogonal(c.entries, pt)), None)


def tie_pattern(p, basis, x):
    """The tie pattern a chart point x realizes at the basis: per non-basis
    i, the basis elements b attaining the min of x_b + p_{B-b+i} - p_B."""
    pattern = []
    for i, opts in tie_options(p, basis):
        vals = {b: x[basis.index(b)] + delta for b, delta in opts.items()}
        best = min(vals.values())
        pattern.append((i, tuple(b for b in sorted(vals) if vals[b] == best)))
    return tuple(pattern)


def _rank(rows):
    """Rank of a list of rational row vectors, by Gaussian elimination."""
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def brute_local_cells(ctx):
    """Every realized tie pattern of the chart at ctx.basis, by trying the
    full product of nonempty tie sets.

    Each system equates every pair of tied terms and puts every tied term
    strictly below every untied one; Fourier-Motzkin decides it.  Returns
    {pattern: (dim, system)} over the feasible patterns, where dim is m
    minus the rank of the equalities (the strict rows cut an open set).
    """
    p, basis = ctx.p, tuple(ctx.basis)
    m = p.m
    slot = {b: j for j, b in enumerate(basis, start=1)}
    options = tie_options(p, basis)
    choices = [
        [(i, tied) for size in range(1, len(opts) + 1)
         for tied in combinations(sorted(opts), size)]
        for i, opts in options
    ]
    found = {}
    for pattern in product(*choices):
        cons, eqs = [], []
        for (i, tied), (_, opts) in zip(pattern, options):
            for b, c in combinations(tied, 2):
                # x_b + d_b = x_c + d_c
                eqs.append((slot[b], slot[c], opts[c] - opts[b]))
            for b in tied:
                for c in opts:
                    if c not in tied:
                        # x_b + d_b < x_c + d_c
                        cons.append(Constraint(slot[b], slot[c], opts[c] - opts[b], True))
        system = DifferenceSystem(m, tuple(cons), tuple(eqs))
        if fm_feasible(system):
            eq_rows = [[Fraction((k == left) - (k == right)) for k in range(1, m + 1)]
                       for left, right, _ in eqs]
            found[pattern] = (m - _rank(eq_rows), system)
    return found


# ---------------------------------------------------------------------------
# linear inequalities over Q: Fourier-Motzkin with strictness


def _rows_from_system(system: DifferenceSystem):
    k = system.num_vars
    rows = []
    for c in system.constraints:
        coeffs = [Fraction(0)] * k
        coeffs[c.left - 1] += 1
        coeffs[c.right - 1] -= 1
        rows.append((tuple(coeffs), Fraction(c.bound), c.strict))
    for left, right, c in system.equalities:
        for lo, hi, bound in ((left, right, Fraction(c)), (right, left, -Fraction(c))):
            coeffs = [Fraction(0)] * k
            coeffs[lo - 1] += 1
            coeffs[hi - 1] -= 1
            rows.append((tuple(coeffs), bound, False))
    return k, rows


def _strongest(rows):
    # keep, per coefficient vector, only the binding constraint
    best = {}
    for coeffs, bound, strict in rows:
        prev = best.get(coeffs)
        if prev is None or (bound, not strict) < (prev[0], not prev[1]):
            best[coeffs] = (bound, strict)
    return [(c, b, s) for c, (b, s) in best.items()]


def fm_feasible_rows(k, rows):
    """Feasibility of { x : coeffs . x <= bound (or <)} by eliminating
    variables one at a time."""
    for var in range(k):
        pos, neg, rest = [], [], []
        for row in rows:
            cv = row[0][var]
            (pos if cv > 0 else neg if cv < 0 else rest).append(row)
        new_rows = rest
        for pc, pb, ps in pos:
            for nc, nb, ns in neg:
                a, b = pc[var], -nc[var]
                coeffs = tuple(b * x + a * y for x, y in zip(pc, nc))
                new_rows.append((coeffs, b * pb + a * nb, ps or ns))
        rows = _strongest(new_rows)
    for coeffs, bound, strict in rows:
        assert not any(coeffs)
        if bound < 0 or (strict and bound == 0):
            return False
    return True


def fm_feasible(system: DifferenceSystem) -> bool:
    return fm_feasible_rows(*_rows_from_system(system))


def check_witness(system: DifferenceSystem, witness) -> bool:
    """Does the point satisfy every constraint and equality of the system?"""
    pt = tuple(witness)
    for con in system.constraints:
        d = pt[con.left - 1] - pt[con.right - 1]
        if con.strict:
            if not d < con.bound:
                return False
        elif not d <= con.bound:
            return False
    for l, r, c in system.equalities:
        if pt[l - 1] - pt[r - 1] != c:
            return False
    return True


def recession_01_bounded(system: DifferenceSystem, groups=None) -> bool:
    """Boundedness of a feasible difference region modulo its lineality.

    ``groups`` partitions the variables (1-based); the lineality is spanned
    by the indicators of the groups, so for a chart these are the slots of
    each underlying component.  Without groups there is one, the all-ones
    line.  The recession cone of a difference system is cut out by the
    homogeneous constraints, and it holds a vector outside the lineality iff
    it holds a 0/1 vector that is not constant on some group (threshold the
    values inside that group).  So testing all 0/1 vectors is exact.
    """
    k = system.num_vars
    if groups is None:
        groups = [range(1, k + 1)]
    for bits in product((0, 1), repeat=k):
        if all(len({bits[v - 1] for v in g}) == 1 for g in groups):
            continue
        ok = all(bits[c.left - 1] - bits[c.right - 1] <= 0
                 for c in system.constraints)
        ok = ok and all(bits[l - 1] == bits[r - 1] for l, r, _ in system.equalities)
        if ok:
            return False
    return True


def random_system(rng, max_vars=4, max_cons=8) -> DifferenceSystem:
    """Seeded random difference system with mixed strictness and the
    occasional equality; used for solver-vs-oracle comparisons."""
    k = rng.randint(1, max_vars)
    cons = []
    for _ in range(rng.randint(0, max_cons)):
        left = rng.randint(1, k)
        right = rng.randint(1, k)
        if left == right:
            continue
        bound = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        cons.append(Constraint(left, right, bound, strict=bool(rng.getrandbits(1))))
    eqs = []
    if k >= 2:
        for _ in range(rng.randint(0, 2)):
            a = rng.randint(1, k)
            b = rng.randint(1, k)
            if a != b:
                eqs.append((a, b, Fraction(rng.randint(-2, 2))))
    return DifferenceSystem(k, tuple(cons), tuple(eqs))


# ---------------------------------------------------------------------------
# lattice points, fine mixed subdivisions and hull edges


def multinomial(total, parts):
    """total! / prod(part!), or 0 when a part is negative."""
    if any(p < 0 for p in parts):
        return 0
    assert sum(parts) == total
    out, rest = 1, total
    for p in parts:
        out *= math.comb(rest, p)
        rest -= p
    return out


def mixed_interior_count(s, r, k):
    """Interior k-faces of a fine mixed subdivision of s times the
    (r-1)-simplex, for s >= 1 (0 when s = 0, where there is no such face);
    the bounded local cells of dimension r - k at (n, m) = (s + r, r)."""
    return multinomial(s - 1 + k, (s - r + k, r - 1 - k, k)) if s >= 1 else 0


def mixed_total_count(s, r, k):
    """All k-faces (interior or not) of that fine mixed subdivision."""
    if s < 1:
        return 0
    value = Fraction(s, s + k) * multinomial(r + s - 1, (s, r - 1 - k, k))
    assert value.denominator == 1
    return int(value)


def lattice_simplex_counts(s, r):
    """(all, interior) lattice points of the dilate s * standard (r-1)-simplex,
    counted by enumerating barycentric coordinates."""
    total = interior = 0
    for point in product(range(s + 1), repeat=r):
        if sum(point) != s:
            continue
        total += 1
        if all(x >= 1 for x in point):
            interior += 1
    return total, interior


def hull_edges(points):
    """Index pairs {i, j} forming edges of conv(points), exact arithmetic.

    [v_i, v_j] is an edge iff some linear functional c is tied on v_i, v_j
    and strictly smaller on every other vertex; that is a homogeneous strict
    feasibility problem in c, decided by Fourier-Motzkin.
    """
    dim = len(points[0])
    edges = set()
    for i, j in combinations(range(len(points)), 2):
        vi, vj = points[i], points[j]
        rows = []
        d = tuple(Fraction(a - b) for a, b in zip(vi, vj))
        rows.append((d, Fraction(0), False))
        rows.append((tuple(-x for x in d), Fraction(0), False))
        for k, w in enumerate(points):
            if k in (i, j):
                continue
            rows.append((tuple(Fraction(a - b) for a, b in zip(w, vi)),
                         Fraction(0), True))
        if fm_feasible_rows(dim, rows):
            edges.add(frozenset((i, j)))
    return edges


# ---------------------------------------------------------------------------
# rank-2 trees


def _connected(count, edges):
    if count == 0:
        return False
    adj = {i: [] for i in range(count)}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    seen = {0}
    frontier = [0]
    while frontier:
        for w in adj[frontier.pop()]:
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return len(seen) == count


def tree_failures(p, cells, tree=None):
    """Every way a rank-2 complex (and the tree drawn from it) breaks the
    tree theorem, checked from the cells' bases, dims and boundedness.

    Each bounded dim-2 cell must lie in exactly two minimal cells and each
    unbounded one in exactly one; the minimal cells and bounded 2-cells must
    form a tree.  With a `Tree` also given, each ray's leaves must be its
    class: the one component F of its face matroid whose rank there equals
    its rank in the underlying matroid, while the other component's does
    not, and F must be a parallel class of the underlying matroid.  Every
    element must label exactly one leaf, and the tree's nodes, edges and
    leaves must be the ones found here.
    """
    failures = []
    nodes = sorted((c for c in cells if c.dim == 1), key=lambda c: c.key)
    node_sets = [set(c.key) for c in nodes]
    edges, rays = [], []
    for c in cells:
        if c.dim != 2:
            continue
        incident = [k for k, s in enumerate(node_sets) if set(c.key) <= s]
        want = 2 if c.bounded else 1
        if len(incident) != want:
            failures.append(f"{c.key} touches {len(incident)} minimal cells, not {want}")
        elif c.bounded:
            edges.append(tuple(incident))
        else:
            rays.append((c, incident[0]))
    if len(edges) != len(nodes) - 1 or not _connected(len(nodes), edges):
        failures.append("the minimal-cell adjacency graph is not a tree")
    if tree is None:
        return failures
    under = p.underlying_matroid()
    ground = set(range(1, p.n + 1))

    def rank_gap(face, subset):
        return brute_rank(under, subset) - brute_rank(face, subset)

    leaves = []
    for c, at in rays:
        classes = [
            set(f) for f in brute_components(c.face_matroid)
            if rank_gap(c.face_matroid, f) == 0 and rank_gap(c.face_matroid, ground - set(f))
        ]
        if len(classes) != 1:
            failures.append(f"ray {c.key} recedes along {len(classes)} classes")
            continue
        (cls,) = classes
        parallel = {e for e in ground if brute_rank(under, cls | {e}) == 1}
        if brute_rank(under, cls) != 1 or parallel != cls:
            failures.append(f"ray {c.key} recedes along {sorted(cls)}, not a parallel class")
        leaves += [(e, at) for e in cls]
    if sorted(label for label, _ in leaves) != list(range(1, p.n + 1)):
        failures.append(f"leaf labels {sorted(leaves)} are not one per element")
    if tree.node_bases != tuple(c.key for c in nodes):
        failures.append("tree nodes differ from the minimal cells")
    if sorted(tree.edges) != sorted(edges) or sorted(tree.leaves) != sorted(leaves):
        failures.append("tree edges or leaves differ from the cells'")
    return failures
