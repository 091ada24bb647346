"""Independent brute-force oracles used by the test suite.

Everything in here is deliberately naive: straight enumeration, no pruning,
no shared code with the library internals beyond data types.  Slow is fine;
wrong is not.  The exceptions are slow paths that library fast paths
replaced, kept here to check the fast paths against: `all_bases_cells`; the
`fraction_*` chart, circuit, circuit-membership and tie-pattern search
paths that the integer lattice replaced; `bellman_ford_solve`, the solver
that the closed difference-bound matrix replaced inside `diffcon.solve`;
`solve_leaf_cells`, the search with the `solve` leaf that the witness read
off the matrix replaced; `padded_minors`, the maximal minors of the padded
matrix `augment` by permutation expansion, where `conical.tau` expands
minors of V alone on the integer lattice; the
`scan_*` chart-region reads, which test B against every support row where
`LocalContext` reads B's own exchanges; and `scan_contains`, the cover test
over every support row that the steepest ascent of `PlueckerVector.contains`
replaced.
`tau_instance` and `direct_sum` build the seeded test vectors that several
test files share.
"""

import math
import random
from fractions import Fraction
from itertools import combinations, permutations, product

from troplin.cells import Cell, enumerate_local_cells, is_bounded
from troplin.chart import LocalContext
from troplin.conical import HeightMatrix, random_height_matrix, tau
from troplin.diffcon import Constraint, DifferenceSystem, SolveResult, tighten
from troplin.matroid import subset_from_mask
from troplin.plucker import PlueckerVector
from troplin.semiring import INF, as_point, is_orthogonal


def brute_tdet(rows):
    """Tropical determinant by full permutation expansion."""
    k = len(rows)
    best = INF
    for perm in permutations(range(k)):
        acc = Fraction(0)
        ok = True
        for r in range(k):
            v = rows[r][perm[r]]
            if v is INF:
                ok = False
                break
            acc += v
        if ok and (best is INF or acc < best):
            best = acc
    return best


def augment(v):
    """The m x n matrix [I | V] of a height matrix: the tropical identity on
    the B-columns (0 on the diagonal, INF off it), V elsewhere."""
    out = []
    for r, b in enumerate(v.basis):
        row = []
        col = 0
        for e in range(1, v.n + 1):
            if e in v.basis:
                row.append(Fraction(0) if e == b else INF)
            else:
                row.append(v.rows[r][col])
                col += 1
        out.append(tuple(row))
    return tuple(out)


def padded_minors(v):
    """The reference `tau`: {m-subset A: p_A} over the finite maximal
    tropical minors of `augment(v)`, each by full permutation expansion."""
    full = augment(v)
    minors = {}
    for cols in combinations(range(1, v.n + 1), v.m):
        val = brute_tdet([[row[e - 1] for e in cols] for row in full])
        if val is not INF:
            minors[cols] = val
    return minors


def brute_member(p, point):
    """Membership straight from the definition: for every (m+1)-subset T the
    min of point_i + p_{T - i} over i in T is infinite or attained twice."""
    for t in combinations(range(1, p.n + 1), p.m + 1):
        terms = []
        for i in t:
            rest = tuple(x for x in t if x != i)
            terms.append(point[i - 1] + p.entry(rest))
        finite = [x for x in terms if x is not INF]
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
        if val is not INF:
            weights[a_set] = sum(point[i - 1] for i in a_set) - val
    best = max(weights.values())
    return tuple(a_set for a_set, w in weights.items() if w == best)


def brute_relation_failures(p):
    """Every failing tropical Pluecker relation, straight from the definition: for
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
            finite = [x for x in terms if x is not INF]
            if finite and finite.count(min(finite)) < 2:
                bad.append((s_set, t_set))
    return tuple(bad)


def lone_finite_term_relations(p):
    """The (S, T) pairs, as in `brute_relation_failures`, whose relation has
    exactly one finite term p_{S+i} + p_{T-i} over i in T - S.  Such a
    relation fails whatever the values; the pairs depend on the support
    alone."""
    elems = range(1, p.n + 1)
    lone = []
    for s_set in combinations(elems, p.m - 1):
        for t_set in combinations(elems, p.m + 1):
            finite = [
                i for i in t_set
                if i not in s_set
                and p.entry(tuple(sorted(s_set + (i,)))) is not INF
                and p.entry(tuple(x for x in t_set if x != i)) is not INF
            ]
            if len(finite) == 1:
                lone.append((s_set, t_set))
    return tuple(lone)


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


def mobius_invariant(matroid):
    """mu(M) = chi_M(0): the sum of (-1)^|X| over the spanning sets X of
    [n], those holding a basis, by enumerating every subset."""
    bases = [set(b) for b in matroid.bases]
    return sum(
        (-1) ** size
        for size in range(matroid.n + 1)
        for subset in combinations(range(1, matroid.n + 1), size)
        if any(b <= set(subset) for b in bases)
    )


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
    Raises AssertionError, under ``python -O`` too, when a chart finds one
    cell twice or two finds of a cell disagree on its dimension or
    boundedness.
    """
    merged = {}
    for basis in p.underlying_matroid().bases:
        local = enumerate_local_cells(LocalContext(p, basis))
        keys = [c.key for c in local]
        if len(set(keys)) != len(keys):
            raise AssertionError(f"two tie patterns at {basis} gave one cell")
        for cell in local:
            if cell.key not in merged:
                merged[cell.key] = (cell, [])
            first, owners = merged[cell.key]
            if (first.dim, first.bounded) != (cell.dim, cell.bounded):
                raise AssertionError(
                    f"cell {cell.key} found with inconsistent geometry at {basis}")
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
            if val is not INF:
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


def fraction_local_cells(ctx, owned_only=False):
    """`enumerate_local_cells` with `Fraction` bounds and a Bellman-Ford per
    prefix, the search that the lattice systems and the difference-bound
    matrix replaced: the same depth-first product over the tie sets of
    `fraction_options`, each prefix probed by `bellman_ford_solve`, no
    node cap.  Returns the cells sorted by key and the number of
    tie-pattern nodes, one per selection tried on a feasible prefix."""
    p, basis, m = ctx.p, ctx.basis, ctx.p.m
    underlying = p.underlying_matroid()
    rows = []
    for i, opts in fraction_options(p, basis):
        allowed = [t for t, (slot, _) in enumerate(opts)
                   if not owned_only or basis[slot - 1] < i]
        if not allowed:
            return [], 0
        rows.append((opts, allowed))
    cells = []
    nodes = 0

    def descend(depth, eqs, cons):
        nonlocal nodes
        if depth == len(rows):
            res = bellman_ford_solve(DifferenceSystem(m, tuple(cons), tuple(eqs)))
            if res.feasible:
                point = ctx.chart(res.witness)
                face = p.matroid_at(point)
                cells.append(Cell(face, is_bounded(face, underlying), point))
            return
        opts, allowed = rows[depth]
        for size in range(1, len(allowed) + 1):
            for chosen in combinations(allowed, size):
                nodes += 1
                # the first chosen term equals the other chosen ones and lies
                # strictly below every unchosen one
                rep_slot, rep_delta = opts[chosen[0]]
                eqs2 = eqs + [(opts[t][0], rep_slot, rep_delta - opts[t][1])
                              for t in chosen[1:]]
                cons2 = cons + [Constraint(rep_slot, slot, delta - rep_delta, True)
                                for t, (slot, delta) in enumerate(opts) if t not in chosen]
                if depth + 1 == len(rows) or bellman_ford_solve(
                        DifferenceSystem(m, tuple(cons2), tuple(eqs2)),
                        want_witness=False).feasible:
                    descend(depth + 1, eqs2, cons2)

    descend(0, [], [])
    return sorted(cells, key=lambda c: c.key), nodes


def solve_leaf_cells(ctx, owned_only=False):
    """`enumerate_local_cells` with the leaf it had before the witness was
    read off the matrix: the same lattice selections and matrix search, but
    each surviving leaf builds its `DifferenceSystem` of `Constraint`s and
    equalities with the bounds b / D, takes `bellman_ford_solve`'s witness, and
    finds the face by `matroid_at`'s scan of every support row.  Returns
    the cells sorted by key and the number of tie-pattern nodes."""
    p, basis, m = ctx.p, ctx.basis, ctx.p.m
    unit = p._weight_lattice()[0]
    underlying = p.underlying_matroid()
    rows = []
    for i, deltas in ctx._deltas:
        opts = tuple((j + 1, delta) for j, delta in deltas)
        allowed = [t for t, (j, _) in enumerate(deltas) if not owned_only or basis[j] < i]
        if not allowed:
            return [], 0
        row = []
        for size in range(1, len(allowed) + 1):
            for chosen in combinations(allowed, size):
                rep_slot, rep_delta = opts[chosen[0]]
                eqs = [(opts[t][0], rep_slot, rep_delta - opts[t][1]) for t in chosen[1:]]
                cons = [Constraint(rep_slot, slot, delta - rep_delta, True)
                        for t, (slot, delta) in enumerate(opts) if t not in chosen]
                edges = DifferenceSystem(m, tuple(cons), tuple(eqs)).all_edges()
                row.append((eqs, cons, [(r - 1, l - 1, c, st) for r, l, c, st, _ in edges]))
        rows.append(row)
    cells = []
    picked = [None] * len(rows)
    nodes = 0

    def descend(depth, closed):
        nonlocal nodes
        if depth == len(rows):
            system = DifferenceSystem(
                m,
                tuple(con._replace(bound=Fraction(con.bound, unit))
                      for _, cons, _ in picked for con in cons),
                tuple((l, r, Fraction(c, unit)) for eqs, _, _ in picked for l, r, c in eqs),
            )
            point = ctx.chart(bellman_ford_solve(system).witness)
            face = p.matroid_at(point)
            cells.append(Cell(face, is_bounded(face, underlying), point))
            return
        for selection in rows[depth]:
            nodes += 1
            child = closed.copy()
            if tighten(child, m, selection[2]):
                picked[depth] = selection
                descend(depth + 1, child)

    empty = [None] * (m * m)
    empty[::m + 1] = [0] * m
    descend(0, empty)
    return sorted(cells, key=lambda c: c.key), nodes


def fraction_chart(p, basis, x):
    """The chart formula in Fractions, the path the lattice chart replaced:
    v_b = x_b on B, and v_i = min over b of x_b + p_{B-b+i} - p_B."""
    v = [None] * p.n
    for b, xb in zip(basis, x):
        v[b - 1] = Fraction(xb)
    for i, opts in tie_options(p, basis):
        v[i - 1] = min(x[basis.index(b)] + delta for b, delta in opts.items())
    return tuple(v)


def scan_in_sigma(ctx, pt):
    """Does B attain the maximum weight at the point?  Read off the matroid
    of maximal-weight support rows: the scan that the exchange criterion of
    `LocalContext.in_sigma` replaced."""
    return ctx.p.matroid_at(pt).is_basis(ctx.basis)


def _basis_coords(basis, pt):
    return tuple(pt[b - 1] for b in basis)


def scan_in_local_space(ctx, point):
    """`LocalContext.in_local_space` by the scan and the Fraction chart."""
    pt = as_point(point, ctx.p.n)
    if not scan_in_sigma(ctx, pt):
        raise ValueError("point is outside the chart region of this basis")
    return fraction_chart(ctx.p, ctx.basis, _basis_coords(ctx.basis, pt)) == pt


def scan_chart_inverse(ctx, point):
    """`LocalContext.chart_inverse` by the scan and the Fraction chart."""
    pt = as_point(point, ctx.p.n)
    if not scan_in_local_space(ctx, pt):
        raise ValueError("point is not in the local space at this basis")
    return _basis_coords(ctx.basis, pt)


def scan_project(ctx, point):
    """`LocalContext.project` by the scan and the Fraction chart."""
    pt = as_point(point, ctx.p.n)
    if not scan_in_sigma(ctx, pt):
        raise ValueError("projection is defined on the chart region only")
    return fraction_chart(ctx.p, ctx.basis, _basis_coords(ctx.basis, pt))


def scan_contains(p, point):
    """`PlueckerVector.contains` by the cover test it replaced: the point is
    in the space when the maximal-weight support rows cover [n], that is,
    when the matroid at the point is loopless."""
    p._need_validated()
    covered = 0
    for mask in p._face(*p._to_lattice(p._as_point(point))[1:]).basis_masks:
        covered |= mask
    return covered == (1 << p.n) - 1


def scan_project_any(p, point):
    """`chart.project_any` through the matroid at the point: its lex-least
    basis and that basis's Fraction chart."""
    pt = as_point(point, p.n)
    basis = p.matroid_at(pt).bases[0]
    return basis, fraction_chart(p, basis, _basis_coords(basis, pt))


def fraction_failing_circuit(p, point):
    """The first circuit of `p.all_circuits()` the point is not tropically
    orthogonal to, tested in Fractions; None for a member.  This is the
    circuit loop that the lattice membership test replaced."""
    pt = tuple(Fraction(x) for x in point)
    return next((c for c in p.all_circuits() if not is_orthogonal(c.entries, pt)), None)


def fraction_all_circuits(p):
    """`p.all_circuits()` on `Fraction`s, as the library built it before the
    lattice: per support the circuit of its lex-least generator, shifted so
    its least entry is 0, in lex order of the supports."""
    seen = {}
    for gen in combinations(range(1, p.n + 1), p.m + 1):
        c = p.circuit(gen)
        if c is None:
            continue
        key = c.support_mask
        if key in seen:
            continue
        low = min(x for x in c.entries if x is not INF)
        seen[key] = c.shifted(-low)
    return tuple(seen[k] for k in sorted(seen, key=subset_from_mask))


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
        if any(coeffs):
            raise AssertionError(f"elimination left a variable in {coeffs}")
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


def bellman_ford_solve(system: DifferenceSystem, want_witness: bool = True) -> SolveResult:
    """`diffcon.solve` by Bellman-Ford, the solver it had before it ran on
    the closed difference-bound matrix: feasibility, an exact witness or a
    violating cycle, with nothing shared with `tighten`.

    Bellman-Ford runs on lexicographic edge weights (c, #strict), the
    bounds scaled to ints by the lcm q of their denominators, from an
    implicit source at (0, 0).  With no negative cycle it ends at lex
    shortest-path potentials (c_j, s_j), each the weight of a simple path
    or 0, and the witness is x_j = (c_j / g * (k + 1) - s_j) /
    (q / g * (k + 1)), with g the gcd of q and every scaled bound; the
    `diffcon` module docstring proves that these potentials are the column
    minima `solve` reads, so the two witnesses agree bit for bit.  A
    relaxation still changing a potential after k rounds lies on a negative
    cycle or past one; k + 1 predecessor steps back land on it, and the
    cycle is read off the predecessors.  The cycle's constraints carry the
    system's own bounds."""
    k = system.num_vars
    edges = []
    for right, left, bound, strict, origin in system.all_edges():
        if left == right:
            # self-loop: 0 <= bound must hold (strictly if strict)
            if bound < 0 or (bound == 0 and strict):
                return SolveResult(False, cycle=(origin,))
            continue
        edges.append((right, left, bound, 1 if strict else 0, origin))

    if not edges:
        return SolveResult(True, witness=tuple(Fraction(0) for _ in range(k)))

    # 1 for int bounds, which are then used as they are
    scale = math.lcm(*(b.denominator for _, _, b, _, _ in edges))
    iedges = [(r, l, b.numerator * (scale // b.denominator), s, o) for r, l, b, s, o in edges]

    # implicit super-source: every node starts at distance (0, 0)
    dist_c = [0] * (k + 1)
    dist_s = [0] * (k + 1)
    pred: list[tuple | None] = [None] * (k + 1)

    def relax_once() -> int | None:
        changed = None
        for r, l, c, s, o in iedges:
            nc = dist_c[r] + c
            ns = dist_s[r] + s
            if nc < dist_c[l] or (nc == dist_c[l] and ns > dist_s[l]):
                dist_c[l] = nc
                dist_s[l] = ns
                pred[l] = (r, o)
                changed = l
        return changed

    for _ in range(k):
        if relax_once() is None:
            break
    else:
        hot = relax_once()
        if hot is not None:
            # k + 1 steps back among k nodes repeat one, so node is on the cycle
            node = hot
            for _ in range(k + 1):
                node = pred[node][0]
            # pred[v] = (u, origin) is the edge u -> v; read the cycle off preds
            origins = []
            cur = node
            while True:
                cur, origin = pred[cur]
                origins.append(origin)
                if cur == node:
                    break
            origins.reverse()
            return SolveResult(False, cycle=tuple(origins))

    if not want_witness:
        return SolveResult(True)

    # steps of g on the lattice 1 / scale, epsilon = 1 / (k + 1) step; the
    # module docstring proves it
    g = math.gcd(scale, *(c for _, _, c, _, _ in iedges))
    den = (scale // g) * (k + 1)
    return SolveResult(True, witness=tuple(
        Fraction(dist_c[j] // g * (k + 1) - dist_s[j], den) for j in range(1, k + 1)
    ))


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
    if sum(parts) != total:
        raise ValueError(f"parts {parts} do not sum to {total}")
    out, rest = 1, total
    for p in parts:
        out *= math.comb(rest, p)
        rest -= p
    return out


def mixed_interior_count(s, r, k):
    """Interior k-faces of a fine mixed subdivision of s times the
    (r-1)-simplex; the bounded local cells of dimension r - k at
    (n, m) = (s + r, r).  At s = 0 the sum is one point, a vertex that lies
    on every facet of the simplex unless r = 1, where there is no facet."""
    if s == 0:
        return int(k == 0 and r == 1)
    return multinomial(s - 1 + k, (s - r + k, r - 1 - k, k))


def mixed_total_count(s, r, k):
    """All k-faces (interior or not) of that fine mixed subdivision; at
    s = 0, the one point."""
    if s == 0:
        return int(k == 0)
    value = Fraction(s, s + k) * multinomial(r + s - 1, (s, r - 1 - k, k))
    if value.denominator != 1:
        raise AssertionError(f"mixed_total_count({s}, {r}, {k}) = {value} is not an integer")
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


def tau_instance(kind, n, m):
    """A seeded `tau` vector: "generic" heights, "tie" heights in {0, 1, 2},
    or "knockout" heights with a quarter of them INF and no all-INF column."""
    rng = random.Random(f"{kind}/{n}/{m}")
    if kind == "generic":
        return tau(random_height_matrix(n, m, rng=rng))
    while True:
        if kind == "tie":
            rows = [[rng.choice((0, 1, 2)) for _ in range(n - m)] for _ in range(m)]
        else:  # knockout
            rows = [[INF if rng.random() < 0.25 else rng.randrange(10)
                     for _ in range(n - m)] for _ in range(m)]
        if all(any(row[j] is not INF for row in rows) for j in range(n - m)):
            return tau(HeightMatrix(n, range(1, m + 1), rows))


def direct_sum(p1, p2):
    """p_{A + (B shifted by n1)} = p1_A + p2_B, a valid vector on n1 + n2
    whose underlying matroid is disconnected; validated here, so the
    result is ready to use."""
    n1 = p1.n
    entries = {
        a + tuple(b_elem + n1 for b_elem in b): p1.entry(a) + p2.entry(b)
        for a in p1.support() for b in p2.support()
    }
    p = PlueckerVector(n1 + p2.n, p1.m + p2.m, entries)
    report = p.validate()
    if not report.ok:
        raise ValueError(f"the direct sum is not a valid vector: {report.summary()}")
    return p
