"""End-to-end acceptance checks.

Each test covers one item of the release checklist, records a single
PASS/FAIL line (shown in the terminal summary), and enforces its time
budget.  Expected numbers are frozen here on purpose; see the unit suites
for the oracle-backed derivations behind them.
"""

import json
import math
import random
import time
from fractions import Fraction
from pathlib import Path

from oracles import (
    fm_feasible,
    lattice_simplex_counts,
    mixed_interior_count,
    mixed_total_count,
    random_system,
)

from troplin.cells import (
    LocalContext,
    bound_bounded,
    bound_total,
    check_facet_bound,
    enumerate_cells,
    enumerate_local_cells,
    f_vector,
)
from troplin.conical import (
    HeightMatrix,
    build_tree,
    is_caterpillar,
    is_conical,
    local_complex_is_fine,
    random_height_matrix,
    tau,
)
from troplin.diffcon import solve
from troplin.examples import snowflake, two_pyramids, uniform_zero
from troplin.selftest import DEFAULT_SEED, run_selftest

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _verdict(acceptance, number, label, failures, detail):
    status = "PASS" if not failures else "FAIL"
    line = f"{status} acceptance {number}/6 ({label}): {detail}"
    if failures:
        line += " -- " + "; ".join(failures)
    acceptance(line)
    assert not failures, line


def test_acceptance_1_two_pyramids_end_to_end(acceptance):
    t0 = time.perf_counter()
    failures = []

    p = two_pyramids()
    if not p.validate().ok:
        failures.append("fixture does not validate")

    cells = enumerate_cells(p)
    fv = f_vector(cells, p.m)
    if len(cells) != 7:
        failures.append(f"global cell count {len(cells)} != 7")
    if fv.total != (2, 5):
        failures.append(f"global totals {fv.total} != (2, 5)")
    if fv.bounded != (2, 1):
        failures.append(f"global bounded {fv.bounded} != (2, 1)")

    local = enumerate_local_cells(LocalContext(p, (1, 4)))
    lfv = f_vector(local, p.m)
    if len(local) != 5:
        failures.append(f"local cell count {len(local)} != 5")
    if lfv.total != (2, 3):
        failures.append(f"local totals {lfv.total} != (2, 3)")
    if lfv.bounded != (2, 1):
        failures.append(f"local bounded {lfv.bounded} != (2, 1)")

    facets = check_facet_bound(p, cells)
    if (facets.facet_cells, facets.bound) != (2, 2):
        failures.append(f"facets {facets.facet_cells}/{facets.bound} != 2/2")

    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f}s, budget 1s")
    _verdict(acceptance, 1, "two-pyramids fan", failures,
             f"7 cells, f-vectors and facet bound as frozen, {elapsed:.2f}s")


def test_acceptance_2_generic_rank3_attains_caps(acceptance):
    t0 = time.perf_counter()
    failures = []

    with open(FIXTURES / "heights_3_6.json", encoding="utf-8") as fh:
        v = HeightMatrix.from_json(json.load(fh))
    if v.to_json() != random_height_matrix(
            6, 3, rng=random.Random(DEFAULT_SEED)).to_json():
        failures.append("fixture drifted from the seeded generator")

    p = tau(v)
    if not p.validate().ok:
        failures.append("tau output does not validate")
    root = (1, 2, 3)
    if not local_complex_is_fine(p, root):
        failures.append("fixture is not generic at the root basis")

    local = enumerate_local_cells(LocalContext(p, root))
    lfv = f_vector(local, p.m)
    caps_bounded = tuple(bound_bounded(6, 3, i) for i in (1, 2, 3))
    caps_total = tuple(bound_total(6, 3, i) for i in (1, 2, 3))
    mixed_b = tuple(mixed_interior_count(3, 3, 3 - i) for i in (1, 2, 3))
    mixed_t = tuple(mixed_total_count(3, 3, 3 - i) for i in (1, 2, 3))
    if lfv.bounded != (6, 6, 1):
        failures.append(f"bounded {lfv.bounded} != (6, 6, 1)")
    if not (lfv.bounded == caps_bounded == mixed_b):
        failures.append(f"bounded {lfv.bounded} misses caps {caps_bounded}"
                        f" / mixed {mixed_b}")
    if lfv.total != (6, 15, 10):
        failures.append(f"total {lfv.total} != (6, 15, 10)")
    if not (lfv.total == caps_total == mixed_t):
        failures.append(f"total {lfv.total} misses caps {caps_total}"
                        f" / mixed {mixed_t}")

    facets = check_facet_bound(p)
    if facets.facet_cells != math.comb(4, 2) or not facets.ok:
        failures.append(f"facets {facets.facet_cells} != C(4,2)")

    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        failures.append(f"took {elapsed:.1f}s, budget 60s")
    _verdict(acceptance, 2, "generic rank-3 caps", failures,
             f"bounded (6,6,1) = caps, total (6,15,10), 6 facets, {elapsed:.1f}s")


def test_acceptance_3_selftest_battery(acceptance):
    t0 = time.perf_counter()
    results = run_selftest(seed=DEFAULT_SEED)
    elapsed = time.perf_counter() - t0

    failures = [r.line() for r in results if not r.passed]
    stages = [r.name for r in results]
    if stages != ["tau-height-matrices", "membership-routes", "chart-roundtrip", "projection"]:
        failures.append(f"unexpected battery stages {stages}")
    if elapsed >= 300.0:
        failures.append(f"took {elapsed:.0f}s, budget 300s")
    runs = sum(r.runs for r in results)
    _verdict(acceptance, 3, "selftest battery", failures,
             f"{len(results)} stages, {runs} checks, {elapsed:.0f}s")


def test_acceptance_4_difference_systems_vs_elimination(acceptance):
    rng = random.Random(DEFAULT_SEED)
    failures = []
    feasible_seen = 0
    for trial in range(500):
        system = random_system(rng)
        res = solve(system)
        if res.feasible != fm_feasible(system):
            failures.append(f"trial {trial}: disagreement with elimination")
            continue
        if not res.feasible:
            continue
        feasible_seen += 1
        x = res.witness
        if not all(isinstance(value, Fraction) for value in x):
            failures.append(f"trial {trial}: inexact witness")
            continue
        for c in system.constraints:
            gap = x[c.left - 1] - x[c.right - 1] - c.bound
            if gap > 0 or (c.strict and gap == 0):
                failures.append(f"trial {trial}: witness violates a constraint")
                break
        for left, right, rhs in system.equalities:
            if x[left - 1] - x[right - 1] != rhs:
                failures.append(f"trial {trial}: witness violates an equality")
                break
    if feasible_seen < 100:
        failures.append(f"only {feasible_seen} feasible systems sampled")
    _verdict(acceptance, 4, "difference systems", failures,
             f"500 random systems, {feasible_seen} exact witnesses checked")


def test_acceptance_5_conical_and_caterpillar_trio(acceptance):
    failures = []
    expected = [
        ("two_pyramids", two_pyramids(), True),
        ("star", uniform_zero(5, 2), True),
        ("snowflake", snowflake(), False),
    ]
    for name, p, want in expected:
        got_conical = is_conical(p)[0]
        got_cat = is_caterpillar(build_tree(p))
        if got_conical != want:
            failures.append(f"{name}: conical={got_conical}, want {want}")
        if got_cat != want:
            failures.append(f"{name}: caterpillar={got_cat}, want {want}")
    _verdict(acceptance, 5, "conical/caterpillar", failures,
             "two_pyramids and star both, snowflake neither")


def test_acceptance_6_count_formulas(acceptance):
    failures = []

    total, interior = lattice_simplex_counts(3, 3)
    if (mixed_total_count(3, 3, 0), bound_total(6, 3, 3), total) != (10, 10, 10):
        failures.append("k=0 total count != 10 lattice points of the 3rd dilate")
    if (mixed_interior_count(3, 3, 0), bound_bounded(6, 3, 3), interior) != (1, 1, 1):
        failures.append("k=0 interior count != 1 interior lattice point")

    tables = {
        (4, 2): {"total": (2, 3), "bounded": (2, 1)},
        (6, 3): {"total": (6, 15, 10), "bounded": (6, 6, 1)},
        (8, 4): {"total": (20, 70, 84, 35), "bounded": (20, 30, 12, 1)},
    }
    for (n, m), want in tables.items():
        dims = range(1, m + 1)
        got_total = tuple(bound_total(n, m, i) for i in dims)
        got_bounded = tuple(bound_bounded(n, m, i) for i in dims)
        if got_total != want["total"]:
            failures.append(f"({n},{m}) totals {got_total} != {want['total']}")
        if got_bounded != want["bounded"]:
            failures.append(f"({n},{m}) bounded {got_bounded} != {want['bounded']}")
        direct_total = tuple(
            math.comb(n - i - 1, m - i) * math.comb(n - 1, i - 1) for i in dims
        )
        direct_bounded = tuple(
            (math.comb(n - i - 1, i - 1) if i - 1 <= n - i - 1 else 0)
            * (math.comb(n - 2 * i, m - i) if 0 <= m - i <= max(n - 2 * i, -1) else 0)
            for i in dims
        )
        if got_total != direct_total or got_bounded != direct_bounded:
            failures.append(f"({n},{m}) table drifts from direct binomials")
    _verdict(acceptance, 6, "count formulas", failures,
             "lattice oracle at k=0 and frozen tables for (4,2), (6,3), (8,4)")
