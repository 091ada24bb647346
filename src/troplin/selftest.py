"""Seeded randomized property suite, runnable from the CLI and the tests.

Every check draws from one `random.Random(seed)` stream, so a fixed seed
gives byte-identical reports.  Checks return a list of failure descriptions;
an empty list is a pass.  Some checks scan what the library builds trusted
by theorem: `tau`'s vectors and the matroids `matroid_at` selects.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import NamedTuple

from . import cells as cellmod
from .chart import LocalContext
from .conical import random_height_matrix, tau
from .examples import snowflake, two_pyramids, uniform_zero
from .matroid import ExchangeError, Matroid, transversal

DEFAULT_SEED = 1729


class CheckResult(NamedTuple):
    name: str
    runs: int
    failures: list[str]

    @property
    def passed(self) -> bool:
        return not self.failures

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = "" if self.passed else f" ({len(self.failures)} failures)"
        return f"{status} {self.name}: {self.runs} checks{extra}"


def _fixture_set():
    return [
        ("two_pyramids", two_pyramids()),
        ("star_2_5", uniform_zero(5, 2)),
        ("snowflake", snowflake()),
        ("tau_3_6", tau(random_height_matrix(6, 3, rng=random.Random(DEFAULT_SEED)))),
    ]


def _random_point(rng, n):
    return tuple(Fraction(rng.randint(-60, 60), rng.randint(1, 12)) for _ in range(n))


def check_tau_heights(rng: random.Random, per_shape: int = 100) -> CheckResult:
    """Random height matrices: `tau`'s minors pass `validate()`, the scanned
    support is the transversal matroid, and every bounded cell of the
    complex keeps the root basis maximal.  `tau` builds its vector without
    either check, trusting the theorem these runs test."""
    shapes = [(2, 4), (2, 5), (3, 5), (3, 6)]
    failures = []
    runs = 0
    for m, n in shapes:
        for t in range(per_shape):
            runs += 1
            v = random_height_matrix(n, m, rng=rng, generic=(t % 2 == 0))
            p = tau(v)  # built trusted; the theorem is checked here
            report = p.validate()
            if not report.ok:
                failures.append(f"tau({m},{n}) run {t}: {report.summary()}")
                continue
            support_matroid = p.underlying_matroid()
            if support_matroid != transversal(n, v.basis, v.families()):
                failures.append(f"tau({m},{n}) run {t}: support is not the transversal matroid")
                continue
            if not support_matroid.is_basis(v.basis):
                failures.append(f"tau({m},{n}) run {t}: root basis not a basis")
                continue
            for cell in cellmod.enumerate_cells(p):
                if cell.bounded and not cell.face_matroid.is_basis(v.basis):
                    failures.append(
                        f"tau({m},{n}) run {t}: bounded cell {cell.face_matroid.bases} "
                        f"misses the root basis"
                    )
                    break
    return CheckResult("tau-height-matrices", runs, failures)


def check_membership_routes(rng: random.Random, per_fixture: int = 1000) -> CheckResult:
    """Loopless-local-matroid membership == circuit-orthogonality membership,
    and every local matroid passes the exchange scan it is built without."""
    failures = []
    runs = 0
    for name, p in _fixture_set():
        basis_cycle = p.underlying_matroid().bases
        for t in range(per_fixture):
            runs += 1
            if t % 2 == 0:
                point = _random_point(rng, p.n)
            else:
                ctx = LocalContext(p, basis_cycle[t % len(basis_cycle)])
                point = ctx.chart(_random_point(rng, p.m))
            via_loops = p.contains(point)
            via_circuits = p.contains_via_circuits(point)
            if via_loops != via_circuits:
                failures.append(f"{name} point {point}: {via_loops} vs {via_circuits}")
            try:
                Matroid(p.n, p.matroid_at(point).bases)  # the exchange scan
            except ExchangeError as exc:
                failures.append(f"{name} point {point}: local matroid: {exc}")
            if t % 2 == 1 and not via_loops:
                failures.append(f"{name}: chart image {point} not contained")
    return CheckResult("membership-routes", runs, failures)


def check_chart_roundtrip(rng: random.Random, per_fixture: int = 500) -> CheckResult:
    """chart_inverse(chart(x)) == x and chart images are members."""
    failures = []
    runs = 0
    for name, p in _fixture_set():
        bases = p.underlying_matroid().bases
        for t in range(per_fixture):
            runs += 1
            ctx = LocalContext(p, bases[t % len(bases)])
            x = _random_point(rng, p.m)
            v = ctx.chart(x)
            if not p.contains(v):
                failures.append(f"{name}: chart({x}) escaped the space")
                continue
            back = ctx.chart_inverse(v)
            if back != x:
                failures.append(f"{name}: roundtrip {x} -> {back}")
    return CheckResult("chart-roundtrip", runs, failures)


def check_projection(rng: random.Random, per_fixture: int = 200) -> CheckResult:
    """Projection is idempotent and fixes the local space pointwise, and
    every sampled `in_sigma` verdict, read off B's exchanges, equals the
    scan of the matroid at the point."""
    failures = []
    runs = 0
    for name, p in _fixture_set():
        bases = p.underlying_matroid().bases
        done = 0
        attempts = 0
        while done < per_fixture and attempts < 50 * per_fixture:
            attempts += 1
            basis = bases[attempts % len(bases)]
            ctx = LocalContext(p, basis)
            if attempts % 2 == 0:
                point = _random_point(rng, p.n)
            else:
                # chart image with non-basis coordinates nudged down: stays
                # in the chart region but generally off the space
                v = list(ctx.chart(_random_point(rng, p.m)))
                for i in range(1, p.n + 1):
                    if i not in basis and rng.random() < 0.5:
                        v[i - 1] -= Fraction(rng.randint(0, 8), 3)
                point = tuple(v)
            inside = ctx.in_sigma(point)
            if inside != p.matroid_at(point).is_basis(basis):
                failures.append(f"{name}: in_sigma {inside} at {point} for {basis}, "
                                "the scan disagrees")
                continue
            if not inside:
                if attempts % 2 == 1:
                    failures.append(f"{name}: lowering non-basis coords left sigma")
                continue
            done += 1
            runs += 1
            proj = ctx.project(point)
            if not p.contains(proj):
                failures.append(f"{name}: projection left the space at {point}")
                continue
            if ctx.project(proj) != proj:
                failures.append(f"{name}: projection not idempotent at {point}")
            if ctx.in_local_space(point) and proj != point:
                failures.append(f"{name}: projection moved a member point {point}")
        if done < per_fixture:
            failures.append(f"{name}: could not sample enough chart-region points")
    return CheckResult("projection", runs, failures)


def run_selftest(seed: int = DEFAULT_SEED, scale: int = 1) -> list[CheckResult]:
    """Run every randomized check; ``scale`` divides the run counts (for
    quick smoke tests scale=10 is handy)."""
    rng = random.Random(seed)
    results = [
        check_tau_heights(rng, per_shape=max(1, 100 // scale)),
        check_membership_routes(rng, per_fixture=max(1, 1000 // scale)),
        check_chart_roundtrip(rng, per_fixture=max(1, 500 // scale)),
        check_projection(rng, per_fixture=max(1, 200 // scale)),
    ]
    return results
