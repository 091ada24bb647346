"""Command-line interface.

Exit codes: 0 success / valid, 1 semantically invalid input (failed
validation, point outside a required region, infeasible request) or an
enumeration past --max-patterns, 2 usage errors (bad flags, malformed
files).  All output for a fixed seed and fixed inputs is byte-identical
across runs; progress/log chatter goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import __version__
from . import cells as cellmod
from .chart import LocalContext
from .conical import (
    HeightMatrix,
    build_tree,
    is_caterpillar,
    is_conical,
    tau,
)
from .matroid import MAX_GROUND
from .plucker import PlueckerVector
from .selftest import DEFAULT_SEED, run_selftest
from .semiring import format_point, format_scalar, parse_point


class UsageError(Exception):
    pass


class InvalidInput(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one line on stderr, exit 2."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _int_at_least(low: int):
    def parse(text: str) -> int:
        value = int(text)  # a ValueError here is argparse's "invalid value"
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise UsageError(f"no such file: {path}") from None
    except json.JSONDecodeError as exc:
        raise UsageError(f"malformed JSON in {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path} is not UTF-8 text: {exc}") from None


def _load_plucker(path: str) -> PlueckerVector:
    obj = _load_json(path)
    try:
        return PlueckerVector.from_json(obj)
    except (ValueError, TypeError) as exc:
        raise UsageError(f"bad Pluecker file {path}: {exc}") from None


def _load_validated(path: str) -> PlueckerVector:
    p = _load_plucker(path)
    report = p.validate()
    if not report.ok:
        raise InvalidInput(f"input is not a tropical Pluecker vector: {report.summary()}")
    return p


def _load_heights(path: str) -> HeightMatrix:
    obj = _load_json(path)
    try:
        return HeightMatrix.from_json(obj)
    except (ValueError, TypeError) as exc:
        raise UsageError(f"bad height-matrix file {path}: {exc}") from None


def _get_point(args, name: str, n: int):
    flag = getattr(args, name.replace("-", "_"), None)
    file_flag = getattr(args, name.replace("-", "_") + "_file", None)
    if flag:
        try:
            return parse_point(flag, n)
        except ValueError as exc:
            raise UsageError(f"--{name}: {exc}") from None
    if file_flag:
        obj = _load_json(file_flag)
        if not isinstance(obj, list):
            raise UsageError(f"{file_flag} must hold a JSON list of rationals")
        try:
            return parse_point(",".join(str(x) for x in obj), n)
        except ValueError as exc:
            raise UsageError(f"{file_flag}: {exc}") from None
    raise UsageError(f"--{name} (or --{name}-file) is required")


def _get_basis(args, p: PlueckerVector):
    if not args.basis:
        raise UsageError("--basis is required")
    try:
        basis = tuple(int(x) for x in args.basis.split(","))
    except ValueError:
        raise UsageError(f"--basis must be comma-separated integers, got {args.basis!r}")
    try:
        return LocalContext(p, basis)
    except ValueError as exc:
        raise InvalidInput(str(exc)) from None


def _emit(args, payload: dict, text_lines: list[str]):
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(args) -> int:
    p = _load_plucker(args.file)
    report = p.validate()
    payload = {
        "valid": report.ok,
        "relation_failures": [
            {"S": list(s), "T": list(t)} for s, t in report.relation_failures
        ],
        "support_exchange_ok": report.support_ok,
    }
    if not report.support_ok:
        a, b, e = report.exchange_witness
        payload["exchange_witness"] = {"A": list(a), "B": list(b), "a": e}
    _emit(args, payload, [f"valid: {report.ok}"] + (
        [] if report.ok else [report.summary()]
    ))
    return 0 if report.ok else 1


def cmd_circuits(args) -> int:
    p = _load_validated(args.file)
    circuits = p.all_circuits()
    payload = {
        "circuits": [
            {
                "support": list(c.support),
                "vector": [format_scalar(x) for x in c.entries],
                "generator": list(c.generator),
            }
            for c in circuits
        ]
    }
    lines = [f"{len(circuits)} circuits"]
    for c in circuits:
        lines.append(f"  supp={list(c.support)} vector=[{format_point(c.entries)}]")
    _emit(args, payload, lines)
    return 0


def cmd_member(args) -> int:
    p = _load_validated(args.file)
    point = _get_point(args, "point", p.n)
    ok = p.contains(point)
    payload = {"point": [format_scalar(x) for x in point], "member": ok}
    lines = [f"member: {ok}"]
    if not ok:
        # the certificate: a valuated circuit whose minimum is attained once
        circuit = p.failing_circuit(point)
        payload["circuit"] = {
            "support": list(circuit.support),
            "vector": [format_scalar(x) for x in circuit.entries],
        }
        lines.append(
            f"circuit: supp={list(circuit.support)} vector=[{format_point(circuit.entries)}]"
        )
    _emit(args, payload, lines)
    return 0


def cmd_project(args) -> int:
    p = _load_validated(args.file)
    ctx = _get_basis(args, p)
    point = _get_point(args, "point", p.n)
    try:
        proj = ctx.project(point)
    except ValueError as exc:
        raise InvalidInput(str(exc)) from None
    _emit(args, {
        "basis": list(ctx.basis),
        "point": [format_scalar(x) for x in point],
        "projection": [format_scalar(x) for x in proj],
    }, [f"projection: {format_point(proj)}"])
    return 0


def cmd_chart(args) -> int:
    p = _load_validated(args.file)
    ctx = _get_basis(args, p)
    x = _get_point(args, "x", p.m)
    v = ctx.chart(x)
    _emit(args, {
        "basis": list(ctx.basis),
        "x": [format_scalar(c) for c in x],
        "point": [format_scalar(c) for c in v],
    }, [f"point: {format_point(v)}"])
    return 0


def _cell_payload(cell) -> dict:
    return {
        "bases": [list(b) for b in cell.face_matroid.bases],
        "dim": cell.dim,
        "bounded": cell.bounded,
        "witness": [format_scalar(x) for x in cell.witness],
    }


def _fvector_lines(p, fv, with_total_cap: bool) -> list[str]:
    # The total-count cap is a statement about one chart's complex; only the
    # bounded cap is meaningful against a global f-vector.
    n, m = p.n, p.m
    if with_total_cap:
        lines = ["dim  total  bounded  cap_total  cap_bounded"]
    else:
        lines = ["dim  total  bounded  cap_bounded"]
    for i in range(1, m + 1):
        row = f"{i:>3}  {fv.total[i - 1]:>5}  {fv.bounded[i - 1]:>7}  "
        if with_total_cap:
            row += f"{cellmod.bound_total(n, m, i):>9}  "
        row += f"{cellmod.bound_bounded(n, m, i):>11}"
        lines.append(row)
    return lines


def _enumerate(args, p: PlueckerVector):
    try:
        return cellmod.enumerate_cells(p, max_nodes=args.max_patterns)
    except ValueError as exc:
        raise InvalidInput(str(exc)) from None


def cmd_local(args) -> int:
    p = _load_validated(args.file)
    ctx = _get_basis(args, p)
    local = cellmod.enumerate_local_cells(ctx, max_nodes=args.max_patterns)
    fv = cellmod.f_vector(local, p.m)
    payload = {
        "basis": list(ctx.basis),
        "cells": [_cell_payload(c) for c in local],
    }
    payload.update(fv.to_json())
    lines = [f"{len(local)} cells in the local complex at {list(ctx.basis)}"]
    for c in local:
        lines.append(
            f"  dim={c.dim} bounded={c.bounded} "
            f"bases={[''.join(map(str, b)) for b in c.face_matroid.bases]}"
        )
    lines += _fvector_lines(p, fv, with_total_cap=True)
    _emit(args, payload, lines)
    return 0


def cmd_cells(args) -> int:
    p = _load_validated(args.file)
    if args.format == "dot":
        try:
            cellmod.check_adjacency_input(p)
        except ValueError as exc:
            raise InvalidInput(str(exc)) from None
    cells = _enumerate(args, p)
    if args.format == "dot":
        print(cellmod.adjacency_dot(cells))
        return 0
    payload = {"cells": [_cell_payload(c) for c in cells]}
    lines = [f"{len(cells)} cells"]
    for c in cells:
        lines.append(
            f"  dim={c.dim} bounded={c.bounded} "
            f"bases={[''.join(map(str, b)) for b in c.face_matroid.bases]}"
        )
    _emit(args, payload, lines)
    return 0


def cmd_fvector(args) -> int:
    p = _load_validated(args.file)
    cells = _enumerate(args, p)
    fv = cellmod.f_vector(cells, p.m)
    payload = fv.to_json()
    lines = _fvector_lines(p, fv, with_total_cap=False)
    if len(p.support_masks()) == math.comb(p.n, p.m):
        report = cellmod.check_facet_bound(p, cells)
        payload["facets"] = {"count": report.facet_cells, "bound": report.bound}
        lines.append(
            f"minimal cells (dual facets): {report.facet_cells} <= {report.bound}: {report.ok}"
        )
    _emit(args, payload, lines)
    return 0


def cmd_bounds(args) -> int:
    n, m = args.n, args.m
    if not 1 <= m <= n:
        raise UsageError("need 1 <= m <= n")
    if n > MAX_GROUND:
        raise UsageError(f"ground set size {n} exceeds the cap {MAX_GROUND}")
    rows = []
    for i in range(1, m + 1):
        total, bounded = cellmod.bound_total(n, m, i), cellmod.bound_bounded(n, m, i)
        # a fine mixed subdivision attains both caps
        rows.append({
            "dim": i,
            "cap_total": total,
            "cap_bounded": bounded,
            "fine_total": total,
            "fine_bounded": bounded,
        })
    lines = ["dim  cap_total  cap_bounded  fine_total  fine_bounded"]
    for row in rows:
        lines.append(
            f"{row['dim']:>3}  {row['cap_total']:>9}  {row['cap_bounded']:>11}  "
            f"{row['fine_total']:>10}  {row['fine_bounded']:>12}"
        )
    _emit(args, {"n": n, "m": m, "rows": rows}, lines)
    return 0


def cmd_conical(args) -> int:
    p = _load_validated(args.file)
    flag, witness = is_conical(p, _enumerate(args, p))
    payload = {"conical": flag, "witness": list(witness) if witness else None}
    _emit(args, payload, [f"conical: {flag}" + (f" witness {list(witness)}" if witness else "")])
    return 0


def cmd_tree(args) -> int:
    p = _load_validated(args.file)
    try:
        cellmod.check_adjacency_input(p)
        tree = build_tree(p, _enumerate(args, p))
    except ValueError as exc:
        raise InvalidInput(str(exc)) from None
    cat = is_caterpillar(tree)
    if args.format == "dot":
        print(tree.to_dot())
        print(f"// caterpillar: {cat}", file=sys.stderr)
        return 0
    payload = {
        "nodes": [[list(b) for b in bases] for bases in tree.node_bases],
        "edges": [list(e) for e in tree.edges],
        "leaves": [{"label": label, "node": at} for label, at in sorted(tree.leaves)],
        "caterpillar": cat,
    }
    _emit(args, payload, tree.to_text().split("\n") + [f"caterpillar: {cat}"])
    return 0


def cmd_tau(args) -> int:
    v = _load_heights(args.file)
    p = tau(v)
    payload = p.to_json()
    lines = [f"rank {p.m} on [{p.n}], support size {len(p.support_masks())}"]
    for item in payload["entries"]:
        lines.append(f"  p{item['subset']} = {item['value']}")
    _emit(args, payload, lines)
    return 0


def cmd_selftest(args) -> int:
    results = run_selftest(seed=args.seed, scale=args.scale)
    ok = True
    for res in results:
        print(res.line())
        if not res.passed:
            ok = False
            for msg in res.failures[:10]:
                print(f"    {msg}")
    print("selftest:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="troplin",
        description="Exact tropical Pluecker vectors, charts and cell complexes.",
    )
    ap.add_argument("--version", action="version", version=f"troplin {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp, needs_file=True, dot=False, max_patterns=False):
        if needs_file:
            sp.add_argument("file", help="input JSON file")
        formats = ("text", "json", "dot") if dot else ("text", "json")
        sp.add_argument("--format", choices=formats, default="text")
        if max_patterns:
            sp.add_argument(
                "--max-patterns", type=_int_at_least(0),
                default=cellmod.MAX_SOLVER_NODES_DEFAULT,
                help="cap on tie-pattern solver nodes during enumeration",
            )

    sp = sub.add_parser("validate", help="check the three-term relations")
    common(sp)
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("circuits", help="all valuated circuits (one per support)")
    common(sp)
    sp.set_defaults(func=cmd_circuits)

    sp = sub.add_parser("member", help="membership of a point in the space")
    common(sp)
    sp.add_argument("--point")
    sp.add_argument("--point-file")
    sp.set_defaults(func=cmd_member)

    sp = sub.add_parser("project", help="project a chart-region point onto the space")
    common(sp)
    sp.add_argument("--basis")
    sp.add_argument("--point")
    sp.add_argument("--point-file")
    sp.set_defaults(func=cmd_project)

    sp = sub.add_parser("chart", help="map chart coordinates to a point of the space")
    common(sp)
    sp.add_argument("--basis")
    sp.add_argument("--x")
    sp.add_argument("--x-file")
    sp.set_defaults(func=cmd_chart)

    sp = sub.add_parser("local", help="local cell complex at one basis")
    common(sp, max_patterns=True)
    sp.add_argument("--basis")
    sp.set_defaults(func=cmd_local)

    sp = sub.add_parser("cells", help="global cell complex")
    common(sp, dot=True, max_patterns=True)
    sp.set_defaults(func=cmd_cells)

    sp = sub.add_parser("fvector", help="f-vector of the global complex")
    common(sp, max_patterns=True)
    sp.set_defaults(func=cmd_fvector)

    sp = sub.add_parser("bounds", help="bound tables and fine counts for (n, m)")
    common(sp, needs_file=False)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.set_defaults(func=cmd_bounds)

    sp = sub.add_parser("conical", help="is some basis contained in every bounded cell?")
    common(sp, max_patterns=True)
    sp.set_defaults(func=cmd_conical)

    sp = sub.add_parser("tree", help="rank-2 tree (text or DOT)")
    common(sp, dot=True, max_patterns=True)
    sp.set_defaults(func=cmd_tree)

    sp = sub.add_parser("tau", help="Pluecker vector of a height matrix")
    common(sp)
    sp.set_defaults(func=cmd_tau)

    sp = sub.add_parser("selftest", help="run the seeded property suite")
    sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sp.add_argument("--scale", type=_int_at_least(1), default=1,
                    help="divide run counts by this")
    sp.set_defaults(func=cmd_selftest)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; pass that through
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvalidInput as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 1
    except cellmod.EnumerationLimit as exc:
        print(f"error: {exc}; raise --max-patterns", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
