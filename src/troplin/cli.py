"""Command-line interface.

Exit codes: 0 success / valid, 1 semantically invalid input (failed
validation, point outside a required region, infeasible request) or an
enumeration past --max-patterns, 2 usage errors (bad flags, malformed
files).  All output for a fixed seed and fixed inputs is byte-identical
across runs; progress/log chatter goes to stderr.

`main` is the one place where a library `ValueError` becomes "invalid
input"; the loaders and flag readers map parse errors to `UsageError`
first.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys

from . import __version__
from . import cells as cellmod
from .chart import LocalContext
from .conical import (
    HeightMatrix,
    build_tree,
    check_adjacency_input,
    is_caterpillar,
    is_conical,
    tau,
)
from .matroid import MAX_GROUND
from .plucker import PlueckerVector
from .semiring import as_point, format_point, format_scalar, parse_point


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one line on stderr, exit 2."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _strict_int(text: str) -> int:
    """An integer flag value: an optional minus and ASCII digits, nothing
    else; int() would also take "+1", " 1" and "1_0".  A ValueError here is
    argparse's "invalid int value"."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


_strict_int.__name__ = "int"  # argparse names the type in "invalid int value"


def _int_at_least(low: int):
    def parse(text: str) -> int:
        value = _strict_int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # as for `_strict_int`
    return parse


def _unique_keys(pairs):
    """A JSON object as a dict; a repeated key is refused by name."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"repeated key {json.dumps(key)}")
        obj[key] = value
    return obj


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except FileNotFoundError:
        raise UsageError(f"no such file: {path}") from None
    except OSError as exc:  # a directory, a file it may not read, ...
        raise UsageError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:  # a ValueError, so before the next clause
        raise UsageError(f"{path} is not UTF-8 text: {exc}") from None
    # a decode error, a repeated key, nesting past the recursion limit or an
    # integer literal past the interpreter's digit limit
    except (RecursionError, ValueError) as exc:
        raise UsageError(f"malformed JSON in {path}: {exc}") from None


def _load_record(path: str, cls, kind: str):
    """``cls.from_json`` of the file at ``path``; a bad record is a usage error."""
    obj = _load_json(path)
    try:
        return cls.from_json(obj)
    except (ValueError, TypeError) as exc:
        raise UsageError(f"bad {kind} file {path}: {exc}") from None


def _load_validated(path: str) -> PlueckerVector:
    p = _load_record(path, PlueckerVector, "Pluecker")
    report = p.validate()
    if not report.ok:
        raise ValueError(f"input is not a tropical Pluecker vector: {report.summary()}")
    return p


def _get_point(text, path, n: int, flag: str):
    """The point given as ``--flag TEXT`` or in ``--flag-file PATH``;
    the parser admits exactly one of them."""
    if text is not None:
        try:
            return parse_point(text, n)
        except ValueError as exc:
            raise UsageError(f"--{flag}: {exc}") from None
    obj = _load_json(path)
    if not isinstance(obj, list):
        raise UsageError(f"{path} must hold a JSON list of rationals")
    try:
        return as_point(obj, n)
    except (ValueError, TypeError) as exc:
        raise UsageError(f"{path}: {exc}") from None


def _get_basis(args, p: PlueckerVector):
    try:
        basis = tuple(_strict_int(x) for x in args.basis.split(","))
    except ValueError:
        raise UsageError(f"--basis must be comma-separated integers, got {args.basis!r}")
    return LocalContext(p, basis)


def _emit(args, payload, text_lines):
    """Print the output in the format asked for.  ``payload`` and
    ``text_lines`` are zero-argument builders of the JSON object and of the
    text lines; only the one for that format runs."""
    if args.format == "json":
        print(json.dumps(payload(), indent=2, sort_keys=True))
    else:
        for line in text_lines():
            print(line)


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(args) -> int:
    p = _load_record(args.file, PlueckerVector, "Pluecker")
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
    _emit(args, lambda: payload, lambda: [f"valid: {report.ok}"] + (
        [] if report.ok else [report.summary()]
    ))
    return 0 if report.ok else 1


def cmd_circuits(args) -> int:
    p = _load_validated(args.file)
    circuits = p.all_circuits()
    _emit(args, lambda: {
        "circuits": [
            {
                "support": list(c.support),
                "vector": [format_scalar(x) for x in c.entries],
                "generator": list(c.generator),
            }
            for c in circuits
        ]
    }, lambda: [f"{len(circuits)} circuits"] + [
        f"  supp={list(c.support)} vector=[{format_point(c.entries)}]" for c in circuits
    ])
    return 0


def cmd_member(args) -> int:
    p = _load_validated(args.file)
    point = _get_point(args.point, args.point_file, p.n, "point")
    # the verdict and its certificate: a valuated circuit whose minimum is
    # attained once, or None for a member
    circuit = p.failing_circuit(point)
    ok = circuit is None
    payload = {"point": [format_scalar(x) for x in point], "member": ok}
    lines = [f"member: {ok}"]
    if not ok:
        payload["circuit"] = {
            "support": list(circuit.support),
            "vector": [format_scalar(x) for x in circuit.entries],
        }
        lines.append(
            f"circuit: supp={list(circuit.support)} vector=[{format_point(circuit.entries)}]"
        )
    _emit(args, lambda: payload, lambda: lines)
    return 0


def cmd_project(args) -> int:
    p = _load_validated(args.file)
    ctx = _get_basis(args, p)
    point = _get_point(args.point, args.point_file, p.n, "point")
    proj = ctx.project(point)
    _emit(args, lambda: {
        "basis": list(ctx.basis),
        "point": [format_scalar(x) for x in point],
        "projection": [format_scalar(x) for x in proj],
    }, lambda: [f"projection: {format_point(proj)}"])
    return 0


def cmd_chart(args) -> int:
    p = _load_validated(args.file)
    ctx = _get_basis(args, p)
    x = _get_point(args.x, args.x_file, p.m, "x")
    v = ctx.chart(x)
    _emit(args, lambda: {
        "basis": list(ctx.basis),
        "x": [format_scalar(c) for c in x],
        "point": [format_scalar(c) for c in v],
    }, lambda: [f"point: {format_point(v)}"])
    return 0


def _cell_payload(cell) -> dict:
    return {
        "bases": [list(b) for b in cell.face_matroid.bases],
        "dim": cell.dim,
        "bounded": cell.bounded,
        "witness": [format_scalar(x) for x in cell.witness],
    }


def _cell_line(cell) -> str:
    bases = ["".join(map(str, b)) for b in cell.face_matroid.bases]
    return f"  dim={cell.dim} bounded={cell.bounded} bases={bases}"


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


def cmd_local(args) -> int:
    p = _load_validated(args.file)
    ctx = _get_basis(args, p)
    local = cellmod.enumerate_local_cells(ctx, max_nodes=args.max_patterns)
    fv = cellmod.f_vector(local, p.m)
    _emit(args, lambda: {
        "basis": list(ctx.basis),
        "cells": [_cell_payload(c) for c in local],
        **fv.to_json(),
    }, lambda: [
        f"{len(local)} cells in the local complex at {list(ctx.basis)}",
        *(_cell_line(c) for c in local),
        *_fvector_lines(p, fv, with_total_cap=True),
    ])
    return 0


def cmd_cells(args) -> int:
    p = _load_validated(args.file)
    if args.format == "dot":
        check_adjacency_input(p)
    cells = cellmod.enumerate_cells(p, max_nodes=args.max_patterns)
    if args.format == "dot":
        print(build_tree(p, cells).to_cells_dot())
        return 0
    _emit(args, lambda: {"cells": [_cell_payload(c) for c in cells]},
          lambda: [f"{len(cells)} cells"] + [_cell_line(c) for c in cells])
    return 0


def cmd_fvector(args) -> int:
    p = _load_validated(args.file)
    cells = cellmod.enumerate_cells(p, max_nodes=args.max_patterns)
    fv = cellmod.f_vector(cells, p.m)
    payload = fv.to_json()
    lines = _fvector_lines(p, fv, with_total_cap=False)
    if len(p.support_masks()) == math.comb(p.n, p.m):
        report = cellmod.check_facet_bound(p, cells)
        payload["facets"] = {"count": report.facet_cells, "bound": report.bound}
        lines.append(
            f"minimal cells (dual facets): {report.facet_cells} <= {report.bound}: {report.ok}"
        )
    _emit(args, lambda: payload, lambda: lines)
    return 0


def cmd_bounds(args) -> int:
    n, m = args.n, args.m
    if not 1 <= m <= n:
        raise UsageError("need 1 <= m <= n")
    if n > MAX_GROUND:
        raise UsageError(f"ground set size {n} exceeds the cap {MAX_GROUND}")
    rows = []
    for i in range(1, m + 1):
        # a fine mixed subdivision attains both caps
        rows.append({
            "dim": i,
            "cap_total": cellmod.bound_total(n, m, i),
            "cap_bounded": cellmod.bound_bounded(n, m, i),
        })
    lines = ["dim  cap_total  cap_bounded"]
    for row in rows:
        lines.append(f"{row['dim']:>3}  {row['cap_total']:>9}  {row['cap_bounded']:>11}")
    _emit(args, lambda: {"n": n, "m": m, "rows": rows}, lambda: lines)
    return 0


def cmd_conical(args) -> int:
    p = _load_validated(args.file)
    flag, witness = is_conical(p, cellmod.enumerate_cells(p, max_nodes=args.max_patterns))
    _emit(args, lambda: {"conical": flag, "witness": list(witness) if witness else None},
          lambda: [f"conical: {flag}" + (f" witness {list(witness)}" if witness else "")])
    return 0


def cmd_tree(args) -> int:
    p = _load_validated(args.file)
    check_adjacency_input(p)
    tree = build_tree(p, cellmod.enumerate_cells(p, max_nodes=args.max_patterns))
    cat = is_caterpillar(tree)
    if args.format == "dot":
        print(tree.to_dot())
        print(f"// caterpillar: {cat}", file=sys.stderr)
        return 0
    _emit(args, lambda: {
        "nodes": [[list(b) for b in bases] for bases in tree.node_bases],
        "edges": [list(e) for e in tree.edges],
        "leaves": [{"label": label, "node": at} for label, at in sorted(tree.leaves)],
        "caterpillar": cat,
    }, lambda: tree.to_text().split("\n") + [f"caterpillar: {cat}"])
    return 0


def cmd_tau(args) -> int:
    p = tau(_load_record(args.file, HeightMatrix, "height-matrix"))
    # a column of V with no finite entry is in no basis of tau(V)
    for j in p.underlying_matroid().loops():
        print(f"column {j} has no finite entries; {j} will be a loop", file=sys.stderr)
    _emit(args, p.to_json, lambda: [
        f"rank {p.m} on [{p.n}], support size {len(p.support_masks())}",
        *(f"  p{list(a)} = {format_scalar(p.entry(a))}" for a in p.support()),
    ])
    return 0


def cmd_selftest(args) -> int:
    # imported here, so that no other subcommand imports or compiles it
    from .selftest import run_selftest

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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `troplin` parser, built on the first call and shared after it.

    Each `parse_args` starts from a fresh namespace, so no value carries
    over from one `main` call to the next."""
    ap = _Parser(
        prog="troplin",
        description="Exact tropical Pluecker vectors, charts and cell complexes.",
    )
    ap.add_argument("--version", action="version", version=f"troplin {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    # each shared flag rule is declared once, in a parent parser; a
    # subcommand gets a flag by listing its parent
    def parent(*names, **kwargs):
        p = argparse.ArgumentParser(add_help=False)
        p.add_argument(*names, **kwargs)
        return p

    def one_of(name):
        p = argparse.ArgumentParser(add_help=False)
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument(f"--{name}")
        group.add_argument(f"--{name}-file")
        return p

    file = parent("file", help="input JSON file")
    formats = parent("--format", choices=("text", "json"), default="text")
    formats_dot = parent("--format", choices=("text", "json", "dot"), default="text")
    max_patterns = parent(
        "--max-patterns", type=_int_at_least(0),
        default=cellmod.MAX_SOLVER_NODES_DEFAULT,
        help="cap on tie-pattern nodes (tie sets tried on a feasible prefix) "
             "across the whole enumeration",
    )
    basis = parent("--basis", required=True)
    point, x = one_of("point"), one_of("x")

    def command(name, func, summary, *parents):
        sp = sub.add_parser(name, help=summary, parents=parents)
        sp.set_defaults(func=func)
        return sp

    command("validate", cmd_validate, "check the tropical Pluecker relations", file, formats)
    command("circuits", cmd_circuits, "all valuated circuits (one per support)", file, formats)
    command("member", cmd_member, "membership of a point in the space", file, formats, point)
    command("project", cmd_project, "project a chart-region point onto the space",
            file, formats, basis, point)
    command("chart", cmd_chart, "map chart coordinates to a point of the space",
            file, formats, basis, x)
    command("local", cmd_local, "local cell complex at one basis",
            file, formats, max_patterns, basis)
    command("cells", cmd_cells, "global cell complex", file, formats_dot, max_patterns)
    command("fvector", cmd_fvector, "f-vector of the global complex",
            file, formats, max_patterns)
    sp = command("bounds", cmd_bounds, "per-dimension cell caps for (n, m)", formats)
    sp.add_argument("--n", type=_strict_int, required=True)
    sp.add_argument("--m", type=_strict_int, required=True)
    command("conical", cmd_conical, "is some basis contained in every bounded cell?",
            file, formats, max_patterns)
    command("tree", cmd_tree, "rank-2 tree (text or DOT)", file, formats_dot, max_patterns)
    command("tau", cmd_tau, "Pluecker vector of a height matrix", file, formats)

    sp = command("selftest", cmd_selftest, "run the seeded property suite")
    sp.add_argument("--seed", type=_strict_int, default=1729)  # selftest.DEFAULT_SEED
    sp.add_argument("--scale", type=_int_at_least(1), default=1,
                    help="divide run counts by this")

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; pass that through
        return int(exc.code or 0)
    try:
        code = args.func(args)
        sys.stdout.flush()  # here, so that a closed pipe is caught below
        return code
    except BrokenPipeError:
        # the reader has gone (``troplin cells FILE | head -1``): point stdout
        # at devnull, so that the interpreter's last flush writes nowhere
        # instead of failing again (the Python `signal` docs' advice on SIGPIPE)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 1
    except cellmod.EnumerationLimit as exc:
        print(f"error: {exc}; raise --max-patterns", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
