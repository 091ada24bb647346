import json
import os
import random
import re
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

import troplin
from oracles import fraction_failing_circuit
from troplin.cells import enumerate_cells
from troplin.cli import build_parser, main
from troplin.conical import HeightMatrix, random_height_matrix, tau
from troplin.examples import snowflake, two_pyramids
from troplin.selftest import DEFAULT_SEED


@pytest.fixture
def example1(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(two_pyramids().to_json()))
    return str(path)


@pytest.fixture
def snowflake_file(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(snowflake().to_json()))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_ok(capsys, example1):
    code, out, _ = run(capsys, "validate", example1)
    assert code == 0
    assert "valid: True" in out


def test_validate_bad_vector(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "n": 4, "m": 2,
        "entries": [{"subset": [1, 2], "value": "0"},
                    {"subset": [3, 4], "value": "0"}],
    }))
    code, out, err = run(capsys, "validate", str(path))
    assert (code, err) == (1, "")
    assert "valid: False" in out
    code, out, err = run(capsys, "validate", str(path), "--format", "json")
    assert (code, err) == (1, "")
    payload = json.loads(out)
    assert payload["support_exchange_ok"] is False
    assert payload["exchange_witness"] == {"A": [1, 2], "B": [3, 4], "a": 1}


def test_malformed_file_is_usage_error(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2
    assert "malformed JSON" in err

    path2 = tmp_path / "missing.json"
    path2.write_text(json.dumps({"n": 4, "entries": []}))
    code, _, err = run(capsys, "validate", str(path2))
    assert code == 2
    assert "'m'" in err


@pytest.mark.parametrize("command, obj, message", [
    ("validate", {"n": 4.7, "m": 2, "entries": [{"subset": [1, 2], "value": "0"}]},
     "n must be a JSON integer, got 4.7"),
    ("validate", {"n": 4, "m": True, "entries": [{"subset": [1], "value": "0"}]},
     "m must be a JSON integer, got True"),
    ("tau", {"n": 4.9, "B": [1, 2], "V": [["1", "2"], ["3", "4"]]},
     "n must be a JSON integer, got 4.9"),
    ("validate", {"n": 40, "m": 1, "entries": [{"subset": [1], "value": "0"}]},
     "ground set size 40 exceeds the cap 16"),
    ("tau", {"n": 20, "B": [1], "V": [["0"] * 19]}, "ground set size 20 exceeds the cap 16"),
    # C(16,7) * C(16,9) ~ 1.3e8 relation checks: refused before validate runs
    ("validate", {"n": 16, "m": 8, "entries": [{"subset": list(range(1, 9)), "value": "0"}]},
     "over the cap 100000"),
    ("tau", {"n": 16, "B": list(range(1, 9)), "V": [["0"] * 8] * 8}, "over the cap 100000"),
    ("validate", {"n": "4", "m": 2, "entries": [{"subset": [1, 2], "value": "0"}]},
     "n must be a JSON integer, got '4'"),
    # each row a string: not read character by character
    ("tau", {"n": 4, "B": [1, 2], "V": ["12", "34"]},
     "expected a list of heights for row 1, got the string '12'"),
    # a subset given as a string, or with a string element, is not read as
    # elements out of range
    ("tau", {"n": 4, "B": "12", "V": [["1", "2"], ["3", "4"]]},
     "expected a list of elements, got the string '12'"),
    ("validate", {"n": 4, "m": 2, "entries": [{"subset": "12", "value": "0"}]},
     "expected a list of elements, got the string '12'"),
    ("validate", {"n": 4, "m": 2, "entries": [{"subset": [1, "2"], "value": "0"}]},
     "element '2' is not an integer"),
    ("tau", {"n": 4, "B": [1, True], "V": [["1", "2"], ["3", "4"]]},
     "element True is not an integer"),
    # an int outside the ground set keeps its message
    ("validate", {"n": 4, "m": 2, "entries": [{"subset": [1, 5], "value": "0"}]},
     "element 5 outside ground set [1..4]"),
    ("validate", {"n": 4, "m": 0, "entries": [{"subset": [], "value": "0"}]},
     "need 1 <= m <= n"),
    ("validate", {"n": 4, "m": 5, "entries": [{"subset": [1, 2, 3, 4], "value": "0"}]},
     "need 1 <= m <= n"),
    # an empty subset is a subset of the wrong size, not a mask out of range
    ("validate", {"n": 4, "m": 2, "entries": [{"subset": [], "value": "1"}]},
     "subset [] is not an m-set"),
    # a subset listed twice is refused in any order, an INF value included
    ("validate", {"n": 4, "m": 2, "entries": [{"subset": [1, 2], "value": "inf"},
                                              {"subset": [2, 1], "value": "0"}]},
     "duplicate entry for subset [1, 2]"),
], ids=["float_n", "bool_m", "float_heights_n", "ground_cap", "heights_ground_cap",
        "work_cap", "heights_work_cap", "string_n", "string_heights_rows",
        "string_basis", "string_subset", "string_element", "bool_basis_element",
        "element_out_of_range", "zero_m", "m_over_n", "empty_subset",
        "duplicate_inf_subset"])
def test_bad_sizes_are_usage_errors(capsys, tmp_path, command, obj, message):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, command, str(path))
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and message in err


def test_non_utf8_file_is_usage_error(capsys, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"n": 4, "m": 2, "entries": [], "note": "caf\xe9"}')
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "not UTF-8" in err


def test_missing_file(capsys, example1, tmp_path):
    code, _, err = run(capsys, "validate", "/nonexistent/file.json")
    assert code == 2
    assert "no such file" in err
    # a path that exists but cannot be read as a file
    for argv in (("validate", str(tmp_path)),
                 ("member", example1, "--point-file", str(tmp_path))):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and err.startswith(f"error: cannot read {tmp_path}")


def test_member(capsys, example1):
    code, out, _ = run(capsys, "member", example1, "--point", "0,0,0,0")
    assert code == 0 and "member: True" in out
    code, out, _ = run(capsys, "member", example1, "--point", "0,0,0,-5")
    assert code == 0 and "member: False" in out
    code, _, err = run(capsys, "member", example1, "--point", "0,0")
    assert code == 2


def test_member_names_the_failing_circuit(capsys):
    # a non-member gets the first circuit whose minimum is attained once;
    # a member's output is unchanged
    fixture = str(Path(__file__).parents[1] / "fixtures" / "example1.json")
    code, out, _ = run(capsys, "member", fixture, "--point=0,0,0,-5")
    assert code == 0
    assert out == "member: False\ncircuit: supp=[1, 2, 4] vector=[0,0,inf,1]\n"
    code, out, _ = run(capsys, "member", fixture, "--point=0,0,0,-5", "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "point": ["0", "0", "0", "-5"],
        "member": False,
        "circuit": {"support": [1, 2, 4], "vector": ["0", "0", "inf", "1"]},
    }
    code, out, _ = run(capsys, "member", fixture, "--point", "0,0,0,0")
    assert code == 0 and out == "member: True\n"
    code, out, _ = run(capsys, "member", fixture, "--point", "0,0,0,0", "--format", "json")
    assert code == 0
    assert out == json.dumps({"member": True, "point": ["0"] * 4}, indent=2, sort_keys=True) + "\n"


def test_member_point_file(capsys, example1, tmp_path):
    pf = tmp_path / "pt.json"
    pf.write_text(json.dumps(["0", "0", "0", "0"]))
    code, out, _ = run(capsys, "member", example1, "--point-file", str(pf))
    assert code == 0 and "member: True" in out


def test_project_and_chart(capsys, example1):
    code, out, _ = run(capsys, "project", example1, "--basis", "1,3",
                       "--point", "5,0,9,0")
    assert code == 0
    assert "projection: 5,5,9,6" in out
    code, out, _ = run(capsys, "chart", example1, "--basis", "1,3", "--x", "0,5")
    assert code == 0
    assert "point: 0,0,5,1" in out
    # out-of-region point is invalid input, not a crash
    code, _, err = run(capsys, "project", example1, "--basis", "1,3",
                       "--point", "0,5,0,9")
    assert code == 1
    assert "invalid input" in err


def _exact(text):
    # Fraction(text) and int(text) refuse more digits than the interpreter's
    # limit; Decimal reads them exactly
    num, _, den = text.partition("/")
    return Fraction(int(Decimal(num)), int(Decimal(den or "1")))


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_answers_past_the_digit_limit_are_printed(capsys, tmp_path, fmt):
    # a valid rank-1 vector whose differences p_i - p_j have denominators of
    # about 6,000 digits, past the 4,300 that str() of an int takes
    values = ["1/" + "3" * 3000, "1/" + "7" * 3000, "1/" + "1" * 2999 + "3"]
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"n": 3, "m": 1, "entries": [
        {"subset": [i], "value": v} for i, v in enumerate(values, start=1)]}))
    p = [_exact(v) for v in values]
    code, out, err = run(capsys, "circuits", str(path), "--format", fmt)
    assert (code, err) == (0, "")
    if fmt == "json":
        circuits = [(c["support"], c["vector"]) for c in json.loads(out)["circuits"]]
    else:
        circuits = [
            (json.loads(supp), vec.split(","))
            for supp, vec in re.findall(r"supp=(\[.*?\]) vector=\[(.*)\]", out)
        ]
    # the circuit on {i, j} is (p_j, p_i) on (i, j), shifted to minimum 0
    assert [supp for supp, _ in circuits] == [[1, 2], [1, 3], [2, 3]]
    for (i, j), vec in circuits:
        low = min(p[i - 1], p[j - 1])
        want = ["inf"] * 3
        want[i - 1], want[j - 1] = p[j - 1] - low, p[i - 1] - low
        assert [x if x == "inf" else _exact(x) for x in vec] == want
    code, out, err = run(capsys, "chart", str(path), "--basis", "1", "--x", "0",
                         "--format", fmt)
    assert (code, err) == (0, "")
    if fmt == "json":
        point = json.loads(out)["point"]
    else:
        point = out.strip().removeprefix("point: ").split(",")
    assert [_exact(x) for x in point] == [0, p[1] - p[0], p[2] - p[0]]


@pytest.mark.parametrize("argv, code, message", [
    (("project", "--basis", "1,3,3", "--point", "5,0,9,0"), 1,
     "invalid input: repeated element 3 in subset"),
    (("local", "--basis", "3,1,1"), 1, "invalid input: repeated element 1 in subset"),
    (("member", "--point", "0,,0,0,0"), 2, "error: --point: bad rational literal ''"),
    (("chart", "--basis", "1,3", "--x", ",0,5,"), 2, "error: --x: bad rational literal ''"),
    # the parser admits exactly one of a flag and its file, and needs --basis
    (("member", "--point", "0,0,0,0", "--point-file", "pt.json"), 2,
     "troplin member: error: argument --point-file: not allowed with argument --point"),
    (("chart", "--basis", "1,3", "--x", "0,5", "--x-file", "x.json"), 2,
     "troplin chart: error: argument --x-file: not allowed with argument --x"),
    (("member",), 2, "troplin member: error: one of the arguments --point --point-file "
                     "is required"),
    (("project", "--point", "5,0,9,0"), 2,
     "troplin project: error: the following arguments are required: --basis"),
], ids=["repeated_basis_project", "repeated_basis_local", "empty_point_field",
        "empty_x_field", "point_and_point_file", "x_and_x_file", "no_point",
        "no_basis"])
def test_flags_are_read_without_coercion(capsys, example1, argv, code, message):
    # each of these used to exit 0: the basis read as a set, the empty
    # fields dropped
    got, out, err = run(capsys, argv[0], example1, *argv[1:])
    assert (got, out, err) == (code, "", message + "\n")


def test_point_file_values_are_read_as_they_are(capsys, example1, tmp_path):
    # a point file is a JSON list of n values, not text to join and split
    pf = tmp_path / "pt.json"
    for values, reason in ((["0,0", "0", "0"], "bad rational literal '0,0'"),
                           ([0.5, 0, 0, 0], "floats are not allowed"),
                           ([True, 0, 0, 0], "booleans are not"),
                           ([None, 0, 0, 0], "cannot interpret None"),
                           (["0", "0", "0"], "expected 4 coordinates, got 3"),
                           ({"a": 1}, "must hold a JSON list of rationals")):
        pf.write_text(json.dumps(values))
        code, out, err = run(capsys, "member", example1, "--point-file", str(pf))
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and reason in err, values


def test_rational_literals_take_ascii_digits_only(capsys, example1, tmp_path):
    # Fraction reads any script's digits; a fullwidth one in a file and an
    # Arabic-Indic one on the command line are usage errors
    path = tmp_path / "v.json"
    vector = {"n": 2, "m": 1, "entries": [{"subset": [1], "value": "１"},
                                          {"subset": [2], "value": "0"}]}
    path.write_text(json.dumps(vector, ensure_ascii=False), encoding="utf-8")
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: bad Pluecker file {path}: bad rational literal '１'\n"
    code, out, err = run(capsys, "member", example1, "--point", "٣,0,0,0")
    assert (code, out, err) == (2, "", "error: --point: bad rational literal '٣'\n")


def test_heights_refuse_a_repeated_basis_element(capsys, tmp_path):
    path = tmp_path / "v.json"
    path.write_text(json.dumps({"n": 4, "B": [1, 2, 2], "V": [["1", "2"], ["3", "4"]]}))
    code, out, err = run(capsys, "tau", str(path))
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "repeated element 2 in subset" in err


def test_height_rows_follow_the_basis_order(capsys, tmp_path):
    # row i holds the heights of B[i], for B in any order
    unsorted, swapped = tmp_path / "a.json", tmp_path / "b.json"
    unsorted.write_text(json.dumps({"n": 4, "B": [2, 1], "V": [["1", "2"], ["3", "4"]]}))
    swapped.write_text(json.dumps({"n": 4, "B": [1, 2], "V": [["3", "4"], ["1", "2"]]}))
    code, out, err = run(capsys, "tau", str(unsorted))
    assert code == 0 and err == ""
    assert "  p[1, 3] = 1\n" in out
    assert run(capsys, "tau", str(swapped)) == (0, out, "")


def test_local_and_cells_and_fvector(capsys, example1):
    code, out, _ = run(capsys, "local", example1, "--basis", "1,4")
    assert code == 0
    assert "5 cells" in out
    code, out, _ = run(capsys, "cells", example1, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["cells"]) == 7
    code, out, _ = run(capsys, "fvector", example1, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["fvector"]["1"] == {"total": 2, "bounded": 2}
    assert payload["fvector"]["2"] == {"total": 5, "bounded": 1}
    assert payload["facets"] == {"count": 2, "bound": 2}


def test_cells_dot(capsys, example1, snowflake_file):
    code, out, err = run(capsys, "cells", example1, "--format", "dot")
    assert (code, err) == (0, "")
    assert out == (
        "graph cells {\n"
        '  v0 [label="12 13 14 23 24"];\n'
        '  v1 [label="13 14 23 24 34"];\n'
        "  v0 -- v1;\n"
        "}\n"
    )
    code, out, err = run(capsys, "cells", snowflake_file, "--format", "dot")
    assert (code, err) == (0, "")
    assert out == (
        "graph cells {\n"
        '  v0 [label="12 13 14 15 16 23 24 25 26"];\n'
        '  v1 [label="13 14 15 16 23 24 25 26 35 36 45 46"];\n'
        '  v2 [label="13 14 23 24 34 35 36 45 46"];\n'
        '  v3 [label="15 16 25 26 35 36 45 46 56"];\n'
        "  v0 -- v1;\n"
        "  v1 -- v2;\n"
        "  v1 -- v3;\n"
        "}\n"
    )


def test_bounds(capsys):
    code, out, _ = run(capsys, "bounds", "--n", "6", "--m", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"][0] == {"dim": 1, "cap_total": 6, "cap_bounded": 6}
    code, out, _ = run(capsys, "bounds", "--n", "6", "--m", "3")
    assert code == 0
    assert out.splitlines()[0] == "dim  cap_total  cap_bounded"
    code, _, err = run(capsys, "bounds", "--n", "2", "--m", "5")
    assert code == 2


def test_bounds_at_n_equals_m(capsys):
    # the local space at n = m is one cell of dimension m, and the fine
    # mixed subdivision it is dual to, a sum of no simplices, is one point
    code, out, _ = run(capsys, "bounds", "--n", "1", "--m", "1", "--format", "json")
    assert code == 0
    assert json.loads(out)["rows"] == [{"dim": 1, "cap_total": 1, "cap_bounded": 1}]
    code, out, _ = run(capsys, "bounds", "--n", "3", "--m", "3", "--format", "json")
    assert code == 0
    assert json.loads(out)["rows"] == [
        {"dim": 1, "cap_total": 0, "cap_bounded": 0},
        {"dim": 2, "cap_total": 0, "cap_bounded": 0},
        {"dim": 3, "cap_total": 1, "cap_bounded": 0},
    ]


def test_fvector_on_a_one_element_vector(capsys, tmp_path):
    # n = 1: the facet bound C(n - 2, m - 1) = C(-1, 0) is 1
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"n": 1, "m": 1, "entries": [{"subset": [1], "value": "0"}]}))
    code, out, err = run(capsys, "fvector", str(path))
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "minimal cells (dual facets): 1 <= 1: True"


def test_bounds_refuses_a_ground_set_over_the_cap(capsys):
    # refused before any table is built, so a huge n costs nothing
    for n in ("17", "3000"):
        code, out, err = run(capsys, "bounds", "--n", n, "--m", "2")
        assert code == 2 and out == ""
        assert err == f"error: ground set size {n} exceeds the cap 16\n"
    code, out, _ = run(capsys, "bounds", "--n", "16", "--m", "8")
    assert code == 0 and out


def test_conical_and_tree(capsys, example1, snowflake_file):
    code, out, _ = run(capsys, "conical", example1)
    assert code == 0 and "conical: True" in out
    code, out, _ = run(capsys, "conical", snowflake_file)
    assert code == 0 and "conical: False" in out
    code, out, _ = run(capsys, "tree", snowflake_file)
    assert code == 0 and "caterpillar: False" in out
    code, out, _ = run(capsys, "tree", snowflake_file, "--format", "dot")
    assert code == 0 and out.startswith("graph tree {")


def test_disconnected_matroid_cell_is_bounded(capsys, tmp_path):
    # U(1,2) + U(1,2): the one cell is the 2-dim lineality, bounded modulo it
    path = tmp_path / "disconnected.json"
    path.write_text(json.dumps({
        "n": 4, "m": 2,
        "entries": [{"subset": s, "value": "0"} for s in ([1, 3], [1, 4], [2, 3], [2, 4])],
    }))
    code, out, err = run(capsys, "cells", str(path))
    assert (code, err) == (0, "")
    assert out == "1 cells\n  dim=2 bounded=True bases=['13', '14', '23', '24']\n"
    code, out, _ = run(capsys, "fvector", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out)["fvector"]["2"] == {"total": 1, "bounded": 1}
    code, out, err = run(capsys, "conical", str(path))
    assert (code, err) == (0, "")
    assert out == "conical: True witness [1, 3]\n"


def _dot_graph(dot):
    """(node labels, edges) of `cells --format dot` output."""
    labels = re.findall(r'v\d+ \[label="([^"]*)"\]', dot)
    edges = re.findall(r"v(\d+) -- v(\d+);", dot)
    return labels, sorted((int(a), int(b)) for a, b in edges)


def test_tree_without_uniform_support(capsys, tmp_path):
    # tau on [6] with one height knocked out: 2 and 6 are parallel, so the
    # support misses {2, 6}, and both hang off one node
    heights = tmp_path / "v.json"
    heights.write_text(json.dumps({"n": 6, "B": [1, 2],
                                   "V": [["4", "2", "5", "inf"], ["5", "5", "5", "4"]]}))
    code, out, _ = run(capsys, "tau", str(heights), "--format", "json")
    assert code == 0
    path = tmp_path / "p.json"
    path.write_text(out)
    assert len(json.loads(out)["entries"]) == 14
    code, out, err = run(capsys, "tree", str(path), "--format", "json")
    assert (code, err) == (0, "")
    tree = json.loads(out)
    assert tree["caterpillar"] is True
    leaves = {(leaf["label"], leaf["node"]) for leaf in tree["leaves"]}
    assert leaves == {(1, 0), (2, 2), (3, 1), (4, 0), (5, 2), (6, 2)}
    code, dot, _ = run(capsys, "cells", str(path), "--format", "dot")
    assert code == 0
    labels, edges = _dot_graph(dot)
    assert labels == [" ".join("".join(map(str, b)) for b in node) for node in tree["nodes"]]
    assert edges == sorted(map(tuple, tree["edges"])) and len(edges) == 2
    code, out, _ = run(capsys, "tree", str(path), "--format", "dot")
    assert code == 0 and out.count("-- L") == 6


@pytest.mark.parametrize("argv", [
    ("cells",),
    ("fvector",),
    ("conical",),
    ("tree",),
    ("local", "--basis", "1,2"),
])
def test_tiny_gaps_enumerate(capsys, tmp_path, argv):
    # p_13 = 2^-300: the tree's one bounded edge is 2^-300 long
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({
        "n": 4, "m": 2,
        "entries": [{"subset": s, "value": str(Fraction(1, 2**300)) if s == [1, 3] else "0"}
                    for s in ([1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4])],
    }))
    command, *rest = argv
    code, out, err = run(capsys, command, str(path), *rest)
    assert code == 0 and out and err == ""


def _zero_vector(n, m, support):
    return {"n": n, "m": m, "entries": [{"subset": list(s), "value": "0"} for s in support]}


@pytest.mark.parametrize("vector", ["rank3_tau", "disconnected", "two_coloops"])
@pytest.mark.parametrize("argv", [("cells", "--format", "dot"), ("tree",)])
def test_non_tree_is_refused_before_enumeration(capsys, tmp_path, monkeypatch, vector, argv):
    path = tmp_path / "in.json"
    if vector == "rank3_tau":
        heights = Path(__file__).resolve().parent.parent / "fixtures" / "heights_3_6.json"
        code, out, _ = run(capsys, "tau", str(heights), "--format", "json")
        assert code == 0
        path.write_text(out)
    elif vector == "disconnected":
        path.write_text(json.dumps(_zero_vector(4, 2, ([1, 3], [1, 4], [2, 3], [2, 4]))))
    else:
        path.write_text(json.dumps(_zero_vector(2, 2, ([1, 2],))))

    def no_enumeration(*args, **kwargs):
        raise AssertionError("enumerated before refusing")

    monkeypatch.setattr("troplin.cells.enumerate_cells", no_enumeration)
    command, *rest = argv
    code, out, err = run(capsys, command, str(path), *rest)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("invalid input: ")
    assert ("rank 2 only" if vector == "rank3_tau" else "connected underlying matroid") in err


@pytest.mark.parametrize("argv", [
    ("cells",),
    ("local", "--basis", "1,4"),
    ("conical",),
    ("tree",),
])
def test_enumeration_limit_is_one_line(capsys, example1, argv):
    command, *rest = argv
    code, out, err = run(capsys, command, example1, *rest, "--max-patterns", "1")
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "exceeded 1 tie-pattern nodes" in err


def test_max_patterns_caps_the_whole_enumeration(capsys, snowflake_file):
    # every chart of the snowflake fits in 48 tie-pattern nodes; all of them do not
    code, out, err = run(capsys, "cells", snowflake_file, "--max-patterns", "48")
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "exceeded 48 tie-pattern nodes" in err


def test_main_repeats_in_one_process(capsys, snowflake_file):
    # the parser is built once per process; no flag value may leak from one
    # call into the next, so each call answers as it does on a fresh parser
    sequence = [
        ("cells", snowflake_file, "--max-patterns", "48"),
        ("cells", snowflake_file),
        ("--version",),
        ("no-such-command",),
        ("cells", snowflake_file),
    ]
    fresh = []
    for argv in sequence:
        build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    build_parser.cache_clear()
    shared = [run(capsys, *argv) for argv in sequence]
    assert build_parser.cache_info().misses == 1
    assert shared == fresh
    assert [code for code, _, _ in shared] == [1, 0, 0, 2, 0]
    assert shared[1][1].startswith(f"{len(enumerate_cells(snowflake()))} cells\n")
    assert shared[4] == shared[1]


@pytest.mark.parametrize("command", ["fvector", "conical"])
def test_ground_cap_is_invalid_input(capsys, tmp_path, command):
    path = tmp_path / "n11.json"
    path.write_text(json.dumps({
        "n": 11, "m": 1,
        "entries": [{"subset": [i], "value": "0"} for i in range(1, 12)],
    }))
    code, out, err = run(capsys, command, str(path))
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "exceeds the enumeration cap 10" in err
    assert "max_ground" not in err


@pytest.fixture
def subcommand_argv(example1, tmp_path):
    """A minimal working argv per subcommand, keyed by its name."""
    heights = tmp_path / "v.json"
    heights.write_text(json.dumps({"n": 4, "B": [1, 2], "V": [["1", "2"], ["3", "4"]]}))
    return {
        "validate": ["validate", example1],
        "circuits": ["circuits", example1],
        "member": ["member", example1, "--point", "0,0,0,0"],
        "project": ["project", example1, "--basis", "1,3", "--point", "5,0,9,0"],
        "chart": ["chart", example1, "--basis", "1,3", "--x", "0,5"],
        "local": ["local", example1, "--basis", "1,4"],
        "cells": ["cells", example1],
        "fvector": ["fvector", example1],
        "bounds": ["bounds", "--n", "4", "--m", "2"],
        "conical": ["conical", example1],
        "tree": ["tree", example1],
        "tau": ["tau", str(heights)],
        "selftest": ["selftest", "--scale", "100"],
    }


SUBCOMMANDS = ("validate", "circuits", "member", "project", "chart", "local", "cells",
               "fvector", "bounds", "conical", "tree", "tau", "selftest")
DOT = {"cells", "tree"}
MAX_PATTERNS = {"local", "cells", "fvector", "conical", "tree"}


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_option_surface(capsys, subcommand_argv, command):
    argv = subcommand_argv[command]

    def rejected(*extra):
        code = main(argv + list(extra))
        capsys.readouterr()
        return code == 2

    assert rejected("--threads", "1")
    if command == "selftest":
        code, out, _ = run(capsys, *argv, "--seed", str(DEFAULT_SEED))
        assert code == 0 and "selftest: PASS" in out
        assert rejected("--format", "json")
    else:
        assert rejected("--seed", "7")
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0 and json.loads(out)
    if command in DOT:
        code, out, _ = run(capsys, *argv, "--format", "dot")
        assert code == 0 and out.startswith("graph ")
    else:
        assert rejected("--format", "dot")
    if command in MAX_PATTERNS:
        code, _, _ = run(capsys, *argv, "--max-patterns", "100000")
        assert code == 0
    else:
        assert rejected("--max-patterns", "100000")


def test_tau_round_trip(capsys, tmp_path):
    hm = tmp_path / "v.json"
    hm.write_text(json.dumps({
        "n": 4, "B": [1, 2],
        "V": [["1", "2"], ["3", "4"]],
    }))
    code, out, _ = run(capsys, "tau", str(hm), "--format", "json")
    assert code == 0
    produced = tmp_path / "tau.json"
    produced.write_text(out)
    code, out, _ = run(capsys, "validate", str(produced))
    assert code == 0 and "valid: True" in out


def test_tau_names_each_loop_on_stderr(capsys, tmp_path):
    # the columns of elements 4 and 6 have no finite height, so both are
    # loops of tau(V): one stderr line each, stdout as without them
    hm = tmp_path / "v.json"
    hm.write_text(json.dumps({
        "n": 6, "B": [1, 2],
        "V": [["4", "inf", "5", "inf"], ["5", "inf", "5", "inf"]],
    }))
    notes = ("column 4 has no finite entries; 4 will be a loop\n"
             "column 6 has no finite entries; 6 will be a loop\n")
    code, text, err = run(capsys, "tau", str(hm))
    assert (code, err) == (0, notes)
    assert text.startswith("rank 2 on [6], support size 6\n")
    code, out, err = run(capsys, "tau", str(hm), "--format", "json")
    assert (code, err) == (0, notes)
    assert {tuple(e["subset"]) for e in json.loads(out)["entries"]} == set(combinations((1, 2, 3, 5), 2))
    hm.write_text(json.dumps({"n": 4, "B": [1, 2], "V": [["1", "inf"], ["inf", "4"]]}))
    code, _, err = run(capsys, "tau", str(hm))
    assert (code, err) == (0, "")


@pytest.fixture
def loops_file(tmp_path):
    # 4 and 6 are loops of tau(V): their columns have no finite height
    path = tmp_path / "loops.json"
    v = HeightMatrix.from_json({
        "n": 6, "B": [1, 2],
        "V": [["4", "inf", "5", "inf"], ["5", "inf", "5", "inf"]],
    })
    path.write_text(json.dumps(tau(v).to_json()))
    return str(path)


@pytest.mark.parametrize("argv", [
    ("cells",), ("fvector",), ("conical",), ("local", "--basis", "1,2"),
    ("project", "--basis", "1,2", "--point", "0,0,0,0,0,0"),
], ids=lambda argv: argv[0])
def test_loops_are_refused_with_one_message(capsys, loops_file, argv):
    # every command that needs the finite part of the space refuses the
    # vector with the same line
    command, *rest = argv
    code, out, err = run(capsys, command, loops_file, *rest)
    assert (code, out) == (1, "")
    assert err == ("invalid input: underlying matroid has loops (4, 6); "
                   "the space has no finite points and no charts\n")


@pytest.mark.parametrize("point, support", [
    ("0,0,0,0,0,0", [1, 2, 3]),  # fails circuit 0
    ("-4,-5,0,0,0,0", [4]),  # passes circuit 0; the loop scan names loop 4
], ids=["circuit-0", "loop-scan"])
def test_member_names_a_circuit_on_a_vector_with_loops(capsys, loops_file, point, support):
    # a vector with loops has no member
    code, out, err = run(capsys, "member", loops_file, f"--point={point}", "--format", "json")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["member"] is False
    assert payload["circuit"]["support"] == support
    with open(loops_file) as fh:
        p = troplin.PlueckerVector.from_json(json.load(fh))
    assert p.validate().ok
    want = fraction_failing_circuit(p, point.split(","))
    assert payload["circuit"] == {
        "support": list(want.support),
        "vector": [troplin.format_scalar(x) for x in want.entries],
    }
    code, out, _ = run(capsys, "member", loops_file, f"--point={point}")
    assert out.splitlines()[0] == "member: False"


@pytest.mark.parametrize("argv", [
    ("local",), ("chart", "--x", "0,0"), ("project", "--point", "0,0,0,0,0,0"),
], ids=lambda argv: argv[0])
def test_a_basis_outside_the_support_is_invalid_input(capsys, tmp_path, argv):
    # 2 and 6 are parallel in tau of these heights, so {2, 6} is no basis
    hm = tmp_path / "v.json"
    hm.write_text(json.dumps({
        "n": 6, "B": [1, 2],
        "V": [["4", "2", "5", "inf"], ["5", "5", "5", "4"]],
    }))
    _, vector, _ = run(capsys, "tau", str(hm), "--format", "json")
    path = tmp_path / "knockout.json"
    path.write_text(vector)
    command, *rest = argv
    code, out, err = run(capsys, command, str(path), "--basis", "2,6", *rest)
    assert (code, out, err) == (1, "", "invalid input: (2, 6) is not in the support\n")


def test_package_root_binds_every_name_it_exports():
    assert [name for name in troplin.__all__ if not hasattr(troplin, name)] == []


def test_output_is_deterministic(capsys, example1):
    _, first, _ = run(capsys, "fvector", example1, "--format", "json")
    _, second, _ = run(capsys, "fvector", example1, "--format", "json")
    assert first == second
    _, a, _ = run(capsys, "cells", example1, "--format", "json")
    _, b, _ = run(capsys, "cells", example1, "--format", "json")
    assert a == b


@pytest.mark.parametrize("argv, option", [
    (("selftest", "--scale", "0"), "--scale"),
    (("selftest", "--scale", "-1"), "--scale"),
    (("cells", "FILE", "--max-patterns", "-5"), "--max-patterns"),
    (("tree", "FILE", "--max-patterns", "-1"), "--max-patterns"),
])
def test_bad_numeric_options_are_usage_errors(capsys, example1, argv, option):
    argv = [example1 if a == "FILE" else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and f"argument {option}: must be at least" in err


@pytest.mark.parametrize("argv, message", [
    (("project", "FILE", "--basis", "1,0_3", "--point", "5,0,9,0"),
     "error: --basis must be comma-separated integers, got '1,0_3'"),
    (("project", "FILE", "--basis", "+1,3", "--point", "5,0,9,0"),
     "error: --basis must be comma-separated integers, got '+1,3'"),
    (("local", "FILE", "--basis", " 1,3"),
     "error: --basis must be comma-separated integers, got ' 1,3'"),
    (("bounds", "--n", "+6", "--m", "3"), "argument --n: invalid int value: '+6'"),
    (("bounds", "--n", "6", "--m", " 3"), "argument --m: invalid int value: ' 3'"),
    (("bounds", "--n", "1_0", "--m", "3"), "argument --n: invalid int value: '1_0'"),
    (("cells", "FILE", "--max-patterns", "1_000"),
     "argument --max-patterns: invalid int value: '1_000'"),
    (("selftest", "--seed", "+7"), "argument --seed: invalid int value: '+7'"),
])
def test_integer_flags_are_read_strictly(capsys, example1, argv, message):
    # int() takes each of these; a flag takes an optional minus and digits
    argv = [example1 if a == "FILE" else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.rstrip("\n").endswith(message)


def test_zero_max_patterns_enumerates_a_full_rank_vector(capsys, tmp_path):
    # m = n: one basis, no non-basis element, so no tie-pattern node at all
    path = tmp_path / "full.json"
    path.write_text(json.dumps(_zero_vector(3, 3, ([1, 2, 3],))))
    code, out, err = run(capsys, "cells", str(path), "--max-patterns", "0")
    assert (code, err) == (0, "")
    assert out == "1 cells\n  dim=3 bounded=True bases=['123']\n"


def test_selftest_scaled(capsys):
    code, out, _ = run(capsys, "selftest", "--scale", "100")
    assert code == 0
    assert "selftest: PASS" in out
    assert out.count("PASS") >= 5


def python_env():
    """The environment of a fresh interpreter with this checkout's troplin
    on its path."""
    src = str(Path(troplin.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}


def run_python(*argv):
    """A fresh interpreter with this checkout's troplin on its path."""
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          env=python_env(), timeout=120)


def test_selftest_passes_without_asserts():
    # python -O strips assert statements, so no validation may live in one
    proc = run_python("-O", "-m", "troplin.cli", "selftest", "--scale", "100")
    assert proc.returncode == 0, proc.stderr
    assert "selftest: PASS" in proc.stdout


def test_cli_import_leaves_logging_out():
    # logging costs milliseconds of import and RSS on every command; the
    # property suite is left out too, as only `selftest` needs it
    proc = run_python("-c", "import sys, troplin.cli; "
                      "sys.exit('logging' in sys.modules or 'troplin.selftest' in sys.modules)")
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("args", [
    ["cells"],  # 68 kB of text: the pipe breaks inside the print loop
    ["cells", "--format", "json"],
    ["circuits", "--format", "json"],
], ids=["cells-text", "cells-json", "circuits-json"])
def test_a_closed_pipe_ends_quietly(tmp_path, args):
    # `troplin cells big.json | head -1`: the reader is gone before the
    # command writes (here from the start, so the write fails whatever the
    # timing); exit 1 with nothing on stderr, not a BrokenPipeError traceback
    path = tmp_path / "big.json"
    path.write_text(json.dumps(tau(random_height_matrix(8, 4, rng=random.Random(1))).to_json()))
    proc = subprocess.Popen([sys.executable, "-m", "troplin.cli", args[0], str(path), *args[1:]],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=python_env())
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=120), err) == (1, b"")


def test_selftest_seed_default_is_the_suites():
    # the parser names the default without importing the suite
    assert build_parser().parse_args(["selftest"]).seed == DEFAULT_SEED == 1729


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
