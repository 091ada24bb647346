"""Byte-for-byte stdout of the point reads, the circuits and the cell commands.

Each case runs one CLI command in process and compares its stdout with a
file under ``golden/``, witnesses and all.  The inputs are the two fixtures
and the vector that ``troplin tau fixtures/heights_3_6.json`` prints, whose
entries have denominators of up to 37 digits.  To re-record every file after
a deliberate output change, run ``PYTHONPATH=src python tests/test_golden.py``
from the root of the checkout and review the diff.
"""

import sys
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from troplin.cli import main

GOLDEN = Path(__file__).parent / "golden"
FIXTURES = Path(__file__).parents[1] / "fixtures"

INPUTS = {
    "example1": FIXTURES / "example1.json",
    "snowflake": FIXTURES / "snowflake.json",
    "tau_3_6": GOLDEN / "tau_3_6.json",
}

# per input: the chart (basis, x), the projection (basis, point) and a member
# point, as CLI arguments; every point has denominators prime to the entries'
# ("--x=..." keeps argparse from reading a leading minus as a flag)
READS = {
    "example1": (
        ["--basis", "3,4", "--x=4,-26/11"],
        ["--basis", "2,4", "--point=-23/7,2/7,-8,4/11"],
        ["--point=-37/11,-37/11,4,-26/11"],
    ),
    "snowflake": (
        ["--basis", "5,6", "--x=1,-19/3"],
        ["--basis", "2,4", "--point=-19/11,21/11,-17/3,10/11,-17/3,7/11"],
        ["--point=-25/3,-25/3,-25/3,-25/3,1,-19/3"],
    ),
    "tau_3_6": (
        ["--basis", "4,5,6", "--x=-29/11,-25/11,-4/7"],
        ["--basis", "1,2,3", "--point=7/11,18/7,-2/11,-10,27/11,-2"],
        ["--point-file", str(GOLDEN / "tau_3_6.member.json")],
    ),
}


def commands():
    """(golden file name, argv) for every recorded command."""
    out = []
    for name, path in INPUTS.items():
        chart, project, member = READS[name]
        f = str(path)
        out += [
            (f"{name}.chart.txt", ["chart", f] + chart),
            (f"{name}.project.txt", ["project", f] + project),
            (f"{name}.member.txt", ["member", f] + member),
            (f"{name}.local.json", ["local", f, "--format", "json", chart[0], chart[1]]),
            (f"{name}.circuits.json", ["circuits", f, "--format", "json"]),
            (f"{name}.cells.json", ["cells", f, "--format", "json"]),
            (f"{name}.fvector.txt", ["fvector", f]),
        ]
    return out


def stdout_of(argv) -> tuple[int, str]:
    buf = StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


@pytest.mark.parametrize("golden, argv", [pytest.param(*c, id=c[0]) for c in commands()])
def test_stdout_matches_the_golden_file(golden, argv):
    code, out = stdout_of(argv)
    assert code == 0
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")


def test_tau_prints_the_golden_input():
    code, out = stdout_of(["tau", str(FIXTURES / "heights_3_6.json"), "--format", "json"])
    assert code == 0
    assert out == INPUTS["tau_3_6"].read_text(encoding="utf-8")


if __name__ == "__main__":
    for golden, argv in commands():
        code, out = stdout_of(argv)
        if code != 0:
            sys.exit(f"{golden}: exit {code}")
        (GOLDEN / golden).write_text(out, encoding="utf-8")
