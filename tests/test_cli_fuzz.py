"""Seeded fuzzing of the file subcommands through in-process `cli.main`.

Each case mutates a fixture, either as parsed JSON (one node replaced,
dropped or duplicated) or as bytes (truncated, or one byte deleted,
inserted or replaced), writes it to a file and runs one file subcommand on
it under an alarm.  Whatever the input, the command must exit 0, 1 or 2,
and an error exit must print exactly one line on stderr and nothing on
stdout.  The one exception is `validate`'s verdict: it exits 1 with the
report on stdout and nothing on stderr.  Every subset list of a fixture is
also written as a string and with a string element, which must be usage
errors that name the string.
"""

import copy
import json
import random
import signal
import sys
from pathlib import Path

import pytest

from troplin.cli import main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
CASES = 250  # per fixture
ALARM_S = 10

# file subcommands and their extra flags, fitted to a rank-2 vector on [4]
PLUCKER_COMMANDS = [
    ["validate"],
    ["validate", "--format", "json"],
    ["circuits"],
    ["member", "--point", "0,0,0,-5"],
    ["project", "--basis", "1,3", "--point", "0,0,1,1"],
    ["chart", "--basis", "1,3", "--x", "0,1"],
    ["local", "--basis", "1,3"],
    ["cells", "--format", "json"],
    ["cells", "--format", "dot"],
    ["fvector"],
    ["conical"],
    ["tree"],
    ["tree", "--format", "json"],
    ["tree", "--format", "dot"],
]
HEIGHTS_COMMANDS = [["tau"], ["tau", "--format", "json"]]

ATOMS = [
    0, 1, -1, 2, 3, 5, 16, 17, 10**6, 2**70, 0.5, True, False, None,
    "", "0", "-3/4", "1/0", "inf", "-inf", "x", "1e3", "\n",
    [], {}, [1], [1, 1], [[1, 2]], {"subset": [1, 2], "value": "0"},
]
NOISE = b'[]{},:"-/0123456789 \n\\\xe9\xff'


def _slots(node):
    """(container, key) for every child of every container in ``node``."""
    keys = range(len(node)) if isinstance(node, list) else list(node)
    for key in keys:
        yield node, key
        if isinstance(node[key], (list, dict)):
            yield from _slots(node[key])


def mutate_json(obj, rng):
    """A copy of ``obj`` with one child replaced by an atom, dropped,
    duplicated in place, or (a number) moved by one."""
    obj = copy.deepcopy(obj)
    parent, key = rng.choice(list(_slots(obj)))
    roll = rng.random()
    if roll < 0.5:
        parent[key] = copy.deepcopy(rng.choice(ATOMS))
    elif roll < 0.7:
        del parent[key]
    elif roll < 0.85 and isinstance(parent, list):
        parent.insert(key, copy.deepcopy(parent[key]))
    elif isinstance(parent[key], int):
        parent[key] += rng.choice((-1, 1))
    else:
        parent[key] = [parent[key]]
    return json.dumps(obj).encode()


def mutate_bytes(data, rng):
    """``data`` truncated, or with one byte deleted, inserted or replaced."""
    at = rng.randrange(len(data))
    noise = NOISE[rng.randrange(len(NOISE)):][:1]
    return rng.choice([
        data[:at],
        data[:at] + data[at + 1:],
        data[:at] + noise + data[at:],
        data[:at] + noise + data[at + 1:],
    ])


class Alarm(Exception):
    pass


def _ring(signum, frame):
    raise Alarm


def run_file(capsys, command, path):
    """`main` on [command[0], path, *flags] under an alarm: (code, out, err)."""
    previous = signal.signal(signal.SIGALRM, _ring)
    signal.alarm(ALARM_S)
    try:
        code = main([command[0], str(path), *command[1:]])
    except Alarm:
        pytest.fail(f"{command} on {path.read_bytes()[:200]!r} ran past {ALARM_S} s")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    out = capsys.readouterr()
    return code, out.out, out.err


def assert_contract(code, out, err, command, data):
    shown = f"{command} on {data[:200]!r}: exit {code}, stdout {out[:200]!r}, stderr {err!r}"
    assert code in (0, 1, 2), shown
    if code == 1 and command[0] == "validate" and not err:
        assert out.startswith(("valid: False", "{")), shown
    elif code:
        assert out == "" and err.count("\n") == 1 and err.endswith("\n"), shown


needs_alarm = pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")


@needs_alarm
@pytest.mark.parametrize("name, commands, exits", [
    ("example1.json", PLUCKER_COMMANDS + HEIGHTS_COMMANDS[:1], {0, 1, 2}),
    # tau exits 0 on every well-formed height matrix, so no exit 1
    ("heights_3_6.json", HEIGHTS_COMMANDS + PLUCKER_COMMANDS[:1], {0, 2}),
])
def test_mutated_fixtures_keep_the_exit_contract(capsys, tmp_path, name, commands, exits):
    data = (FIXTURES / name).read_bytes()
    obj = json.loads(data)
    rng = random.Random(f"fuzz/{name}")
    path = tmp_path / name
    codes = set()
    for _ in range(CASES):
        mutant = mutate_json(obj, rng) if rng.random() < 0.6 else mutate_bytes(data, rng)
        path.write_bytes(mutant)
        command = rng.choice(commands)
        code, out, err = run_file(capsys, command, path)
        assert_contract(code, out, err, command, mutant)
        codes.add(code)
    assert codes == exits


def _subsets(obj):
    """(container, key) of every subset list: a height matrix's "B", or each
    entry's "subset"."""
    if "B" in obj:
        yield obj, "B"
    for entry in obj.get("entries", ()):
        yield entry, "subset"


def string_subsets(obj):
    """(file text, message) per copy of ``obj`` with one subset list written
    as a string ("12"), or with its last element a string ([1, "2"])."""
    for at in range(len(list(_subsets(obj)))):
        for whole in (True, False):
            mutant = copy.deepcopy(obj)
            parent, key = list(_subsets(mutant))[at]
            subset = parent[key]
            if whole:
                parent[key] = "".join(map(str, subset))
                message = f"got the string {parent[key]!r}"
            else:
                subset[-1] = str(subset[-1])
                message = f"element {subset[-1]!r} is not an integer"
            yield json.dumps(mutant), message


@needs_alarm
@pytest.mark.parametrize("name, commands", [
    ("example1.json", PLUCKER_COMMANDS),
    ("heights_3_6.json", HEIGHTS_COMMANDS),
])
def test_string_subsets_are_usage_errors(capsys, tmp_path, name, commands):
    obj = json.loads((FIXTURES / name).read_text())
    path = tmp_path / name
    for text, message in string_subsets(obj):
        path.write_text(text)
        for command in commands:
            code, out, err = run_file(capsys, command, path)
            assert_contract(code, out, err, command, text.encode())
            assert code == 2 and message in err, (command, text, err)


def _repeated_key():
    obj = json.loads((FIXTURES / "example1.json").read_text())
    return json.dumps(obj).replace('"m": 2', '"m": 3, "m": 2', 1)


def _long_integer():
    digits = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if not digits:
        pytest.skip("the interpreter sets no integer digit limit")
    return '{"n": ' + "4" * (digits + 1) + ', "m": 2, "entries": []}'


@needs_alarm
@pytest.mark.parametrize("command", [["validate"], ["tau"]])
@pytest.mark.parametrize("make, message", [
    (lambda: "[" * 100_000, "malformed JSON"),
    (lambda: '{"a":' * 100_000, "malformed JSON"),
    (_long_integer, "digits"),
    (_repeated_key, 'repeated key "m"'),
], ids=["deep_list", "deep_object", "long_integer", "repeated_key"])
def test_hand_made_files_are_usage_errors(capsys, tmp_path, command, make, message):
    path = tmp_path / "in.json"
    path.write_text(make())
    code, out, err = run_file(capsys, command, path)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and message in err
