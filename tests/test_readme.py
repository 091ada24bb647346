"""README's "Quick start (library)" block runs and gives what its comments say."""

import re
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"


def quick_start() -> str:
    text = README.read_text(encoding="utf-8")
    found = re.search(r"## Quick start \(library\)\n+```python\n(.*?)\n```", text, re.S)
    assert found, "README has no Quick start (library) python block"
    return found.group(1)


def test_readme_quick_start_gives_its_stated_values():
    ns = {}
    exec(compile(quick_start(), str(README), "exec"), ns)
    p, cells, fv, ctx = ns["p"], ns["cells"], ns["fv"], ns["ctx"]
    # validated by a statement of its own, not inside an assert that
    # python -O strips
    assert p.validated
    assert p.contains((0, 0, 0, 0))
    assert not p.contains((0, 0, 0, ns["Fraction"](-5)))
    assert (len(cells), fv.total, fv.bounded) == (7, (2, 5), (2, 1))
    assert ctx.chart((0, 5)) == (0, 0, 5, 1)
    assert ns["is_conical"](ns["q"])[0]
