"""The README's Python API example runs as written."""

import re
from pathlib import Path

from opacedit.tpo import INSERT, MOVES
from opacedit.transform import DecoratedEvent

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_block_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines() == [
        "gamma -> ('gamma',)",
        "beta -> ('beta',)",
        "alpha -> ()",
    ]


def test_readme_decision_events_table_matches_the_moves():
    # the table's events: ``c`` is pending, ``b`` the inserted event
    section = README.read_text(encoding="utf-8").split("## Decision events", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([^`]+)` \| `([^`]+)` \| [^|]+ \| (yes|no) \|$", section, re.M)
    expected = []
    for kind in MOVES:
        dec = DecoratedEvent(kind=kind, base="b" if kind == INSERT else "c", context="c")
        expected.append((dec.name, kind, "yes" if dec.controllable else "no"))
    assert rows == expected
