"""tools/census.py's bookkeeping: which lines are raise statements, which of
them went unreached, and when an unreached one fails the census."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import census  # noqa: E402

SOURCE = '''\
def f(x):
    if x:
        raise ValueError(
            "two lines")
    try:
        return 1 / x
    except ZeroDivisionError:
        raise
'''


def test_raise_lines_lists_each_raise_statement_at_its_first_line(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(SOURCE)
    assert census.raise_lines(path) == {3: "raise ValueError(", 8: "raise"}


def test_only_unreached_raises_without_a_reason_fail_the_census():
    raises = {"a.py": {3: "raise X", 9: "raise Y"}, "b.py": {4: "raise Z"}}
    missing = census.unreached(raises, {("a.py", 3), ("a.py", 4)})
    assert missing == [("a.py", 9, "raise Y"), ("b.py", 4, "raise Z")]
    lines, status = census.report(missing, {"b.py: raise Z": "only a subprocess reaches it"})
    assert lines == ["src/groupact/a.py:9: raise Y  [no reason]",
                     "src/groupact/b.py:4: raise Z  [only a subprocess reaches it]"]
    assert status == 1
    assert census.report(missing[1:], {"b.py: raise Z": "why"})[1] == 0
    assert census.report([], {}) == ([], 0)


def test_every_reason_names_a_raise_in_the_package():
    raises = {p.name: census.raise_lines(p) for p in census.PACKAGE.glob("*.py")}
    present = {f"{name}: {text}" for name, lines in raises.items() for text in lines.values()}
    assert set(census.REASONS) <= present
