"""List every `raise` statement in src/groupact that the tier-1 suite never reaches.

    python tools/census.py [pytest args]

The suite runs in this process under a `sys.settrace` line tracer that
watches only the files of src/groupact, and every `raise` statement (found
with `ast`) that no test runs is printed as `path:line: source`. An entry
listed in REASONS is printed with its reason; any other entry makes the
script exit 1, as does a failing test, since a failing test may stop short
of the refusals it would reach. Extra arguments go to pytest after the
suite's own.

Two tests fail under any tracer, because a tracer holds a reference to every
frame it watches, and they are deselected: one counts garbage cycles and the
other measures peak memory with tracemalloc. Code run in a subprocess is not
traced.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "groupact"

# Fail only under a tracer; see the module docstring.
DESELECTED = (
    "tests/test_training.py::test_train_leaves_no_garbage_cycles",
    "tests/test_scenes.py::test_save_and_load_hold_one_scene_of_text_at_a_time",
)

# "file.py: <the raise line's source, stripped>" -> why no test reaches it
REASONS: dict[str, str] = {}


def raise_lines(path: Path) -> dict[int, str]:
    """{line number: stripped source line} of each raise statement in path."""
    source = path.read_text()
    lines = source.splitlines()
    return {node.lineno: lines[node.lineno - 1].strip()
            for node in ast.walk(ast.parse(source, str(path))) if isinstance(node, ast.Raise)}


def unreached(raises: dict[str, dict[int, str]], reached: set) -> list[tuple[str, int, str]]:
    """(file, line, source) of each raise in raises whose (file, line) is not in reached."""
    return [(name, no, text) for name, lines in sorted(raises.items())
            for no, text in sorted(lines.items()) if (name, no) not in reached]


def report(missing, reasons) -> tuple[list[str], int]:
    """The lines to print for the unreached raises, and the exit status: 1
    when one of them has no reason."""
    out, status = [], 0
    for name, no, text in missing:
        reason = reasons.get(f"{name}: {text}")
        out.append(f"src/groupact/{name}:{no}: {text}"
                   + (f"  [{reason}]" if reason else "  [no reason]"))
        status |= reason is None
    return out, status


def _trace(files: dict[str, str], reached: set):
    """A settrace function that records (file name, line) in reached for the
    lines run in files, {code path: file name}."""

    def local(frame, event, arg):
        if event == "line":
            reached.add((files[frame.f_code.co_filename], frame.f_lineno))
        return local

    def watch(frame, event, arg):
        return local if frame.f_code.co_filename in files else None

    return watch


def main(argv: list[str]) -> int:
    sources = sorted(PACKAGE.glob("*.py"))
    raises = {p.name: raise_lines(p) for p in sources}
    files = {str(p): p.name for p in sources}
    reached: set = set()
    sys.path.insert(0, str(ROOT / "src"))
    args = ["-q", "-p", "no:cacheprovider", f"--rootdir={ROOT}", str(ROOT / "tests")]
    args += [f"--deselect={test}" for test in DESELECTED] + argv
    sys.settrace(_trace(files, reached))
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
    total = sum(map(len, raises.values()))
    missing = unreached(raises, reached)
    lines, unexplained = report(missing, REASONS)
    print(f"census: {total - len(missing)} of {total} raise statements in src/groupact reached; "
          f"deselected under the tracer: {', '.join(DESELECTED)}")
    for line in lines:
        print(line)
    if status != 0:
        print(f"census: the test run failed (pytest exit status {int(status)})")
    return 1 if status != 0 or unexplained else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
