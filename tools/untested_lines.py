"""List the statements of the `mangeron` package that the tests never run.

    python tools/untested_lines.py [PYTEST_ARGS...]

Runs pytest in this process, on the tier-1 test paths by default, with a
line tracer set by `sys.settrace` and `threading.settrace`, and prints each
statement of `src/mangeron` that no traced line reached, as
`path:first-last  text of its first line`, then a count.  Docstrings are not
statements here.  A statement counts as run when any line of it ran; for a
compound statement (`if`, `for`, `def`, ...) only its header lines count.

Only this process is traced: a test that runs the package in a subprocess,
such as the CLI's out-of-memory test or a fresh-interpreter import check,
adds nothing, so a statement that only such a test reaches is listed.

Uses the standard library and pytest only.  The exit code is pytest's when
the tests fail, else 0.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mangeron"


def statements(path: Path) -> list[tuple[int, int]]:
    """(first line, last line) of every statement in a source file, its
    docstrings left out; a compound statement spans its header only."""
    tree = ast.parse(path.read_text(), str(path))
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.add(first)
    spans = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or node in docstrings:
            continue
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if isinstance(body, list) and body else node.end_lineno
        spans.append((node.lineno, max(node.lineno, last)))
    return sorted(spans)


def main(argv: list[str]) -> int:
    import pytest

    prefix = str(PACKAGE) + os.sep
    hits: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        # only frames of the package get a line tracer; the rest run untraced
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        hits.setdefault(name, set())
        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "--rootdir", str(ROOT),
                            *(argv or [str(ROOT / "tests"), str(ROOT / "perfbench")])])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        ran = hits.get(str(path), set())
        lines = path.read_text().splitlines()
        for first, last in statements(path):
            total += 1
            if not any(k in ran for k in range(first, last + 1)):
                missed += 1
                where = f"{first}" if first == last else f"{first}-{last}"
                print(f"{path.relative_to(ROOT)}:{where}  {lines[first - 1].strip()}")
    print(f"{missed} of {total} statements never ran (in-process tests only)")
    return int(code) if code else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
