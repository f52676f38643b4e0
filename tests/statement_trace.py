"""List the statements of the package that the test suite never runs.

Run from the root of a source checkout:

    PYTHONPATH=src python tests/statement_trace.py [pytest arguments]

It runs pytest in this process, with the tier-1 options and any extra
arguments, under a line tracer (`sys.settrace` and `threading.settrace`)
that records the lines executed in ``src/liegeom``.  Then it reads every
module there with `ast` and prints ``path:line: source`` for each statement
that never ran, and a count per module.  Docstrings, bare string statements
and the ``def`` and ``class`` lines themselves are left out; a compound
statement counts as run when a line of its header or its first body
statement ran.  Code run only in a subprocess (a few CLI tests start one)
is not traced, so the entry points are also run in this process, with
`runpy` (`test_cli.py::test_entry_points_run_as_main`).  A clean run lists
no statement: every module prints "0 statements never ran".  The exit
status is pytest's.  A run took 212 s on a shared 2-core machine, about 3.5
times the untraced suite (61 s).

The file name does not match pytest's ``test_*.py`` pattern, so the suite
does not collect it.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "liegeom"


def _tracer(executed: dict[str, set[int]]):
    """A global trace function that records, per module of the package,
    the line numbers of its 'line' events."""
    inside: dict[str, str | None] = {}  # co_filename -> module path or None

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in inside:
            path = os.path.realpath(name)
            inside[name] = path if Path(path).parent == PACKAGE else None
        path = inside[name]
        if path is None:
            return None
        lines = executed[path]

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    return trace


def _is_text(node: ast.stmt) -> bool:
    """A docstring or any other bare string constant: no code."""
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def never_run(source: str, lines: set[int]) -> list[int]:
    """The first lines of the statements of `source` with no executed line."""
    missed = []
    for node in ast.walk(ast.parse(source)):
        if (not isinstance(node, ast.stmt) or _is_text(node)
                or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
                                     ast.Global, ast.Nonlocal))):
            continue
        children = [c for c in ast.iter_child_nodes(node) if isinstance(c, ast.stmt)]
        if children:  # a compound statement: its header, or its first body statement
            span = set(range(node.lineno, max(node.lineno + 1, children[0].lineno)))
            span.add(children[0].lineno)
        else:
            span = set(range(node.lineno, node.end_lineno + 1))
        if not span & lines:
            missed.append(node.lineno)
    return sorted(missed)


def main(argv: list[str]) -> int:
    executed: dict[str, set[int]] = defaultdict(set)
    trace = _tracer(executed)
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider",
                              "--continue-on-collection-errors", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        missed = never_run(source, executed[str(path)])
        for line in missed:
            print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
        print(f"{path.relative_to(ROOT)}: {len(missed)} statements never ran")
        total += len(missed)
    print(f"total: {total} statements never ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
