"""The modules of `liegeom` import each other in one direction only:
scalars -> solvers -> algebra -> {catalog, numeric} -> geometry -> report
-> cli, read from the source with `ast`.  A module imports, at its top,
only modules earlier in that order, and no relative import runs inside a
function; `__init__` and `__main__` re-export and are exempt."""

import ast
from pathlib import Path

import liegeom

PACKAGE = Path(liegeom.__file__).resolve().parent
RANK = {"scalars": 0, "solvers": 1, "algebra": 2, "catalog": 3, "numeric": 3,
        "geometry": 4, "report": 5, "cli": 6}
EXEMPT = {"__init__", "__main__"}


def relative_imports(tree):
    """(function, imported module) for every relative import, where the
    function is the qualified name of the enclosing function, or None for
    an import run at import time (module or class body)."""
    found = []

    def visit(node, qualname, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ImportFrom) and child.level:
                targets = [child.module] if child.module else [a.name for a in child.names]
                found.extend((function, target.split(".")[0]) for target in targets)
            elif isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{qualname}.{child.name}" if qualname else child.name
                visit(child, name, function if isinstance(child, ast.ClassDef) else name)
            else:
                visit(child, qualname, function)

    visit(tree, "", None)
    return found


def module_trees():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


def test_every_module_has_a_layer():
    assert set(module_trees()) - EXEMPT == set(RANK)


def test_imports_point_down_the_layers():
    lazy = []
    for module, tree in module_trees().items():
        if module in EXEMPT:
            continue
        for function, target in relative_imports(tree):
            if function is None:
                assert RANK[target] < RANK[module], f"{module} imports {target}"
            else:
                lazy.append((module, function, target))
    assert lazy == []
