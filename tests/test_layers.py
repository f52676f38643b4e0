"""The modules of `liegeom` import each other in one direction only:
scalars -> solvers -> algebra -> {catalog, numeric} -> geometry -> report
-> cli, read from the source with `ast`.  A module imports, at its top,
only modules earlier in that order, and no relative import runs inside a
function; `__init__` and `__main__` re-export and are exempt.  `__init__`
imports `scalars`, `solvers`, `algebra` and `catalog` at its top, and reaches
`geometry` and `numeric` only through its module `__getattr__`, by
`importlib`, on the first use of one of their names.

Every function, class and method of the package is named by its other
code, so `src/` holds only what the engine runs: a helper that only the
tests use lives in `tests/`.  `UNNAMED` lists the exceptions."""

import ast
from pathlib import Path

import liegeom

PACKAGE = Path(liegeom.__file__).resolve().parent
RANK = {"scalars": 0, "solvers": 1, "algebra": 2, "catalog": 3, "numeric": 3,
        "geometry": 4, "report": 5, "cli": 6}
EXEMPT = {"__init__", "__main__"}
# the definitions that no code of the package names, and why each stays
UNNAMED = {
    "MetricLieAlgebra.at_eps": "ROADMAP items 6 and 12 specialize through it",
    "MetricLieAlgebra.cov_ricci": "bench/tracer.py reads it from the class dict "
                                  "(test_bench_hooks.py); it leaves with ROADMAP item 4",
    "MetricLieAlgebra.transform_basis": "the basis-mixed benchmark and users call it",
}


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


def test_init_imports_only_the_exact_modules_at_its_top():
    # what `import liegeom` compiles: `geometry` and `numeric` load on first use
    top = {target for function, target in relative_imports(module_trees()["__init__"])
           if function is None}
    assert top == {"algebra", "catalog", "scalars", "solvers"}


def test_every_definition_is_named_by_the_package():
    # a name counts when the code of a module other than `__init__` reads
    # it (a variable, an attribute or an imported name): a re-export alone
    # runs nothing.  Dunder methods are called by the language.
    trees = module_trees()
    named = set()
    for module, tree in trees.items():
        if module != "__init__":
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    named.add(node.id)
                elif isinstance(node, ast.Attribute):
                    named.add(node.attr)
                elif isinstance(node, ast.alias):
                    named.add(node.name)
    defined = {}  # qualified name -> name
    for tree in trees.values():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[node.name] = node.name
            if isinstance(node, ast.ClassDef):
                defined.update((f"{node.name}.{m.name}", m.name)
                               for m in node.body if isinstance(m, ast.FunctionDef))
    unnamed = {qualname for qualname, name in defined.items()
               if name not in named and not (name.startswith("__") and name.endswith("__"))}
    assert unnamed == set(UNNAMED)
