"""The modules of `liegeom` import each other in one direction only:
scalars -> solvers -> algebra -> {catalog, numeric} -> geometry -> report
-> cli, read from the source with `ast`.  A module imports, at its top,
only modules earlier in that order, and no relative import runs inside a
function; `__init__` and `__main__` re-export and are exempt.  `__init__`
imports `scalars`, `solvers`, `algebra` and `catalog` at its top, and reaches
`geometry` and `numeric` only through its module `__getattr__`, by
`importlib`, on the first use of one of their names.

Every function, class and method of the package is read by its other
code, so `src/` holds only what the engine runs: a helper that only the
tests use lives in `tests/`.  A name counts only where code reads it (in
`Load` context, or imported by name), and not as the attribute of a library
bound by a plain `import`, so neither a field annotation nor `json.dumps`
stands in for a definition of the same name.  `UNNAMED` lists the
exceptions.

Only `algebra` decides whether data is a metric Lie algebra: the
`MetricLieAlgebra` constructor runs `validate` once, and no other module
calls it or defines a second way into the check."""

import ast
from pathlib import Path

import liegeom

PACKAGE = Path(liegeom.__file__).resolve().parent
RANK = {"scalars": 0, "solvers": 1, "algebra": 2, "catalog": 3, "numeric": 3,
        "geometry": 4, "report": 5, "cli": 6}
EXEMPT = {"__init__", "__main__"}
# the definitions that no code of the package reads, and why each stays
UNNAMED = {
    "MetricLieAlgebra.at_eps": "ROADMAP items 6 and 12 specialize through it",
    "MetricLieAlgebra.cov_ricci": "bench/tracer.py reads it from the class dict "
                                  "(test_bench_hooks.py); it leaves with ROADMAP item 4",
    "MetricLieAlgebra.cov_curvature": "bench/tracer.py wraps it in the class dict "
                                      "(test_bench_hooks.py), and the tests compare it with "
                                      "the reference nabla R; the Ledger reads l5 off the "
                                      "Jacobi operator instead",
    "MetricLieAlgebra.transform_basis": "the basis-mixed benchmark and users call it",
    "dumps": "catalog.dumps: the basis-mixed benchmark (bench/run.py, build_ops) writes "
             "its mixed texts with it, and users round-trip loads(dumps(a))",
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


def unnamed_definitions(trees):
    """The qualified names of the top-level functions and classes, and of
    their methods, that no code of a module other than `__init__` reads.

    A name counts where that code reads it: a variable or an attribute in
    `Load` context, or a name imported from a module.  A re-export alone
    runs nothing, and a field annotation or an assignment reads nothing.  An
    attribute of a name bound by a plain `import` (`json.dumps`, `np.zeros`)
    belongs to another library, so it does not count either.  Dunder
    methods are called by the language."""
    named = set()
    for module, tree in trees.items():
        if module == "__init__":
            continue
        libraries = {alias.asname or alias.name.split(".")[0]
                     for node in ast.walk(tree) if isinstance(node, ast.Import)
                     for alias in node.names}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                named.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                if not (isinstance(node.value, ast.Name) and node.value.id in libraries):
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
    return {qualname for qualname, name in defined.items()
            if name not in named and not (name.startswith("__") and name.endswith("__"))}


def test_the_guard_counts_only_reads():
    # a dead method hidden by a field annotation of its name, and a dead
    # function hidden by a library attribute of its name
    source = """
import json

class Model:
    nabla: float

class Algebra:
    def nabla(self, u, v):
        return u

def dumps(doc):
    return str(doc)

def main(doc):
    model = Model()
    model.nabla = 0.0
    print(json.dumps(doc), model, Algebra())

if __name__ == "__main__":
    main({})
"""
    assert unnamed_definitions({"lib": ast.parse(source)}) == {"Algebra.nabla", "dumps"}


def test_every_definition_is_named_by_the_package():
    assert unnamed_definitions(module_trees()) == set(UNNAMED)


def test_only_algebra_decides_validity():
    # the `MetricLieAlgebra` constructor checks its data once: no other
    # module calls `validate`, and no second way into the check is defined
    calls, defined = [], []
    for module, tree in module_trees().items():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "validate" and module != "algebra"):
                calls.append(f"{module}:{node.lineno}")
            elif (isinstance(node, ast.FunctionDef)
                  and node.name in ("require_valid", "_violations")):
                defined.append(f"{module}.{node.name}")
    assert (calls, defined) == ([], [])
