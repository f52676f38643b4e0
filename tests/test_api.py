"""The public surface of `liegeom`, written out: a name that leaves or joins
`__all__` has to leave or join this list too."""

import ast
import dataclasses
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import liegeom

SRC = Path(__file__).resolve().parent.parent / "src"

PUBLIC_API = {
    # algebra and catalog
    "MetricLieAlgebra", "SingularMetric", "Violation", "vector_str",
    "CatalogEntry", "ParseError", "ReferenceNote", "ValidationFailed",
    "abelian_control", "berger", "catalog", "dumps", "load", "loads",
    # geometry
    "CaseAnalysisIncomplete", "EinsteinVerdict", "EnergyReport",
    "GeodesicClassification", "HarmonicityReport", "KillingVerdict",
    "LedgerReport", "SolitonVerdict", "WalkerVerdict", "einstein_check",
    "energy_report", "geodesic_classify", "harmonicity_classify",
    "killing_solve", "ledger_check", "ricci_soliton_solve", "solve_zero_set",
    "walker_check",
    # numeric
    "NumericModel", "OutsideFloatRange", "SingularMetricAtPoint", "evaluate_numeric",
    "null_parallel_scan",
    # scalars
    "DivisionByZeroFunction", "PoleAtEvaluationPoint", "RatFunc",
    "ScalarSyntaxError", "EPS", "parse_scalar",
    # solvers
    "EigenDecomposition", "EigenPair", "ParametricSolution", "eigen_analyze",
    "solve_parametric",
    "__version__",
}


def python(*args):
    """Run a Python subprocess that imports liegeom from this checkout's
    `src`, installed or not."""
    path = os.pathsep.join([str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_public_api_is_pinned():
    assert len(liegeom.__all__) == len(set(liegeom.__all__))
    assert set(liegeom.__all__) == PUBLIC_API
    # 53 until the four helpers that no code of the package called left:
    # `energy_density`, `geodesic_check`, `grad_norm_sq` and `scalar_str`
    assert len(PUBLIC_API) == 49


def test_init_writes_each_public_name_once():
    # `__all__` is built from the eager imports and the names of `_LAZY`,
    # so each public name is written once, as an imported name or as a
    # string; `__version__` is assigned, then listed, since `__all__` skips
    # the underscore names
    tree = ast.parse((SRC / "liegeom" / "__init__.py").read_text(encoding="utf-8"))
    written = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.alias):
            written[node.asname or node.name] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            written[node.value] += 1
    names = PUBLIC_API - {"__version__"}
    assert {name: written[name] for name in names} == dict.fromkeys(names, 1)


def test_every_public_name_imports():
    # a star import fails on a name in `__all__` that the package lacks
    namespace = {}
    exec("from liegeom import *", namespace)
    assert PUBLIC_API <= set(namespace)


def test_removed_names_stay_removed():
    # the dense and the sparse polynomial classes and the Fraction alias
    # left the package
    for name in ("Poly", "MultiPoly", "Rational"):
        assert not hasattr(liegeom, name)
        assert not hasattr(liegeom.scalars, name)
    # the copy of the rough Laplacian: `MetricLieAlgebra.rough_laplacian` owns it
    assert not hasattr(liegeom, "rough_laplacian")
    assert not hasattr(liegeom.geometry, "rough_laplacian")
    # helpers that only the tests used: the oracles among them moved to `tests/`
    for module, name in [(liegeom.geometry, "energy_density"), (liegeom.geometry, "geodesic_check"),
                         (liegeom.geometry, "grad_norm_sq"), (liegeom.scalars, "scalar_str")]:
        assert not hasattr(liegeom, name)
        assert not hasattr(module, name)
    for cls, name in [(liegeom.ParametricSolution, "branch_at"),
                      (liegeom.MetricLieAlgebra, "lie_derivative_metric"),
                      (liegeom.RatFunc, "check_invariants"),
                      (liegeom.NumericModel, "grad_norm_sq"),
                      (liegeom.NumericModel, "energy_density")]:
        assert not hasattr(cls, name)


def test_verdicts_hold_no_copy_of_the_spectrum():
    # L, its spectrum and the zero family belong to the algebra, and the
    # gradient Gram form of a family is -lam times its Gram form
    assert [f.name for f in dataclasses.fields(liegeom.HarmonicityReport)] == [
        "families", "parallel_basis"]
    assert "grad_gram" not in {f.name for f in dataclasses.fields(liegeom.geometry.FamilyEnergy)}


def test_dir_lists_every_public_name():
    # the names that `__getattr__` resolves on first use are listed too
    assert set(liegeom.__all__) <= set(dir(liegeom))


def test_unknown_name_is_an_attribute_error_that_names_it():
    with pytest.raises(AttributeError, match="has no attribute 'walker'"):
        liegeom.walker


# ---------------------------------------------------------------------------
# the lazily imported modules, each case in a fresh interpreter


def test_submodules_resolve_after_a_bare_import():
    # `geometry` and `numeric` are not imported by `import liegeom`; the
    # package still hands them out as attributes
    code = (
        "import liegeom\n"
        "assert liegeom.geometry.walker_check is liegeom.walker_check\n"
        "assert liegeom.numeric.evaluate_numeric is liegeom.evaluate_numeric\n"
    )
    proc = python("-c", code)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("first", [
    "import liegeom.catalog",
    "from liegeom.catalog import loads",
    "import liegeom; liegeom.walker_check",
])
def test_catalog_is_the_function_not_the_submodule(first):
    # the package exports a function `catalog` and has a submodule of that
    # name: whichever is imported first, the package attribute is the function
    code = (
        f"{first}\n"
        "import types, liegeom\n"
        "assert isinstance(liegeom.catalog, types.FunctionType), liegeom.catalog\n"
        "assert 'berger' in liegeom.catalog()\n"
        "from liegeom import catalog\n"
        "assert catalog is liegeom.catalog\n"
    )
    proc = python("-c", code)
    assert proc.returncode == 0, proc.stderr
