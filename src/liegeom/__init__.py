"""Exact invariant geometry of low-dimensional metric Lie algebras.

The public surface: build a `MetricLieAlgebra` (directly, from the
catalog, or from the text format in `catalog`), then ask geometric
questions whose answers are exact in the deformation parameter.

Importing the package loads the exact modules that parsing needs
(`zring`, `scalars`, `solvers`, `algebra`, `catalog`).  The names of
`geometry` and `numeric`, and those two submodules, are resolved on first
use by the module `__getattr__` below (PEP 562), so a caller that only
parses does not compile them.
"""

import importlib
import types

from .algebra import MetricLieAlgebra, SingularMetric, Violation, vector_str
from .catalog import (
    CatalogEntry,
    ParseError,
    ReferenceNote,
    ValidationFailed,
    abelian_control,
    berger,
    catalog,
    dumps,
    load,
    loads,
)
from .scalars import (
    DivisionByZeroFunction,
    PoleAtEvaluationPoint,
    RatFunc,
    ScalarSyntaxError,
    EPS,
    parse_scalar,
)
from .solvers import (
    EigenDecomposition,
    EigenPair,
    ParametricSolution,
    eigen_analyze,
    solve_parametric,
)

__version__ = "0.1.0"

# name -> the submodule that defines it, imported on first use
_LAZY = {
    **dict.fromkeys((
        "geometry",
        "CaseAnalysisIncomplete",
        "EinsteinVerdict",
        "EnergyReport",
        "GeodesicClassification",
        "HarmonicityReport",
        "KillingVerdict",
        "LedgerReport",
        "SolitonVerdict",
        "WalkerVerdict",
        "einstein_check",
        "energy_report",
        "geodesic_classify",
        "harmonicity_classify",
        "killing_solve",
        "ledger_check",
        "ricci_soliton_solve",
        "solve_zero_set",
        "walker_check",
    ), "geometry"),
    **dict.fromkeys((
        "numeric",
        "NumericModel",
        "OutsideFloatRange",
        "SingularMetricAtPoint",
        "evaluate_numeric",
        "null_parallel_scan",
    ), "numeric"),
}


def __getattr__(name):
    try:
        module = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = importlib.import_module(f".{module}", __name__)
    if name != module:
        value = getattr(value, name)
    globals()[name] = value  # later lookups do not reach this hook
    return value


def __dir__():
    return sorted(globals().keys() | _LAZY.keys())


# the public surface is written once, above: the names of the eager imports
# and the lazy names that are not submodules
__all__ = [
    *(name for name, value in globals().items()
      if not name.startswith("_") and not isinstance(value, types.ModuleType)),
    *(name for name, module in _LAZY.items() if name != module),
    "__version__",
]
